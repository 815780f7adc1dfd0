"""The simulator runs on the standard library plus networkx.

A campaign and its full report must not pull numpy into the process:
nothing on the simulation or analysis path needs it, and importing it
costs every campaign process about 14 MB of resident memory.  The check
runs in a fresh interpreter so imports made by other tests in this
session cannot mask (or fake) a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import sys

import repro.cli
import repro.scenario.report
import repro.scenario.run
from repro.scenario.config import ScenarioConfig
from repro.scenario.report import full_report
from repro.scenario.run import run_campaign
from repro.world.profiles import WorldProfile

result = run_campaign(
    ScenarioConfig(
        profile=WorldProfile(online_servers=100, seed=5),
        days=1,
        warmup_days=0,
        daily_cid_sample=20,
        provider_fetch_days=1,
        gateway_probes_per_endpoint=1,
        seed=5,
    )
)
assert full_report(result)
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
print("numpy" in sys.modules, len(loaded))
"""


def test_campaign_and_report_do_not_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["False", "0"]
