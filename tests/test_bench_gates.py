"""The micro-benchmark regression gates never overwrite their baseline.

Each harness defaults ``--out`` to its committed ``BENCH_*.json``; a
``--check`` run must not write the file it compares against, so naming
the baseline as ``--out`` too is a usage error (exit 2) caught before
anything is timed.
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize(
    "script",
    [
        "bench_core_hotpaths.py",
        "bench_obs_overhead.py",
        "bench_obs_stream.py",
        "bench_workload.py",
    ],
)
def test_check_refuses_to_overwrite_its_baseline(script, tmp_path):
    baseline = tmp_path / "BENCH.json"
    baseline.write_text("{}\n")
    run = subprocess.run(
        [sys.executable, str(BENCHMARKS / script), "--out", str(baseline),
         "--check", str(tmp_path / "." / "BENCH.json")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 2, run.stdout + run.stderr
    assert "--check baseline" in run.stderr
    assert baseline.read_text() == "{}\n"
    assert run.stdout == ""  # nothing was timed
