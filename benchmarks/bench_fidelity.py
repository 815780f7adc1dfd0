"""Paper fidelity at bench scale: every row of the table must hold.

Scores the shared bench and paper-horizon campaigns (``conftest.py``)
against :data:`repro.scenario.fidelity.ROWS` and prints the scorecard
(``-s`` shows it).  Needs no pytest-benchmark:

    PYTHONPATH=src python -m pytest benchmarks/bench_fidelity.py -q
"""

from repro.scenario.fidelity import BENCH, HORIZON, render, score


def _assert_all_hold(scores):
    print(f"\n{render(scores)}")
    misses = [entry for entry in scores if not entry.passed]
    assert not misses, f"rows outside their bounds:\n{render(misses)}"


def test_bench_rows(campaign):
    _assert_all_hold(score(campaign, BENCH))


def test_horizon_rows(horizon_campaign):
    _assert_all_hold(score(horizon_campaign, HORIZON))
