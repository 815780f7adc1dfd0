"""The paper-fidelity table: its comparisons, and the smoke rung's misses."""

import math

import pytest

from repro.scenario.fidelity import (
    BENCH,
    HORIZON,
    ROWS,
    WITHIN,
    Row,
    Score,
    _lead,
    _ranked,
    _ratio,
    evaluate,
    render,
    score,
)

#: Rows that miss at the smoke rung (ScenarioConfig.smoke() plus
#: paper_horizon(150)) and hold at bench scale (bench_fidelity.py).  Each
#: is scale drift, kept exact here so that a new miss fails this test and
#: a fixed one has to be taken off the list.
KNOWN_MISSES = (
    # A 3-day window: CIDs requested on every one of its days outnumber
    # the 1-day ones.
    "F9.cid_days_mode_is_1",
    # At 400 servers Bitswap's cloud share nears the DHT's (0.72 vs 0.80).
    "F11.dht_minus_bitswap_cloud",
    "F11.bitswap_cloud",
    # Eight probes per endpoint find 41 of the 119 gateway overlay IDs,
    # and amazon-aws edges out cloudflare among them.
    "F18.overlay_cloudflare_leads",
    "S3g.overlay_ids",
)


def _row(op, bound=0.5, paper=None):
    return Row("T.x", BENCH, lambda report: report["x"], op, bound, paper)


@pytest.mark.parametrize(
    "op, below, equal, above",
    [
        ("<", True, False, False),
        ("<=", True, True, False),
        (">", False, False, True),
        (">=", False, True, True),
        ("==", False, True, False),
    ],
)
def test_comparison_below_at_and_above_the_bound(op, below, equal, above):
    row = _row(op)
    assert [row.holds(v) for v in (0.25, 0.5, 0.75)] == [below, equal, above]
    assert not row.holds(math.nan)


def test_within_is_strict_around_the_paper_value():
    row = _row(WITHIN, bound=0.25, paper=0.5)
    assert row.holds(0.5) and row.holds(0.375) and row.holds(0.625)
    assert not row.holds(0.25) and not row.holds(0.75)
    assert not row.holds(math.nan)


@pytest.mark.parametrize(
    "campaign, op, paper", [("smoke", "<", None), (BENCH, "!=", None), (BENCH, WITHIN, None)]
)
def test_malformed_rows_are_rejected(campaign, op, paper):
    with pytest.raises(ValueError):
        Row("T.x", campaign, lambda report: 0.0, op, 0.5, paper)


def test_row_ids_are_unique():
    ids = [row.id for row in ROWS]
    assert len(ids) == len(set(ids))


def test_ties_fail_a_strict_ranking():
    tied = {"a": 0.5, "b": 0.5, "c": 0.25}
    assert _ranked(tied, "a") == 0.0 and _ranked(tied, "a", "b") == 0.0
    assert _ranked(tied, "c") < 0
    assert _lead(tied, "c", "b") == 0.0 and _lead(tied, "a", "b") == 0.25
    assert _ranked({"a": 0.5, "b": 0.375, "c": 0.125}, "a", "b") == 0.125
    with pytest.raises(ValueError):
        _ranked({}, "a")


def test_ratio_agrees_with_the_product_form_at_zero():
    assert _ratio(1.0, 4.0) == 0.25
    assert _ratio(0.3, 0.0) == math.inf
    assert math.isnan(_ratio(0.0, 0.0))


def test_missing_numbers_fail_instead_of_raising():
    scores = evaluate({}, BENCH, HORIZON)
    assert len(scores) == len(ROWS)
    assert all(math.isnan(entry.measured) and not entry.passed for entry in scores)


def test_a_miss_reports_its_measured_value_and_bound():
    text = render([Score(_row("<", bound=0.12), 0.2), Score(_row(WITHIN, 0.08, 0.796), 0.7)])
    lines = text.splitlines()
    assert lines[2] == "| T.x | bench | 0.200 | < 0.12 |  | MISS |"
    assert lines[3] == "| T.x | bench | 0.700 | ±0.08 | 0.796 | MISS |"


def test_smoke_rung_misses_exactly_the_known_rows(smoke_campaign, horizon_campaign):
    scores = score(smoke_campaign, BENCH) + score(horizon_campaign, HORIZON)
    misses = {entry.row.id for entry in scores if not entry.passed}
    changed = [entry for entry in scores if (entry.row.id in misses) != (entry.row.id in KNOWN_MISSES)]
    assert misses == set(KNOWN_MISSES), f"new misses or fixed rows:\n{render(changed)}"
