"""The quantile sketch honours its declared accuracy contract.

:class:`repro.obs.sketch.QuantileSketch` states a bound — rank error
within ``epsilon`` — and this module pins it against brute-force
references, across distributions, merge plans and JSON state
round-trips.
"""

from __future__ import annotations

import bisect
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.sketch import QuantileSketch, _fraction_label


# ---------------------------------------------------------------------------
# QuantileSketch
# ---------------------------------------------------------------------------


def max_rank_error(values, sketch, fractions=None) -> float:
    """Worst observed rank error of the sketch's quantile answers, as a
    fraction of the stream length (0 when the answer's true rank range
    covers the target rank)."""
    ordered = sorted(values)
    n = len(ordered)
    fractions = fractions or [i / 100 for i in range(1, 100)]
    worst = 0.0
    for fraction in fractions:
        answer = sketch.quantile(fraction)
        low = bisect.bisect_left(ordered, answer)
        high = bisect.bisect_right(ordered, answer)
        target = fraction * n
        if low <= target <= high:
            continue
        worst = max(worst, min(abs(low - target), abs(high - target)) / n)
    return worst


class TestQuantileSketch:
    @pytest.mark.parametrize(
        "name",
        ["uniform", "zipf", "sorted", "reverse_sorted", "constant"],
    )
    def test_rank_error_within_declared_epsilon(self, name):
        rng = random.Random(7)
        values = {
            "uniform": lambda: [rng.random() for _ in range(30000)],
            "zipf": lambda: [rng.paretovariate(1.1) for _ in range(30000)],
            "sorted": lambda: sorted(rng.random() for _ in range(20000)),
            "reverse_sorted": lambda: sorted(
                (rng.random() for _ in range(20000)), reverse=True
            ),
            "constant": lambda: [3.0] * 10000,
        }[name]()
        sketch = QuantileSketch(256)
        for value in values:
            sketch.update(value)
        assert len(sketch) == len(values)
        assert max_rank_error(values, sketch) <= sketch.epsilon

    def test_exact_while_uncompressed(self):
        sketch = QuantileSketch(256)
        values = list(range(100))
        for value in values:
            sketch.update(float(value))
        assert sketch.quantile(0.5) == 49.0
        assert sketch.rank(49.0) == 50
        assert sketch.cdf(99.0) == 1.0

    def test_quantiles_batch_matches_pointwise(self):
        rng = random.Random(3)
        sketch = QuantileSketch(64)
        for _ in range(5000):
            sketch.update(rng.random())
        batch = sketch.quantiles((0.5, 0.9, 0.99))
        assert set(batch) == {"p50", "p90", "p99"}
        for fraction, label in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
            assert batch[label] == pytest.approx(sketch.quantile(fraction), abs=0.02)

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=600,
        )
    )
    def test_rank_error_bound_property(self, values):
        sketch = QuantileSketch(64)
        for value in values:
            sketch.update(value)
        assert max_rank_error(values, sketch) <= sketch.epsilon

    def test_merge_error_stays_within_epsilon(self):
        rng = random.Random(11)
        values = [rng.paretovariate(1.2) for _ in range(40000)]
        parts = [QuantileSketch(256) for _ in range(4)]
        for index, value in enumerate(values):
            parts[index % 4].update(value)
        merged = QuantileSketch(256)
        for part in parts:
            merged.merge(part)
        assert merged.n == len(values)
        assert max_rank_error(values, merged) <= merged.epsilon

    def test_merge_in_fixed_order_is_deterministic(self):
        """Crawl-ordered merging: the same parts folded in the same order
        always produce bit-identical state (the cross-worker contract)."""
        rng = random.Random(13)
        streams = [
            [rng.random() for _ in range(2000)] for _ in range(4)
        ]

        def build():
            parts = []
            for stream in streams:
                sketch = QuantileSketch(64)
                for value in stream:
                    sketch.update(value)
                parts.append(sketch.to_state())
            merged = QuantileSketch(64)
            for state in parts:
                merged.merge(QuantileSketch.from_state(state))
            return merged.to_state()

        assert build() == build()

    def test_update_sequence_determinism(self):
        """No RNG anywhere: same updates, same state."""
        rng_values = [random.Random(17).random() for _ in range(5000)]

        def build():
            sketch = QuantileSketch(64)
            for value in rng_values:
                sketch.update(value)
            return sketch.to_state()

        assert build() == build()

    def test_state_round_trips_through_json(self):
        sketch = QuantileSketch(64)
        for value in range(3000):
            sketch.update(float(value % 97))
        restored = QuantileSketch.from_state(json.loads(json.dumps(sketch.to_state())))
        assert restored.to_state() == sketch.to_state()
        assert restored.quantile(0.5) == sketch.quantile(0.5)

    def test_rejects_bad_fraction_and_small_k(self):
        sketch = QuantileSketch(64)
        sketch.update(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(0.0)
        with pytest.raises(ValueError):
            sketch.quantiles((1.5,))
        with pytest.raises(ValueError):
            QuantileSketch(4)

    def test_fraction_labels(self):
        assert _fraction_label(0.5) == "p50"
        assert _fraction_label(0.99) == "p99"
        assert _fraction_label(0.999) == "p99.9"
