"""The sketch substrate honours its declared accuracy contracts.

Each sketch in :mod:`repro.obs.sketch` states a bound — Space-Saving
``error <= total / capacity``, quantile rank error within ``epsilon``,
linear-counting estimates near the true cardinality — and this module
pins them against brute-force references, across distributions, merge
plans and JSON state round-trips.
"""

from __future__ import annotations

import bisect
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.sketch import (
    LinearCounter,
    QuantileSketch,
    SpaceSaving,
    _fraction_label,
)


# ---------------------------------------------------------------------------
# Space-Saving
# ---------------------------------------------------------------------------

keys = st.integers(min_value=0, max_value=60).map(lambda i: f"k{i}")


class TestSpaceSaving:
    def test_exact_while_under_capacity(self):
        sketch = SpaceSaving(capacity=64)
        stream = [f"k{i % 10}" for i in range(1000)]
        for key in stream:
            sketch.update(key)
        truth = Counter(stream)
        for key, count in truth.items():
            assert sketch.count(key) == count
            assert sketch.error(key) == 0
        assert sketch.total == len(stream)

    def test_top_ordering_and_top_sum(self):
        sketch = SpaceSaving(capacity=16)
        for key, amount in [("a", 5), ("b", 9), ("c", 9), ("d", 1)]:
            sketch.update(key, amount)
        top = sketch.top(3)
        assert [entry[0] for entry in top] == ["b", "c", "a"]
        assert sketch.top_sum(2) == 18

    @settings(max_examples=60, deadline=None)
    @given(stream=st.lists(keys, min_size=1, max_size=400))
    def test_error_bound_vs_brute_force(self, stream):
        """The classic Space-Saving guarantee on an over-full summary."""
        sketch = SpaceSaving(capacity=8)
        for key in stream:
            sketch.update(key)
        truth = Counter(stream)
        assert sketch.total == len(stream)
        bound = sketch.max_error
        for key, true_count in truth.items():
            estimate = sketch.count(key)
            if estimate:
                # Tracked keys: overestimate, with a per-key error bound.
                assert true_count <= estimate
                assert estimate - sketch.error(key) <= true_count
            # Every key (tracked or evicted) stays inside total/capacity.
            assert abs(estimate - true_count) <= bound + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.lists(keys, min_size=1, max_size=200),
        right=st.lists(keys, min_size=1, max_size=200),
    )
    def test_merge_keeps_error_bound(self, left, right):
        """The parallel-Space-Saving merge invariants: tracked keys stay
        overestimates inside their per-key error (itself inside
        ``total/capacity``); an evicted key's true count cannot exceed
        twice that bound."""
        a = SpaceSaving(capacity=8)
        b = SpaceSaving(capacity=8)
        for key in left:
            a.update(key)
        for key in right:
            b.update(key)
        a.merge(b)
        truth = Counter(left) + Counter(right)
        assert a.total == len(left) + len(right)
        bound = a.max_error
        for key, true_count in truth.items():
            estimate = a.count(key)
            if estimate:
                assert true_count <= estimate
                error = a.error(key)
                assert estimate - error <= true_count
                assert error <= bound + 1e-9
            else:
                assert true_count <= 2 * bound + 1e-9

    def test_merge_is_deterministic(self):
        def build(parts):
            merged = SpaceSaving(capacity=8)
            for part in parts:
                merged.merge(part)
            return merged.to_state()

        rng = random.Random(5)
        parts = []
        for _ in range(4):
            sketch = SpaceSaving(capacity=8)
            for _ in range(300):
                sketch.update(f"k{rng.randrange(40)}")
            parts.append(sketch)
        assert build(parts) == build(parts)

    def test_state_round_trips_through_json(self):
        sketch = SpaceSaving(capacity=4)
        for key in ["a", "b", "c", "d", "e", "a", "a", "e"]:
            sketch.update(key)
        state = json.loads(json.dumps(sketch.to_state()))
        restored = SpaceSaving.from_state(state)
        assert restored.to_state() == sketch.to_state()
        assert restored.top(4) == sketch.top(4)
        # The restored summary keeps evicting correctly.
        restored.update("f")
        assert restored.total == sketch.total + 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            SpaceSaving(capacity=0)


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


# ---------------------------------------------------------------------------
# LinearCounter
# ---------------------------------------------------------------------------


class TestLinearCounter:
    @pytest.mark.parametrize("distinct", [10, 500, 5000])
    def test_estimate_accuracy(self, distinct):
        counter = LinearCounter(1 << 15)
        for index in range(distinct):
            counter.update(f"key-{index}")
        # Duplicates never move the estimate.
        for index in range(0, distinct, 3):
            counter.update(f"key-{index}")
        assert counter.estimate() == pytest.approx(distinct, rel=0.05)
        assert not counter.saturated

    def test_merge_is_union(self):
        a = LinearCounter(1 << 12)
        b = LinearCounter(1 << 12)
        for index in range(300):
            a.update(f"key-{index}")
        for index in range(200, 500):
            b.update(f"key-{index}")
        a.merge(b)
        assert a.estimate() == pytest.approx(500, rel=0.08)

    def test_merge_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearCounter(1 << 12).merge(LinearCounter(1 << 13))

    @pytest.mark.parametrize("fill", ["empty", "random", "saturated"])
    def test_set_bit_count_matches_per_byte_count(self, fill):
        counter = LinearCounter(1 << 12)
        if fill == "random":
            counter._map = bytearray(random.Random(3).randbytes(len(counter._map)))
        elif fill == "saturated":
            counter._map = bytearray(b"\xff" * len(counter._map))
        expected = sum(bin(byte).count("1") for byte in counter._map)
        assert counter._ones() == expected
        assert counter.saturated == (fill == "saturated")

    def test_state_round_trips_through_json(self):
        counter = LinearCounter(1 << 10)
        for index in range(100):
            counter.update(f"key-{index}")
        restored = LinearCounter.from_state(json.loads(json.dumps(counter.to_state())))
        assert restored.estimate() == counter.estimate()

    def test_hashing_is_stable_not_pythonhash(self):
        """Same keys, fresh counters, identical bitmaps — BLAKE2b, so
        PYTHONHASHSEED cannot reach the estimate."""
        a, b = LinearCounter(1 << 10), LinearCounter(1 << 10)
        for index in range(64):
            a.update(f"key-{index}")
            b.update(f"key-{index}")
        assert a.to_state() == b.to_state()

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            LinearCounter(32)
        with pytest.raises(ValueError):
            LinearCounter(100)

