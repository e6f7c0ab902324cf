"""Property-based tests for the delay-defense core (hypothesis)."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import analysis
from repro.core.delay_policy import PopularityDelayPolicy
from repro.core.popularity import PopularityTracker
from repro.experiments.count_stores import SpaceSavingStore

keys = st.integers(min_value=0, max_value=20)
alphas = st.floats(min_value=0.1, max_value=3.0, allow_nan=False)
small_alphas = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)


class TestTrackerInvariants:
    @given(st.lists(keys, min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_no_decay_popularity_sums_to_one(self, stream):
        tracker = PopularityTracker()
        tracker.record_many(stream)
        total = sum(
            tracker.popularity(key) for key in set(stream)
        )
        assert total == pytest.approx(1.0)

    @given(
        st.lists(keys, min_size=1, max_size=200),
        st.floats(min_value=1.0, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_decayed_popularity_sums_to_one(self, stream, decay):
        tracker = PopularityTracker(decay_rate=decay, rescale_threshold=1e50)
        tracker.record_many(stream)
        total = sum(
            tracker.popularity(key, "decayed") for key in set(stream)
        )
        assert total == pytest.approx(1.0)

    @given(
        st.lists(keys, min_size=5, max_size=300),
        st.floats(min_value=1.0, max_value=1.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_rescaling_is_invisible(self, stream, decay):
        """Aggressive rescaling must not change popularity estimates."""
        stable = PopularityTracker(decay_rate=decay, rescale_threshold=1e100)
        twitchy = PopularityTracker(decay_rate=decay, rescale_threshold=10.0)
        stable.record_many(stream)
        twitchy.record_many(stream)
        for key in set(stream):
            assert twitchy.popularity(key, "decayed") == pytest.approx(
                stable.popularity(key, "decayed"), rel=1e-6
            )
            assert twitchy.popularity(key, "raw") == pytest.approx(
                stable.popularity(key, "raw"), rel=1e-6
            )

    @given(st.lists(keys, min_size=1, max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_ranks_are_a_permutation(self, stream):
        tracker = PopularityTracker(rank_refresh=1)
        tracker.record_many(stream)
        distinct = set(stream)
        ranks = {tracker.rank(key) for key in distinct}
        assert ranks == set(range(1, len(distinct) + 1))

    @given(st.lists(keys, min_size=1, max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_rank_agrees_with_count_order(self, stream):
        tracker = PopularityTracker(rank_refresh=1)
        tracker.record_many(stream)
        snapshot = tracker.snapshot()
        for earlier, later in zip(snapshot, snapshot[1:]):
            assert earlier[1] >= later[1]


class TestPolicyInvariants:
    @given(st.lists(keys, min_size=1, max_size=200),
           st.floats(min_value=0.5, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_delay_never_exceeds_cap(self, stream, cap):
        tracker = PopularityTracker()
        tracker.record_many(stream)
        policy = PopularityDelayPolicy(tracker, population=50, cap=cap)
        for key in range(25):
            assert 0 < policy.delay_for(key) <= cap

    @given(st.lists(keys, min_size=2, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_delay_antitone_in_popularity(self, stream):
        tracker = PopularityTracker()
        tracker.record_many(stream)
        policy = PopularityDelayPolicy(tracker, population=50, cap=1e9)
        observed = sorted(
            (tracker.popularity(key), policy.delay_for(key))
            for key in set(stream)
        )
        for (p1, d1), (p2, d2) in zip(observed, observed[1:]):
            if p1 < p2:
                assert d1 >= d2


class TestAnalysisInvariants:
    @given(alphas, st.integers(min_value=2, max_value=5000))
    @settings(max_examples=60, deadline=None)
    def test_median_rank_in_range(self, alpha, n):
        m = analysis.median_rank(n, alpha)
        assert 1 <= m <= n

    @given(alphas, st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_staleness_bounds(self, alpha, c):
        s = analysis.staleness_fraction(c, alpha)
        assert 0.0 <= s <= 1.0

    @given(
        st.integers(min_value=10, max_value=2000),
        st.floats(min_value=0.01, max_value=1.0),
        alphas,
        st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_capped_total_at_most_uncapped_and_bounded(
        self, n, fmax, alpha, cap
    ):
        capped = analysis.total_extraction_delay(n, fmax, alpha, cap=cap)
        uncapped = analysis.total_extraction_delay(n, fmax, alpha)
        assert capped <= uncapped + 1e-9
        assert capped <= n * cap + 1e-9

    @given(
        st.integers(min_value=10, max_value=1000),
        st.floats(min_value=0.05, max_value=1.0),
        alphas,
    )
    @settings(max_examples=40, deadline=None)
    def test_delay_monotone_in_rank(self, n, fmax, alpha):
        previous = 0.0
        for rank in range(1, min(n, 30) + 1):
            delay = analysis.popularity_delay(rank, n, fmax, alpha)
            assert delay >= previous
            previous = delay

    @given(st.floats(min_value=0.05, max_value=0.99), alphas)
    @settings(max_examples=60, deadline=None)
    def test_required_c_round_trips(self, target, alpha):
        c = analysis.required_c_for_staleness(target, alpha)
        assert analysis.staleness_fraction(c, alpha) == pytest.approx(
            target, rel=1e-6
        )


class TestSpaceSavingInvariants:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=100), min_size=1, max_size=400
        ),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_error_bound(self, stream, capacity):
        store = SpaceSavingStore(capacity=capacity)
        truth = {}
        for key in stream:
            store.add(key)
            truth[key] = truth.get(key, 0) + 1
        bound = len(stream) / capacity
        for key, estimate in store.items():
            true = truth.get(key, 0)
            assert true <= estimate <= true + bound + 1e-9

    @given(
        st.lists(
            st.integers(min_value=0, max_value=100), min_size=1, max_size=400
        ),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_capacity_never_exceeded(self, stream, capacity):
        store = SpaceSavingStore(capacity=capacity)
        for key in stream:
            store.add(key)
        assert len(store) <= capacity
