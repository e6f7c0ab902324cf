"""Tests for the popularity tracker (§2.3 learning machinery)."""

import math

import pytest

from repro.core.errors import ConfigError
from repro.core.popularity import AdaptiveTracker, PopularityTracker
from repro.experiments.count_stores import SpaceSavingStore


class TestBasicCounting:
    def test_no_decay_popularity_is_relative_frequency(self):
        tracker = PopularityTracker()
        for _ in range(3):
            tracker.record("a")
        tracker.record("b")
        assert tracker.popularity("a") == pytest.approx(0.75)
        assert tracker.popularity("b") == pytest.approx(0.25)

    def test_unseen_key_zero(self):
        tracker = PopularityTracker()
        tracker.record("a")
        assert tracker.popularity("zzz") == 0.0

    def test_empty_tracker_zero(self):
        assert PopularityTracker().popularity("a") == 0.0

    def test_total_requests(self):
        tracker = PopularityTracker()
        tracker.record_many(["a", "b", "a"])
        assert tracker.total_requests == 3

    def test_weight_batches(self):
        tracker = PopularityTracker()
        tracker.record("a", weight=5.0)
        tracker.record("b", weight=5.0)
        assert tracker.popularity("a") == pytest.approx(0.5)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigError):
            PopularityTracker().record("a", weight=0)

    def test_present_count_matches_raw_without_decay(self):
        tracker = PopularityTracker()
        for _ in range(7):
            tracker.record("a")
        assert tracker.present_count("a") == pytest.approx(7.0)


class TestDecay:
    def test_decay_prefers_recent_keys(self):
        tracker = PopularityTracker(decay_rate=1.1)
        for _ in range(100):
            tracker.record("old")
        for _ in range(20):
            tracker.record("new")
        # Despite fewer accesses, 'new' dominates the decayed view.
        assert tracker.popularity("new", "decayed") > tracker.popularity(
            "old", "decayed"
        )

    def test_no_decay_keeps_history_dominant(self):
        tracker = PopularityTracker(decay_rate=1.0)
        for _ in range(100):
            tracker.record("old")
        for _ in range(20):
            tracker.record("new")
        assert tracker.popularity("old") > tracker.popularity("new")

    def test_raw_mode_shrinks_with_decay(self):
        """The paper normalisation: decayed count over raw total."""
        no_decay = PopularityTracker(decay_rate=1.0)
        decayed = PopularityTracker(decay_rate=1.01)
        for _ in range(500):
            no_decay.record("a")
            decayed.record("a")
        assert decayed.popularity("a", "raw") < no_decay.popularity("a", "raw")

    def test_decayed_mode_is_proper_probability(self):
        tracker = PopularityTracker(decay_rate=1.05)
        for key in ["a", "b", "a", "c", "a"]:
            tracker.record(key)
        total = sum(
            tracker.popularity(key, "decayed") for key in ["a", "b", "c"]
        )
        assert total == pytest.approx(1.0)

    def test_decay_rate_below_one_rejected(self):
        with pytest.raises(ConfigError):
            PopularityTracker(decay_rate=0.9)

    def test_unknown_mode_rejected(self):
        tracker = PopularityTracker()
        tracker.record("a")
        with pytest.raises(ConfigError):
            tracker.popularity("a", "bogus")

    def test_unknown_mode_rejected_for_cold_keys_and_empty_trackers(self):
        # The cold-key early return used to come before the mode check,
        # so a typo'd mode priced every unseen tuple as "popularity 0".
        tracker = PopularityTracker()
        many = [f"k{i}" for i in range(100)]
        for _ in range(2):  # empty tracker, then one with other keys
            with pytest.raises(ConfigError):
                tracker.popularity("unseen", "bogus")
            with pytest.raises(ConfigError):
                tracker.popularity_many(["unseen"], "bogus")
            with pytest.raises(ConfigError):
                tracker.popularity_many(many, "bogus")
            with pytest.raises(ConfigError):
                tracker.max_popularity("bogus")
            tracker.record("a")


class TestRescaling:
    def test_rescale_triggers_and_preserves_ratios(self):
        tracker = PopularityTracker(decay_rate=2.0, rescale_threshold=1e6)
        for _ in range(10):
            tracker.record("a")
        for _ in range(30):
            tracker.record("b")
        assert tracker.rescales >= 1
        # b should utterly dominate after 30 recent accesses at decay 2.
        assert tracker.popularity("b", "decayed") > 0.99

    def test_rescale_keeps_popularity_continuous(self):
        tracker = PopularityTracker(decay_rate=1.5, rescale_threshold=100.0)
        history = []
        for index in range(50):
            tracker.record("a" if index % 2 else "b")
            history.append(tracker.popularity("a", "decayed"))
        # Alternating accesses with decay: popularity stays in a stable
        # band; a rescale bug would produce a jump toward 0 or 1.
        for value in history[10:]:
            assert 0.3 < value < 0.8

    def test_explicit_apply_decay(self):
        tracker = PopularityTracker()
        for _ in range(100):
            tracker.record("old")
        tracker.apply_decay(100.0)
        tracker.record("new")
        assert tracker.popularity("new", "decayed") == pytest.approx(
            0.5, rel=0.1
        )

    def test_apply_decay_below_one_rejected(self):
        with pytest.raises(ConfigError):
            PopularityTracker().apply_decay(0.5)


class TestRanks:
    def test_rank_orders_by_count(self):
        tracker = PopularityTracker(rank_refresh=1)
        for _ in range(5):
            tracker.record("top")
        for _ in range(3):
            tracker.record("mid")
        tracker.record("low")
        assert tracker.rank("top") == 1
        assert tracker.rank("mid") == 2
        assert tracker.rank("low") == 3

    def test_unseen_ranks_last(self):
        tracker = PopularityTracker(rank_refresh=1)
        tracker.record("a")
        assert tracker.rank("unseen") == 2

    def test_rank_cache_refreshes(self):
        tracker = PopularityTracker(rank_refresh=2)
        tracker.record("a")
        assert tracker.rank("a") == 1
        for _ in range(5):
            tracker.record("b")
        assert tracker.rank("b") == 1

    def test_snapshot_sorted_desc(self):
        tracker = PopularityTracker()
        tracker.record_many(["x", "y", "x", "x", "y", "z"])
        snapshot = tracker.snapshot()
        assert [key for key, _ in snapshot] == ["x", "y", "z"]
        counts = [count for _, count in snapshot]
        assert counts == sorted(counts, reverse=True)


class TestReset:
    def test_reset_forgets_everything(self):
        tracker = PopularityTracker(decay_rate=1.2)
        tracker.record_many(["a", "b"])
        tracker.reset()
        assert tracker.total_requests == 0
        assert tracker.popularity("a") == 0.0
        assert tracker.tracked_keys() == 0


class TestWithSampledStore:
    def test_space_saving_backend_tracks_heavy_keys(self):
        tracker = PopularityTracker(store=SpaceSavingStore(capacity=8))
        for index in range(2000):
            tracker.record("hot" if index % 2 else f"cold-{index}")
        assert tracker.popularity("hot") > 0.25


class TestAdaptiveTracker:
    def test_requires_unique_rates(self):
        with pytest.raises(ConfigError):
            AdaptiveTracker([1.0, 1.0])

    def test_requires_at_least_one(self):
        with pytest.raises(ConfigError):
            AdaptiveTracker([])

    def test_stationary_stream_prefers_low_decay(self):
        adaptive = AdaptiveTracker([1.0, 1.5], score_smoothing=0.05)
        for index in range(400):
            adaptive.record("a" if index % 4 else "b")
        assert adaptive.active_rate == 1.0

    def test_shifting_stream_prefers_high_decay(self):
        adaptive = AdaptiveTracker([1.0, 1.5], score_smoothing=0.05)
        # Popularity flips between disjoint key sets every 40 requests.
        for phase in range(10):
            for index in range(40):
                adaptive.record(f"phase-{phase}-{index % 2}")
        assert adaptive.active_rate == 1.5

    def test_delegation_matches_active(self):
        adaptive = AdaptiveTracker([1.0, 2.0])
        for _ in range(50):
            adaptive.record("k")
        assert adaptive.popularity("k") == adaptive.active.popularity("k")
        assert adaptive.rank("k") == 1
        assert adaptive.total_requests == 50
        assert adaptive.snapshot()[0][0] == "k"

    def test_rejected_record_changes_nothing(self):
        # Scoring used to run before the weight check, so a refused
        # record moved every score and could flip the active rate.
        fresh = AdaptiveTracker([1.0, 1.5])
        with pytest.raises(ConfigError):
            fresh.record("a", -1.0)
        assert fresh.scores() == {1.0: 0.0, 1.5: 0.0}
        assert not fresh._seen_any
        adaptive = AdaptiveTracker([1.0, 1.5], score_smoothing=0.5)
        for key in "aaaab":
            adaptive.record(key)
        scores = adaptive.scores()
        assert adaptive.active_rate == 1.0
        with pytest.raises(ConfigError):
            adaptive.record("b", 0.0)
        assert adaptive.scores() == scores
        assert adaptive._seen_any
        assert adaptive.active_rate == 1.0
        assert adaptive.total_requests == 5

    def test_scores_exposed(self):
        adaptive = AdaptiveTracker([1.0, 1.2])
        adaptive.record("a")
        scores = adaptive.scores()
        assert set(scores) == {1.0, 1.2}
