"""Tests for update-rate tracking (§3)."""

import math

import pytest

from repro.core.clock import VirtualClock
from repro.core.errors import ConfigError
from repro.core.update_tracker import UpdateRateTracker


class TestStationaryEstimation:
    def test_rate_is_count_over_elapsed(self):
        clock = VirtualClock()
        tracker = UpdateRateTracker(clock=clock)
        for _ in range(10):
            tracker.record_update("a")
            clock.advance(1.0)
        assert tracker.rate("a") == pytest.approx(1.0)

    def test_unseen_key_rate_zero(self):
        tracker = UpdateRateTracker(clock=VirtualClock())
        assert tracker.rate("missing") == 0.0

    def test_zero_elapsed_reports_count(self):
        tracker = UpdateRateTracker(clock=VirtualClock())
        tracker.record_update("a")
        assert tracker.rate("a") == 1.0

    def test_relative_rates(self):
        clock = VirtualClock()
        tracker = UpdateRateTracker(clock=clock)
        for _ in range(100):
            tracker.record_update("fast")
            clock.advance(0.1)
        for _ in range(10):
            tracker.record_update("slow")
            clock.advance(0.1)
        assert tracker.rate("fast") == pytest.approx(
            10 * tracker.rate("slow"), rel=0.01
        )

    def test_total_updates(self):
        tracker = UpdateRateTracker(clock=VirtualClock())
        tracker.record_update("a")
        tracker.record_update("b")
        assert tracker.total_updates == 2


class TestDecayedEstimation:
    def test_steady_state_rate_recovered(self):
        clock = VirtualClock()
        tracker = UpdateRateTracker(clock=clock, time_constant=100.0)
        # 1 update/sec for 1000 seconds: steady state count = 100.
        for _ in range(1000):
            tracker.record_update("a")
            clock.advance(1.0)
        assert tracker.rate("a") == pytest.approx(1.0, rel=0.05)

    def test_rate_decays_after_silence(self):
        clock = VirtualClock()
        tracker = UpdateRateTracker(clock=clock, time_constant=10.0)
        for _ in range(100):
            tracker.record_update("a")
            clock.advance(0.1)
        busy = tracker.rate("a")
        clock.advance(100.0)  # 10 time constants of silence
        assert tracker.rate("a") < busy / 100

    def test_invalid_time_constant(self):
        with pytest.raises(ConfigError):
            UpdateRateTracker(time_constant=0)


class TestSnapshotAndMax:
    def test_max_rate(self):
        clock = VirtualClock()
        tracker = UpdateRateTracker(clock=clock)
        tracker.record_update("a")
        tracker.record_update("a")
        tracker.record_update("b")
        clock.advance(2.0)
        assert tracker.max_rate() == pytest.approx(1.0)

    def test_max_rate_empty(self):
        assert UpdateRateTracker(clock=VirtualClock()).max_rate() == 0.0

    def test_snapshot_sorted_fastest_first(self):
        clock = VirtualClock()
        tracker = UpdateRateTracker(clock=clock)
        for _ in range(5):
            tracker.record_update("fast")
        tracker.record_update("slow")
        clock.advance(1.0)
        snapshot = tracker.snapshot()
        assert snapshot[0][0] == "fast"

    def test_tracked_keys(self):
        tracker = UpdateRateTracker(clock=VirtualClock())
        tracker.record_update("a")
        tracker.record_update("b")
        assert tracker.tracked_keys() == 2

    def test_reset(self):
        tracker = UpdateRateTracker(clock=VirtualClock())
        tracker.record_update("a")
        tracker.reset()
        assert tracker.rate("a") == 0.0
        assert tracker.total_updates == 0


class TestPrime:
    def test_prime_matches_given_rates_stationary(self):
        clock = VirtualClock(1000.0)
        tracker = UpdateRateTracker(clock=clock)
        tracker.prime({"a": 0.5, "b": 0.01}, window=1e6)
        assert tracker.rate("a") == pytest.approx(0.5)
        assert tracker.rate("b") == pytest.approx(0.01)

    def test_prime_matches_given_rates_decayed(self):
        clock = VirtualClock()
        tracker = UpdateRateTracker(clock=clock, time_constant=50.0)
        tracker.prime({"a": 2.0})
        assert tracker.rate("a") == pytest.approx(2.0)

    def test_prime_zero_rate_stays_unseen(self):
        tracker = UpdateRateTracker(clock=VirtualClock())
        tracker.prime({"a": 0.0})
        assert tracker.rate("a") == 0.0
        assert tracker.tracked_keys() == 0

    def test_prime_agrees_with_replayed_learning(self):
        """Primed tracker ≈ tracker that actually saw the updates."""
        clock_a = VirtualClock()
        learned = UpdateRateTracker(clock=clock_a)
        rate = 0.25
        for _ in range(500):
            learned.record_update("k")
            clock_a.advance(1.0 / rate)

        clock_b = VirtualClock(clock_a.now())
        primed = UpdateRateTracker(clock=clock_b)
        primed.prime({"k": rate}, window=clock_a.now())
        assert primed.rate("k") == pytest.approx(learned.rate("k"), rel=0.02)

    def test_prime_invalid_inputs(self):
        tracker = UpdateRateTracker(clock=VirtualClock())
        with pytest.raises(ConfigError):
            tracker.prime({"a": -1.0})
        with pytest.raises(ConfigError):
            tracker.prime({"a": 1.0}, window=0)


class TestDecayClock:
    """The §2.3 inflated increment on wall time."""

    def test_rescale_keeps_rates(self):
        clock = VirtualClock()
        tracker = UpdateRateTracker(clock=clock, time_constant=1.0)
        tracker.record_update("old")
        clock.advance(100.0)
        tracker.record_update("a")
        clock.advance(200.0)  # 300 time constants: past the rescale point
        tracker.record_update("b")
        assert tracker.rescales >= 1
        assert tracker.count("b") == pytest.approx(1.0)
        assert tracker.count("a") == pytest.approx(math.exp(-200.0))
        assert tracker.count("old") == pytest.approx(math.exp(-300.0))
        clock.advance(1e6)  # far past anything a float increment holds
        assert tracker.rate("a") == 0.0 and tracker.rate("b") == 0.0

    def test_out_of_order_replay_counts_exactly(self):
        clock = VirtualClock(100.0)
        tracker = UpdateRateTracker(clock=clock, time_constant=10.0)
        stamps = (90.0, 70.0, 99.0, 80.0)
        for at in stamps:
            tracker.record_update("k", at=at)
        expected = sum(math.exp(-(100.0 - at) / 10.0) for at in stamps)
        assert tracker.count("k") == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("time_constant", [None, 5.0])
    def test_a_future_stamp_counts_as_now(self, time_constant):
        clock = VirtualClock(10.0)
        future = UpdateRateTracker(clock=clock, time_constant=time_constant)
        present = UpdateRateTracker(clock=clock, time_constant=time_constant)
        for at in (11.0, 1e9, 1e308):
            future.record_update("k", at=at)
            present.record_update("k")
        for _ in range(3):
            assert future.rate("k") == present.rate("k")
            assert math.isfinite(future.rate("k"))
            clock.advance(7.0)

    def test_batch_equals_one_at_a_time(self):
        clock = VirtualClock()
        batched = UpdateRateTracker(clock=clock, time_constant=3.0)
        single = UpdateRateTracker(clock=clock, time_constant=3.0)
        keys = [("t", i % 30) for i in range(100)]
        clock.advance(2.0)
        batched.record_many(keys)
        for key in keys:
            single.record_update(key)
        assert batched.rate_many(keys) == single.rate_many(keys)
        assert batched.total_updates == single.total_updates == 100

    def test_merge_keeps_the_earliest_start(self):
        clock = VirtualClock()
        early = UpdateRateTracker(clock=clock, origin="early")
        early.record_update("k")
        clock.advance(100.0)
        late = UpdateRateTracker(clock=clock, origin="late")
        late.merge(early.delta_since(late.versions()))
        # A later start could only raise the rate: it must not survive.
        assert late.rate("k") == early.rate("k") == pytest.approx(0.01)

    def test_load_refuses_another_time_constant(self):
        clock = VirtualClock()
        source = UpdateRateTracker(clock=clock, time_constant=30.0)
        source.record_update("k")
        target = UpdateRateTracker(clock=clock)
        with pytest.raises(ConfigError, match="time_constant"):
            target.load_state(source.dump_state())
        assert target.time_constant is None
