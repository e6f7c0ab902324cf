"""Thread-safety tests for the serving-stack components.

The TCP front door runs one handler thread per connection against one
shared guard, so the clock, count stores, trackers, and stats must all
tolerate concurrent mutation without losing updates. These tests hammer
each component from many threads and assert exact totals — a lost
increment anywhere fails deterministically.
"""

import sys
import threading
import time

import pytest

from repro.core.clock import VirtualClock
from repro.core.counts import InMemoryCountStore
from repro.core.guard import GuardStats
from repro.core.popularity import PopularityTracker
from repro.core.update_tracker import UpdateRateTracker
from repro.experiments.count_stores import (
    SpaceSavingStore,
    WriteBehindCountStore,
)

THREADS = 8
ROUNDS = 500


def hammer(worker):
    """Run ``worker(thread_index)`` on THREADS threads; re-raise failures."""
    errors = []

    def run(index):
        try:
            worker(index)
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [
        threading.Thread(target=run, args=(index,))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors, errors


class TestVirtualClock:
    def test_concurrent_sleeps_all_land(self):
        clock = VirtualClock()
        hammer(lambda index: [clock.sleep(0.5) for _ in range(ROUNDS)])
        assert clock.now() == pytest.approx(THREADS * ROUNDS * 0.5)
        assert len(clock.sleeps) == THREADS * ROUNDS
        assert clock.total_slept == pytest.approx(THREADS * ROUNDS * 0.5)

    def test_concurrent_advance_and_sleep(self):
        clock = VirtualClock()

        def worker(index):
            for _ in range(ROUNDS):
                clock.advance(1.0)
                clock.sleep(2.0)

        hammer(worker)
        assert clock.now() == pytest.approx(THREADS * ROUNDS * 3.0)
        assert clock.total_slept == pytest.approx(THREADS * ROUNDS * 2.0)


class TestCountStores:
    @pytest.mark.parametrize(
        "store_factory",
        [
            InMemoryCountStore,
            lambda: WriteBehindCountStore(cache_size=4),
            lambda: SpaceSavingStore(capacity=64),
        ],
    )
    def test_concurrent_adds_exact_total(self, store_factory):
        store = store_factory()
        # 16 keys << SpaceSaving capacity, so every backend is exact here;
        # the tiny write-behind cache forces constant eviction traffic.
        hammer(
            lambda index: [
                store.add(item % 16, 1.0) for item in range(ROUNDS)
            ]
        )
        total = sum(weight for _, weight in store.items())
        assert total == pytest.approx(THREADS * ROUNDS)

    def test_concurrent_add_and_scale(self):
        store = InMemoryCountStore()

        def worker(index):
            for item in range(ROUNDS):
                store.add(item % 8, 1.0)
                if index == 0 and item % 100 == 99:
                    store.scale(1.0)  # no-op factor: exercises the path

        hammer(worker)
        total = sum(weight for _, weight in store.items())
        assert total == pytest.approx(THREADS * ROUNDS)


class TestPopularityTracker:
    def test_no_lost_records_without_decay(self):
        tracker = PopularityTracker()
        hammer(
            lambda index: [
                tracker.record((f"t{index}", item % 32))
                for item in range(ROUNDS)
            ]
        )
        assert tracker.total_requests == THREADS * ROUNDS
        assert tracker.decayed_total == pytest.approx(THREADS * ROUNDS)
        total = sum(count for _, count in tracker.snapshot())
        assert total == pytest.approx(THREADS * ROUNDS)

    def test_no_lost_records_with_decay_and_rescale(self):
        tracker = PopularityTracker(
            decay_rate=1.05, rescale_threshold=1e6
        )
        hammer(
            lambda index: [
                tracker.record((0, item % 8)) for item in range(ROUNDS)
            ]
        )
        # Decayed weights depend on interleaving order, but the raw
        # request total must be exact and the rescale guard must hold.
        assert tracker.total_requests == THREADS * ROUNDS
        assert tracker._increment <= 1e6 * 1.05
        assert tracker.rescales > 0

    def test_concurrent_record_and_rank(self):
        tracker = PopularityTracker(rank_refresh=10)

        def worker(index):
            for item in range(ROUNDS):
                tracker.record((0, item % 16))
                tracker.rank((0, item % 16))

        hammer(worker)
        assert tracker.total_requests == THREADS * ROUNDS


    def test_batches_are_all_or_nothing_to_a_pricer(self):
        """A result set is recorded as one array operation under the
        tracker lock: a concurrent ``popularity_many`` snapshot shows
        every key of a 1k-key batch moved, or none."""
        tracker = PopularityTracker()
        blocks = [
            [(f"t{index}", rowid) for rowid in range(1000)]
            for index in range(THREADS)
        ]
        everything = [key for block in blocks for key in block]
        done = threading.Event()
        torn = []

        def recorder(index):
            for _ in range(40):
                tracker.record_many(blocks[index])

        def pricer():
            while not done.is_set():
                snapshot = tracker.popularity_many(everything)
                for index in range(THREADS):
                    block = snapshot[index * 1000 : (index + 1) * 1000]
                    if min(block) != max(block):
                        torn.append((index, min(block), max(block)))
                        return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        watcher = threading.Thread(target=pricer)
        try:
            watcher.start()
            hammer(recorder)
        finally:
            done.set()
            watcher.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not watcher.is_alive()
        assert not torn, torn
        assert tracker.total_requests == THREADS * 40 * 1000

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_max_popularity_is_one_consistent_pass(self, mirrored):
        """``max_popularity`` equals ``max(popularity(k))`` on whatever
        state a concurrent recorder has reached, mirrors included."""
        tracker = PopularityTracker(decay_rate=1.01, origin="local")
        keys = [("items", rowid) for rowid in range(200)]
        if mirrored:
            peer = PopularityTracker(decay_rate=1.01, origin="peer")
            peer.record_many(keys[150:] + [("items", 999)] * 3)
            tracker.merge(peer.delta_since())
            keys.append(("items", 999))
        deadline = time.monotonic() + 0.5
        done = threading.Event()

        def recorder():
            turn = 0
            while not done.is_set():
                turn += 1
                tracker.record_many(keys[turn % 50 : turn % 50 + 100])

        thread = threading.Thread(target=recorder)
        thread.start()
        try:
            checks = 0
            while time.monotonic() < deadline or checks < 5:
                for mode in ("raw", "decayed"):
                    # Re-entrant: holds the recorder off for one check.
                    with tracker._lock:
                        assert tracker.max_popularity(mode) == max(
                            tracker.popularity(key, mode) for key in keys
                        )
                checks += 1
        finally:
            done.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert tracker.max_popularity() > 0.0


class TestUpdateRateTracker:
    def test_no_lost_updates(self):
        tracker = UpdateRateTracker(clock=VirtualClock())
        hammer(
            lambda index: [
                tracker.record_update((0, item % 16))
                for item in range(ROUNDS)
            ]
        )
        assert tracker.total_updates == THREADS * ROUNDS
        total = sum(
            tracker.count((0, item)) for item in range(16)
        )
        assert total == pytest.approx(THREADS * ROUNDS)


class TestGuardStats:
    def test_concurrent_notes_are_atomic(self):
        stats = GuardStats()

        def worker(index):
            for _ in range(ROUNDS):
                stats.note_query(0.5, 0.001, 0.002)
                stats.note_select(0.5, 3)
                stats.note_denied()

        hammer(worker)
        expected = THREADS * ROUNDS
        assert stats.queries == expected
        assert stats.selects == expected
        assert stats.denied == expected
        assert stats.tuples_charged == 3 * expected
        assert stats.delay_histogram.count == expected
        assert stats.total_delay == pytest.approx(0.5 * expected)
        assert stats.engine_seconds == pytest.approx(0.001 * expected)
        assert stats.accounting_seconds == pytest.approx(0.002 * expected)
