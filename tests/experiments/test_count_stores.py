"""The §4.4 ablation stores under a guard, installed by ``use_count_store``.

The stores' own unit, property and concurrency tests sit beside the
serving store's in ``tests/core``; these cover what only an experiment
does with them: put one under a fresh guard and read its counters.
"""

import pytest

from repro.core import ConfigError, GuardConfig
from repro.experiments.count_stores import (
    SpaceSavingStore,
    WriteBehindCountStore,
    use_count_store,
)
from repro.sim.experiment import build_guarded_items


def guard_with(store, rows=10):
    fixture = build_guarded_items(rows, config=GuardConfig(cap=1.0))
    assert use_count_store(fixture.guard, store) is store
    return fixture.guard


class TestUseCountStore:
    def test_installs_under_the_tracker(self):
        store = SpaceSavingStore(capacity=4)
        guard = guard_with(store)
        assert guard.popularity.store is store
        guard.execute("SELECT * FROM items WHERE id <= 2")
        assert len(store) == 2

    def test_refuses_a_tracker_that_has_recorded(self):
        fixture = build_guarded_items(10, config=GuardConfig(cap=1.0))
        fixture.guard.execute("SELECT * FROM items WHERE id = 1")
        with pytest.raises(ConfigError):
            use_count_store(fixture.guard, WriteBehindCountStore())


class TestWriteBehindUnderAGuard:
    def test_counters_show_the_cache_at_work(self):
        store = WriteBehindCountStore(cache_size=2)
        guard = guard_with(store)
        for item in range(1, 6):
            guard.execute(f"SELECT * FROM items WHERE id = {item}")
        metrics = store.metrics()
        assert metrics["entries"] == 5
        assert metrics["cache_entries"] <= 2
        assert metrics["backing_writes"] > 0
        assert guard.popularity.tracked_keys() == 5

    def test_a_read_tracks_no_key(self):
        # A priced but unrecorded read used to leave a cached 0.0 that
        # len(), items(), snapshot() and tracked_keys() all counted.
        store = WriteBehindCountStore(cache_size=4)
        guard = guard_with(store)
        guard.execute("SELECT * FROM items WHERE id = 3", record=False)
        assert store.backing_reads == 1  # the cold read still costs I/O
        assert guard.popularity.tracked_keys() == 0
        assert guard.popularity.snapshot() == []
        assert store.metrics()["entries"] == 0

    def test_read_then_add_tracks_the_key_once(self):
        store = WriteBehindCountStore(cache_size=1)
        assert store.get(7) == 0.0
        assert len(store) == 0 and list(store.items()) == []
        store.add(7, 2.0)
        store.get(8)  # evicts 7 (dirty: written back), caches 8 clean
        assert dict(store.items()) == {7: 2.0}
        assert len(store) == 1
        assert (store.backing_reads, store.backing_writes) == (2, 1)
