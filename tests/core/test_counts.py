"""Tests for the count store and the §4.4 stores the ablations compare.

The write-behind and Space-Saving stores live in
``repro.experiments.count_stores``; their tests stay here beside the
serving store's.
"""

import pytest

from repro.core.counts import InMemoryCountStore
from repro.core.errors import ConfigError
from repro.experiments.count_stores import (
    SpaceSavingStore,
    WriteBehindCountStore,
)


class TestInMemoryCountStore:
    def test_add_and_get(self):
        store = InMemoryCountStore()
        store.add(1)
        store.add(1, 2.5)
        assert store.get(1) == 3.5
        assert store.get(2) == 0.0

    def test_items_and_len(self):
        store = InMemoryCountStore()
        store.add(1)
        store.add(2, 4.0)
        assert dict(store.items()) == {1: 1.0, 2: 4.0}
        assert len(store) == 2

    def test_scale(self):
        store = InMemoryCountStore()
        store.add(1, 10.0)
        store.scale(0.5)
        assert store.get(1) == 5.0

    def test_clear(self):
        store = InMemoryCountStore()
        store.add(1)
        store.clear()
        assert len(store) == 0


class TestWriteBehindCountStore:
    def test_exact_counts_survive_eviction(self):
        store = WriteBehindCountStore(cache_size=2)
        for key in range(10):
            store.add(key, float(key))
        for key in range(10):
            assert store.get(key) == float(key)

    def test_eviction_causes_backing_io(self):
        store = WriteBehindCountStore(cache_size=2)
        for key in range(5):
            store.add(key)
        assert store.backing_writes >= 3

    def test_cache_hit_avoids_io(self):
        store = WriteBehindCountStore(cache_size=8)
        store.add(1)
        reads_before = store.backing_reads
        for _ in range(100):
            store.add(1)
        assert store.backing_reads == reads_before

    def test_flush_persists_dirty_entries(self):
        store = WriteBehindCountStore(cache_size=8)
        store.add(1, 3.0)
        store.flush()
        assert store._backing[1] == 3.0

    def test_items_includes_cached_and_backed(self):
        store = WriteBehindCountStore(cache_size=1)
        store.add(1, 1.0)
        store.add(2, 2.0)  # evicts key 1
        assert dict(store.items()) == {1: 1.0, 2: 2.0}

    def test_scale_covers_everything(self):
        store = WriteBehindCountStore(cache_size=1)
        store.add(1, 2.0)
        store.add(2, 4.0)
        store.scale(0.5)
        assert store.get(1) == 1.0
        assert store.get(2) == 2.0

    def test_len_deduplicates(self):
        store = WriteBehindCountStore(cache_size=1)
        store.add(1)
        store.add(2)
        store.get(1)
        assert len(store) == 2

    def test_invalid_cache_size(self):
        with pytest.raises(ConfigError):
            WriteBehindCountStore(cache_size=0)

    def test_clear(self):
        store = WriteBehindCountStore(cache_size=2)
        store.add(1)
        store.clear()
        assert store.get(1) == 0.0

    def test_clear_resets_io_counters(self):
        # A reused store must not report the previous run's phantom I/O
        # in the cache-effectiveness numbers.
        store = WriteBehindCountStore(cache_size=2)
        for key in range(10):
            store.add(key)
        assert store.backing_reads > 0 and store.backing_writes > 0
        store.clear()
        assert store.backing_reads == 0
        assert store.backing_writes == 0
        # get() on a cleared store repopulates the counters from zero.
        store.get(1)
        assert store.backing_reads == 1


class TestSpaceSavingStore:
    def test_exact_below_capacity(self):
        store = SpaceSavingStore(capacity=10)
        store.add(1, 5.0)
        store.add(2, 3.0)
        assert store.get(1) == 5.0

    def test_capacity_bound(self):
        store = SpaceSavingStore(capacity=8)
        for key in range(100):
            store.add(key)
        assert len(store) == 8

    def test_overestimate_bound(self):
        store = SpaceSavingStore(capacity=10)
        total = 0.0
        true_counts = {}
        for i in range(1000):
            key = i % 25
            store.add(key)
            total += 1.0
            true_counts[key] = true_counts.get(key, 0) + 1
        for key, estimate in store.items():
            assert estimate >= true_counts.get(key, 0)
            assert estimate <= true_counts.get(key, 0) + total / 10

    def test_weighted_adds(self):
        store = SpaceSavingStore(capacity=4)
        store.add(1, 100.0)
        for key in range(2, 50):
            store.add(key, 0.1)
        assert store.get(1) >= 100.0  # heavy key retained

    def test_scale(self):
        store = SpaceSavingStore(capacity=4)
        store.add(1, 8.0)
        store.scale(0.25)
        assert store.get(1) == 2.0

    def test_eviction_inherits_weight(self):
        store = SpaceSavingStore(capacity=1)
        store.add(1, 5.0)
        store.add(2, 1.0)
        assert store.get(2) == 6.0  # inherited 5 + own 1
        assert store.get(1) == 0.0
