"""The §4.4 count-store alternatives, for the ablations that measure them.

The paper keeps one count per tuple and names two ways a disk-resident
DBMS could make maintaining it cheaper: a small *write-behind cache* in
front of the stored counts (Table 5 is measured with one), and a
bounded synopsis in the spirit of Gibbons' sampling. The serving store
is :class:`~repro.core.counts.InMemoryCountStore`; these two exist so
the count-store ablation and Table 5 can price the alternatives:

* :class:`WriteBehindCountStore` — exact counts with a bounded dirty
  cache in front of a backing dict, counting simulated I/O.
* :class:`SpaceSavingStore` — bounded-memory approximate counts that
  also accept weighted (decayed) increments, with the classic
  Space-Saving error bound ``error <= total_weight / capacity``.

Both implement only what a tracker that never gossips or snapshots
calls: no ``delta_since``/``merge``/``advance_version``. The batch calls
are the per-key loop, because evictions depend on arrival order. Put one
under a guard with :func:`use_count_store`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..core.counts import Key
from ..core.errors import ConfigError

__all__ = ["SpaceSavingStore", "WriteBehindCountStore", "use_count_store"]


class _LoopStore:
    """Batch calls as per-key loops over a store's own ``add``/``get``."""

    def add_many(self, keys: Sequence[Key], amounts: np.ndarray) -> None:
        """``add`` every key in order, as one atomic batch."""
        with self._lock:
            for key, amount in zip(keys, amounts.tolist()):
                self.add(key, amount)

    def get_many(self, keys: Sequence[Key]) -> np.ndarray:
        """``get`` of every key, in order, from one consistent snapshot."""
        with self._lock:
            return np.array([self.get(key) for key in keys], dtype=np.float64)

    def columns(self) -> Tuple[List[Key], np.ndarray]:
        """Every tracked key and its weight, in ``items`` order."""
        pairs = list(self.items())
        return (
            [key for key, _weight in pairs],
            np.array([weight for _key, weight in pairs], dtype=np.float64),
        )

    def mark_all_changed(self) -> None:
        """Nothing to re-ship: an experiment store never replicates."""


class WriteBehindCountStore(_LoopStore):
    """Exact counts with a bounded write-behind cache (§4.4).

    Reads and mutations go through an LRU cache of at most
    ``cache_size`` entries; when the cache overflows, the
    least-recently-used entry is dropped and, if dirty, written to the
    backing store. The backing store here is a dict standing in for
    disk; ``backing_reads``/``backing_writes`` count the simulated I/O
    so experiments can report the cache's effectiveness. A read of a
    key that was never added still costs one backing read (and is
    cached as 0.0), but only added keys are tracked.
    """

    def __init__(self, cache_size: int = 1024):
        if cache_size < 1:
            raise ConfigError(f"cache_size must be >= 1, got {cache_size}")
        self.cache_size = cache_size
        self._lock = threading.RLock()
        self._cache: "OrderedDict[Key, float]" = OrderedDict()
        self._dirty: Dict[Key, bool] = {}
        self._backing: Dict[Key, float] = {}
        #: simulated I/O counters
        self.backing_reads = 0
        self.backing_writes = 0

    def _load(self, key: Key) -> float:
        """Bring ``key`` into the cache, evicting if necessary."""
        if key in self._cache:
            self._cache.move_to_end(key)
            return self._cache[key]
        self.backing_reads += 1
        value = self._backing.get(key, 0.0)
        self._cache[key] = value
        self._dirty[key] = False
        self._cache.move_to_end(key)
        self._evict_if_needed()
        return value

    def _evict_if_needed(self) -> None:
        while len(self._cache) > self.cache_size:
            victim, value = self._cache.popitem(last=False)
            if self._dirty.pop(victim, False):
                self._backing[victim] = value
                self.backing_writes += 1

    def add(self, key: Key, amount: float = 1.0) -> None:
        with self._lock:
            value = self._load(key)
            self._cache[key] = value + amount
            self._dirty[key] = True

    def get(self, key: Key) -> float:
        with self._lock:
            return self._load(key)

    def flush(self) -> None:
        """Write every dirty cached entry through to the backing store."""
        with self._lock:
            for key, value in self._cache.items():
                if self._dirty.get(key):
                    self._backing[key] = value
                    self.backing_writes += 1
                    self._dirty[key] = False

    def items(self) -> Iterator[Tuple[Key, float]]:
        # After a flush every added key is in the backing store with its
        # current value; a clean cached key outside it was only read.
        with self._lock:
            self.flush()
            return iter(list(self._backing.items()))

    def scale(self, factor: float) -> None:
        with self._lock:
            self.flush()
            for key in self._backing:
                self._backing[key] *= factor
            for key in self._cache:
                self._cache[key] *= factor

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self._dirty.clear()
            self._backing.clear()
            # A cleared store must look factory-fresh: stale I/O counters
            # would report phantom cache traffic for the next experiment.
            self.backing_reads = 0
            self.backing_writes = 0

    def metrics(self) -> Dict[str, float]:
        """Tracked keys, cache occupancy and the simulated I/O."""
        with self._lock:
            dirty = sum(1 for flag in self._dirty.values() if flag)
            return {
                "entries": float(len(self)),
                "cache_entries": float(len(self._cache)),
                "dirty_entries": float(dirty),
                "backing_entries": float(len(self._backing)),
                "backing_reads": float(self.backing_reads),
                "backing_writes": float(self.backing_writes),
            }

    def __len__(self) -> int:
        with self._lock:
            keys = set(self._backing)
            keys.update(key for key, dirty in self._dirty.items() if dirty)
            return len(keys)


class SpaceSavingStore(_LoopStore):
    """Space-Saving synopsis (Metwally et al.): bounded weighted counts.

    Tracks at most ``capacity`` keys. A new key evicts the current
    minimum, inheriting its weight as overestimation error. Guarantees
    ``true_weight <= get(key) <= true_weight + total_weight/capacity``
    for tracked keys, which preserves popularity *ranking* well for
    skewed workloads. Supports weighted increments, so it composes with
    exponential decay.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._counts: Dict[Key, float] = {}

    def add(self, key: Key, amount: float = 1.0) -> None:
        with self._lock:
            if key in self._counts:
                self._counts[key] += amount
                return
            if len(self._counts) < self.capacity:
                self._counts[key] = amount
                return
            victim = min(self._counts, key=self._counts.get)  # type: ignore[arg-type]
            inherited = self._counts.pop(victim)
            self._counts[key] = inherited + amount

    def get(self, key: Key) -> float:
        with self._lock:
            return self._counts.get(key, 0.0)

    def items(self) -> Iterator[Tuple[Key, float]]:
        with self._lock:
            return iter(list(self._counts.items()))

    def scale(self, factor: float) -> None:
        with self._lock:
            for key in self._counts:
                self._counts[key] *= factor

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()

    def metrics(self) -> Dict[str, float]:
        """Tracked keys and the counter budget."""
        with self._lock:
            return {
                "entries": float(len(self._counts)),
                "capacity": float(self.capacity),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._counts)


def use_count_store(guard, store):
    """Put ``store`` under ``guard``'s popularity tracker; returns it.

    The tracker must still be empty — a freshly built guard's — so no
    count predates the store; otherwise :class:`ConfigError`.
    """
    tracker = guard.popularity
    if tracker.total_requests or tracker.tracked_keys():
        raise ConfigError(
            "the tracker has already recorded accesses; install the "
            "count store on a freshly built guard"
        )
    tracker.store = store
    return store
