"""Count stores: the storage backends for per-tuple access counts.

The paper (§2.3, §4.4) tracks a count per tuple but warns that a naive
count attribute turns every read into a read-modify-write. It proposes a
small *write-behind cache* of tuple counts and cites Gibbons' sampling
for synopsis as a way to shrink the overhead further. This module
provides all three storage strategies behind one interface:

* :class:`InMemoryCountStore` — exact counts in dense arrays behind a
  ``key -> slot`` dict (the default, and the one store every serving
  path uses).
* :class:`WriteBehindCountStore` — exact counts with a bounded dirty
  cache in front of a backing store, counting simulated I/O so the
  overhead experiments (Table 5) can report cache behaviour.
* :class:`CountingSampleStore` — Gibbons & Matias counting samples:
  bounded-memory approximate counts for unit increments.
* :class:`SpaceSavingStore` — bounded-memory approximate counts that
  also accept weighted (decayed) increments, with the classic
  Space-Saving error bound ``error <= total_weight / capacity``.

All stores hold float weights: the popularity tracker layers exponential
decay on top by inflating increments (see :mod:`repro.core.popularity`).

A statement touches many tuples, so the interface has two batch
primitives beside ``add``/``get``: ``add_many(keys, amounts)`` and
``get_many(keys)``. Their base-class default *is* the per-key loop, so
the three bounded stores (whose evictions and entry coins depend on
arrival order) behave exactly as if called key by key; the dense store
overrides them with one scatter-add and one gather, bit-identical to
the loop (see :class:`InMemoryCountStore`).

Every store is thread-safe: an internal re-entrant lock makes each
``add``/``get``/``add_many``/``get_many``/``scale``/``clear`` atomic,
and ``items()`` iterates a snapshot taken under the lock so concurrent
writers never invalidate an in-progress iteration. Read-modify-write
sequences *across* calls (e.g. the popularity tracker's record
bookkeeping) still need the caller's own lock on top.

Replication: every store carries a monotonic *version* counter bumped on
each mutation, remembers the version at which each key last changed, and
exposes ``delta_since(version)`` / ``merge(delta)``. A delta carries the
*current* value of every key changed after the requested version, tagged
with its change version; merging adopts an entry only when its version
is newer than the local one for that key. Within a single origin's
history (versions totally ordered, value a function of version) this is
a per-key join, so merge is commutative, associative, and idempotent —
the property the cluster's anti-entropy gossip relies on. "A function of
version" is meant to the last bit: the dense store *assigns* a shipped
value (the base class, which only has ``add``, adds the difference and
can land an ulp off).
"""

from __future__ import annotations

import itertools
import random
import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError

Key = int  # tuple identifier (engine rowid, or any hashable id)


class CountStore:
    """Interface for count storage backends."""

    #: True if get() returns exact accumulated weights.
    exact = True

    def _init_versioning(self) -> None:
        """Set up change tracking; concrete stores call this in __init__."""
        self._version = 0
        self._changed: Dict[Key, int] = {}

    def _note_change(self, key: Key) -> None:
        """Record one mutation of ``key``; caller holds the store lock."""
        self._version += 1
        self._changed[key] = self._version

    def _note_rescale(self) -> None:
        """Every key changed at once (one version); lock held by caller."""
        self._version += 1
        for key, _ in self.items():
            self._changed[key] = self._version

    @property
    def version(self) -> int:
        """Monotonic mutation counter (grows by at least 1 per change)."""
        return self._version

    def mark_all_changed(self) -> None:
        """Re-stamp every key at a fresh version (forces re-replication).

        The popularity tracker calls this when the *interpretation* of
        every stored weight changes at once (period-boundary decay): the
        values did not move, but their present-scale masses did, so
        peers must receive them again.
        """
        with self._lock:
            self._note_rescale()

    def advance_version(self, floor: int) -> None:
        """Raise the version counter to at least ``floor`` (never lower).

        Used after restoring a snapshot: post-recovery changes must
        outrank anything a peer mirrors back from before the crash.
        """
        with self._lock:
            if floor > self._version:
                self._version = floor

    def add(self, key: Key, amount: float = 1.0) -> None:
        """Accumulate ``amount`` of weight onto ``key``."""
        raise NotImplementedError

    def get(self, key: Key) -> float:
        """Return the (possibly estimated) weight of ``key``; 0 if unseen."""
        raise NotImplementedError

    def add_many(self, keys: Sequence[Key], amounts: np.ndarray) -> None:
        """``add`` every key in order, as one atomic batch.

        ``amounts`` is a float64 array with one amount per position.
        This default is literally the per-key loop, so the bounded
        stores (whose evictions and entry coins depend on arrival
        order) behave exactly as if called key by key.
        """
        with self._lock:
            for key, amount in zip(keys, amounts.tolist()):
                self.add(key, amount)

    def get_many(self, keys: Sequence[Key]) -> np.ndarray:
        """``get`` of every key, in order, from one consistent snapshot."""
        with self._lock:
            return np.array(
                [self.get(key) for key in keys], dtype=np.float64
            )

    def items(self) -> Iterator[Tuple[Key, float]]:
        """Iterate over (key, weight) for every tracked key."""
        raise NotImplementedError

    def columns(self) -> Tuple[List[Key], np.ndarray]:
        """Every tracked key and its weight as two parallel columns,
        in ``items`` order."""
        pairs = list(self.items())
        return (
            [key for key, _weight in pairs],
            np.array([weight for _key, weight in pairs], dtype=np.float64),
        )

    def scale(self, factor: float) -> None:
        """Multiply every stored weight by ``factor`` (renormalisation)."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop all counts."""
        raise NotImplementedError

    def delta_since(self, version: int = 0) -> Dict:
        """Current value + change version of every key changed after
        ``version``, plus the store's own version high-water mark."""
        with self._lock:
            return {
                "version": self._version,
                "entries": [
                    [key, self.get(key), changed_at]
                    for key, changed_at in self._changed.items()
                    if changed_at > version
                ],
            }

    def merge(self, delta: Dict) -> int:
        """Adopt every delta entry newer than the local copy of its key.

        Entries carry absolute values, not increments, so re-merging the
        same delta is a no-op (idempotent) and merge order between deltas
        of one origin cannot matter (per-key last-version-wins join).
        Returns the number of entries adopted.
        """
        adopted = 0
        with self._lock:
            for key, weight, changed_at in delta.get("entries", ()):
                if isinstance(key, list):
                    key = tuple(key)
                if changed_at <= self._changed.get(key, 0):
                    continue
                self.add(key, weight - self.get(key))
                # add() minted a fresh local version; pin the entry to the
                # delta's version instead so the join stays idempotent.
                self._changed[key] = changed_at
                adopted += 1
            self._version = max(self._version, delta.get("version", 0))
        return adopted

    def metrics(self) -> Dict[str, float]:
        """Backend statistics for observability gauges.

        Every store reports ``entries`` (tracked keys); backends add
        their own (cache sizes, simulated I/O counters, thresholds).
        Keys are stable snake_case names suitable for metric suffixes.
        """
        return {"entries": float(len(self))}

    def __len__(self) -> int:
        raise NotImplementedError


class InMemoryCountStore(CountStore):
    """Exact counts in dense arrays behind a ``key -> slot`` dict.

    A key's slot is its position in first-add order — which is also its
    position in the (insertion-ordered) ``_slots`` dict, so that dict is
    the ``slot -> key`` column too. ``_weights[slot]`` is the key's
    count and ``_stamps[slot]`` the version at which it last changed.
    Slots are never freed short of :meth:`clear`, so ``items`` and
    ``delta_since`` report keys in the order they always have. A whole
    result set is then one gather (:meth:`get_many`) or one ordered
    scatter-add (:meth:`add_many`), and ``scale``/``delta_since``/
    ``columns`` are array operations.

    Two details keep both ends cheap. The buffers always hold at least
    one unused element past the last slot and unused elements are zero,
    so an unseen key can be looked up as slot ``-1`` and gathers weight
    0.0 with no masking. And one-key ``add``/``get`` go through
    ``memoryview`` casts of the same buffers, which hand back plain
    Python numbers: indexing the ``ndarray`` itself boxes a numpy scalar
    per access and would make a point read dearer than the dict this
    replaced.
    """

    _INITIAL_CAPACITY = 1024

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._version = 0
        self._slots: Dict[Key, int] = {}
        self._allocate(self._INITIAL_CAPACITY)

    def _allocate(self, capacity: int) -> None:
        """Fresh zeroed buffers, carrying over the slots in use."""
        used = len(self._slots)
        weights = np.zeros(capacity, dtype=np.float64)
        stamps = np.zeros(capacity, dtype=np.int64)
        if used:
            weights[:used] = self._weights[:used]
            stamps[:used] = self._stamps[:used]
        self._weights, self._stamps = weights, stamps
        self._capacity = capacity
        self._weight_at = memoryview(weights)
        self._stamp_at = memoryview(stamps)

    def _new_slots(self, keys: Sequence[Key]) -> int:
        """Give each of ``keys`` (distinct, unseen) the next slot;
        returns the first."""
        first = len(self._slots)
        needed = first + len(keys) + 1  # +1: the zero that slot -1 reads
        if needed > self._capacity:
            self._allocate(max(needed, 2 * self._capacity))
        self._slots.update(zip(keys, range(first, first + len(keys))))
        return first

    def _lookup(self, keys: Sequence[Key]) -> List[int]:
        """Slot of every key, ``-1`` for an unseen one; lock held."""
        return list(map(self._slots.get, keys, itertools.repeat(-1)))

    def add(self, key: Key, amount: float = 1.0) -> None:
        with self._lock:
            slots = self._slots
            slot = slots.get(key)
            if slot is None:
                # _new_slots((key,)), spelled out: every first read of
                # a tuple comes through here.
                slot = len(slots)
                if slot + 2 > self._capacity:
                    self._allocate(2 * self._capacity)
                slots[key] = slot
            self._version = version = self._version + 1
            self._weight_at[slot] += amount
            self._stamp_at[slot] = version

    def add_many(self, keys: Sequence[Key], amounts: np.ndarray) -> None:
        count = len(keys)
        if not count:
            return
        with self._lock:
            found = self._lookup(keys)
            if -1 in found:
                known = self._slots
                self._new_slots(
                    [key for key in dict.fromkeys(keys) if key not in known]
                )
                found = self._lookup(keys)
            slots = np.array(found, dtype=np.intp)
            # Position i is mutation number version + 1 + i. (A running
            # sum of ones, not arange: arange always drops the GIL.)
            stamps = np.add.accumulate(np.ones(count, dtype=np.int64))
            stamps += self._version
            if len(set(found)) == count:
                self._weights[slots] += amounts
                self._stamps[slots] = stamps
            else:
                # A key that repeats (every join repeats its dimension
                # rows) must accumulate left to right like the loop and
                # end stamped with its last occurrence: ufunc.at is
                # unbuffered and applies in index order, which buffered
                # fancy assignment does not promise. It also drops the
                # GIL whatever the size, so distinct keys avoid it.
                np.add.at(self._weights, slots, amounts)
                np.maximum.at(self._stamps, slots, stamps)
            self._version += count

    def get(self, key: Key) -> float:
        with self._lock:
            return self._weight_at[self._slots.get(key, -1)]

    def get_many(self, keys: Sequence[Key]) -> np.ndarray:
        with self._lock:
            return self._weights[np.array(self._lookup(keys), dtype=np.intp)]

    def items(self) -> Iterator[Tuple[Key, float]]:
        with self._lock:
            weights = self._weights[: len(self._slots)].tolist()
            return iter(list(zip(self._slots, weights)))

    def columns(self) -> Tuple[List[Key], np.ndarray]:
        with self._lock:
            return list(self._slots), self._weights[: len(self._slots)].copy()

    def scale(self, factor: float) -> None:
        with self._lock:
            self._weights[: len(self._slots)] *= factor
            self._note_rescale()

    def _note_rescale(self) -> None:
        self._version += 1
        self._stamps[: len(self._slots)] = self._version

    def clear(self) -> None:
        with self._lock:
            self._slots = {}
            self._version += 1
            self._allocate(self._INITIAL_CAPACITY)

    def delta_since(self, version: int = 0) -> Dict:
        with self._lock:
            used = len(self._slots)
            changed = self._stamps[:used] > version
            return {
                "version": self._version,
                "entries": [
                    [key, weight, changed_at]
                    for key, weight, changed_at in zip(
                        itertools.compress(self._slots, changed.tolist()),
                        self._weights[:used][changed].tolist(),
                        self._stamps[:used][changed].tolist(),
                    )
                ],
            }

    def merge(self, delta: Dict) -> int:
        """Adopt newer entries by *assigning* the shipped weight.

        The base class can only ``add`` the difference, and
        ``g + (w - g) != w`` for about one float pair in six; assigning
        keeps a mirrored value a function of its version, bit for bit.
        """
        adopted = 0
        with self._lock:
            slots = self._slots
            for key, weight, changed_at in delta.get("entries", ()):
                if isinstance(key, list):
                    key = tuple(key)
                slot = slots.get(key)
                if changed_at <= (0 if slot is None else self._stamp_at[slot]):
                    continue
                if slot is None:
                    slot = self._new_slots((key,))
                self._weight_at[slot] = weight
                self._stamp_at[slot] = changed_at
                adopted += 1
            # An adoption is a local mutation too: the counter moves by
            # one per entry (as it did when merge went through add), then
            # up to the delta's own high-water mark.
            self._version = max(
                self._version + adopted, delta.get("version", 0)
            )
        return adopted

    def __len__(self) -> int:
        with self._lock:
            return len(self._slots)


class WriteBehindCountStore(CountStore):
    """Exact counts with a bounded write-behind cache (§4.4).

    Mutations land in an LRU cache of at most ``cache_size`` entries;
    when the cache overflows, the least-recently-used dirty entry is
    flushed to the backing store. The backing store here is a dict
    standing in for disk; ``backing_reads``/``backing_writes`` count the
    simulated I/O so experiments can report the cache's effectiveness.
    """

    def __init__(self, cache_size: int = 1024):
        if cache_size < 1:
            raise ConfigError(f"cache_size must be >= 1, got {cache_size}")
        self.cache_size = cache_size
        self._lock = threading.RLock()
        self._cache: "OrderedDict[Key, float]" = OrderedDict()
        self._dirty: Dict[Key, bool] = {}
        self._backing: Dict[Key, float] = {}
        self._init_versioning()
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
            self._note_change(key)

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
        with self._lock:
            self.flush()
            if not self._cache:
                return iter(list(self._backing.items()))
            return iter(
                list({**self._backing, **dict(self._cache)}.items())
            )

    def scale(self, factor: float) -> None:
        with self._lock:
            self.flush()
            for key in self._backing:
                self._backing[key] *= factor
            for key in self._cache:
                self._cache[key] *= factor
            self._note_rescale()

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self._dirty.clear()
            self._backing.clear()
            self._version += 1
            self._changed.clear()
            # A cleared store must look factory-fresh: stale I/O counters
            # would report phantom cache traffic for the next experiment.
            self.backing_reads = 0
            self.backing_writes = 0

    def metrics(self) -> Dict[str, float]:
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
            keys.update(self._cache)
            return len(keys)


class CountingSampleStore(CountStore):
    """Gibbons & Matias counting samples (SIGMOD 1998), cited in §4.4.

    Keeps at most ``capacity`` counters. A key not in the sample enters
    with probability ``1/tau``; once present, every subsequent hit is
    counted exactly. When the sample overflows, the threshold ``tau`` is
    raised and existing entries are probabilistically decimated, which
    preserves the invariant that each tracked count is distributed as if
    the higher threshold had been in force all along.

    Only unit increments are supported (``amount`` must be 1); weighted
    decay does not compose with the entry-coin semantics. Use
    :class:`SpaceSavingStore` for decayed tracking under a memory bound.

    ``get`` returns the standard frequency estimate ``count + tau - 1``
    for tracked keys (the expected number of hits missed before entry).
    """

    exact = False

    def __init__(
        self,
        capacity: int = 1024,
        growth: float = 1.5,
        seed: Optional[int] = None,
    ):
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        if growth <= 1.0:
            raise ConfigError(f"growth must exceed 1.0, got {growth}")
        self.capacity = capacity
        self.growth = growth
        self.tau = 1.0
        self._lock = threading.RLock()
        self._counts: Dict[Key, float] = {}
        self._rng = random.Random(seed)
        self._init_versioning()

    def add(self, key: Key, amount: float = 1.0) -> None:
        if amount != 1.0:
            raise ConfigError(
                "CountingSampleStore only supports unit increments; "
                "use SpaceSavingStore for weighted counts"
            )
        with self._lock:
            if key in self._counts:
                self._counts[key] += 1.0
                self._note_change(key)
                return
            if self._rng.random() < 1.0 / self.tau:
                self._counts[key] = 1.0
                self._note_change(key)
                if len(self._counts) > self.capacity:
                    self._raise_threshold()
                    self._note_rescale()

    def _raise_threshold(self) -> None:
        """Decimate the sample until it fits, raising ``tau`` each round."""
        while len(self._counts) > self.capacity:
            old_tau, new_tau = self.tau, self.tau * self.growth
            keep_probability = old_tau / new_tau
            for key in list(self._counts):
                count = self._counts[key]
                # Retest the entry coin: with probability old/new the
                # entry survives intact; otherwise strip hits one at a
                # time, each surviving re-entry with probability 1/new.
                if self._rng.random() < keep_probability:
                    continue
                count -= 1.0
                while count > 0 and self._rng.random() >= 1.0 / new_tau:
                    count -= 1.0
                if count > 0:
                    self._counts[key] = count
                else:
                    del self._counts[key]
            self.tau = new_tau

    def get(self, key: Key) -> float:
        with self._lock:
            count = self._counts.get(key)
            if count is None:
                return 0.0
            return count + self.tau - 1.0

    def items(self) -> Iterator[Tuple[Key, float]]:
        with self._lock:
            adjustment = self.tau - 1.0
            return iter(
                [
                    (key, count + adjustment)
                    for key, count in self._counts.items()
                ]
            )

    def scale(self, factor: float) -> None:
        raise ConfigError(
            "CountingSampleStore cannot be rescaled; it is incompatible "
            "with decayed tracking"
        )

    def merge(self, delta: Dict) -> int:
        raise ConfigError(
            "CountingSampleStore cannot merge deltas (entry coins do not "
            "compose); use an exact store for clustered deployments"
        )

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()
            self.tau = 1.0
            self._version += 1
            self._changed.clear()

    def metrics(self) -> Dict[str, float]:
        with self._lock:
            return {
                "entries": float(len(self._counts)),
                "capacity": float(self.capacity),
                "tau": float(self.tau),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._counts)


class SpaceSavingStore(CountStore):
    """Space-Saving synopsis (Metwally et al.): bounded weighted counts.

    Tracks at most ``capacity`` keys. A new key evicts the current
    minimum, inheriting its weight as overestimation error. Guarantees
    ``true_weight <= get(key) <= true_weight + total_weight/capacity``
    for tracked keys, which preserves popularity *ranking* well for the
    skewed workloads this library targets. Supports weighted increments,
    so it composes with exponential decay.
    """

    exact = False

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._counts: Dict[Key, float] = {}
        self._init_versioning()

    def add(self, key: Key, amount: float = 1.0) -> None:
        with self._lock:
            if key in self._counts:
                self._counts[key] += amount
                self._note_change(key)
                return
            if len(self._counts) < self.capacity:
                self._counts[key] = amount
                self._note_change(key)
                return
            victim = min(self._counts, key=self._counts.get)  # type: ignore[arg-type]
            inherited = self._counts.pop(victim)
            self._counts[key] = inherited + amount
            self._note_change(victim)
            self._note_change(key)

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
            self._note_rescale()

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()
            self._version += 1
            self._changed.clear()

    def metrics(self) -> Dict[str, float]:
        with self._lock:
            return {
                "entries": float(len(self._counts)),
                "capacity": float(self.capacity),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._counts)


def count_store_from_config(config) -> CountStore:
    """The store a :class:`~repro.core.config.GuardConfig` names."""
    kind = config.count_store
    if kind == "memory":
        return InMemoryCountStore()
    if kind == "write_behind":
        return WriteBehindCountStore(cache_size=config.count_cache_size)
    if kind == "space_saving":
        return SpaceSavingStore(capacity=config.count_capacity)
    if kind == "counting_sample":
        return CountingSampleStore(capacity=config.count_capacity)
    raise ConfigError(f"unknown count store {kind!r}")  # pragma: no cover
