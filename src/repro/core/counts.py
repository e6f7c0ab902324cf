"""The count store: per-tuple access counts in dense arrays.

The paper (§2.3) keeps one decayed count per tuple. It warns (§4.4)
that a naive count attribute turns every read into a read-modify-write,
and names a write-behind cache and sampled synopses as ways a
disk-resident DBMS could make that cheaper. Here the counts live in
memory, so there is one store, :class:`InMemoryCountStore`: exact
float weights in numpy buffers behind a ``key -> slot`` dict. The §4.4
alternatives are measured, not served: they live with the ablation
that compares them (:mod:`repro.experiments.count_stores`) and plug in
through ``PopularityTracker(store=...)``.

The store holds float weights: both trackers layer exponential decay
on top by inflating increments (see :mod:`repro.core.popularity`). A
statement touches many tuples, so beside ``add``/``get`` there are two
batch primitives, ``add_many(keys, amounts)`` (one ordered scatter-add)
and ``get_many(keys)`` (one gather), both bit-identical to the per-key
loop. A large SELECT's keys arrive as a
:class:`~repro.engine.footprint.Footprint` (rowid arrays): those are
looked up through per-table ``rowid -> slot`` arrays derived from the
dict (:class:`~repro.engine.footprint.SlotIndex`), which may miss but
never give a wrong slot, so no ``(table, rowid)`` tuple is hashed.

The store is thread-safe: an internal re-entrant lock makes each call
atomic, and ``items()`` iterates a snapshot taken under the lock so
concurrent writers never invalidate an in-progress iteration.
Read-modify-write sequences *across* calls (e.g. the popularity
tracker's record bookkeeping) still need the caller's own lock on top.

Replication: the store carries a monotonic *version* counter bumped on
each mutation, stamps every key with the version at which it last
changed, and exposes ``delta_since(version)`` / ``merge(delta)``. A
delta carries the *current* value of every key changed after the
requested version, tagged with its change version; merging adopts an
entry only when its version is newer than the local one for that key,
and *assigns* the shipped value. Within a single origin's history
(versions totally ordered, value a function of version) this is a
per-key join, so merge is commutative, associative, and idempotent —
the property the cluster's anti-entropy gossip relies on.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.footprint import Footprint, SlotIndex

Key = int  # tuple identifier (engine rowid, or any hashable id)


class InMemoryCountStore:
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
    per access and would make a point read dearer than a dict.
    """

    _INITIAL_CAPACITY = 1024

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._version = 0
        self._slots: Dict[Key, int] = {}
        #: footprint lookups through rowid arrays derived from _slots.
        self._slot_index: Optional[SlotIndex] = None
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

    def _footprint_slots(self, footprint: Footprint) -> np.ndarray:
        """:meth:`_lookup` of a footprint, as an intp array; lock held."""
        index = self._slot_index
        if index is None or index.source is not self._slots:
            index = self._slot_index = SlotIndex(self._slots)
        return index.lookup(footprint)

    # -- versions ---------------------------------------------------------------

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

    def _note_rescale(self) -> None:
        """Every key changed at once (one version); lock held."""
        self._version += 1
        self._stamps[: len(self._slots)] = self._version

    # -- counts -----------------------------------------------------------------

    def add(self, key: Key, amount: float = 1.0) -> None:
        """Accumulate ``amount`` of weight onto ``key``."""
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
        """``add`` every key in order, as one atomic batch.

        ``amounts`` is a float64 array with one amount per position.
        """
        count = len(keys)
        if not count:
            return
        with self._lock:
            if isinstance(keys, Footprint):
                slots = self._footprint_slots(keys)
                unseen = np.flatnonzero(slots < 0)
                if len(unseen):
                    # Unseen keys take slots in first-seen order, as
                    # dict.fromkeys(keys) below gives them.
                    self._new_slots(list(dict.fromkeys(keys.pairs_at(unseen))))
                    slots = self._footprint_slots(keys)
                ordered = np.sort(slots)
                distinct = not (ordered[1:] == ordered[:-1]).any()
            else:
                found = self._lookup(keys)
                if -1 in found:
                    known = self._slots
                    self._new_slots(
                        [key for key in dict.fromkeys(keys) if key not in known]
                    )
                    found = self._lookup(keys)
                slots = np.array(found, dtype=np.intp)
                distinct = len(set(found)) == count
            # Position i is mutation number version + 1 + i. (A running
            # sum of ones, not arange: arange always drops the GIL.)
            stamps = np.add.accumulate(np.ones(count, dtype=np.int64))
            stamps += self._version
            if distinct:
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
        """The weight of ``key``; 0 if unseen."""
        with self._lock:
            return self._weight_at[self._slots.get(key, -1)]

    def get_many(self, keys: Sequence[Key]) -> np.ndarray:
        """``get`` of every key, in order, from one consistent snapshot."""
        with self._lock:
            if isinstance(keys, Footprint):
                return self._weights[self._footprint_slots(keys)]
            return self._weights[np.array(self._lookup(keys), dtype=np.intp)]

    def items(self) -> Iterator[Tuple[Key, float]]:
        """Iterate over (key, weight) for every tracked key."""
        with self._lock:
            weights = self._weights[: len(self._slots)].tolist()
            return iter(list(zip(self._slots, weights)))

    def columns(self) -> Tuple[List[Key], np.ndarray]:
        """Every tracked key and its weight as two parallel columns,
        in ``items`` order."""
        with self._lock:
            return list(self._slots), self._weights[: len(self._slots)].copy()

    def scale(self, factor: float, restamp: bool = True) -> None:
        """Multiply every stored weight by ``factor`` (renormalisation);
        ``restamp=False`` keeps the change versions (a mirror's)."""
        with self._lock:
            self._weights[: len(self._slots)] *= factor
            if restamp:
                self._note_rescale()

    def clear(self) -> None:
        """Drop all counts."""
        with self._lock:
            self._slots = {}
            self._version += 1
            self._allocate(self._INITIAL_CAPACITY)

    # -- replication ------------------------------------------------------------

    def delta_since(self, version: int = 0) -> Dict:
        """Current value + change version of every key changed after
        ``version``, plus the store's own version high-water mark."""
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
        """Adopt every delta entry newer than the local copy of its key.

        Entries carry absolute values, not increments, and an adopted
        entry *assigns* the shipped weight: adding the difference would
        land an ulp off for about one float pair in six, and a mirrored
        value must be a function of its version, bit for bit. So
        re-merging the same delta is a no-op (idempotent) and merge
        order between deltas of one origin cannot matter (per-key
        last-version-wins join). Returns the number of entries adopted.
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
            # one per entry, then up to the delta's own high-water mark.
            self._version = max(
                self._version + adopted, delta.get("version", 0)
            )
        return adopted

    def metrics(self) -> Dict[str, float]:
        """Store statistics (``entries``: tracked keys)."""
        return {"entries": float(len(self))}

    def __len__(self) -> int:
        with self._lock:
            return len(self._slots)
