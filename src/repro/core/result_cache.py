"""The delay-aware result cache: priced hits, epoch invalidation.

A production front door caches its Zipf head — exactly the popular
queries the paper's Eq. 1 says the legitimate workload concentrates on.
A *naive* cache would break the defense: serving popular tuples for
free both erases the small delays legitimate users are supposed to pay
and lets an adversary launder repeated probes past the guard. This
cache is built so that can't happen, by construction:

* **Hits are priced and recorded.** The cache replaces only the
  pipeline's execute stage (:mod:`repro.core.pipeline`). The account,
  price, record, and sleep stages still run against the cached result's
  ``touched`` set, so popularity counts, account charges, and the
  mandated delay are bit-identical between a hit and a miss. Only
  engine CPU is saved.
* **Keys are identity-independent.** Entries are keyed on
  ``(shape, params, snapshot epoch)`` — never on who asked. The
  statement key ``(shape, params)`` comes from the one lexer pass that
  parses the statement (:mod:`repro.engine.parser.shapes`): textual
  variants of one statement share it, and its typed slots keep
  ``id = 1``, ``id = 1.0`` and ``id = '1'`` apart. Admission
  and authorization run *before* the lookup, and pricing after it, so
  sharing results across identities leaks nothing the guard wasn't
  already willing to serve each of them at full price.
* **Any committed change invalidates.** The epoch is the engine's
  :attr:`~repro.engine.database.Database.mutation_epoch` — a monotonic
  counter bumped at every committed DML/DDL (and aligned with the
  write-ahead journal's ``last_seq`` when durability is on), so a
  cached result can never survive a change to the data it came from.
  The "Conjunctive Queries … under Updates" line of work motivates
  tracking the update stream this way. There is no time-based expiry:
  an entry is exactly as fresh as the epoch it is keyed on.
* **Entries are deep-frozen.** Rows are stored as tuples of tuples and
  every hit materialises fresh lists, so a caller mutating a returned
  result can never poison later hits.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple, Union

from ..engine.executor import ResultSet
from ..engine.footprint import Footprint
from .errors import ConfigError

__all__ = ["CachedResult", "ResultCache"]


@dataclass(frozen=True)
class CachedResult:
    """One SELECT result, deep-frozen for safe sharing across callers.

    Everything the downstream pipeline stages need survives the freeze:
    ``touched``/``rowids`` drive accounting and pricing, ``rows`` and
    ``columns`` the answer itself. Rows are tuples of scalar SQL values,
    so the structure is immutable all the way down.
    """

    columns: Tuple[str, ...]
    rows: Tuple[Tuple, ...]
    rowids: Tuple[int, ...]
    touched: Union[Tuple[Tuple[str, int], ...], Footprint]
    table: Optional[str]
    rowcount: int

    @classmethod
    def freeze(cls, result: ResultSet) -> "CachedResult":
        """Deep-copy a live result set into immutable storage form.

        A :class:`~repro.engine.footprint.Footprint` is already
        immutable: its read-only arrays are shared, and only a list a
        consumer may have materialised from it is left behind.
        """
        touched = result.touched
        return cls(
            columns=tuple(result.columns),
            rows=tuple(tuple(row) for row in result.rows),
            rowids=tuple(result.rowids),
            # tuple() of a tuple is that same object, so only a pair the
            # caller could still mutate (a list) is rebuilt.
            touched=(
                touched.share()
                if isinstance(touched, Footprint)
                else tuple(map(tuple, touched))
            ),
            table=result.table,
            rowcount=result.rowcount,
        )

    def thaw(self) -> ResultSet:
        """A fresh :class:`ResultSet` for one caller.

        Builds new list containers on every call: the caller may append
        to or reorder its result freely without reaching the cache, and
        the rows themselves are immutable tuples. A footprint comes
        back as a new one over the same read-only arrays, so a list the
        caller materialises from it stays with the caller.
        """
        touched = self.touched
        return ResultSet(
            columns=list(self.columns),
            rows=list(self.rows),
            rowids=list(self.rowids),
            touched=(
                touched.share()
                if isinstance(touched, Footprint)
                else list(touched)
            ),
            table=self.table,
            rowcount=self.rowcount,
            statement_kind="select",
            execution_path="cached",
        )


class ResultCache:
    """Thread-safe, size-bounded LRU of frozen SELECT results.

    Args:
        maxsize: maximum entries; the least-recently-used is evicted
            beyond it.

    Epoch discipline: every :meth:`get`/:meth:`put` carries the
    caller's observed snapshot epoch. The cache remembers the highest
    epoch it has seen; observing a newer one sweeps every entry keyed
    below it (counted in ``invalidations``), and a :meth:`put` against
    an epoch older than the high-water mark is refused — the writer
    raced with a commit and its result may not describe any current
    snapshot.

    Counters (``hits``/``misses``/``evictions``/``invalidations``) are
    cumulative and read via :meth:`info`.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ConfigError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        #: ((shape, params), epoch) -> frozen result
        self._entries: "OrderedDict[Tuple[Hashable, int], CachedResult]" = (
            OrderedDict()
        )
        self._epoch = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # -- the hot path --------------------------------------------------------

    def get(self, statement: Hashable, epoch: int) -> Optional[CachedResult]:
        """The frozen result for ``(statement, epoch)``, or None on a miss.

        ``statement`` is the statement's ``(shape, params)`` key.
        """
        with self._lock:
            self._observe_epoch(epoch)
            key = (statement, epoch)
            frozen = self._entries.get(key)
            if frozen is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return frozen

    def put(
        self, statement: Hashable, epoch: int, frozen: CachedResult
    ) -> bool:
        """Store a result; returns False when refused as stale.

        A put against an epoch below the cache's high-water mark means a
        commit landed between the caller's epoch read and now — the
        result may describe either snapshot, so it is not cached.
        """
        with self._lock:
            self._observe_epoch(epoch)
            if epoch < self._epoch:
                return False
            key = (statement, epoch)
            self._entries[key] = frozen
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
            return True

    def _observe_epoch(self, epoch: int) -> None:
        """Advance the high-water epoch, sweeping superseded entries.

        The key already separates epochs — a stale entry can never be
        *served* — so the sweep is memory hygiene plus the
        ``invalidations`` signal operators watch to see the update
        stream hitting the cache. O(entries), paid once per committed
        mutation, not per query.
        """
        if epoch <= self._epoch:
            return
        self._epoch = epoch
        stale = [key for key in self._entries if key[1] < epoch]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry; counters and the epoch mark are kept."""
        with self._lock:
            self._entries.clear()

    def info(self) -> Dict[str, float]:
        """Counters and occupancy, for metrics export and tests."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "entries": len(self._entries),
                "capacity": self.maxsize,
                "epoch": self._epoch,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        info = self.info()
        return (
            f"ResultCache(entries={info['entries']}/{self.maxsize}, "
            f"hits={info['hits']}, misses={info['misses']}, "
            f"epoch={info['epoch']})"
        )
