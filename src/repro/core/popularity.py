"""Decayed counts (§2.3), and popularity tracking on them.

The paper tracks a per-tuple count of requests, normalised by a global
request count. To track *changing* distributions it weights each request
by a factor that decays exponentially with age. Discounting every count
at every access would cost O(N); instead — exactly as §2.3 prescribes —
we inflate the value by which counts increase on each access and keep a
matching normalisation, rescaling everything when the inflated increment
approaches overflow (at a small, bounded precision loss).

That trick is written once, in :class:`DecayedCounts`, whose subclasses
are decay clocks: the request index here, seconds for the §3 update
rates (:mod:`repro.core.update_tracker`).

A statement's whole result set is recorded (:meth:`~PopularityTracker.
record_many`) and read (:meth:`~PopularityTracker.popularity_many`)
under one acquisition of the tracker lock, as array operations on the
count store once the batch is long enough to pay for them
(:data:`SMALL_BATCH`). The batch paths are bit-identical to the per-key
loop, not merely close: per-position increments are a *running* product
and the totals *running* sums, so every intermediate rounds where the
loop rounds it.

Two popularity normalisations are offered:

* ``"raw"`` (paper reading of §2.3: "normalized by a global count of all
  requests"): decayed count divided by the *undecayed* total. Stronger
  decay then shrinks every popularity estimate, inflating delays — this
  is what produces the decay sweeps of Tables 3 and 4.
* ``"decayed"``: decayed count divided by the decayed total — a proper
  probability estimate over the effective window, useful as an ablation.

Replication (the cluster's anti-entropy substrate): every tracker has an
*origin* id and keeps, next to its own counts, a per-origin mirror (a
count store) of the counts other trackers have gossiped to it.
:meth:`~DecayedCounts.delta_since` emits versioned present-scale counts
for the local origin *and* every mirrored origin (so gossip is
transitive), and :meth:`~DecayedCounts.merge` folds a delta in with
per-(origin, key) last-version-wins adoption — commutative, associative,
and idempotent, because each origin's versions are totally ordered and
the shipped value is a function of the version. A mirrored popularity
mass stays pinned at adoption (a mirrored update count ages instead):
with ``decay_rate == 1.0`` the merged view is exact, and with decay the
staleness is bounded by the gossip interval, never an undercount an
adversary could mint by spraying shards. Replication and persistence
need the default :class:`~repro.core.counts.InMemoryCountStore`; the
§4.4 ablation stores, and :class:`AdaptiveTracker`, have neither.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.footprint import FOOTPRINT_FROM, Footprint
from .counts import InMemoryCountStore, Key
from .errors import ConfigError

#: process-unique default origins for trackers built without one.
_ORIGIN_SEQ = itertools.count()

#: Batches shorter than this go key by key. Inside a served query the
#: dozen numpy calls of a batch cost ~40 us whatever its length, the
#: loop ~1.3 us per key, so arrays win from about 40 keys up; a point
#: read's one tuple and a short range's twenty must not pay for them.
#: The engine hands a SELECT's ``touched`` over as a
#: :class:`~repro.engine.footprint.Footprint` from the same number.
SMALL_BATCH = FOOTPRINT_FROM

_MODES = ("raw", "decayed")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ConfigError(f"unknown popularity mode {mode!r}")


def _descending(values: np.ndarray) -> np.ndarray:
    """Indices sorting ``values`` largest first, ties in original order
    (what ``sorted(..., reverse=True)`` gives: it is stable too)."""
    return np.argsort(-values, kind="stable")


def _sum_in_order(start: float, terms: np.ndarray) -> float:
    """``start`` plus each term, left to right.

    ``add.accumulate`` is a running sum, so it rounds after every term
    exactly as a loop of ``+=`` does; ``start + terms.sum()`` (pairwise)
    would not.
    """
    return float(np.add.accumulate(np.concatenate(([start], terms)))[-1])


def _freeze_key(key) -> Key:
    """JSON round-trips tuple keys as lists; restore them."""
    return tuple(key) if isinstance(key, list) else key


def _thaw_key(key):
    """Make a key JSON-serialisable (tuples become lists)."""
    return list(key) if isinstance(key, tuple) else key


class DecayedCounts:
    """Decayed per-key counts with per-origin mirrors: the shared core.

    The store holds *inflated* weights; a key's present count is its
    weight over :attr:`_increment`, what an event now weighs. A subclass
    is a decay clock: it moves the increment (rescaling before it
    overflows) and answers the hooks below.
    """

    #: version headroom added on :meth:`load_state`, so records made
    #: after a recovery outrank pre-crash entries peers mirror back.
    RECOVERY_VERSION_JUMP = 1 << 32
    #: True: a mirror is stored on the local scale and decays with it.
    #: False: a mirror holds present-scale masses, pinned at adoption.
    _MIRRORS_AGE = False
    _FORMAT = ""
    #: the attribute (and snapshot field) holding the decay parameter.
    _PARAMETER = ""

    def __init__(
        self,
        store: Optional[InMemoryCountStore],
        rescale_threshold: float,
        origin: str,
    ):
        self.store = store if store is not None else InMemoryCountStore()
        self.rescale_threshold = float(rescale_threshold)
        self.origin = origin
        # Re-entrant (record -> _rescale nests). Count, totals and
        # increment move as one unit; a whole batch takes it once.
        self._lock = threading.RLock()
        self._increment = 1.0  # weight assigned to an event now
        self._raw_total = 0.0
        self._decayed_total = 0.0
        self._rescales = 0
        #: origin -> counts gossiped here (empty outside a cluster).
        self._remote: Dict[str, InMemoryCountStore] = {}
        #: origin -> {"version", "raw_total", "decayed_total"}
        self._remote_meta: Dict[str, Dict[str, float]] = {}
        #: after load_state: the snapshot's data high-water mark. While
        #: set, :meth:`versions` advertises it (not the jumped counter)
        #: for the local origin, so peers reflect back own-origin counts
        #: the crash destroyed; :meth:`_merge_self` ratchets it forward
        #: as reflections arrive, ending the resends once caught up.
        self._self_floor: Optional[int] = None

    # -- the clock's hooks ---------------------------------------------------

    def _tick(self) -> None:
        """Bring the increment up to now; lock held."""

    def _scale_at(self, payload: Dict) -> float:
        """The increment when ``payload``'s counts were read; lock held."""
        return self._increment

    def _extras(self) -> Dict:
        """Clock fields every payload and snapshot carries; lock held."""
        return {}

    def _absorb(self, payload: Dict) -> None:
        """Fold a merged payload's clock fields in; lock held."""

    def _restart(self, payload: Optional[Dict] = None) -> None:
        """Empty history (or ``payload``'s): reset the clock; lock held."""
        self._increment = 1.0

    def _invalidate(self) -> None:
        """Counts changed wholesale (merge, load, reset); lock held."""

    # -- the store ------------------------------------------------------------

    def _rescale(self, factor: Optional[float] = None) -> None:
        """Multiply every weight by ``factor`` (default: one over the
        increment) and restart the increment at 1 (overflow guard)."""
        with self._lock:
            if factor is None:
                factor = 1.0 / self._increment
            self.store.scale(factor)
            if self._MIRRORS_AGE:
                for mirror in self._remote.values():
                    # A mirror's stamps are its origin's versions.
                    mirror.scale(factor, restamp=False)
            self._decayed_total *= factor
            self._increment = 1.0
            self._rescales += 1

    @property
    def rescales(self) -> int:
        """How many overflow rescales have occurred (diagnostic)."""
        return self._rescales

    def _present_count(self, key: Key) -> float:
        """``key``'s count on the present scale, all origins; lock held."""
        count, mirrored = self.store.get(key), 0.0
        for mirror in self._remote.values():
            mirrored += mirror.get(key)
        if self._MIRRORS_AGE:
            return (count + mirrored) / self._increment
        return count / self._increment + mirrored

    def _present_counts(self, keys: Sequence[Key]) -> np.ndarray:
        """:meth:`_present_count` of every key as a vector; lock held."""
        counts, mirrored = self.store.get_many(keys), np.zeros(len(keys))
        for mirror in self._remote.values():
            mirrored += mirror.get_many(keys)
        if self._MIRRORS_AGE:
            counts += mirrored
        counts /= self._increment
        if not self._MIRRORS_AGE:
            counts += mirrored
        return counts

    def _merged_columns(self) -> Tuple[List[Key], np.ndarray]:
        """Every known key with its present count, local keys first;
        lock held. Folded ``(local + m1) + m2``, the order ranks have
        always used (one rounding from ``local + (m1 + m2)``)."""
        keys, weights = self.store.columns()
        if not self._MIRRORS_AGE:
            weights = weights / self._increment
        if self._remote:
            merged = dict(zip(keys, weights.tolist()))
            for mirror in self._remote.values():
                for key, mass in mirror.items():
                    merged[key] = merged.get(key, 0.0) + mass
            keys = list(merged)
            weights = np.array(list(merged.values()), dtype=np.float64)
        if self._MIRRORS_AGE:
            weights = weights / self._increment
        return keys, weights

    def _remote_total(self, field: str) -> float:
        return sum(meta[field] for meta in self._remote_meta.values())

    def tracked_keys(self) -> int:
        """Number of keys with a stored or mirrored count."""
        with self._lock:
            if not self._remote:
                return len(self.store)
            return len(self._merged_columns()[0])

    def reset(self) -> None:
        """Forget all history (mirrored origins included)."""
        with self._lock:
            self.store.clear()
            self._restart()
            self._raw_total = 0.0
            self._decayed_total = 0.0
            self._remote = {}
            self._remote_meta = {}
            self._self_floor = None
            self._invalidate()

    # -- replication ---------------------------------------------------------

    def versions(self) -> Dict[str, int]:
        """Per-origin version high-water marks this tracker holds.

        Feed a peer's :meth:`versions` into :meth:`delta_since` to get
        exactly the entries that peer is missing.

        For the local origin this is normally the store's counter; a
        freshly recovered tracker instead advertises the snapshot's
        high-water mark, because the counter was jumped far past it and
        would make peers withhold the reflected entries recovery needs.
        """
        with self._lock:
            own = (
                self._self_floor
                if self._self_floor is not None
                else self.store.version
            )
            versions = {self.origin: own}
            for origin, meta in self._remote_meta.items():
                versions[origin] = int(meta["version"])
            return versions

    def _mirror_payload(self, origin: str, since: int) -> Dict:
        """One mirrored origin's entries newer than ``since``; lock held."""
        meta = self._remote_meta[origin]
        divisor = self._increment if self._MIRRORS_AGE else 1.0
        return {
            "version": int(meta["version"]),
            "raw_total": meta["raw_total"],
            "decayed_total": meta["decayed_total"],
            "entries": [
                [_thaw_key(key), weight / divisor, version]
                for key, weight, version in self._remote[origin].delta_since(
                    since
                )["entries"]
            ],
        }

    def _own_entries(self, since: int) -> List[list]:
        """Own entries changed after ``since``, present scale; lock held."""
        return [
            [_thaw_key(key), weight / self._increment, changed]
            for key, weight, changed in self.store.delta_since(since)[
                "entries"
            ]
        ]

    def delta_since(self, versions: Optional[Dict[str, int]] = None) -> Dict:
        """Versioned present-scale counts newer than ``versions``.

        The delta carries one payload per known origin — this tracker's
        own counts *and* every mirrored origin — so gossip spreads
        state transitively without all-pairs exchange. ``versions`` maps
        origin ids to the receiver's high-water marks (missing origins
        mean "send everything").
        """
        versions = dict(versions or {})
        with self._lock:
            self._tick()
            extras = self._extras()
            payloads = [
                {
                    "origin": self.origin,
                    "version": self.store.version,
                    "raw_total": self._raw_total,
                    "decayed_total": self._decayed_total / self._increment,
                    "entries": self._own_entries(
                        versions.get(self.origin, 0)
                    ),
                    **extras,
                }
            ]
            for origin in self._remote:
                since = versions.get(origin, 0)
                payload = self._mirror_payload(origin, since)
                if payload["entries"] or payload["version"] > since:
                    payloads.append({"origin": origin, **payload, **extras})
        return {"payloads": payloads}

    def merge(self, delta: Dict) -> int:
        """Fold a :meth:`delta_since` payload in; returns entries adopted.

        Remote-origin entries land in per-origin mirrors with
        last-version-wins adoption. Entries for *this* tracker's own
        origin are reflections of its past self (a peer gossiping back
        what it learned before this tracker crashed): they are adopted
        into the local store only where the local version is older, which
        restores counts lost since the last snapshot without ever
        clobbering post-recovery records.
        """
        adopted = 0
        with self._lock:
            self._tick()
            for payload in delta.get("payloads", ()):
                self._absorb(payload)
                if payload.get("origin") == self.origin:
                    adopted += self._merge_self(payload)
                else:
                    adopted += self._merge_remote(payload)
            if adopted:
                self._invalidate()
        return adopted

    def _adoptable(self, payload: Dict, scale: float) -> Dict:
        """``payload``'s entries as a store delta at ``scale``."""
        return {
            "version": int(payload.get("version", 0)),
            "entries": [
                [_freeze_key(key), float(count) * scale, int(version)]
                for key, count, version in payload.get("entries", ())
            ],
        }

    def _merge_self(self, payload: Dict) -> int:
        """Adopt reflected own-origin entries where newer; lock held."""
        adopted = self.store.merge(
            self._adoptable(payload, self._scale_at(payload))
        )
        if adopted:
            # The store changed under us; the decayed total is, by
            # construction, exactly the sum of stored weights.
            self._decayed_total = sum(
                weight for _key, weight in self.store.items()
            )
        self._raw_total = max(
            self._raw_total, float(payload.get("raw_total", 0.0))
        )
        if self._self_floor is not None:
            # Everything the peer mirrors up to its payload version has
            # now been offered back; advertising past it stops the
            # re-reflection without hiding genuinely newer entries.
            self._self_floor = max(
                self._self_floor, int(payload.get("version", 0))
            )
        return adopted

    def _merge_remote(self, payload: Dict) -> int:
        """Last-version-wins adoption into one origin mirror; lock held."""
        origin = payload["origin"]
        mirror = self._remote.get(origin)
        if mirror is None:
            mirror = self._remote[origin] = InMemoryCountStore()
        meta = self._remote_meta.setdefault(
            origin, {"version": 0, "raw_total": 0.0, "decayed_total": 0.0}
        )
        scale = self._scale_at(payload) if self._MIRRORS_AGE else 1.0
        adopted = mirror.merge(self._adoptable(payload, scale))
        version = int(payload.get("version", 0))
        if version > meta["version"]:
            meta["version"] = version
            meta["raw_total"] = float(payload.get("raw_total", 0.0))
            meta["decayed_total"] = float(payload.get("decayed_total", 0.0))
        return adopted

    # -- persistence ---------------------------------------------------------

    def dump_state(self) -> Dict:
        """Serialise counts, totals, versions, and origin mirrors.

        Counts are stored on the present scale, so the snapshot is
        independent of the increment at dump time.
        """
        with self._lock:
            self._tick()
            return {
                "format": self._FORMAT,
                "origin": self.origin,
                self._PARAMETER: getattr(self, self._PARAMETER),
                "raw_total": self._raw_total,
                "decayed_total": self._decayed_total / self._increment,
                "version": self.store.version,
                "counts": self._own_entries(0),
                "remote": {
                    origin: self._mirror_payload(origin, 0)
                    for origin in self._remote_meta
                },
                **self._extras(),
            }

    def load_state(self, payload: Dict) -> None:
        """Restore :meth:`dump_state` output, replacing current state.

        The decay parameter must match this tracker's: counts decayed
        under another would silently change every price. The store's
        version counter is advanced by :data:`RECOVERY_VERSION_JUMP`
        past the snapshot's high-water mark, so every record made after
        this load outranks any pre-crash entry a peer may still mirror.
        """
        if payload.get("format") != self._FORMAT:
            raise ConfigError(
                f"unknown {type(self).__name__} state format "
                f"{payload.get('format')!r}"
            )
        mine = getattr(self, self._PARAMETER)
        saved = payload.get(self._PARAMETER, mine)
        if saved != mine:
            raise ConfigError(
                f"snapshot {self._PARAMETER} {saved} does not match "
                f"tracker {self._PARAMETER} {mine}"
            )
        version = int(payload.get("version", 0))
        with self._lock:
            self.store.clear()
            self._restart(payload)
            scale = self._scale_at(payload)
            self.store.merge(
                self._adoptable(
                    {"version": version, "entries": payload.get("counts", ())},
                    scale,
                )
            )
            self.store.advance_version(version + self.RECOVERY_VERSION_JUMP)
            self._self_floor = version
            self.origin = payload.get("origin", self.origin)
            self._raw_total = float(payload.get("raw_total", 0.0))
            self._decayed_total = sum(
                weight for _key, weight in self.store.items()
            )
            self._remote = {}
            self._remote_meta = {}
            mirror_scale = scale if self._MIRRORS_AGE else 1.0
            for origin, mirror in payload.get("remote", {}).items():
                self._remote[origin] = InMemoryCountStore()
                self._remote[origin].merge(
                    self._adoptable(mirror, mirror_scale)
                )
                self._remote_meta[origin] = {
                    "version": int(mirror.get("version", 0)),
                    "raw_total": float(mirror.get("raw_total", 0.0)),
                    "decayed_total": float(mirror.get("decayed_total", 0.0)),
                }
            self._invalidate()


class PopularityTracker(DecayedCounts):
    """Decayed per-tuple request counts with popularity and rank queries.

    The decay clock is the request index: each record multiplies the
    increment by γ, so a request ``k`` requests old carries relative
    weight ``γ**-k``.

    Args:
        store: the count store, an :class:`InMemoryCountStore` by
            default. The one substitution seam: the §4.4 ablations pass
            a store from :mod:`repro.experiments.count_stores`, which
            serves a tracker that never gossips or snapshots.
        decay_rate: per-request inflation factor γ >= 1. 1.0 means no
            decay (full history); larger values forget faster.
        rescale_threshold: when the internal increment exceeds this, all
            counts are rescaled to keep floats in range.
        rank_refresh: recompute cached ranks after this many records
            (ranks are only needed by policies with β > 0; the cache
            bounds the cost of repeated sorting).
        origin: replication identity for :meth:`delta_since` /
            :meth:`merge` (e.g. ``"shard-0"``). Defaults to a
            process-unique id; cluster deployments set it explicitly so
            it survives restarts.
    """

    _FORMAT = "repro-popularity-v1"
    _PARAMETER = "decay_rate"

    def __init__(
        self,
        store: Optional[InMemoryCountStore] = None,
        decay_rate: float = 1.0,
        rescale_threshold: float = 1e100,
        rank_refresh: int = 1000,
        origin: Optional[str] = None,
    ):
        if decay_rate < 1.0:
            raise ConfigError(
                f"decay_rate must be >= 1.0 (got {decay_rate}); values "
                "above 1 forget faster"
            )
        if rescale_threshold <= 1.0:
            raise ConfigError("rescale_threshold must exceed 1.0")
        if rank_refresh < 1:
            raise ConfigError("rank_refresh must be >= 1")
        super().__init__(
            store,
            rescale_threshold,
            origin if origin is not None else f"tracker-{next(_ORIGIN_SEQ)}",
        )
        self.decay_rate = float(decay_rate)
        self.rank_refresh = rank_refresh
        self._rank_cache: Optional[Dict[Key, int]] = None
        self._records_since_rank = 0

    def _invalidate(self) -> None:
        self._rank_cache = None
        self._records_since_rank = 0

    # -- recording ---------------------------------------------------------

    def record(self, key: Key, weight: float = 1.0) -> None:
        """Record one access to ``key`` (``weight`` allows batched hits)."""
        if weight <= 0:
            raise ConfigError(f"weight must be positive, got {weight}")
        with self._lock:
            amount = self._increment * weight
            self.store.add(key, amount)
            self._decayed_total += amount
            self._raw_total += weight
            self._increment *= self.decay_rate
            self._records_since_rank += 1
            if self._records_since_rank >= self.rank_refresh:
                self._rank_cache = None
            if self._increment > self.rescale_threshold:
                self._rescale()

    def record_many(self, keys: Iterable[Key]) -> None:
        """Record a sequence of accesses in order, as one atomic batch.

        Holding the (reentrant) lock across the batch means a
        concurrent :meth:`popularity_many` snapshot sees either none or
        all of a query's recordings — never a half-recorded result set.

        The result is bit-identical to calling :meth:`record` per key,
        but a batch is one ``store.add_many``. Position ``i`` is worth
        ``increment · γ^i``, computed as a running product
        (``multiply.accumulate`` is sequential, so it rounds exactly as
        ``_increment *= decay_rate`` does; ``γ**i`` would not), and the
        totals are running sums for the same reason. A batch during
        which the increment would cross ``rescale_threshold`` takes the
        loop, which rescales mid-batch exactly where it always did. A
        :class:`~repro.engine.footprint.Footprint` reaches the store as
        it is, and the store looks its rowids up as arrays.
        """
        if not isinstance(keys, (list, tuple, Footprint)):
            keys = list(keys)
        count = len(keys)
        with self._lock:
            increments = (
                self._next_increments(count) if count >= SMALL_BATCH else None
            )
            if increments is None:
                for key in keys:
                    self.record(key)
                return
            amounts = increments[:-1]
            self.store.add_many(keys, amounts)
            self._decayed_total = _sum_in_order(self._decayed_total, amounts)
            self._raw_total = _sum_in_order(self._raw_total, np.ones(count))
            self._increment = float(increments[-1])
            self._records_since_rank += count
            if self._records_since_rank >= self.rank_refresh:
                self._rank_cache = None

    def _next_increments(self, count: int) -> Optional[np.ndarray]:
        """The increment before each of the next ``count`` records and
        after the last (``count + 1`` values), or None if a rescale
        would fall among them; lock held."""
        increments = np.full(count + 1, self.decay_rate)
        increments[0] = self._increment
        with np.errstate(over="ignore"):
            increments = np.multiply.accumulate(increments)
        # Non-decreasing, so the last is the only one that can cross.
        if increments[-1] > self.rescale_threshold:
            return None
        return increments

    def apply_decay(self, factor: float) -> None:
        """Explicitly decay all accumulated history by ``factor``.

        Used for period-boundary decay: the box-office experiment (§4.2)
        applies its decay factor at weekly boundaries rather than per
        request. Equivalent to dividing every stored count by ``factor``
        but implemented, like per-request decay, by inflating the weight
        of future requests.
        """
        if factor < 1.0:
            raise ConfigError(f"decay factor must be >= 1.0, got {factor}")
        with self._lock:
            self._increment *= factor
            # Every key's present-scale mass just changed; peers holding
            # mirrored masses must be sent all of them again.
            self.store.mark_all_changed()
            if self._increment > self.rescale_threshold:
                self._rescale()

    # -- queries ------------------------------------------------------------

    @property
    def total_requests(self) -> float:
        """Undecayed number of recorded requests (all known origins)."""
        with self._lock:
            return self._total("raw")

    @property
    def decayed_total(self) -> float:
        """Decayed request total on the present-request weight scale.

        This is the correct denominator for shares of *decayed* counts
        (e.g. ``snapshot()`` weights): with no decay it equals
        ``total_requests``, and with decay it is the effective number of
        'current' requests the surviving weight represents.
        """
        with self._lock:
            return self._total("decayed")

    def present_count(self, key: Key) -> float:
        """Decayed count of ``key`` on the latest-request weight scale.

        With no decay this is exactly the raw hit count; with decay it is
        the equivalent number of 'current' requests. Mirrored mass from
        other origins is included.
        """
        with self._lock:
            return self._present_count(key)

    def _total(self, mode: str) -> float:
        """The denominator ``mode`` names, all origins; lock held."""
        if mode == "raw":
            total = self._raw_total
            if self._remote_meta:
                total += self._remote_total("raw_total")
            return total
        total = self._decayed_total / self._increment
        if self._remote_meta:
            total += self._remote_total("decayed_total")
        return total

    def popularity(self, key: Key, mode: str = "raw") -> float:
        """Normalised popularity estimate of ``key`` in [0, ~1].

        ``mode="raw"`` divides the decayed count by the raw request
        total (the paper's normalisation); ``mode="decayed"`` divides by
        the decayed total (a true frequency over the effective window).
        Returns 0 for unseen keys or before any requests. Both numerator
        and denominator span every known origin, so a clustered tracker
        prices against the *global* distribution.
        """
        _check_mode(mode)
        with self._lock:
            return self._share(key, self._total(mode))

    def _share(self, key: Key, total: float) -> float:
        """``key``'s present-scale count over ``total``; lock held."""
        count = self._present_count(key)
        if count <= 0 or total <= 0:
            return 0.0
        return count / total

    def _normalised(self, counts: np.ndarray, mode: str) -> np.ndarray:
        """Present-scale counts to popularities, elementwise exactly as
        :meth:`popularity` does it (in place); lock held."""
        total = self._total(mode)
        if total <= 0:
            counts[:] = 0.0
            return counts
        cold = counts <= 0
        counts /= total
        counts[cold] = 0.0
        return counts

    def popularity_array(
        self, keys: Sequence[Key], mode: str = "raw"
    ) -> np.ndarray:
        """:meth:`popularity_many` as a float64 vector: one gather and
        two divisions for the whole result set."""
        _check_mode(mode)
        with self._lock:
            return self._normalised(self._present_counts(keys), mode)

    def popularity_many(
        self, keys: Sequence[Key], mode: str = "raw"
    ) -> List[float]:
        """Popularities for ``keys`` from one consistent snapshot.

        One lock acquisition covers the whole batch, so all returned
        estimates share the same counts and totals — the property the
        guard's price stage relies on for multi-tuple queries.
        """
        if len(keys) >= SMALL_BATCH:
            return self.popularity_array(keys, mode).tolist()
        _check_mode(mode)
        with self._lock:
            total = self._total(mode)
            return [self._share(key, total) for key in keys]

    def max_popularity(self, mode: str = "raw") -> float:
        """Popularity of the most popular tracked key (0 if none).

        One locked pass, so the answer is ``max(popularity(k))`` over a
        single consistent state; normalising is weakly monotone, which
        is why the largest count alone decides it.
        """
        _check_mode(mode)
        with self._lock:
            if self._remote:
                counts = self._present_counts(self._merged_columns()[0])
            else:
                counts = self.store.columns()[1] / self._increment
            best = counts.max() if len(counts) else 0.0
            total = self._total(mode)
            if best <= 0 or total <= 0:
                return 0.0
            return float(best / total)

    def rank(self, key: Key) -> int:
        """1-based popularity rank of ``key`` (1 = most popular).

        Unseen keys rank after every tracked key. Ranks come from a
        cache refreshed every ``rank_refresh`` records, so they may lag
        the counts slightly — acceptable for delay assignment, where the
        ranking moves slowly.
        """
        with self._lock:
            if self._rank_cache is None:
                if self._remote:
                    keys, counts = self._merged_columns()
                else:
                    keys, counts = self.store.columns()
                self._rank_cache = {
                    keys[slot]: position
                    for position, slot in enumerate(
                        _descending(counts).tolist(), 1
                    )
                }
                self._records_since_rank = 0
            return self._rank_cache.get(key, len(self._rank_cache) + 1)

    def snapshot(self) -> List[Tuple[Key, float]]:
        """All (key, present_count) pairs, most popular first."""
        with self._lock:
            keys, counts = self._merged_columns()
        order = _descending(counts)
        return [
            (keys[slot], count)
            for slot, count in zip(order.tolist(), counts[order].tolist())
        ]


class AdaptiveTracker:
    """Several trackers with different decay terms, auto-selected (§2.3).

    The paper notes that when the right decay term is unknown, one can
    "simultaneously track counts with more than one decay term,
    switching to the appropriate set as the request pattern warrants" —
    the agile/stable estimator trick from wireless networking and energy
    management. Each candidate tracker scores its one-step-ahead
    predictive log-loss for the observed key (before updating); an EWMA
    of that loss selects the active tracker.

    An analysis tool (the adaptive-decay ablation, the movie-reviews
    example): no guard, shard or snapshot holds one, so it neither
    gossips nor persists.

    Args:
        decay_rates: candidate γ values (must be unique, each >= 1).
        score_smoothing: EWMA factor in (0, 1]; smaller = slower switch.
    """

    _EPSILON = 1e-12

    def __init__(
        self,
        decay_rates: Sequence[float],
        score_smoothing: float = 0.02,
    ):
        if not decay_rates:
            raise ConfigError("need at least one decay rate")
        if len(set(decay_rates)) != len(decay_rates):
            raise ConfigError("decay rates must be unique")
        if not 0 < score_smoothing <= 1:
            raise ConfigError("score_smoothing must be in (0, 1]")
        self.trackers: Dict[float, PopularityTracker] = {
            rate: PopularityTracker(decay_rate=rate) for rate in decay_rates
        }
        self.score_smoothing = score_smoothing
        self._lock = threading.Lock()
        self._scores: Dict[float, float] = {rate: 0.0 for rate in decay_rates}
        self._seen_any = False

    def record(self, key: Key, weight: float = 1.0) -> None:
        """Score each candidate's prediction for ``key``, then update all."""
        # Reject before scoring: a refused record must not move a score.
        if weight <= 0:
            raise ConfigError(f"weight must be positive, got {weight}")
        # Scoring reads every tracker before any of them is updated; the
        # lock keeps concurrent records from interleaving the two halves.
        with self._lock:
            for rate, tracker in self.trackers.items():
                predicted = max(
                    tracker.popularity(key, "decayed"), self._EPSILON
                )
                loss = -math.log(predicted)
                previous = self._scores[rate]
                if self._seen_any:
                    self._scores[rate] = (
                        (1 - self.score_smoothing) * previous
                        + self.score_smoothing * loss
                    )
                else:
                    self._scores[rate] = loss
            self._seen_any = True
            for tracker in self.trackers.values():
                tracker.record(key, weight)

    @property
    def active_rate(self) -> float:
        """The decay rate whose tracker currently predicts best."""
        return min(self._scores, key=self._scores.get)  # type: ignore[arg-type]

    @property
    def active(self) -> PopularityTracker:
        """The currently selected tracker."""
        return self.trackers[self.active_rate]

    def scores(self) -> Dict[float, float]:
        """Current EWMA predictive losses per decay rate (lower = better)."""
        return dict(self._scores)

    # Delegate the query interface to the active tracker so an
    # AdaptiveTracker can stand in wherever a PopularityTracker is read.

    def record_many(self, keys: Iterable[Key]) -> None:
        """Record a sequence of accesses in order."""
        for key in keys:
            self.record(key)

    def popularity(self, key: Key, mode: str = "raw") -> float:
        """Popularity under the currently best decay rate."""
        return self.active.popularity(key, mode)

    def popularity_many(
        self, keys: Sequence[Key], mode: str = "raw"
    ) -> List[float]:
        """Batch popularities under the currently best decay rate."""
        return self.active.popularity_many(keys, mode)

    def popularity_array(
        self, keys: Sequence[Key], mode: str = "raw"
    ) -> np.ndarray:
        """Batch popularities as a vector, under the best decay rate."""
        return self.active.popularity_array(keys, mode)

    def rank(self, key: Key) -> int:
        """Rank under the currently best decay rate."""
        return self.active.rank(key)

    def snapshot(self) -> List[Tuple[Key, float]]:
        """Snapshot under the currently best decay rate."""
        return self.active.snapshot()

    @property
    def total_requests(self) -> float:
        """Undecayed request total (same across candidates)."""
        return self.active.total_requests
