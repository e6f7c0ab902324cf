"""Update-rate tracking for the data-change defense (§3).

Where access patterns are uniform, the paper assigns delays inversely
proportional to each tuple's *update* rate. This tracker estimates
per-tuple update rates from the observed update stream, with optional
exponential decay in time so shifting update behaviour is tracked.

It is the second decay clock on :class:`~repro.core.popularity.
DecayedCounts` (§2.3's trick on wall time): an update at ``t`` adds
``e^{(t - t0)/τ}`` to the count store, a rate is the present count over
τ, and ``t0`` moves to now when the increment nears overflow. Payloads
carry the sender's clock (``at``), so a mirrored count ages from the
instant it was shipped, and the stationary time origin (``started``),
of which a merge keeps the earliest: that can only lower a rate, and so
raise a delay.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .clock import Clock, VirtualClock
from .counts import Key
from .errors import ConfigError
from .popularity import _ORIGIN_SEQ, SMALL_BATCH, DecayedCounts, _descending

#: rescale past popularity's threshold, ~230 τ after the anchor.
_RESCALE_THRESHOLD = 1e100
_MAX_EXPONENT = math.log(_RESCALE_THRESHOLD)


class UpdateRateTracker(DecayedCounts):
    """Estimates updates-per-second for each tuple.

    With ``time_constant`` τ (seconds), an update that happened ``a``
    seconds ago carries weight ``exp(-a/τ)``; the decayed count of a
    tuple updated at steady rate ``r`` converges to ``r·τ``, so the rate
    estimate is ``decayed_count/τ``. With ``time_constant=None`` the
    tracker keeps plain counts and estimates ``count/elapsed`` — right
    for stationary update processes. One ``exp`` per call, not per key.
    """

    _MIRRORS_AGE = True
    _FORMAT = "repro-updates-v2"
    _PARAMETER = "time_constant"

    def __init__(
        self,
        clock: Optional[Clock] = None,
        time_constant: Optional[float] = None,
        origin: Optional[str] = None,
    ):
        if time_constant is not None and time_constant <= 0:
            raise ConfigError(
                f"time_constant must be positive, got {time_constant}"
            )
        self.clock = clock if clock is not None else VirtualClock()
        self.time_constant = time_constant
        if origin is None:
            origin = f"updates-{next(_ORIGIN_SEQ)}"
        super().__init__(None, _RESCALE_THRESHOLD, origin)
        self._restart()

    # -- the decay clock: seconds ---------------------------------------------

    def _restart(self, payload: Optional[Dict] = None) -> None:
        self._now = self._anchor = self.clock.now()
        self._increment = 1.0
        self._started = self._now if payload is None else payload["started"]

    def _tick(self) -> None:
        self._now = now = self.clock.now()
        if self.time_constant is not None:
            exponent = (now - self._anchor) / self.time_constant
            if exponent > _MAX_EXPONENT:
                self._rescale(math.exp(-exponent))
                self._anchor, exponent = now, 0.0
            self._increment = math.exp(exponent)

    def _weight_at(self, at: float) -> float:
        """An update at ``at``, never later than now; lock held, ticked."""
        if self.time_constant is None or at >= self._now:
            return self._increment
        return math.exp((at - self._anchor) / self.time_constant)

    def _scale_at(self, payload: Dict) -> float:
        return self._weight_at(payload.get("at", self._now))

    def _extras(self) -> Dict:
        return {"at": self._now, "started": self._started}

    def _absorb(self, payload: Dict) -> None:
        self._started = min(self._started, payload.get("started", math.inf))

    # -- recording ---------------------------------------------------------

    def record_update(self, key: Key, at: Optional[float] = None) -> None:
        """Record one update to ``key``, at clock time ``at`` if given
        (recovery replays updates at their commit times). An ``at``
        ahead of the clock counts as now, never as more."""
        self.record_many((key,), at)

    def record_many(
        self, keys: Iterable[Key], at: Optional[float] = None
    ) -> None:
        """One update to each of ``keys`` (a statement's rows, all at
        ``at``) as one atomic batch."""
        keys = keys if isinstance(keys, (list, tuple)) else list(keys)
        with self._lock:
            self._tick()
            weight = self._weight_at(self._now if at is None else at)
            if len(keys) < SMALL_BATCH:
                for key in keys:
                    self.store.add(key, weight)
            else:
                self.store.add_many(keys, np.full(len(keys), weight))
            self._raw_total += len(keys)
            self._decayed_total += weight * len(keys)

    def prime(self, rates: Dict[Key, float], window: float = 1e6) -> None:
        """Set each key's count to its steady-state expectation.

        A burn-in shortcut for experiments, instead of replaying
        ``window`` seconds of updates: ``r·τ`` with a time constant;
        without one, ``r·window`` with the start back-dated by
        ``window``, so ``count/elapsed`` is the rate.
        """
        if window <= 0:
            raise ConfigError(f"window must be positive, got {window}")
        for key, rate in rates.items():
            if rate < 0:
                raise ConfigError(f"rate for {key!r} must be >= 0, got {rate}")
        span = self.time_constant if self.time_constant is not None else window
        primed = [(key, rate * span) for key, rate in rates.items() if rate]
        with self._lock:
            self._tick()
            base, scale = self.store.version, self._increment
            entries = [
                [key, count * scale, base + offset]
                for offset, (key, count) in enumerate(primed, 1)
            ]
            # Stamped past every key's stamp: the count is assigned.
            self.store.merge({"entries": entries})
            self._decayed_total = sum(w for _key, w in self.store.items())
            if self.time_constant is None:
                self._started = min(self._started, self._now - window)

    # -- queries ------------------------------------------------------------

    def _rates(self, counts):
        """Present counts (a float or a vector) to rates; lock held.
        With nothing elapsed, the count: a large finite rate."""
        if self.time_constant is not None:
            return counts / self.time_constant
        elapsed = self._now - self._started
        return counts / elapsed if elapsed > 0 else counts

    @property
    def total_updates(self) -> int:
        """Number of updates recorded (undecayed, all known origins)."""
        with self._lock:
            return int(self._raw_total + self._remote_total("raw_total"))

    def count(self, key: Key) -> float:
        """Decayed update count of ``key`` as of now (all origins)."""
        with self._lock:
            self._tick()
            return self._present_count(key)

    def rate(self, key: Key) -> float:
        """Estimated updates/second for ``key`` (0 for never-updated)."""
        with self._lock:
            count = self.count(key)
            return self._rates(count) if count > 0 else 0.0

    def rate_array(self, keys: Sequence[Key]) -> np.ndarray:
        """:meth:`rate` of every key as a vector: one gather."""
        with self._lock:
            self._tick()
            return self._rates(self._present_counts(keys))

    def rate_many(self, keys: Sequence[Key]) -> List[float]:
        """Rates for ``keys`` from one consistent snapshot (one lock)."""
        with self._lock:
            return [self.rate(key) for key in keys]

    def snapshot(self) -> List[Tuple[Key, float]]:
        """All (key, rate) pairs, fastest-updated first."""
        with self._lock:
            self._tick()
            keys, counts = self._merged_columns()
            rates = self._rates(counts)
        order = _descending(rates)
        return list(zip(map(keys.__getitem__, order), rates[order].tolist()))

    def max_rate(self) -> float:
        """Largest estimated rate across tracked keys (0 if none)."""
        return max((rate for _key, rate in self.snapshot()), default=0.0)

    # -- persistence --------------------------------------------------------

    def load_state(self, payload: Dict) -> None:
        """Restore :meth:`dump_state` output (another τ is refused), or
        the snapshot of the tracker this one replaced: format-less, per
        key ``[key, count, last_seen(, version)]``, aged to now."""
        if "format" not in payload:
            payload = self._upgrade(payload)
        super().load_state(payload)

    def _upgrade(self, old: Dict) -> Dict:
        now, tau = self.clock.now(), old.get("time_constant")

        def aged(key, count, last_seen=None, version=0):
            if tau is not None and last_seen is not None:
                count *= math.exp(min(last_seen - now, 0.0) / tau)
            return [key, count, max(int(version), 1)]

        def mirror(payload):
            return {
                "version": payload.get("version", 0),
                "raw_total": payload.get("total_updates", 0),
                "entries": [aged(*row) for row in payload.get("entries", ())],
            }

        remote, state = old.get("remote", {}), mirror(old)
        state["counts"] = state.pop("entries")
        return {
            **state,
            "format": self._FORMAT,
            "origin": old.get("origin", self.origin),
            "time_constant": tau,
            "remote": {origin: mirror(remote[origin]) for origin in remote},
            "at": now,
            "started": old["started"],
        }
