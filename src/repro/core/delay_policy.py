"""Delay policies: mapping a tuple to the seconds it must be delayed.

The paper's core proposal (§2) charges each retrieved tuple a delay
inversely proportional to its popularity; §3 swaps popularity for update
rate. Both are provided here, plus trivial and composite policies used
as baselines and for ablation benchmarks.

All policies implement :meth:`DelayPolicy.delay_for` over opaque tuple
keys; the :class:`~repro.core.guard.DelayGuard` supplies engine rowids.
A large enough result set is priced as arrays
(:meth:`DelayPolicy.delay_array`): one tracker gather,
``min(c / (N · signal), cap)``, and a composite's ``np.maximum`` — bit
for bit what the one-key path charges.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional, Sequence, Union

import numpy as np

from .counts import Key
from .errors import ConfigError
from .popularity import SMALL_BATCH, AdaptiveTracker, PopularityTracker
from .update_tracker import UpdateRateTracker

#: From this many keys up, update-rate and composite pricing runs as
#: arrays; below, the per-key loop is cheaper (a third of the array
#: path on one key; they cross at 4-6 keys, with or without mirrors).
ARRAY_PRICING_FROM = 5

#: Table-size provider: a constant or a zero-argument callable.
Population = Union[int, Callable[[], int]]


def _resolve_population(population: Population) -> int:
    size = population() if callable(population) else population
    if size < 1:
        return 1
    return int(size)


def _inverse_prices(unit, n, signal, cap, cold) -> np.ndarray:
    """``min(unit / (n · s), cap)`` per element, and ``cold`` where the
    signal ``s`` is 0: the scalar ``_price`` expressions in their order,
    so every element rounds as the one-key path does. (A zero signal
    divides to inf and a vanishing one overflows to it, like the scalar
    expression; the cap or ``cold`` replaces either.)"""
    unseen = signal <= 0.0
    with np.errstate(divide="ignore", over="ignore"):
        delays = unit / (n * signal)
    if cap is not None:
        np.minimum(delays, cap, out=delays)
    delays[unseen] = cold
    return delays


#: how a composite folds one key's delays, and a batch's columns.
_COMBINERS = {
    "max": (max, np.maximum),
    "sum": (sum, np.add),
    "min": (min, np.minimum),
}


class DelayPolicy:
    """Interface: per-tuple delay assignment."""

    def delay_for(self, key: Key) -> float:
        """Seconds of delay to charge for retrieving ``key``."""
        raise NotImplementedError

    def delays_for(self, keys: Sequence[Key]) -> List[float]:
        """Per-key delays for a whole result set in one call.

        Subclasses backed by a tracker override this to read every
        count under one lock acquisition and resolve the population
        once, so a multi-tuple query is priced against a consistent
        snapshot even while other threads record accesses. The default
        just loops :meth:`delay_for`.
        """
        return [self.delay_for(key) for key in keys]

    def delay_array(self, keys: Sequence[Key]) -> np.ndarray:
        """:meth:`delays_for` as a float64 vector (what a composite
        combines); tracker-backed policies compute it as one."""
        return np.array(self.delays_for(keys), dtype=np.float64)

    def describe(self) -> str:
        """One-line human-readable description."""
        return type(self).__name__


class NoDelayPolicy(DelayPolicy):
    """Baseline: never delay (an unprotected database)."""

    def delay_for(self, key: Key) -> float:
        return 0.0

    def describe(self) -> str:
        return "no delay"


class FixedDelayPolicy(DelayPolicy):
    """Baseline: the naive scheme — every tuple costs the same delay.

    This is the strawman the paper improves on: it either hurts
    legitimate users (large delay) or fails to slow the adversary
    (small delay).
    """

    def __init__(self, delay: float):
        if delay < 0:
            raise ConfigError(f"delay must be >= 0, got {delay}")
        self.delay = float(delay)

    def delay_for(self, key: Key) -> float:
        return self.delay

    def describe(self) -> str:
        return f"fixed {self.delay:g}s"


class PopularityDelayPolicy(DelayPolicy):
    """The paper's core scheme (§2.1-§2.2): delay ∝ 1/popularity, capped.

    For a tuple with measured popularity ``p`` and rank ``i`` this
    charges ``unit · i^β / (N · p)`` seconds, clamped to ``cap``. When
    the workload follows Zipf(α) — so ``p = fmax · i^-α`` — the charge
    is exactly equation (1): ``i^(α+β) / (N · fmax)``.

    Tuples with no recorded popularity (including everything during the
    cold-start transient, §2.3) get the cap: early queries are served in
    bounded time while the distribution is being learned, and the delay
    of popular items falls rapidly thereafter.

    Args:
        tracker: popularity source (plain or adaptive).
        population: table size N (int or callable).
        cap: maximum per-tuple delay d_max in seconds (§2.2). ``None``
            disables the cap — then unseen tuples get ``uncapped_cold``
            seconds instead.
        beta: extra penalty exponent β >= 0 (needs tuple ranks, which
            cost a periodic sort; leave at 0 for rank-free operation).
        unit: scale factor in seconds (the proportionality constant).
        mode: popularity normalisation, "raw" (paper) or "decayed".
    """

    def __init__(
        self,
        tracker: Union[PopularityTracker, AdaptiveTracker],
        population: Population,
        cap: Optional[float] = 10.0,
        beta: float = 0.0,
        unit: float = 1.0,
        mode: str = "raw",
        uncapped_cold: float = 3600.0,
    ):
        if cap is not None and cap <= 0:
            raise ConfigError(f"cap must be positive, got {cap}")
        if beta < 0:
            raise ConfigError(f"beta must be >= 0, got {beta}")
        if unit <= 0:
            raise ConfigError(f"unit must be positive, got {unit}")
        if mode not in ("raw", "decayed"):
            raise ConfigError(f"unknown popularity mode {mode!r}")
        self.tracker = tracker
        self.population = population
        self.cap = cap
        self.beta = beta
        self.unit = unit
        self.mode = mode
        self.uncapped_cold = uncapped_cold

    def delay_for(self, key: Key) -> float:
        popularity = self.tracker.popularity(key, self.mode)
        n = _resolve_population(self.population)
        return self._price(key, popularity, n)

    def delays_for(self, keys: Sequence[Key]) -> List[float]:
        """Batch pricing against one consistent popularity snapshot.

        All counts are read under a single tracker lock acquisition and
        the population N is resolved once, so every tuple in a result
        set is priced against the same state — a concurrent recorder
        can't make two tuples of one query see different totals.
        """
        if not keys:
            return []
        if self.beta or len(keys) < SMALL_BATCH:
            # Ranks are per key, and a short batch is cheaper key by key.
            popularities = self.tracker.popularity_many(keys, self.mode)
            n = _resolve_population(self.population)
            return [
                self._price(key, popularity, n)
                for key, popularity in zip(keys, popularities)
            ]
        return self.delay_array(keys).tolist()

    def delay_array(self, keys: Sequence[Key]) -> np.ndarray:
        if self.beta:
            return super().delay_array(keys)
        popularities = self.tracker.popularity_array(keys, self.mode)
        return _inverse_prices(
            self.unit,
            _resolve_population(self.population),
            popularities,
            self.cap,
            self.cap if self.cap is not None else self.uncapped_cold,
        )

    def _price(self, key: Key, popularity: float, n: int) -> float:
        if popularity <= 0.0:
            return self.cap if self.cap is not None else self.uncapped_cold
        delay = self.unit / (n * popularity)
        if self.beta:
            delay *= self.tracker.rank(key) ** self.beta
        if self.cap is not None:
            delay = min(delay, self.cap)
        return delay

    def describe(self) -> str:
        cap = f"{self.cap:g}s" if self.cap is not None else "none"
        return (
            f"popularity (beta={self.beta:g}, cap={cap}, unit={self.unit:g}, "
            f"mode={self.mode})"
        )


class UpdateRateDelayPolicy(DelayPolicy):
    """The data-change scheme (§3): delay ∝ 1/update-rate, capped.

    Charges ``c / (N · r)`` seconds for a tuple with estimated update
    rate ``r`` updates/second. When update rates follow Zipf(α) — so
    ``r = rmax · i^-α`` — this is exactly equation (9):
    ``(c/N) · i^α / rmax``. Choosing ``c`` via
    :func:`repro.core.analysis.required_c_for_staleness` guarantees a
    target fraction of any extracted snapshot is stale (eq. 12).

    Never-updated tuples are charged the cap.
    """

    def __init__(
        self,
        tracker: UpdateRateTracker,
        population: Population,
        c: float = 1.0,
        cap: Optional[float] = 10.0,
    ):
        if c <= 0:
            raise ConfigError(f"c must be positive, got {c}")
        if cap is not None and cap <= 0:
            raise ConfigError(f"cap must be positive, got {cap}")
        self.tracker = tracker
        self.population = population
        self.c = float(c)
        self.cap = cap

    def delay_for(self, key: Key) -> float:
        rate = self.tracker.rate(key)
        n = _resolve_population(self.population)
        return self._price(rate, n)

    def delays_for(self, keys: Sequence[Key]) -> List[float]:
        """Batch pricing against one consistent rate snapshot."""
        if len(keys) >= ARRAY_PRICING_FROM:
            return self.delay_array(keys).tolist()
        rates = self.tracker.rate_many(keys)
        n = _resolve_population(self.population)
        return [self._price(rate, n) for rate in rates]

    def delay_array(self, keys: Sequence[Key]) -> np.ndarray:
        return _inverse_prices(
            self.c,
            _resolve_population(self.population),
            self.tracker.rate_array(keys),
            self.cap,
            self.cap if self.cap is not None else math.inf,
        )

    def _price(self, rate: float, n: int) -> float:
        if rate <= 0.0:
            return self.cap if self.cap is not None else math.inf
        delay = self.c / (n * rate)
        if self.cap is not None:
            delay = min(delay, self.cap)
        return delay

    def describe(self) -> str:
        cap = f"{self.cap:g}s" if self.cap is not None else "none"
        return f"update-rate (c={self.c:g}, cap={cap})"


class CompositeDelayPolicy(DelayPolicy):
    """Combine several policies by max or sum.

    ``max`` is the natural combination when both access *and* update
    skew exist: a tuple cheap under one signal may still be penalised by
    the other, so the defense degrades gracefully when either skew
    disappears (a §3 extension the paper hints at).
    """

    def __init__(self, policies: Sequence[DelayPolicy], combine: str = "max"):
        if not policies:
            raise ConfigError("need at least one policy to combine")
        if combine not in ("max", "sum", "min"):
            raise ConfigError(f"unknown combine mode {combine!r}")
        self.policies = list(policies)
        self.combine = combine

    def delay_for(self, key: Key) -> float:
        delays = [policy.delay_for(key) for policy in self.policies]
        return _COMBINERS[self.combine][0](delays)

    def delays_for(self, keys: Sequence[Key]) -> List[float]:
        """Batch each inner policy once, then combine column-wise."""
        if len(keys) >= ARRAY_PRICING_FROM:
            return self.delay_array(keys).tolist()
        columns = [policy.delays_for(keys) for policy in self.policies]
        fold = _COMBINERS[self.combine][0]
        return [fold(values) for values in zip(*columns)]

    def delay_array(self, keys: Sequence[Key]) -> np.ndarray:
        combined = self.policies[0].delay_array(keys)
        ufunc = _COMBINERS[self.combine][1]
        for policy in self.policies[1:]:
            ufunc(combined, policy.delay_array(keys), out=combined)
        return combined

    def describe(self) -> str:
        inner = ", ".join(policy.describe() for policy in self.policies)
        return f"{self.combine}({inner})"


def policy_from_config(
    config,
    popularity: PopularityTracker,
    update_rates: UpdateRateTracker,
    population: Population,
) -> DelayPolicy:
    """The policy a :class:`~repro.core.config.GuardConfig` names.

    The one builder every front door prices through, so
    ``policy="both"`` means ``max(popularity, update-rate)`` on all of
    them.
    """
    if config.policy == "none":
        return NoDelayPolicy()
    if config.policy == "fixed":
        return FixedDelayPolicy(config.fixed_delay)
    by_popularity = PopularityDelayPolicy(
        tracker=popularity,
        population=population,
        cap=config.cap,
        beta=config.beta,
        unit=config.unit,
    )
    if config.policy == "popularity":
        return by_popularity
    by_update_rate = UpdateRateDelayPolicy(
        tracker=update_rates,
        population=population,
        c=config.update_c,
        cap=config.cap,
    )
    if config.policy == "update":
        return by_update_rate
    return CompositeDelayPolicy([by_popularity, by_update_rate], combine="max")
