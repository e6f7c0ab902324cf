"""The delay-defense core: the paper's contribution.

Public surface:

* :class:`DelayGuard` — wrap a database so every retrieval pays a
  popularity- or update-rate-based delay (§2, §3).
* :class:`GuardConfig` — declarative guard configuration.
* Policies — :class:`PopularityDelayPolicy`, :class:`UpdateRateDelayPolicy`,
  baselines, and composition.
* Trackers — :class:`PopularityTracker` (decayed counts, §2.3),
  :class:`AdaptiveTracker` (multi-decay), :class:`UpdateRateTracker` (§3).
* :class:`InMemoryCountStore` — the per-tuple count store (§2.3).
* :mod:`repro.core.analysis` — closed forms of equations (1)-(12).
* Defenses — :class:`AccountManager` and rate limiters (§2.4).
* Staleness — snapshot evaluation for the data-change defense (§3).
"""

from . import analysis
from .accounts import Account, AccountManager, AccountPolicy
from .clock import Clock, RealClock, VirtualClock
from .config import GuardConfig
from .counts import InMemoryCountStore
from .delay_policy import (
    CompositeDelayPolicy,
    DelayPolicy,
    FixedDelayPolicy,
    NoDelayPolicy,
    PopularityDelayPolicy,
    UpdateRateDelayPolicy,
)
from .errors import AccessDenied, ConfigError, DelayDefenseError, UnknownAccount
from .guard import DelayGuard, GuardedResult, GuardStats, TupleKey
from .pipeline import QueryContext, QueryPipeline, Stage
from .popularity import AdaptiveTracker, PopularityTracker
from .ratelimit import FixedIntervalGate, TokenBucket
from .resilience import BackoffPolicy, BreakerOpen, CircuitBreaker
from .result_cache import CachedResult, ResultCache
from .staleness import (
    ExtractedTuple,
    Snapshot,
    StalenessReport,
    stale_fraction,
    stale_fraction_from_history,
)
from .update_tracker import UpdateRateTracker

__all__ = [
    "AccessDenied",
    "Account",
    "AccountManager",
    "AccountPolicy",
    "AdaptiveTracker",
    "BackoffPolicy",
    "BreakerOpen",
    "CachedResult",
    "CircuitBreaker",
    "Clock",
    "CompositeDelayPolicy",
    "ConfigError",
    "DelayDefenseError",
    "DelayGuard",
    "DelayPolicy",
    "ExtractedTuple",
    "FixedDelayPolicy",
    "FixedIntervalGate",
    "GuardConfig",
    "GuardStats",
    "GuardedResult",
    "InMemoryCountStore",
    "NoDelayPolicy",
    "PopularityDelayPolicy",
    "PopularityTracker",
    "QueryContext",
    "QueryPipeline",
    "RealClock",
    "ResultCache",
    "Stage",
    "Snapshot",
    "StalenessReport",
    "TokenBucket",
    "TupleKey",
    "UnknownAccount",
    "UpdateRateDelayPolicy",
    "UpdateRateTracker",
    "VirtualClock",
    "analysis",
    "stale_fraction",
    "stale_fraction_from_history",
]
