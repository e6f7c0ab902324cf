"""Configuration for building a :class:`~repro.core.guard.DelayGuard`.

Every field is either a parameter of the paper's formulas or a value
some deployment sets. What only an ablation varies is not configuration:
the §4.4 count stores are objects an experiment installs
(:mod:`repro.experiments.count_stores`), and the rest is fixed — a
statement is charged the sum of its tuples' delays, reads and writes
are recorded (a caller skips one statement with ``record=False``), and
cached results expire by epoch only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError


@dataclass
class GuardConfig:
    """Declarative guard configuration.

    Attributes:
        policy: which delay policy to build — "popularity" (§2),
            "update" (§3), "both" (max of the two), "fixed" (naive
            baseline), or "none" (unprotected baseline).
        cap: maximum per-tuple delay d_max in seconds; None disables
            the cap (§2.2 strongly recommends keeping one).
        beta: extra penalty exponent for the popularity policy (eq. 1).
        unit: proportionality constant in seconds for the popularity
            policy.
        decay_rate: per-request popularity decay γ >= 1 (§2.3); 1.0
            keeps full history.
        fixed_delay: per-tuple delay for the "fixed" baseline policy.
        update_c: the constant c of equation (9) for the update policy.
        update_time_constant: seconds for update-rate decay (None =
            stationary estimation over the full history).
        max_result_rows: §1.1's strawman defense — refuse SELECTs whose
            result exceeds this many rows ("users must ask very
            selective queries"). None disables. Kept as a baseline: the
            paper's point is that a robot trivially defeats it with
            many selective queries, which the tests demonstrate.
        result_cache_size: capacity of the guard's delay-aware result
            cache — SELECT results keyed on (statement shape, params,
            snapshot epoch), where hits skip only the engine execute stage:
            account, price, record, and sleep still run, so the
            mandated delay and popularity counts are identical between
            a hit and a miss. None (the default) disables the cache
            entirely, which keeps the paper's Table 5 engine/accounting
            cost split unperturbed for the replication experiments;
            production front doors should turn it on.
        forensics: enable live extraction forensics — a
            :class:`~repro.core.detection.CoverageMonitor` fed by a
            pipeline stage after record, scored and exported by
            :class:`repro.obs.forensics.ForensicsMonitor` (per-identity
            coverage/novelty/extraction-ETA, audit flag events, the
            server's ``forensics`` op). Off by default: it adds a
            per-SELECT accounting cost and the replication experiments
            drive the monitor offline.
        forensics_coverage_threshold / forensics_novelty_threshold /
            forensics_window / forensics_min_requests: monitor
            thresholds (see :class:`CoverageMonitor`).
        forensics_max_identities: identities profiled individually
            before the long tail folds into the ``_other`` aggregate
            (memory bound for million-user deployments).
        forensics_max_keys_per_identity: cap on each identity's
            retrieved-key set (memory bound; coverage saturates at
            cap / population).
        node_id: stable identity for this guard's trackers in a
            cluster — the origin stamped on gossip deltas, so peers
            can mirror this shard's counts and a recovered shard can
            reclaim its own pre-crash entries. None (the default)
            generates a fresh process-unique origin, which is correct
            for every single-node deployment.
        vectorized_execution: True (the default) runs every statement
            on the engine's columnar executor. False selects the
            row-at-a-time reference tier; both emit bit-identical
            rows/rowids/touched, so pricing and popularity are
            unaffected either way.
    """

    policy: str = "popularity"
    cap: Optional[float] = 10.0
    beta: float = 0.0
    unit: float = 1.0
    decay_rate: float = 1.0
    fixed_delay: float = 0.0
    update_c: float = 1.0
    update_time_constant: Optional[float] = None
    max_result_rows: Optional[int] = None
    result_cache_size: Optional[int] = None
    forensics: bool = False
    forensics_coverage_threshold: float = 0.5
    forensics_novelty_threshold: float = 0.9
    forensics_window: int = 200
    forensics_min_requests: int = 100
    forensics_max_identities: int = 4096
    forensics_max_keys_per_identity: int = 100_000
    node_id: Optional[str] = None
    vectorized_execution: bool = True

    _POLICIES = ("popularity", "update", "both", "fixed", "none")

    def validate(self) -> "GuardConfig":
        """Check cross-field consistency; returns self for chaining."""
        if self.policy not in self._POLICIES:
            raise ConfigError(
                f"policy must be one of {self._POLICIES}, got {self.policy!r}"
            )
        if self.cap is not None and self.cap <= 0:
            raise ConfigError(f"cap must be positive, got {self.cap}")
        if self.decay_rate < 1.0:
            raise ConfigError(
                f"decay_rate must be >= 1.0, got {self.decay_rate}"
            )
        if self.fixed_delay < 0:
            raise ConfigError(
                f"fixed_delay must be >= 0, got {self.fixed_delay}"
            )
        if self.max_result_rows is not None and self.max_result_rows < 1:
            raise ConfigError(
                f"max_result_rows must be >= 1, got {self.max_result_rows}"
            )
        if self.result_cache_size is not None and self.result_cache_size < 1:
            raise ConfigError(
                f"result_cache_size must be >= 1, "
                f"got {self.result_cache_size}"
            )
        if not 0 < self.forensics_coverage_threshold <= 1:
            raise ConfigError(
                f"forensics_coverage_threshold must be in (0, 1], got "
                f"{self.forensics_coverage_threshold}"
            )
        if not 0 < self.forensics_novelty_threshold <= 1:
            raise ConfigError(
                f"forensics_novelty_threshold must be in (0, 1], got "
                f"{self.forensics_novelty_threshold}"
            )
        if self.forensics_window < 1:
            raise ConfigError(
                f"forensics_window must be >= 1, got {self.forensics_window}"
            )
        if self.forensics_min_requests < 1:
            raise ConfigError(
                f"forensics_min_requests must be >= 1, got "
                f"{self.forensics_min_requests}"
            )
        if self.forensics_max_identities < 1:
            raise ConfigError(
                f"forensics_max_identities must be >= 1, got "
                f"{self.forensics_max_identities}"
            )
        if self.forensics_max_keys_per_identity < 1:
            raise ConfigError(
                f"forensics_max_keys_per_identity must be >= 1, got "
                f"{self.forensics_max_keys_per_identity}"
            )
        return self
