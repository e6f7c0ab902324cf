"""Live extraction forensics: noticing the robot in the traffic.

The paper argues in two places that the operator can win by *watching*:
§2.4 ("If the adversary is of significant size, we will notice the
increased traffic, and a simple imposition of a limit on queries from a
single user will suffice") and §2.2, whose cost model says an
extraction of N tuples at per-tuple delay d takes N·d seconds.
:class:`ForensicsMonitor` evaluates both online, per identity, from the
served SELECTs the guard's forensics stage feeds it:

* **coverage** — the fraction of the protected population the identity
  has ever retrieved. Legitimate Zipf-skewed users revisit the same hot
  tuples and plateau at small coverage; an extraction robot's coverage
  grows linearly toward 1.
* **novelty** — over the identity's recent requests, the fraction that
  retrieved a tuple the identity had never seen before. Browsers are
  dominated by repeats; a key-space walker is ~100% novel by
  construction.
* **extraction ETA** — the §2.2 model priced from observed behaviour:
  ``remaining population × (delay paid / tuples charged)``, the seconds
  of mandated delay between this identity and the rest of the database
  *at the price the defense is currently charging them*. A browser's
  ETA stays astronomically high; a robot's counts down.
* **risk** ranks identities for the server's ``forensics`` op:
  ``coverage + novelty × min(requests / min_requests, 1)`` — coverage
  dominates (it is the ground truth of extraction progress), novelty
  breaks ties once an identity has enough history to trust it.

An identity is flagged while its coverage is at least
``coverage_threshold``, or its novelty at least ``novelty_threshold``
once it has issued ``min_requests`` requests (young accounts are
all-novel). Flag transitions emit audit events; an identity's first
flag gives it per-identity gauge series, read live from its profile at
every scrape (and 0 while it is not flagged) — only identities that
were *flagged* get label series, so 10k browsing identities cost zero
label cardinality.

Memory is bounded: ``max_identities`` folds the long tail of identities
into one :data:`OVERFLOW_IDENTITY` profile (counted in
``tracked_identities``, never flagged or ranked — it pools unrelated
users, so its coverage is meaningless), and ``max_keys_per_identity``
caps each retrieved-key set (at the cap, repeats of uncapped keys still
look novel — acceptable, since any identity at the cap has long since
tripped coverage).
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, List, Optional, Set, Tuple

__all__ = ["OVERFLOW_IDENTITY", "ForensicsMonitor", "IdentityProfile"]

#: Aggregate profile absorbing identities beyond ``max_identities``.
#: Matches the metrics layer's overflow label; never flagged or ranked.
OVERFLOW_IDENTITY = "_other"


@dataclass
class IdentityProfile:
    """Online per-identity retrieval statistics."""

    identity: str
    retrieved: Set[Hashable] = field(default_factory=set)
    requests: int = 0
    #: total tuples this identity has been charged for (with repeats)
    tuples: int = 0
    #: cumulative mandated delay this identity has paid, in seconds
    delay_paid: float = 0.0
    #: sliding window of "was this retrieval novel?" flags
    recent_novelty: Deque[bool] = field(default_factory=deque)
    #: running count of True flags in ``recent_novelty`` (O(1) rate)
    novel_in_window: int = 0

    def coverage(self, population: int) -> float:
        """Fraction of the population this identity has retrieved."""
        return len(self.retrieved) / population

    def novelty_rate(self) -> float:
        """Fraction of recent retrievals that were first-time tuples."""
        if not self.recent_novelty:
            return 0.0
        return self.novel_in_window / len(self.recent_novelty)


class ForensicsMonitor:
    """Profiles identities, flags extraction and audits the crossings.

    Args:
        population: protected-tuple count N — an int, or a callable
            returning the current count.
        audit: optional :class:`repro.obs.audit.AuditLog` receiving
            ``forensic_flag`` / ``forensic_flag_cleared`` events.
        coverage_threshold: flag identities that have retrieved at
            least this fraction of the population.
        novelty_threshold: flag identities whose recent-window novelty
            rate is at least this value, once they have issued at least
            ``min_requests`` requests.
        window: size of the recent-novelty sliding window.
        min_requests: grace period before novelty can flag anyone.
        max_identities: identities profiled individually; beyond this
            the long tail folds into :data:`OVERFLOW_IDENTITY`.
        max_keys_per_identity: cap on each profile's retrieved-key set
            (coverage saturates at cap / population).
        max_flagged_series: label-cardinality cap for the per-identity
            gauges; flagged identities past it share one ``_other``
            series, which reads the riskiest of them.
    """

    def __init__(
        self,
        population,
        audit=None,
        *,
        coverage_threshold: float = 0.5,
        novelty_threshold: float = 0.9,
        window: int = 200,
        min_requests: int = 100,
        max_identities: int = 4096,
        max_keys_per_identity: int = 100_000,
        max_flagged_series: int = 64,
    ):
        if not 0 < coverage_threshold <= 1:
            raise ValueError(
                f"coverage_threshold must be in (0, 1], got "
                f"{coverage_threshold}"
            )
        if not 0 < novelty_threshold <= 1:
            raise ValueError(
                f"novelty_threshold must be in (0, 1], got "
                f"{novelty_threshold}"
            )
        for name, value in (
            ("window", window),
            ("min_requests", min_requests),
            ("max_identities", max_identities),
            ("max_keys_per_identity", max_keys_per_identity),
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self._population = population
        self.audit = audit
        self.coverage_threshold = coverage_threshold
        self.novelty_threshold = novelty_threshold
        self.window = window
        self.min_requests = min_requests
        self.max_identities = max_identities
        self.max_keys_per_identity = max_keys_per_identity
        self.max_flagged_series = max_flagged_series
        self._lock = threading.Lock()
        self.profiles: Dict[str, IdentityProfile] = {}
        self.overflowed_identities = 0
        #: identity -> reasons currently flagged for
        self._flagged: Dict[str, Tuple[str, ...]] = {}
        self.flags_raised_total = 0
        self.flags_cleared_total = 0
        self._m_flags = None
        self._m_identity_gauges = ()
        #: identities with their own gauge series (at most
        #: ``max_flagged_series``)
        self._series: Set[str] = set()

    @property
    def population(self) -> int:
        """Current protected-tuple count (at least 1)."""
        value = (
            self._population()
            if callable(self._population)
            else self._population
        )
        return max(int(value), 1)

    # -- recording (the guard's ForensicsStage calls this) ------------------

    def observe(
        self,
        identity: str,
        keys,
        delay: float = 0.0,
        trace_id: Optional[str] = None,
    ) -> None:
        """Record one served query and re-evaluate the identity's flag.

        Args:
            identity: the requesting identity.
            keys: the tuple keys the query touched.
            delay: the mandated delay the query was charged (seconds).
            trace_id: correlation id stamped on any audit event.
        """
        population = self.population
        with self._lock:
            profile = self._record(identity, keys, delay)
            if profile.identity == OVERFLOW_IDENTITY:
                return
            coverage = profile.coverage(population)
            novelty = profile.novelty_rate()
            reasons: Tuple[str, ...] = ()
            if coverage >= self.coverage_threshold:
                reasons += ("coverage",)
            if (
                profile.requests >= self.min_requests
                and novelty >= self.novelty_threshold
            ):
                reasons += ("novelty",)
            previous = self._flagged.get(identity)
            if reasons == (previous or ()):
                return
            # Transitions are published under the lock, so audit events
            # and gauges follow the order the flag state changed in.
            if reasons:
                self._flagged[identity] = reasons
                self.flags_raised_total += previous is None
                self._on_flag(
                    profile, population, reasons, previous, trace_id
                )
            else:
                del self._flagged[identity]
                self.flags_cleared_total += 1
                self._on_clear(identity, trace_id)

    def _record(self, identity, keys, delay) -> IdentityProfile:
        """Fold one query into its profile (caller holds the lock)."""
        profile = self.profiles.get(identity)
        if profile is None:
            if (
                len(self.profiles) >= self.max_identities
                and identity != OVERFLOW_IDENTITY
            ):
                self.overflowed_identities += 1
                return self._record(OVERFLOW_IDENTITY, keys, delay)
            profile = IdentityProfile(identity=identity)
            self.profiles[identity] = profile
        profile.requests += 1
        profile.delay_paid += delay
        retrieved = profile.retrieved
        recent = profile.recent_novelty
        for key in keys:
            profile.tuples += 1
            novel = key not in retrieved
            if novel and len(retrieved) < self.max_keys_per_identity:
                retrieved.add(key)
            if len(recent) == self.window:
                profile.novel_in_window -= recent.popleft()
            recent.append(novel)
            profile.novel_in_window += novel
        return profile

    def _on_flag(self, profile, population, reasons, previous, trace_id):
        identity = profile.identity
        coverage = profile.coverage(population)
        novelty = profile.novelty_rate()
        eta = self._eta(profile, population)
        if self._m_flags is not None:
            seen = previous or ()
            for reason in reasons:
                if reason not in seen:
                    self._m_flags.inc(reason=reason)
            if previous is None:
                self._publish_series(identity)
        if self.audit is not None:
            self.audit.emit(
                "forensic_flag",
                trace_id=trace_id,
                identity=identity,
                reasons=list(reasons),
                coverage=coverage,
                novelty=novelty,
                requests=profile.requests,
                eta_seconds=eta,
            )

    def _on_clear(self, identity, trace_id):
        if self.audit is not None:
            self.audit.emit(
                "forensic_flag_cleared",
                trace_id=trace_id,
                identity=identity,
            )

    # -- reading -------------------------------------------------------------

    @staticmethod
    def _eta(profile: IdentityProfile, population: int) -> float:
        """§2.2 online: remaining tuples × observed per-tuple price."""
        if profile.tuples <= 0:
            return 0.0
        per_tuple = profile.delay_paid / profile.tuples
        return max(population - len(profile.retrieved), 0) * per_tuple

    def _risk(self, profile: IdentityProfile, population: int) -> float:
        maturity = min(profile.requests / self.min_requests, 1.0)
        return (
            profile.coverage(population) + profile.novelty_rate() * maturity
        )

    def flagged(self) -> Dict[str, Tuple[str, ...]]:
        """Currently flagged identities and their reasons."""
        with self._lock:
            return dict(self._flagged)

    def top(self, k: int = 10) -> List[Dict]:
        """The k highest-risk identities, risk-ranked, as plain dicts.

        The :data:`OVERFLOW_IDENTITY` aggregate is not an identity and
        is never ranked.
        """
        population = self.population
        with self._lock:
            ranked = heapq.nlargest(
                k,
                (
                    profile
                    for profile in self.profiles.values()
                    if profile.identity != OVERFLOW_IDENTITY
                ),
                key=lambda profile: self._risk(profile, population),
            )
            return [
                {
                    "identity": profile.identity,
                    "coverage": profile.coverage(population),
                    "novelty": profile.novelty_rate(),
                    "requests": profile.requests,
                    "tuples": profile.tuples,
                    "delay_paid_seconds": profile.delay_paid,
                    "eta_seconds": self._eta(profile, population),
                    "risk": self._risk(profile, population),
                    "flagged": profile.identity in self._flagged,
                    "reasons": list(self._flagged.get(profile.identity, ())),
                }
                for profile in ranked
            ]

    def summary(self) -> Dict:
        """Aggregate counts for the ``health`` op."""
        population = self.population
        with self._lock:
            return {
                "population": population,
                "tracked_identities": len(self.profiles),
                "flagged_identities": len(self._flagged),
                "flags_raised_total": self.flags_raised_total,
                "flags_cleared_total": self.flags_cleared_total,
            }

    # -- metrics -------------------------------------------------------------

    def _publish_series(self, identity: str) -> None:
        """Give a newly flagged identity its live gauge series, or,
        past ``max_flagged_series``, the shared ``_other`` one."""
        if identity in self._series:
            return
        if len(self._series) < self.max_flagged_series:
            self._series.add(identity)
            label = identity
        else:
            label = OVERFLOW_IDENTITY
        for gauge, read in self._m_identity_gauges:
            gauge.set_function(
                lambda read=read: self._series_value(label, read),
                identity=label,
            )

    def _series_value(self, label: str, read) -> float:
        """One gauge series, read from the profile it names (0 while
        that identity is not flagged); ``_other`` reads the riskiest
        flagged identity without a series of its own."""
        population = self.population
        with self._lock:
            if label == OVERFLOW_IDENTITY:
                candidates = [
                    identity
                    for identity in self._flagged
                    if identity not in self._series
                ]
            else:
                candidates = [label] if label in self._flagged else []
            if not candidates:
                return 0.0
            profile = max(
                (self.profiles[identity] for identity in candidates),
                key=lambda profile: self._risk(profile, population),
            )
            return read(profile, population)

    def register_metrics(self, registry) -> None:
        """Export forensics state with bounded label cardinality."""
        registry.gauge(
            "forensics_tracked_identities",
            "Identities with individual coverage profiles",
        ).set_function(lambda: len(self.profiles))
        registry.gauge(
            "forensics_flagged_identities",
            "Identities currently flagged as extraction suspects",
        ).set_function(lambda: len(self._flagged))
        self._m_flags = registry.counter(
            "forensics_flags_total",
            "Forensic flags raised, by tripping signal",
            ("reason",),
        )
        self._m_identity_gauges = tuple(
            (registry.gauge(name, help, ("identity",)), read)
            for name, help, read in (
                (
                    "forensics_identity_coverage",
                    "Population coverage of flagged identities",
                    IdentityProfile.coverage,
                ),
                (
                    "forensics_identity_novelty",
                    "Recent-window novelty rate of flagged identities",
                    lambda profile, population: profile.novelty_rate(),
                ),
                (
                    "forensics_identity_extraction_eta_seconds",
                    "§2.2 online extraction ETA of flagged identities "
                    "(remaining population x observed per-tuple delay)",
                    self._eta,
                ),
            )
        )
