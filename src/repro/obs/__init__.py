"""repro.obs — the observability layer: metrics, tracing, audit, health.

The paper's defense is an argument about *measured time*: median user
delay in milliseconds against extraction cost in hours. This package
makes a running deployment show those numbers continuously:

* :mod:`repro.obs.metrics` — a thread-safe registry of counters,
  gauges, and bounded streaming histograms, with JSON and
  Prometheus-text exposition (histograms in native cumulative
  ``_bucket``/``le`` form).
* :mod:`repro.obs.tracing` — per-stage query-lifecycle spans collected
  into a bounded ring buffer, optionally mirrored to a JSON-lines sink
  through a non-blocking background writer.
* :mod:`repro.obs.audit` — schema-versioned structured audit events
  (served/denied/shed/cached, delays priced, checkpoints, forensic
  flags) with correlation ids, a bounded-queue rotating background
  writer, and replayable readers.
* :mod:`repro.obs.forensics` — live extraction forensics (§2.4's "we
  will notice"): per-identity coverage/novelty/delay-paid profiles,
  extraction-ETA from the paper's §2.2 cost model evaluated online,
  flag-transition audit events, bounded-cardinality metrics.
* :mod:`repro.obs.health` — build info and a rolling per-second SLO
  tracker (goodput, availability, burn rate, latency) feeding the
  server's ``health`` op.
* :class:`Observability` — the bundle a guard/service/server shares:
  one registry + one tracer + an optional audit log + an enable
  switch, so instrumentation can be turned off wholesale for
  overhead-sensitive runs.

This package never imports ``repro.core``/``repro.engine`` (they import
*it*); its only inward dependency is the stdlib-only fault-injection
seam ``repro.testing.faults``, so any layer can depend on it without
cycles. What it needs of a domain object (the forensics monitor's
population count, the replica groups' health rows) is handed in, not
imported.
"""

from __future__ import annotations

from typing import Optional

from .audit import (
    AUDIT_SCHEMA_VERSION,
    AuditLog,
    BackgroundJsonlWriter,
    iter_audit_events,
)
from .forensics import ForensicsMonitor
from .health import SloTracker, build_info
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricError,
    MetricsRegistry,
    delay_buckets,
)
from .tracing import QueryTrace, Span, Tracer

__all__ = [
    "AUDIT_SCHEMA_VERSION",
    "AuditLog",
    "BackgroundJsonlWriter",
    "Counter",
    "ForensicsMonitor",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricError",
    "MetricsRegistry",
    "Observability",
    "QueryTrace",
    "SloTracker",
    "Span",
    "Tracer",
    "build_info",
    "delay_buckets",
    "iter_audit_events",
]


class Observability:
    """One registry + one tracer (+ optional audit log), shared by all.

    Args:
        registry: metrics registry (a fresh one by default).
        tracer: lifecycle tracer (a fresh ring of 256 by default).
        audit: optional :class:`AuditLog`; when present, the guard and
            server emit structured events for every defense decision.
        enabled: when False, instrumented code paths skip all metric,
            trace, and audit work (the objects stay usable directly).

    The guard, service, and server all accept an ``Observability`` and
    default to sharing the one owned by the service, so a server scrape
    sees guard counters and server counters in a single exposition.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        audit: Optional[AuditLog] = None,
        enabled: bool = True,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.audit = audit
        self.enabled = enabled

    @classmethod
    def disabled(cls) -> "Observability":
        """An inert bundle: registry and tracer exist but are not fed."""
        return cls(enabled=False)

    def __repr__(self) -> str:
        return (
            f"Observability(enabled={self.enabled}, "
            f"metrics={len(self.registry)}, traces={len(self.tracer)}, "
            f"audit={'on' if self.audit is not None else 'off'})"
        )
