"""A thread-safe metrics registry: counters, gauges, and histograms.

The paper's whole argument is quantitative — median user delay stays in
milliseconds while full-extraction cost climbs to hours — so a running
service must be able to *show* those numbers continuously, not as a
one-shot report. This module is the storage layer for that: a small,
dependency-free metrics registry in the Prometheus data model.

Three metric types:

* :class:`Counter` — a monotonically increasing total, optionally split
  by labels (e.g. denials by reason). Labelled series are bounded: past
  ``max_series`` distinct label sets, further increments fold into a
  catch-all ``_other`` series so totals stay exact while memory stays
  bounded (important for per-identity metrics under adversarial churn).
* :class:`Gauge` — a point-in-time value, either set explicitly or read
  from a callback at collection time (e.g. tracked-key population).
* :class:`Histogram` — a streaming distribution with fixed log-spaced
  buckets, per-bucket sums, and exact min/max. Memory is O(buckets)
  regardless of how many values are observed — this replaces the
  unbounded raw-delay lists the evaluation harness used to keep.

Quantile estimation uses nearest-rank over the buckets and answers with
the matched bucket's *mean* (its sum over its count). When a bucket
holds a single distinct value — the common case for delay distributions,
where many queries are charged exactly the cap — the estimate is exact;
otherwise the error is bounded by the bucket width (~26% relative with
the default ten-buckets-per-decade layout, usually far less).

Every metric takes its own lock, so updates from many server threads
never tear, and collection (`snapshot` / Prometheus text) reads a
consistent per-metric view without stopping traffic.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricError",
    "MetricsRegistry",
    "delay_buckets",
]


class MetricError(ValueError):
    """Raised for invalid metric names, labels, or values."""


_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Label-set overflow sentinel: increments past ``max_series`` land here.
OVERFLOW_LABEL = "_other"


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise MetricError(
            f"metric name {name!r} is not a valid identifier "
            "([a-zA-Z_:][a-zA-Z0-9_:]*)"
        )
    return name


def delay_buckets(
    low: float = 1e-4, high: float = 1e5, per_decade: int = 10
) -> List[float]:
    """Log-spaced histogram bounds suited to delays in seconds.

    Spans ``low``..``high`` with ``per_decade`` buckets per decade, and
    leads with a 0.0 bound so zero-delay queries (the overwhelmingly
    common case for popular tuples) occupy their own exact bucket.
    """
    if low <= 0 or high <= low:
        raise MetricError(f"need 0 < low < high, got {low}..{high}")
    if per_decade < 1:
        raise MetricError(f"per_decade must be >= 1, got {per_decade}")
    decades = math.log10(high / low)
    steps = int(round(decades * per_decade))
    bounds = [0.0]
    for step in range(steps + 1):
        bounds.append(low * 10 ** (step / per_decade))
    return bounds


class Metric:
    """Common surface: a named, typed, self-locking metric."""

    type = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self._lock = threading.Lock()
        #: the callable run before every read (see :meth:`defer_to`).
        self._source: Optional[Callable[[], None]] = None

    def defer_to(self, source: Callable[[], None]) -> None:
        """Run ``source`` before every read of this metric.

        For a writer that buffers updates and folds them in batches
        (the query pipeline's per-query records): ``source`` folds
        whatever is buffered, so no reader — a scrape, a quantile, a
        count — ever sees the metric behind its writer. A metric has
        one buffering writer: a later call replaces the source.
        """
        self._source = source

    def _catch_up(self) -> None:
        source = self._source
        if source is not None:
            source()

    def snapshot(self) -> Dict:
        """JSON-compatible view of the current state."""
        raise NotImplementedError

    def render(self) -> List[str]:
        """Prometheus exposition lines (without the HELP/TYPE header)."""
        raise NotImplementedError

    def header(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.type}")
        return lines


def _label_text(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape(value)}"' for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


class _LabelledValues(Metric):
    """Shared machinery for counters and gauges: values keyed by labels."""

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        max_series: int = 1024,
    ):
        super().__init__(name, help)
        self.label_names = tuple(label_names)
        for label in self.label_names:
            _check_name(label)
        if max_series < 1:
            raise MetricError(f"max_series must be >= 1, got {max_series}")
        self.max_series = max_series
        self._values: Dict[Tuple[str, ...], float] = {}
        self._overflow_key = tuple(
            OVERFLOW_LABEL for _ in self.label_names
        )
        #: series key -> callback; ``()`` is the unlabelled series.
        self._callbacks: Dict[Tuple[str, ...], Callable[[], float]] = {}

    def set_function(
        self, callback: Callable[[], float], **labels: str
    ) -> "_LabelledValues":
        """Read one series from ``callback`` at every collection.

        This is how hot-path totals stay free: the instrumented code
        keeps its own cheap bookkeeping (e.g.
        :class:`~repro.core.guard.GuardStats`) and the registry reads
        it only when someone scrapes. An unlabelled metric takes one
        callback; a labelled one takes one per series, named by
        ``labels``. A callback that raises is reported as absent rather
        than failing the scrape. For counters the callback must be
        monotonic — it exposes an already-monotonic total, it does not
        make one.
        """
        if self.label_names and not labels:
            raise MetricError(
                f"{self.type} {self.name} has labels; an unlabelled "
                "callback cannot back it (name the series it computes)"
            )
        self._callbacks[self._key(labels)] = callback
        return self

    def _evaluate(self, key: Tuple[str, ...]) -> Optional[float]:
        callback = self._callbacks.get(key)
        if callback is None:
            return None
        try:
            return float(callback())
        except Exception:
            return None

    def _check_writable(self, key: Tuple[str, ...]) -> None:
        if key in self._callbacks:
            raise MetricError(
                f"{self.type} {self.name} is callback-backed; "
                "it cannot be written directly"
            )

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if not self.label_names and not labels:
            return ()
        try:
            key = tuple(str(labels[name]) for name in self.label_names)
        except KeyError as missing:
            raise MetricError(
                f"{self.name} requires labels {self.label_names}, "
                f"missing {missing}"
            ) from None
        if len(labels) != len(self.label_names):
            extra = set(labels) - set(self.label_names)
            raise MetricError(
                f"{self.name} does not accept labels {sorted(extra)}"
            )
        return key

    def _slot(self, key: Tuple[str, ...]) -> Tuple[str, ...]:
        """The series to charge: ``key``, or the overflow catch-all."""
        if key in self._values or len(self._values) < self.max_series:
            return key
        return self._overflow_key

    def _items(self) -> List[Tuple[Tuple[str, ...], float]]:
        """Every (key, value): written series, then callback-backed
        ones, skipping a callback that raises."""
        self._catch_up()
        with self._lock:
            items = list(self._values.items())
        for key in list(self._callbacks):
            evaluated = self._evaluate(key)
            if evaluated is not None:
                items.append((key, evaluated))
        return items

    def value(self, **labels) -> float:
        """Current value of one series (0 for a series never touched)."""
        key = self._key(labels)
        evaluated = self._evaluate(key)
        if evaluated is not None:
            return evaluated
        self._catch_up()
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum across every series (== value() when unlabelled)."""
        return sum(value for _, value in self._items())

    def series(self) -> List[Tuple[Dict[str, str], float]]:
        """All (labels, value) pairs, insertion-ordered."""
        return [
            (dict(zip(self.label_names, key)), value)
            for key, value in self._items()
        ]

    def snapshot(self) -> Dict:
        items = self._items()
        payload: Dict = {"type": self.type, "help": self.help}
        if self.label_names:
            payload["label_names"] = list(self.label_names)
            payload["series"] = [
                {"labels": dict(zip(self.label_names, key)), "value": value}
                for key, value in items
            ]
            payload["total"] = sum(value for _, value in items)
        else:
            payload["value"] = items[0][1] if items else 0.0
        return payload

    def render(self) -> List[str]:
        items = self._items()
        if not items and not self.label_names and not self._callbacks:
            items = [((), 0.0)]
        return [
            f"{self.name}{_label_text(self.label_names, key)} {_format(value)}"
            for key, value in items
        ]


def _format(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Counter(_LabelledValues):
    """A monotonically increasing total, optionally labelled.

    Hot paths that already maintain a monotonic total (e.g. the guard's
    :class:`~repro.core.guard.GuardStats`) should expose it with
    :meth:`~_LabelledValues.set_function` instead of paying an ``inc``
    per event.
    """

    type = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (>= 0) to the series identified by ``labels``."""
        if amount < 0:
            raise MetricError(
                f"counter {self.name} cannot decrease (got {amount})"
            )
        key = self._key(labels)
        self._check_writable(key)
        with self._lock:
            slot = self._slot(key)
            self._values[slot] = self._values.get(slot, 0.0) + amount


class Gauge(_LabelledValues):
    """A point-in-time value: set directly or computed by a callback."""

    type = "gauge"

    def set(self, value: float, **labels) -> None:
        """Set one series to ``value``."""
        key = self._key(labels)
        self._check_writable(key)
        with self._lock:
            self._values[self._slot(key)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (may be negative) to one series."""
        key = self._key(labels)
        self._check_writable(key)
        with self._lock:
            slot = self._slot(key)
            self._values[slot] = self._values.get(slot, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        """Subtract ``amount`` from one series."""
        self.inc(-amount, **labels)


class Histogram(Metric):
    """Streaming distribution over fixed buckets with bounded memory.

    Args:
        name: metric name (Prometheus identifier).
        help: one-line description.
        buckets: ascending finite upper bounds; an implicit ``+Inf``
            overflow bucket is always appended. Defaults to
            :func:`delay_buckets` (0, then 0.1 ms .. ~28 h, ten buckets
            per decade).

    Tracks per-bucket counts *and sums* plus exact global count, sum,
    min, and max, so quantile estimates can answer with bucket means
    (exact whenever a bucket holds one distinct value) and the extremes
    are always exact.
    """

    type = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ):
        super().__init__(name, help)
        bounds = list(buckets) if buckets is not None else delay_buckets()
        if not bounds:
            raise MetricError("histogram needs at least one bucket bound")
        if any(b != b or b == math.inf for b in bounds):
            raise MetricError("bucket bounds must be finite")
        if sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
            raise MetricError("bucket bounds must be strictly ascending")
        self._bounds = bounds  # finite upper bounds; overflow is implicit
        self._bound_array = np.array(bounds, dtype=float)
        size = len(bounds) + 1
        self._counts = [0] * size
        self._sums = [0.0] * size
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- recording ---------------------------------------------------------

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        if value != value:
            raise MetricError(f"cannot observe NaN in {self.name}")
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sums[index] += value
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values: Iterable[float]) -> None:
        """Record several observations under one lock acquisition.

        The batch is bucketed as arrays — a few numpy calls instead of
        a bisect and an update per value — which is what makes folding
        the pipeline's per-query stage records cheap.
        """
        observed = np.fromiter(values, dtype=float)
        if not observed.size:
            return
        if np.isnan(observed).any():
            raise MetricError(f"cannot observe NaN in {self.name}")
        slots = np.searchsorted(self._bound_array, observed)
        size = len(self._counts)
        counts = np.bincount(slots, minlength=size)
        sums = np.bincount(slots, weights=observed, minlength=size).tolist()
        touched = np.flatnonzero(counts).tolist()
        counts = counts.tolist()
        total = float(observed.sum())
        low, high = float(observed.min()), float(observed.max())
        with self._lock:
            for index in touched:
                self._counts[index] += counts[index]
                self._sums[index] += sums[index]
            self._count += int(observed.size)
            self._sum += total
            if low < self._min:
                self._min = low
            if high > self._max:
                self._max = high

    # -- reading -----------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of observations."""
        self._catch_up()
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        self._catch_up()
        with self._lock:
            return self._sum

    @property
    def min(self) -> float:
        """Smallest observation (0.0 when empty)."""
        self._catch_up()
        with self._lock:
            return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest observation (0.0 when empty)."""
        self._catch_up()
        with self._lock:
            return self._max if self._count else 0.0

    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        self._catch_up()
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1].

        Nearest-rank over the buckets: find the bucket holding the
        ``ceil(q * count)``-th smallest observation and answer with that
        bucket's mean, clamped into [min, max]. ``q=0`` returns the
        exact minimum and ``q=1`` the exact maximum.
        """
        if not 0 <= q <= 1:
            raise MetricError(f"quantile must be in [0, 1], got {q}")
        self._catch_up()
        with self._lock:
            if not self._count:
                return 0.0
            if q == 0:
                return self._min
            if q == 1:
                return self._max
            target = max(1, math.ceil(q * self._count))
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative >= target:
                    estimate = self._sums[index] / bucket_count
                    return min(max(estimate, self._min), self._max)
            return self._max  # pragma: no cover - counts always cover

    def bucket_bounds(self) -> List[float]:
        """The finite upper bounds (the +Inf overflow is implicit)."""
        return list(self._bounds)

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        self._catch_up()
        with self._lock:
            counts = list(self._counts)
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self._bounds + [math.inf], counts):
            running += count
            cumulative.append((bound, running))
        return cumulative

    def snapshot(self) -> Dict:
        """JSON view; only non-empty buckets are materialised."""
        self._catch_up()
        with self._lock:
            counts = list(self._counts)
            sums = list(self._sums)
            count, total = self._count, self._sum
            low = self._min if count else 0.0
            high = self._max if count else 0.0
        buckets = [
            {
                "le": bound,
                "count": bucket_count,
                "sum": bucket_sum,
            }
            for bound, bucket_count, bucket_sum in zip(
                self._bounds + [math.inf], counts, sums
            )
            if bucket_count
        ]
        for bucket in buckets:
            if bucket["le"] == math.inf:
                bucket["le"] = "+Inf"
        payload = {
            "type": self.type,
            "help": self.help,
            "count": count,
            "sum": total,
            "min": low,
            "max": high,
            "mean": total / count if count else 0.0,
            "buckets": buckets,
        }
        if count:
            payload["quantiles"] = {
                "p50": self.quantile(0.5),
                "p90": self.quantile(0.9),
                "p99": self.quantile(0.99),
            }
        return payload

    def render(self) -> List[str]:
        # One lock acquisition for buckets, sum, and count together:
        # a concurrent observe between two acquisitions would make the
        # +Inf bucket disagree with _count in the same exposition.
        self._catch_up()
        with self._lock:
            counts = list(self._counts)
            total, count = self._sum, self._count
        lines = []
        running = 0
        for bound, bucket_count in zip(self._bounds + [math.inf], counts):
            running += bucket_count
            lines.append(
                f'{self.name}_bucket{{le="{_format(bound)}"}} {running}'
            )
        lines.append(f"{self.name}_sum {_format(total)}")
        lines.append(f"{self.name}_count {count}")
        return lines


class MetricsRegistry:
    """A named collection of metrics with JSON and Prometheus exposition.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same object, and asking with a
    conflicting type or label set raises :class:`MetricError`. Existing
    metric objects (e.g. the guard's canonical delay histogram) can be
    adopted with :meth:`register` so one distribution is never tracked
    twice.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: "Dict[str, Metric]" = {}

    # -- creation ----------------------------------------------------------

    def counter(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        max_series: int = 1024,
    ) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(
            Counter, name, help, label_names, max_series
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        max_series: int = 1024,
    ) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, name, help, label_names, max_series)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Get or create a histogram."""
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise MetricError(
                        f"{name} already registered as {existing.type}"
                    )
                return existing
            metric = Histogram(name, help, buckets)
            self._metrics[name] = metric
            return metric

    def _get_or_create(self, cls, name, help, label_names, max_series):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise MetricError(
                        f"{name} already registered as {existing.type}"
                    )
                if existing.label_names != tuple(label_names):
                    raise MetricError(
                        f"{name} registered with labels "
                        f"{existing.label_names}, not {tuple(label_names)}"
                    )
                return existing
            metric = cls(name, help, label_names, max_series)
            self._metrics[name] = metric
            return metric

    def register(self, metric: Metric) -> Metric:
        """Adopt an externally created metric under its own name."""
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is metric:
                return metric
            if existing is not None:
                raise MetricError(
                    f"{metric.name} already registered"
                )
            self._metrics[metric.name] = metric
            return metric

    # -- reading -----------------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        """Look up a metric by name (None when absent)."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        """All registered metric names, insertion-ordered."""
        with self._lock:
            return list(self._metrics)

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def to_json(self) -> Dict[str, Dict]:
        """``{name: snapshot}`` for every metric — the ``metrics`` op."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {metric.name: metric.snapshot() for metric in metrics}

    def render_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every metric."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: List[str] = []
        for metric in metrics:
            body = metric.render()
            if not body:
                continue
            lines.extend(metric.header())
            lines.extend(body)
        return "\n".join(lines) + "\n"
