"""Build info and rolling SLO accounting for the ``health`` op.

Two small pieces of operability plumbing:

* :func:`build_info` — the ``repro_build_info``-style identity labels
  (library version, python version) every scrape and health payload
  should carry, so a dashboard can correlate a regression with a
  deploy.
* :class:`SloTracker` — per-second ring-buffer accounting of request
  outcomes and latencies, summarised over sliding windows (5 min and
  1 h by default) into goodput, availability, and **burn rate**: how
  fast the deployment is spending its error budget, where 1.0 means
  "exactly on target" and N means "budget gone in 1/N of the period".

Outcome taxonomy matters for this defense: a *denial* (result limit,
unknown identity) is the defense working as specified, and a priced
delay is the product, not latency — so availability only debits
*sheds* (overload) and *errors* (bugs), and the latency fed to
``note`` must exclude the mandated delay. The server records latency
up to the moment the response is ready to park, precisely so the
paper's multi-hour adversary delays never look like an SLO violation.
"""

from __future__ import annotations

import platform
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["SloTracker", "build_info", "replication_summary"]

#: Outcomes note() accepts; anything else raises ValueError.
OUTCOMES = ("ok", "denied", "shed", "error")


def build_info() -> Dict[str, str]:
    """Identity labels for ``repro_build_info`` and the health op."""
    try:
        # Imported lazily: repro/__init__ pulls in heavier modules, and
        # obs must stay importable on its own.
        from .. import __version__ as version
    except Exception:
        version = "unknown"
    return {"version": version, "python": platform.python_version()}


def replication_summary(rows: Sequence[Dict]) -> Dict:
    """Fold per-group replication health rows into one operator line.

    ``rows`` are the groups' ``replication_health()`` dicts, read once
    by the caller, so the roll-up and the rows it is shown beside come
    from the same instant. The roll-up the health op and ``repro top``
    lead with: how many groups can serve, the worst follower lag, and
    cumulative failover/fencing counts.
    """
    return {
        "groups": len(rows),
        "groups_available": sum(1 for row in rows if row["available"]),
        "max_replication_lag": max(
            (row["replication_lag"] for row in rows), default=0
        ),
        "failovers_total": sum(row["failovers"] for row in rows),
        "fencings_total": sum(row["fencings"] for row in rows),
        "ship_failures_total": sum(row["ship_failures"] for row in rows),
    }


class _Slot:
    """One second of outcome counts."""

    __slots__ = (
        "second",
        "ok",
        "denied",
        "shed",
        "error",
        "latency_sum",
        "latency_count",
        "slow",
    )

    def __init__(self, second: int):
        self.second = second
        self.ok = 0
        self.denied = 0
        self.shed = 0
        self.error = 0
        self.latency_sum = 0.0
        self.latency_count = 0
        self.slow = 0


class SloTracker:
    """Sliding-window availability, goodput, and latency accounting.

    Args:
        horizon: seconds of history retained (ring size).
        latency_threshold: seconds above which an ``ok`` response
            counts as *slow* (``slow_fraction`` in summaries). The
            mandated delay must NOT be included in the latency the
            caller passes — the defense's sleep is the product.
        availability_target: the SLO (e.g. 0.999); burn rate is
            ``(1 - availability) / (1 - target)``.
        clock: monotonic seconds source, injectable for tests.
    """

    def __init__(
        self,
        horizon: int = 3600,
        latency_threshold: float = 0.25,
        availability_target: float = 0.999,
        clock: Callable[[], float] = time.monotonic,
    ):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if not 0 < availability_target < 1:
            raise ValueError(
                "availability_target must be in (0, 1), got "
                f"{availability_target}"
            )
        if latency_threshold <= 0:
            raise ValueError(
                f"latency_threshold must be > 0, got {latency_threshold}"
            )
        self.horizon = horizon
        self.latency_threshold = latency_threshold
        self.availability_target = availability_target
        self._clock = clock
        self._lock = threading.Lock()
        self._slots: List[Optional[_Slot]] = [None] * horizon
        self.noted_total = 0

    def note(self, outcome: str, latency: Optional[float] = None) -> None:
        """Record one request outcome (latency for ``ok`` responses)."""
        if outcome not in OUTCOMES:
            raise ValueError(
                f"outcome must be one of {OUTCOMES}, got {outcome!r}"
            )
        second = int(self._clock())
        with self._lock:
            slot = self._slots[second % self.horizon]
            if slot is None or slot.second != second:
                slot = _Slot(second)
                self._slots[second % self.horizon] = slot
            setattr(slot, outcome, getattr(slot, outcome) + 1)
            if latency is not None and outcome == "ok":
                slot.latency_sum += latency
                slot.latency_count += 1
                slot.slow += latency > self.latency_threshold
            self.noted_total += 1

    def summary(self, window: int) -> Dict:
        """Aggregate the most recent ``window`` seconds."""
        window = min(max(int(window), 1), self.horizon)
        now = int(self._clock())
        floor = now - window
        ok = denied = shed = error = slow = latency_count = 0
        latency_sum = 0.0
        with self._lock:
            for slot in self._slots:
                if slot is None or slot.second <= floor or slot.second > now:
                    continue
                ok += slot.ok
                denied += slot.denied
                shed += slot.shed
                error += slot.error
                slow += slot.slow
                latency_sum += slot.latency_sum
                latency_count += slot.latency_count
        requests = ok + denied + shed + error
        # Denials are the defense saying "no" as designed; only sheds
        # (overload) and errors (bugs) burn the error budget.
        availability = (
            1.0 - (shed + error) / requests if requests else 1.0
        )
        burn_rate = (1.0 - availability) / (1.0 - self.availability_target)
        return {
            "window_seconds": window,
            "requests": requests,
            "ok": ok,
            "denied": denied,
            "shed": shed,
            "errors": error,
            "goodput_per_second": ok / window,
            "availability": availability,
            "burn_rate": burn_rate,
            "mean_latency_seconds": (
                latency_sum / latency_count if latency_count else 0.0
            ),
            "slow_fraction": (
                slow / latency_count if latency_count else 0.0
            ),
        }

    def report(self, windows: Sequence[int] = (300, 3600)) -> Dict:
        """Per-window summaries plus the SLO parameters."""
        return {
            "availability_target": self.availability_target,
            "latency_threshold_seconds": self.latency_threshold,
            "windows": {
                str(window): self.summary(window) for window in windows
            },
        }
