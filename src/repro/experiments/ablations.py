"""Ablations: quantify the design choices behind the scheme.

Four studies, each isolating one knob the paper discusses:

* **Count stores (§4.4)** — exact in-memory counts vs the write-behind
  cache vs the bounded Space-Saving synopsis
  (:mod:`repro.experiments.count_stores`): what does bounding memory
  cost in delay accuracy, and what does the cache save in I/O?
* **Policies (§2 vs the naive strawman)** — no delay, uniform fixed
  delay, popularity delay, update-rate delay, and their max-combination
  on one mixed workload. The fixed baseline is calibrated to charge the
  adversary the *same* total as the popularity scheme, making the
  median-user cost of naivety directly visible.
* **Beta (eq. 1)** — the operator's extra penalty exponent: how the
  adversary/user ratio grows with β, capped and uncapped.
* **Adaptive decay (§2.3)** — on a phase-shifting workload, the
  multi-decay adaptive tracker should approach the best fixed decay
  without knowing the dynamics in advance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..attacks.adversary import ExtractionAdversary
from ..core.config import GuardConfig
from ..core.counts import InMemoryCountStore
from ..core.delay_policy import PopularityDelayPolicy
from ..core.popularity import AdaptiveTracker, PopularityTracker
from ..sim.experiment import ResultTable, build_guarded_items
from ..sim.metrics import format_ratio, format_seconds
from ..sim.simulator import TraceReplayer
from ..workloads.generators import (
    make_zipf_query_trace,
    make_zipf_update_trace,
)
from ..workloads.traces import Trace, interleave
from .common import scaled
from .count_stores import (
    SpaceSavingStore,
    WriteBehindCountStore,
    use_count_store,
)


# -- count stores ------------------------------------------------------------


@dataclass
class StoreAblationRow:
    """One count-store backend's cost/accuracy point."""

    store: str
    replay_seconds: float  # wall time to replay the workload
    median_user_delay: float
    adversary_delay: float
    adversary_error: float  # relative to the exact store
    tracked_keys: int
    backing_io: Optional[int] = None  # write-behind only


@dataclass
class StoreAblationResult:
    """All rows of the count-store ablation."""

    rows: List[StoreAblationRow]
    population: int
    requests: int

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Ablation — Count Store Backends (§4.4)",
            columns=(
                "store", "replay wall (s)", "median delay",
                "adversary delay", "adv. error", "counters", "backing I/O",
            ),
            note=f"{self.requests:,} requests over {self.population:,} tuples",
        )
        for row in self.rows:
            table.add_row(
                row.store,
                f"{row.replay_seconds:.2f}",
                format_seconds(row.median_user_delay),
                format_seconds(row.adversary_delay),
                f"{row.adversary_error:+.2%}",
                str(row.tracked_keys),
                "-" if row.backing_io is None else str(row.backing_io),
            )
        return table


def run_store_ablation(
    scale: float = 1.0,
    population: int = 10_000,
    requests: int = 200_000,
    cap: float = 10.0,
    seed: int = 71,
) -> StoreAblationResult:
    """Replay one workload under each count-store backend."""
    population = scaled(population, scale, minimum=50)
    requests = scaled(requests, scale, minimum=500)
    trace = make_zipf_query_trace(
        population, requests, alpha=1.5, seed=seed
    )
    budget = max(64, population // 10)
    stores = {
        "memory": InMemoryCountStore,
        "write_behind": lambda: WriteBehindCountStore(cache_size=budget),
        "space_saving": lambda: SpaceSavingStore(capacity=budget),
    }
    rows: List[StoreAblationRow] = []
    exact_total: Optional[float] = None
    for name, build_store in stores.items():
        fixture = build_guarded_items(population, config=GuardConfig(cap=cap))
        store = use_count_store(fixture.guard, build_store())
        started = time.perf_counter()
        report = TraceReplayer(fixture.guard, fixture.table).replay(trace)
        elapsed = time.perf_counter() - started
        extraction = ExtractionAdversary(
            fixture.guard, fixture.table, record=False
        ).estimate()
        if exact_total is None:
            exact_total = extraction.total_delay
        backing = None
        if isinstance(store, WriteBehindCountStore):
            backing = store.backing_reads + store.backing_writes
        rows.append(
            StoreAblationRow(
                store=name,
                replay_seconds=elapsed,
                median_user_delay=report.median_delay,
                adversary_delay=extraction.total_delay,
                adversary_error=(
                    (extraction.total_delay - exact_total) / exact_total
                ),
                tracked_keys=len(store),
                backing_io=backing,
            )
        )
    return StoreAblationResult(
        rows=rows, population=population, requests=requests
    )


# -- policies ------------------------------------------------------------------


@dataclass
class PolicyAblationRow:
    """One policy's user-cost / adversary-cost point."""

    policy: str
    median_user_delay: float
    adversary_delay: float

    @property
    def ratio(self) -> float:
        """Adversary delay over median user delay."""
        if self.median_user_delay == 0:
            return float("inf")
        return self.adversary_delay / self.median_user_delay


@dataclass
class PolicyAblationResult:
    """All rows of the policy ablation."""

    rows: List[PolicyAblationRow]
    population: int

    def row(self, policy: str) -> PolicyAblationRow:
        """Look up one policy's row."""
        for row in self.rows:
            if row.policy == policy:
                return row
        raise KeyError(policy)

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Ablation — Delay Policies vs the Naive Baseline",
            columns=(
                "policy", "median user delay", "adversary delay",
                "adversary/user ratio",
            ),
            note=(
                "fixed baseline calibrated to the popularity scheme's "
                "adversary delay"
            ),
        )
        for row in self.rows:
            table.add_row(
                row.policy,
                format_seconds(row.median_user_delay),
                format_seconds(row.adversary_delay),
                format_ratio(row.ratio),
            )
        return table


def run_policy_ablation(
    scale: float = 1.0,
    population: int = 10_000,
    requests: int = 150_000,
    updates: int = 50_000,
    cap: float = 10.0,
    seed: int = 72,
) -> PolicyAblationResult:
    """One mixed workload, five policies, one comparison table."""
    population = scaled(population, scale, minimum=50)
    requests = scaled(requests, scale, minimum=500)
    updates = scaled(updates, scale, minimum=200)
    queries = make_zipf_query_trace(
        population, requests, alpha=1.2, seed=seed
    )
    update_trace = make_zipf_update_trace(
        population, updates, alpha=1.0, seed=seed + 1, total_rate=10.0
    )
    workload = interleave([queries, update_trace])

    def measure(config: GuardConfig) -> Tuple[float, float]:
        fixture = build_guarded_items(population, config=config)
        report = TraceReplayer(fixture.guard, fixture.table).replay(workload)
        extraction = ExtractionAdversary(
            fixture.guard, fixture.table, record=False
        ).estimate()
        return report.median_delay, extraction.total_delay

    rows: List[PolicyAblationRow] = []
    median, adversary = measure(GuardConfig(policy="popularity", cap=cap))
    rows.append(PolicyAblationRow("popularity", median, adversary))
    popularity_adversary = adversary

    # Naive baseline: same adversary total, spread uniformly.
    fixed = popularity_adversary / population
    median, adversary = measure(
        GuardConfig(policy="fixed", fixed_delay=fixed, cap=cap)
    )
    rows.append(PolicyAblationRow("fixed (calibrated)", median, adversary))

    median, adversary = measure(
        GuardConfig(policy="update", update_c=2.0, cap=cap)
    )
    rows.append(PolicyAblationRow("update-rate", median, adversary))

    median, adversary = measure(
        GuardConfig(policy="both", update_c=2.0, cap=cap)
    )
    rows.append(PolicyAblationRow("both (max)", median, adversary))

    median, adversary = measure(GuardConfig(policy="none", cap=cap))
    rows.append(PolicyAblationRow("none", median, adversary))

    return PolicyAblationResult(rows=rows, population=population)


# -- beta sweep ------------------------------------------------------------------


@dataclass
class BetaAblationRow:
    """One β value's outcome (capped and uncapped)."""

    beta: float
    median_user_delay: float
    adversary_delay: float
    uncapped_adversary_delay: float

    @property
    def ratio(self) -> float:
        """Capped adversary/user ratio."""
        if self.median_user_delay == 0:
            return float("inf")
        return self.adversary_delay / self.median_user_delay


@dataclass
class BetaAblationResult:
    """All rows of the β sweep."""

    rows: List[BetaAblationRow]
    population: int

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Ablation — Penalty Exponent Beta (eq. 1)",
            columns=(
                "beta", "median delay", "adversary (capped)",
                "adversary (uncapped)", "ratio (capped)",
            ),
        )
        for row in self.rows:
            table.add_row(
                f"{row.beta:.2f}",
                format_seconds(row.median_user_delay),
                format_seconds(row.adversary_delay),
                format_seconds(row.uncapped_adversary_delay),
                format_ratio(row.ratio),
            )
        return table


def run_beta_ablation(
    scale: float = 1.0,
    population: int = 5_000,
    requests: int = 100_000,
    betas: Sequence[float] = (0.0, 0.25, 0.5, 1.0),
    cap: float = 10.0,
    seed: int = 73,
) -> BetaAblationResult:
    """Sweep β over one learned distribution."""
    population = scaled(population, scale, minimum=50)
    requests = scaled(requests, scale, minimum=500)
    trace = make_zipf_query_trace(
        population, requests, alpha=1.0, seed=seed
    )
    # Learn once; β only affects the policy arithmetic.
    fixture = build_guarded_items(population, config=GuardConfig(cap=cap))
    TraceReplayer(fixture.guard, fixture.table).replay(trace)
    tracker = fixture.guard.popularity
    heap = fixture.database.catalog.table(fixture.table)
    keys = [(fixture.table, rowid) for rowid in heap.rowids()]

    rows: List[BetaAblationRow] = []
    for beta in betas:
        capped = PopularityDelayPolicy(
            tracker, population=population, cap=cap, beta=beta
        )
        uncapped = PopularityDelayPolicy(
            tracker, population=population, cap=None, beta=beta,
            uncapped_cold=cap,
        )
        capped_delays = [capped.delay_for(key) for key in keys]
        uncapped_delays = [uncapped.delay_for(key) for key in keys]
        # Median user delay: weight per-tuple delays by popularity.
        weights = np.array(
            [max(tracker.popularity(key), 0.0) for key in keys]
        )
        order = np.argsort(capped_delays)
        cumulative = np.cumsum(weights[order])
        median_position = int(
            np.searchsorted(cumulative, cumulative[-1] / 2.0)
        )
        median = capped_delays[int(order[median_position])]
        rows.append(
            BetaAblationRow(
                beta=beta,
                median_user_delay=median,
                adversary_delay=float(np.sum(capped_delays)),
                uncapped_adversary_delay=float(np.sum(uncapped_delays)),
            )
        )
    return BetaAblationResult(rows=rows, population=population)


# -- adaptive decay -----------------------------------------------------------------


@dataclass
class AdaptiveAblationRow:
    """One tracker configuration's cost on the shifting workload."""

    tracker: str
    median_user_delay: float


@dataclass
class AdaptiveAblationResult:
    """All rows of the adaptive-decay ablation."""

    rows: List[AdaptiveAblationRow]
    selected_rate: float

    def row(self, name: str) -> AdaptiveAblationRow:
        """Look up one configuration's row."""
        for row in self.rows:
            if row.tracker == name:
                return row
        raise KeyError(name)

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Ablation — Fixed vs Adaptive Decay (§2.3)",
            columns=("tracker", "median user delay"),
            note=f"adaptive selected decay {self.selected_rate}",
        )
        for row in self.rows:
            table.add_row(
                row.tracker, format_seconds(row.median_user_delay)
            )
        return table


def _shifting_trace(
    population: int, phases: int, per_phase: int, seed: int
) -> Trace:
    """Popularity jumps to a fresh random hot set every phase."""
    rng = np.random.default_rng(seed)
    trace = Trace(population=population, name="shifting")
    hot_size = max(2, population // 50)
    for _phase in range(phases):
        hot = rng.choice(population, size=hot_size, replace=False) + 1
        draws = rng.choice(hot, size=per_phase)
        for item in draws:
            trace.add_query(int(item))
    return trace


def run_adaptive_ablation(
    scale: float = 1.0,
    population: int = 2_000,
    phases: int = 40,
    per_phase: int = 2_500,
    cap: float = 10.0,
    decay_rates: Sequence[float] = (1.0, 1.001, 1.01),
    seed: int = 74,
) -> AdaptiveAblationResult:
    """Compare fixed decay rates against the adaptive tracker."""
    population = scaled(population, scale, minimum=100)
    per_phase = scaled(per_phase, scale, minimum=50)
    trace = _shifting_trace(population, phases, per_phase, seed)

    # Popularity mode "decayed" isolates the *relevance* effect of the
    # decay term: with the paper's "raw" normalisation, any strong decay
    # uniformly deflates popularity estimates (the Table 3 mechanism),
    # which would mask what this ablation measures.
    def median_under(tracker) -> float:
        policy = PopularityDelayPolicy(
            tracker, population=population, cap=cap, mode="decayed"
        )
        delays = []
        for event in trace:
            delay = policy.delay_for(event.item)
            tracker.record(event.item)
            delays.append(delay)
        delays.sort()
        return delays[len(delays) // 2]

    rows: List[AdaptiveAblationRow] = []
    for rate in decay_rates:
        tracker = PopularityTracker(decay_rate=rate)
        rows.append(
            AdaptiveAblationRow(
                tracker=f"fixed decay {rate}",
                median_user_delay=median_under(tracker),
            )
        )
    adaptive = AdaptiveTracker(list(decay_rates), score_smoothing=0.02)
    rows.append(
        AdaptiveAblationRow(
            tracker="adaptive",
            median_user_delay=median_under(adaptive),
        )
    )
    return AdaptiveAblationResult(
        rows=rows, selected_rate=adaptive.active_rate
    )
