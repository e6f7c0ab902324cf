"""Ablation benchmark: extraction detection (§2.4's 'we will notice').

Runs a population of legitimate Zipf browsers plus one extraction robot
through the coverage/novelty monitor and measures the separation: the
robot must be flagged before it has copied 25% of the database, with
zero false positives among the browsers.
"""

import pytest

from repro.obs import ForensicsMonitor
from repro.sim.experiment import ResultTable
from repro.workloads.zipf import ZipfSampler

POPULATION = 20_000
BROWSERS = 20
BROWSER_REQUESTS = 5_000


def run_detection_experiment():
    # Thresholds: the flattest legitimate browser here (alpha=0.8 over
    # 5k requests) plateaus around 15% coverage and ~50% novelty; the
    # robot is 100% novel forever, so novelty catches it right after
    # the grace period while coverage stays a safe backstop.
    monitor = ForensicsMonitor(
        population=POPULATION,
        coverage_threshold=0.25,
        novelty_threshold=0.90,
        window=500,
        min_requests=300,
    )
    # Legitimate browsers with varied skew.
    for index in range(BROWSERS):
        sampler = ZipfSampler(
            POPULATION, alpha=0.8 + 0.05 * index, seed=100 + index
        )
        name = f"browser-{index}"
        for item in sampler.sample_many(BROWSER_REQUESTS):
            monitor.observe(name, [("t", int(item))])

    # The robot walks the key space; find when it gets flagged.
    flagged_at = None
    for item in range(1, POPULATION + 1):
        monitor.observe("robot", [("t", item)])
        if flagged_at is None and "robot" in monitor.flagged():
            flagged_at = item
    return monitor, flagged_at


def test_ablation_detection(benchmark):
    monitor, flagged_at = benchmark.pedantic(
        run_detection_experiment, rounds=1, iterations=1
    )

    table = ResultTable(
        title="Ablation — Extraction Detection (coverage + novelty)",
        columns=("identity", "coverage", "novelty", "flagged"),
        note=(
            f"robot flagged after {flagged_at} of {POPULATION} tuples "
            f"({flagged_at / POPULATION:.1%} copied)"
        ),
    )
    suspects = set(monitor.flagged())
    names = [f"browser-{index}" for index in (0, BROWSERS // 2, BROWSERS - 1)]
    for name in names + ["robot"]:
        profile = monitor.profiles[name]
        table.add_row(
            name,
            f"{profile.coverage(monitor.population):.1%}",
            f"{profile.novelty_rate():.1%}",
            "YES" if name in suspects else "no",
        )
    table.show()

    # The robot is caught early...
    assert flagged_at is not None
    assert flagged_at / POPULATION <= 0.25
    # ...and no legitimate browser is flagged.
    assert suspects == {"robot"}
