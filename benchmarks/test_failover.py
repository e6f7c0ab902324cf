"""Failover benchmark: time-to-promote and the goodput dip.

A replicated two-group cluster serves a steady point-query workload
while the monitor probes on a real-time daemon thread. Halfway through
the run, group 0's primary is killed. Three quantities come out:

* **time_to_promote_ms** — wall-clock from the kill to the first
  successfully served query owned by the failed group (detection one
  probe, promotion the next; the budget is a few probe intervals).
* **goodput dip** — served-query rate in the outage window vs the
  pre-kill baseline. Queries for the healthy group keep serving, so
  the dip is partial, and every failed query is a *structured*
  ``shard_unavailable`` denial with a ``retry_after``, never a raw
  exception.
* **post-failover goodput** — the rate after promotion, back near
  baseline on the promoted follower.

Assertions are CI-safe shape checks (promotion within a generous
bound, goodput recovers, denials structured); the precise numbers land
in ``extra_info`` for the BENCH artifact.

Run with::

    pytest benchmarks/test_failover.py --benchmark-only
"""

import time

from repro.cluster import ClusterService
from repro.core.config import GuardConfig
from repro.core.errors import ShardUnavailable

TABLE = "items"
ROWS = 40
PROBE_INTERVAL = 0.02
PHASE_SECONDS = 0.6  # per phase: warmup / outage+recovery / steady
PROMOTE_BUDGET = 5.0  # CI-safe ceiling, not the expected value


def build_cluster(tmp_path):
    cluster = ClusterService(
        shard_count=2,
        data_dir=tmp_path,
        replication_factor=2,
        probe_interval=PROBE_INTERVAL,
        gossip=False,
        guard_config=GuardConfig(policy="popularity", cap=5.0, unit=60.0),
    )
    cluster.query(
        None, f"CREATE TABLE {TABLE} (id INTEGER PRIMARY KEY, v TEXT)"
    )
    for i in range(1, ROWS + 1):
        cluster.query(None, f"INSERT INTO {TABLE} VALUES ({i}, 'v{i}')")
    cluster.monitor.ship_all()
    return cluster


def run_failover(tmp_path):
    """One continuous drive; the kill lands mid-run.

    Every query outcome is timestamped, so the three windows —
    baseline, outage (kill → first served query owned by the failed
    group), steady — come from one uninterrupted workload instead of
    artificial phases that would hide the promotion inside them.
    """
    cluster = build_cluster(tmp_path)
    try:
        group = cluster.groups[0]
        owners = {
            i: cluster.shard_map.shard_for(TABLE, i)
            for i in range(1, ROWS + 1)
        }
        events = []  # (timestamp, served?, owning group)
        rowid = 0
        start = time.monotonic()
        kill_at = start + PHASE_SECONDS
        end = start + 3 * PHASE_SECONDS
        killed_at = None
        while True:
            now = time.monotonic()
            if now >= end:
                break
            if killed_at is None and now >= kill_at:
                group.primary.kill()
                killed_at = time.monotonic()
            rowid = rowid % ROWS + 1
            try:
                cluster.query(
                    None, f"SELECT * FROM {TABLE} WHERE id = {rowid}"
                )
                events.append((time.monotonic(), True, owners[rowid]))
            except ShardUnavailable as denial:
                assert denial.reason == "shard_unavailable"
                assert denial.retry_after > 0
                events.append((time.monotonic(), False, owners[rowid]))

        promoted_at = next(
            (
                ts
                for ts, served, owner in events
                if served and owner == 0 and ts > killed_at
            ),
            None,
        )
        assert promoted_at is not None, "promotion never served a query"
        time_to_promote = promoted_at - killed_at

        def window(lo, hi):
            served = sum(
                1 for ts, ok, _ in events if ok and lo <= ts < hi
            )
            denied = sum(
                1 for ts, ok, _ in events if not ok and lo <= ts < hi
            )
            return served / max(hi - lo, 1e-9), denied

        baseline_qps, _ = window(start, killed_at)
        outage_qps, outage_denied = window(killed_at, promoted_at)
        steady_qps, steady_denied = window(promoted_at, end)
        # During the outage only the dead group denies; the healthy
        # group's queries keep serving.
        assert all(
            owner == 0
            for ts, ok, owner in events
            if not ok and killed_at <= ts < promoted_at
        )
        return {
            "time_to_promote_ms": time_to_promote * 1000.0,
            "baseline_qps": baseline_qps,
            "outage_qps": outage_qps,
            "steady_qps": steady_qps,
            "outage_denied": outage_denied,
            "steady_denied": steady_denied,
            "failovers": sum(group.failovers for group in cluster.groups),
        }
    finally:
        cluster.close()


def test_failover_time_and_goodput(benchmark, tmp_path):
    result = benchmark.pedantic(
        run_failover, args=(tmp_path,), rounds=1, iterations=1
    )
    benchmark.extra_info.update(result)
    print(
        f"\ntime-to-promote {result['time_to_promote_ms']:.1f} ms | "
        f"goodput qps baseline={result['baseline_qps']:.0f} "
        f"outage={result['outage_qps']:.0f} "
        f"post-failover={result['steady_qps']:.0f} | "
        f"denied during outage={result['outage_denied']}"
    )
    assert result["failovers"] == 1
    assert result["time_to_promote_ms"] <= PROMOTE_BUDGET * 1000.0
    # The promoted follower restores goodput after the outage window.
    assert result["steady_qps"] >= 0.5 * result["baseline_qps"]
    assert result["steady_denied"] == 0
