"""Every metric name the spine emits, with unit, direction and bound.

The names are fixed here: later performance and simplicity PRs are
judged against them. ``BENCHMARK.json`` at the repository root is this
table rendered for the driver (``python -m benchmarks.spine manifest``).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from .workloads import KINDS, RUN_SECONDS, WORKLOADS, Workload


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    meaning: str
    #: end-to-end only: share of the baseline median by which the
    #: metric may worsen before ``compare`` calls it a regression.
    bound: Optional[float] = None
    #: which workloads report it: "all", "writes" or "durable".
    applies: str = "all"


#: The bounds are wider than ISSUE 11 proposed (10-15 %, 5 % for RSS):
#: the shared two-core sandbox flips between a fast and a ~30 % slower
#: state for minutes at a time (a pure CPU loop shows it), and ten runs
#: of one commit spread by 4-9 % of their median in a quiet stretch but
#: 15-25 % when they straddle both states, CPU time per op included.
END_TO_END = (
    Metric("setup_s", "s", "lower",
           "Spawn child, build service, load tables, register identities, "
           "first ping; median of the run's set-ups.", 0.25),
    Metric("goodput_qps", "ops/s", "higher",
           "Successful statements per second over the window.", 0.25),
    Metric("read_p50_ms", "ms", "lower",
           "Client-observed wall latency of SELECTs, the non-delay "
           "overhead: mean of the 10th-90th percentile band.", 0.25),
    Metric("read_p95_ms", "ms", "lower",
           "The same for the 92nd-98th percentile band.", 0.25),
    Metric("write_p50_ms", "ms", "lower",
           "Client-observed wall latency of DML, mean of the 10th-90th "
           "percentile band.", 0.25, "writes"),
    Metric("write_p95_ms", "ms", "lower",
           "The same for the 92nd-98th percentile band.", 0.25, "writes"),
    Metric("server_cpu_ms_per_op", "ms", "lower",
           "Server child utime+stime over the window divided by "
           "successful statements.", 0.25),
    Metric("peak_rss_mb", "MB", "lower",
           "Server child VmHWM at the end of the window.", 0.25),
    Metric("failed_share", "fraction", "lower",
           "Failed, refused or shed statements over attempted; any "
           "increase is a regression.", 0.0),
    Metric("recover_s", "s", "lower",
           "SIGKILL to first answered query in the recovered child.",
           0.25, "durable"),
)

#: The metrics every workload reports and that are never zero: the set
#: ``BENCHMARK.json`` lists under ``end_to_end`` (the driver requires
#: each of them from each workload; ``failed_share`` travels as the
#: result line's ``failed``/``attempted``).
DRIVER_END_TO_END = tuple(
    metric
    for metric in END_TO_END
    if metric.applies == "all" and metric.name != "failed_share"
)

STAGES = (
    "parse", "authorize", "cache", "execute", "cache_store",
    "account", "price", "record", "forensics",
)


def _per_layer() -> List[Metric]:
    table = [
        Metric("client.rtt_us", "us", "lower",
               "Mean DelayClient.query round trip; the per-op rows below "
               "add up to it."),
        Metric("client.codec_us", "us", "lower",
               "Client JSON encode of the request plus decode of the "
               "response, timed directly."),
        Metric("client.read_p99_ms", "ms", "lower", "SELECT p99, diagnostic."),
        Metric("client.write_p99_ms", "ms", "lower", "DML p99, diagnostic."),
    ]
    table += [
        Metric(f"client.class.{kind}.p50_ms", "ms", "lower",
               f"Median round trip of {kind} statements.")
        for kind in KINDS
    ]
    table += [
        Metric("server.self_us", "us", "lower",
               "rtt - codec - time inside the service entry call: socket, "
               "I/O loop, admission queue, worker hand-off, encode."),
        Metric("server.fast_path_hits", "count", "higher",
               "Queries answered on the I/O loop from the result cache."),
        Metric("server.response_bytes_per_op", "bytes", "lower",
               "Mean encoded response size."),
        Metric("server.shed_total", "count", "lower", "Requests shed."),
        Metric("server.handler_errors", "count", "lower",
               "Exceptions that escaped request handling."),
    ]
    table += [
        Metric(f"core.pipeline.{stage}_us", "us", "lower",
               f"guard_stage_{stage}_seconds sum per op.")
        for stage in STAGES
    ]
    table += [
        Metric("core.pipeline.self_us", "us", "lower",
               "guard.execute self time per op: stage loop, trace, audit."),
        Metric("core.pipeline.tuples_charged_per_op", "count", "lower",
               "Base tuples priced per statement."),
        Metric("core.pricing.delay_vs_oracle_min", "ratio", "higher",
               "Smallest charged delay over the oracle's for the same "
               "statement: below 1 the deployment undercharges."),
        Metric("core.pricing.delay_vs_oracle_p50", "ratio", "higher",
               "Median of the same ratio."),
        Metric("core.result_cache.hit_ratio", "ratio", "higher",
               "Result-cache hits over lookups."),
        Metric("core.result_cache.evictions", "count", "lower", "LRU evictions."),
        Metric("core.result_cache.invalidations", "count", "lower",
               "Entries swept by a newer mutation epoch."),
        Metric("core.result_cache.get_us", "us", "lower",
               "ResultCache.get time per op."),
        Metric("core.result_cache.put_us", "us", "lower",
               "ResultCache.put time per op."),
        Metric("core.popularity.price_us_per_tuple", "us", "lower",
               "policy.delays_for time per tuple priced."),
        Metric("core.popularity.record_us_per_tuple", "us", "lower",
               "popularity.record_many time per tuple recorded."),
        Metric("core.popularity.tracked_keys", "count", "lower",
               "Keys holding a popularity count at the end."),
        Metric("core.accounts.authorize_us", "us", "lower",
               "accounts.authorize_query time per op."),
        Metric("core.accounts.record_us", "us", "lower",
               "accounts.record_retrieval time per op."),
        Metric("engine.parser.cold_parse_us", "us", "lower",
               "parse() of one distinct statement, timed directly."),
        Metric("engine.parser.normalize_us", "us", "lower",
               "Uncached normalize_sql() of one statement, timed directly."),
        Metric("engine.parser.parse_cache_hit_ratio", "ratio", "higher",
               "Statement parse-cache hits over lookups."),
        Metric("engine.execute_us", "us", "lower",
               "Database.execute self time per op."),
        Metric("engine.path_share.vectorized", "ratio", "higher",
               "Share of executed SELECTs served by the columnar tier."),
        Metric("engine.path_share.classic", "ratio", "lower",
               "Share that fell back to the row tier."),
        Metric("engine.path_share.parallel", "ratio", "higher",
               "Share served by forked scan workers."),
        Metric("engine.touched_per_row_returned", "ratio", "lower",
               "Base tuples touched per result row of executed SELECTs."),
        Metric("engine.vectorized.columnarise_calls", "count", "lower",
               "ColumnBatch.from_table calls in the window."),
        Metric("engine.vectorized.columnarise_ms", "ms", "lower",
               "Total time in ColumnBatch.from_table."),
        Metric("engine.rwlock.write_hold_ms_per_write", "ms", "lower",
               "Exclusive engine-lock hold time per acked DML."),
        Metric("engine.journal.append_us_per_commit", "us", "lower",
               "journal.append_many time per acked DML."),
        Metric("engine.journal.fsyncs_per_commit", "ratio", "lower",
               "Journal fsyncs per acked DML."),
        Metric("engine.journal.bytes_per_user_byte", "ratio", "lower",
               "Journal bytes appended per byte of DML text."),
        Metric("engine.durability.checkpoint_ms", "ms", "lower",
               "Time in service.checkpoint."),
        Metric("engine.durability.checkpoint_stall_max_ms", "ms", "lower",
               "Worst client round trip overlapping the checkpoint."),
        Metric("engine.durability.snapshot_bytes_per_user_byte", "ratio",
               "lower", "Snapshot file size per byte of loaded rows."),
        Metric("engine.durability.recover_load_ms", "ms", "lower",
               "Snapshot load during recovery."),
        Metric("engine.durability.recover_replay_ms", "ms", "lower",
               "Journal replay during recovery."),
        Metric("engine.durability.replayed_statements", "count", "lower",
               "Journal records recovery re-applied."),
        Metric("cluster.router.self_us", "us", "lower",
               "router.execute self time per op."),
        Metric("cluster.router.point_us", "us", "lower",
               "Mean router.execute time of a point SELECT."),
        Metric("cluster.router.scatter_us", "us", "lower",
               "Mean router.execute time of a scatter aggregate."),
        Metric("cluster.router.single_shard_share", "ratio", "higher",
               "SELECTs on the single-shard fast path."),
        Metric("cluster.router.scatter_share", "ratio", "lower",
               "SELECTs served from the merged read view."),
        Metric("cluster.replication.ship_us_per_commit", "us", "lower",
               "ReplicaGroup.ship time per acked DML."),
        Metric("cluster.replication.ship_bytes_per_commit", "bytes", "lower",
               "Bytes fed to followers per acked DML."),
        Metric("cluster.replication.follower_lag_max", "count", "lower",
               "Largest committed-minus-acked gap seen at a ship."),
        Metric("cluster.gossip.round_ms", "ms", "lower",
               "Mean GossipCoordinator.run_round time."),
        Metric("cluster.gossip.rounds", "count", "lower",
               "Gossip rounds in the window."),
        Metric("cluster.gossip.digest_bytes_per_round", "bytes", "lower",
               "Encoded digest bytes exchanged per round."),
        Metric("obs.audit_bytes_per_op", "bytes", "lower",
               "Audit-log bytes written per op."),
        Metric("obs.audit_dropped_total", "count", "lower",
               "Audit records dropped by the bounded queue."),
        Metric("trace.overhead_share", "ratio", "lower",
               "Traced over untraced single-client replay wall time, "
               "minus one."),
        Metric("trace.unattributed_share", "ratio", "lower",
               "Share of round-trip time in requests no server span "
               "could be matched to."),
    ]
    return table


PER_LAYER = tuple(_per_layer())


def applies(metric: Metric, spec: Workload) -> bool:
    if metric.applies == "writes":
        return spec.has_writes
    if metric.applies == "durable":
        return spec.durable
    return True


def manifest() -> Dict:
    """The driver's ``BENCHMARK.json`` for this table."""
    return {
        "command": ["python3", "benchmarks/spine/bench.py"],
        "paths": ["benchmarks/spine"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": spec.name, "why": spec.why} for spec in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in DRIVER_END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


#: Which end-to-end metric each layer metric should move, on which
#: workload, and where no change is the prediction. Written before the
#: first measurement (ISSUE 11) and copied into every run's JSON; the
#: README carries the same table with what the first run showed.
PREDICTIONS = (
    {
        "layer": "server.self_us, client.codec_us, core.pipeline.self_us, "
                 "core.accounts.*",
        "moves": "read_p50_ms, goodput_qps, server_cpu_ms_per_op",
        "on": "point_zipf",
        "not_on": "scan_agg (under 5 % share there)",
    },
    {
        "layer": "core.result_cache.hit_ratio, .get_us, server.fast_path_hits",
        "moves": "read_p50_ms",
        "on": "point_zipf",
        "not_on": "",
    },
    {
        "layer": "core.result_cache.invalidations",
        "moves": "read_p95_ms",
        "on": "mixed_rw_durable (taxes it)",
        "not_on": "",
    },
    {
        "layer": "engine.execute_us, engine.path_share.*, "
                 "core.popularity.*_us_per_tuple",
        "moves": "read_p50_ms, read_p95_ms, goodput_qps",
        "on": "scan_agg",
        "not_on": "point_zipf",
    },
    {
        "layer": "engine.vectorized.columnarise_*, engine.rwlock.*",
        "moves": "read_p50_ms, read_p95_ms, write_p50_ms",
        "on": "mixed_rw_durable, cluster_m4_rf2",
        "not_on": "must stay at ~0 calls in the read-only workloads",
    },
    {
        "layer": "engine.journal.*",
        "moves": "write_p50_ms",
        "on": "mixed_rw_durable",
        "not_on": "",
    },
    {
        "layer": "engine.durability.checkpoint_*",
        "moves": "read_p95_ms, write_p95_ms",
        "on": "mixed_rw_durable (a stall the median hides)",
        "not_on": "",
    },
    {
        "layer": "engine.durability.recover_*, .snapshot_bytes_*",
        "moves": "recover_s, setup_s",
        "on": "mixed_rw_durable, cluster_m4_rf2",
        "not_on": "",
    },
    {
        "layer": "cluster.router.*",
        "moves": "read_p50_ms (point share), read_p95_ms (scatter share "
                 "after a write)",
        "on": "cluster_m4_rf2",
        "not_on": "",
    },
    {
        "layer": "cluster.replication.*",
        "moves": "write_p50_ms",
        "on": "cluster_m4_rf2",
        "not_on": "",
    },
    {
        "layer": "cluster.gossip.round_ms",
        "moves": "read_p95_ms",
        "on": "cluster_m4_rf2",
        "not_on": "",
    },
    {
        "layer": "anything that caches more",
        "moves": "peak_rss_mb and setup_s, so that work moved into set-up "
                 "or memory shows",
        "on": "all",
        "not_on": "",
    },
)
