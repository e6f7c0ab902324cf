"""Per-layer metrics from one traced replay.

Three sources, none of them new stopwatch code inside ``src/``:

* the spans the traced child dumped (see :mod:`.tracing`): self time is
  a span's duration minus its children's;
* deltas of the program's existing registry series (and, on a cluster,
  its health view), read through the ``metrics``/``health`` ops just
  before and after the timed statements;
* direct timing of ``parse``/``normalize_sql`` and of the client's JSON
  codec on the statements and responses of the replay.

Unless a name says otherwise (``_per_tuple``, ``_per_commit``, ``_ms``
totals), a ``*_us`` value is time in the window divided by the client
statements in it, so one workload's rows add up to ``client.rtt_us``.
Series a deployment does not have read 0: cluster shards run with
observability disabled as shipped, so registry-backed rows are 0 there.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Sequence

from repro.engine.parser.normalize import normalize_sql
from repro.engine.parser.parser import parse

from .metrics import PER_LAYER, STAGES
from .workloads import KINDS, WRITE_KINDS, Op, Workload

ENTRY_NAMES = ("guard.execute", "router.execute")
#: Distinct statements timed directly for the parser rows.
PARSER_SAMPLE = 300

# span tuple positions
_ID, _PARENT, _NAME, _START, _END, _ATTRS = range(6)


def entry_spans(spans: Sequence[list], since: float) -> List[list]:
    """Root service-entry spans that answered a client statement, in
    order: one per statement (a fast-path probe that missed the cache
    answered nothing and is skipped)."""
    entries = [
        span
        for span in spans
        if span[_PARENT] == 0
        and span[_NAME] in ENTRY_NAMES
        and span[_START] >= since
        and not (span[_ATTRS] or {}).get("probe_miss")
        and not (span[_ATTRS] or {}).get("error")
    ]
    entries.sort(key=lambda span: span[_START])
    return entries


def _value(snapshot: Dict, name: str) -> float:
    """A registry series' scalar: value, labelled total, or histogram sum."""
    metric = snapshot["metrics"].get(name)
    if metric is None:
        return 0.0
    for key in ("value", "total", "sum"):
        if key in metric:
            return float(metric[key])
    return 0.0


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of ``values``; 0.0 when there are none."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def band_mean(values: Sequence[float], low: float, high: float) -> float:
    """Mean of the order statistics between quantiles ``low`` and
    ``high``: a quantile estimate with a uniform kernel.

    The end-to-end latency figures are such bands (``harness.P50_BAND``
    and ``P95_BAND``): 0.10-0.90 for ``*_p50_ms`` and 0.92-0.98 for
    ``*_p95_ms``. A single order statistic is too jumpy there: with
    writes in the mix the read distribution is bimodal with its median
    at the edge of the gap (reads behind a re-columnarise take 25-90 ms,
    the others ~1 ms), and a window holds only several hundred
    statements. Over ten seeds the plain median of ``mixed_rw_durable``
    reads spread by 32 % of its own median, the 0.10-0.90 band by 13 %.
    """
    ordered = sorted(values)
    first = int(low * len(ordered))
    last = max(math.ceil(high * len(ordered)), first + 1)
    band = ordered[first:last]
    return sum(band) / len(band)


def _direct_parser_times(statements: Sequence[Op]) -> Dict[str, float]:
    distinct = list(dict.fromkeys(op.sql for op in statements))[:PARSER_SAMPLE]
    uncached_normalize = normalize_sql.__wrapped__
    normalize_seconds = parse_seconds = 0.0
    for sql in distinct:
        started = perf_counter()
        normalized = uncached_normalize(sql)
        middle = perf_counter()
        parse(normalized)
        parse_seconds += perf_counter() - middle
        normalize_seconds += middle - started
    return {
        "engine.parser.normalize_us": 1e6 * normalize_seconds / len(distinct),
        "engine.parser.cold_parse_us": 1e6 * parse_seconds / len(distinct),
    }


def _direct_codec(statements: Sequence[Op], responses: Sequence) -> Dict[str, float]:
    """What ``DelayClient._roundtrip`` spends in ``json``, and how many
    bytes the server's answer is, re-enacted on the recorded traffic."""
    seconds, size, answered = 0.0, 0, 0
    for op, response in zip(statements, responses):
        if response is None:
            continue
        request = {"op": "query", "sql": op.sql, "identity": op.identity}
        line = (json.dumps(response) + "\n").encode("utf-8")
        started = perf_counter()
        (json.dumps(request) + "\n").encode("utf-8")
        json.loads(line.decode("utf-8", errors="replace"))
        seconds += perf_counter() - started
        size += len(line)
        answered += 1
    return {
        "client.codec_us": 1e6 * seconds / max(answered, 1),
        "server.response_bytes_per_op": size / max(answered, 1),
    }


def layer_metrics(
    spec: Workload,
    statements: Sequence[Op],
    warm: int,
    traced: Dict,
    untraced: Dict,
    recorded: Dict,
    recovery: Dict,
    snapshot_bytes: int,
    loaded_user_bytes: int,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one workload's traced replay.

    ``traced``/``untraced`` are :func:`harness._replay` results for
    ``statements``, whose first ``warm`` are warm-up and not timed.
    """
    out: Dict[str, float] = {metric.name: 0.0 for metric in PER_LAYER}
    mark_at, end_at = traced["mark_at"], traced["end_at"]
    statements = statements[warm:]
    calls = traced["calls"][warm:]
    responses = traced["responses"][warm:]
    ops = len(statements)
    writes = [
        op for op, response in zip(statements, responses)
        if op.is_write and response is not None
    ]
    commits = max(len(writes), 1)

    # -- the client's view ----------------------------------------------------
    round_trips = [answered - sent for sent, answered in calls]
    out["client.rtt_us"] = 1e6 * sum(round_trips) / ops
    by_kind = defaultdict(list)
    for op, seconds in zip(statements, round_trips):
        by_kind[op.kind].append(seconds * 1000.0)
    for kind in KINDS:
        out[f"client.class.{kind}.p50_ms"] = percentile(by_kind[kind], 0.50)
    out["client.read_p99_ms"] = percentile(
        [ms for kind in by_kind if kind not in WRITE_KINDS for ms in by_kind[kind]],
        0.99,
    )
    out["client.write_p99_ms"] = percentile(
        [ms for kind in WRITE_KINDS for ms in by_kind[kind]], 0.99
    )
    out.update(_direct_codec(statements, responses))
    out.update(_direct_parser_times(statements))

    # -- the span tree ----------------------------------------------------------
    spans = [
        span for span in recorded["spans"]
        if span[_START] >= mark_at and span[_END] <= end_at
    ]
    inside = defaultdict(float)  # span id -> time covered by its children
    for span in spans:
        inside[span[_PARENT]] += span[_END] - span[_START]
    named = defaultdict(list)  # span name -> its spans
    total, self_time = defaultdict(float), defaultdict(float)
    for span in spans:
        duration = span[_END] - span[_START]
        named[span[_NAME]].append(span)
        total[span[_NAME]] += duration
        self_time[span[_NAME]] += duration - inside[span[_ID]]

    def attribute(name: str, key: str) -> float:
        return sum((span[_ATTRS] or {}).get(key, 0) for span in named[name])

    def per_op_us(seconds: float) -> float:
        return 1e6 * seconds / ops

    # Match each statement with the entry spans inside its round trip.
    entries = entry_spans(spans, mark_at)
    probes = [
        span for span in spans
        if span[_PARENT] == 0 and (span[_ATTRS] or {}).get("probe_miss")
    ]
    roots = sorted(entries + probes, key=lambda span: span[_START])
    answering = {span[_ID] for span in entries}
    entry_seconds = unmatched = 0.0
    routed = defaultdict(list)  # statement kind -> router.execute durations
    cursor = 0
    for op, (sent, answered) in zip(statements, calls):
        while cursor < len(roots) and roots[cursor][_START] < sent:
            cursor += 1
        matched = False
        while cursor < len(roots) and roots[cursor][_END] <= answered:
            root = roots[cursor]
            entry_seconds += root[_END] - root[_START]
            matched = matched or root[_ID] in answering
            if root[_NAME] == "router.execute":
                routed[op.kind].append(root[_END] - root[_START])
            cursor += 1
        if not matched:
            unmatched += answered - sent
    out["trace.unattributed_share"] = unmatched / sum(round_trips)
    out["server.self_us"] = (
        out["client.rtt_us"] - out["client.codec_us"] - per_op_us(entry_seconds)
    )
    out["core.pipeline.tuples_charged_per_op"] = (
        sum(span[_ATTRS]["tuples"] for span in entries) / ops
    )

    out["core.pipeline.self_us"] = per_op_us(self_time["guard.execute"])
    out["core.result_cache.get_us"] = per_op_us(total["result_cache.get"])
    out["core.result_cache.put_us"] = per_op_us(total["result_cache.put"])
    lookups = named["result_cache.get"]
    if lookups:
        out["core.result_cache.hit_ratio"] = sum(
            1 for span in lookups if span[_ATTRS]["hit"]
        ) / len(lookups)
    priced = attribute("policy.delays_for", "n")
    if priced:
        out["core.popularity.price_us_per_tuple"] = (
            1e6 * total["policy.delays_for"] / priced
        )
    counted = attribute("popularity.record_many", "n")
    if counted:
        out["core.popularity.record_us_per_tuple"] = (
            1e6 * total["popularity.record_many"] / counted
        )
    out["core.accounts.authorize_us"] = per_op_us(total["accounts.authorize_query"])
    out["core.accounts.record_us"] = per_op_us(total["accounts.record_retrieval"])

    out["engine.execute_us"] = per_op_us(self_time["database.execute"])
    selects = [
        span for span in named["database.execute"]
        if (span[_ATTRS] or {}).get("kind") == "select"
    ]
    if selects:
        for path in ("vectorized", "classic", "parallel"):
            out[f"engine.path_share.{path}"] = sum(
                1 for span in selects if span[_ATTRS]["path"] == path
            ) / len(selects)
        returned = sum(span[_ATTRS]["rows"] for span in selects)
        if returned:
            out["engine.touched_per_row_returned"] = (
                sum(span[_ATTRS]["touched"] for span in selects) / returned
            )
    out["engine.vectorized.columnarise_calls"] = len(named["columnbatch.from_table"])
    out["engine.vectorized.columnarise_ms"] = 1e3 * total["columnbatch.from_table"]
    holds = [
        end - start for start, end in recorded["write_holds"]
        if start >= mark_at and end <= end_at
    ]
    out["engine.rwlock.write_hold_ms_per_write"] = 1e3 * sum(holds) / commits
    out["engine.journal.append_us_per_commit"] = (
        1e6 * total["journal.append_many"] / commits
    )
    out["engine.journal.fsyncs_per_commit"] = (
        attribute("journal.append_many", "fsyncs") / commits
    )
    dml_bytes = sum(len(op.sql) for op in writes)
    if dml_bytes:
        out["engine.journal.bytes_per_user_byte"] = (
            attribute("journal.append_many", "bytes") / dml_bytes
        )

    checkpoints = named["service.checkpoint"]
    if checkpoints:
        out["engine.durability.checkpoint_ms"] = 1e3 * total["service.checkpoint"]
        begun = min(span[_START] for span in checkpoints)
        done = max(span[_END] for span in checkpoints)
        out["engine.durability.checkpoint_stall_max_ms"] = 1e3 * max(
            (
                answered - sent
                for sent, answered in calls
                if sent < done and answered > begun
            ),
            default=0.0,
        )
        out["engine.durability.snapshot_bytes_per_user_byte"] = (
            snapshot_bytes / loaded_user_bytes
        )
    out["engine.durability.recover_load_ms"] = recovery.get("recover_load_ms", 0.0)
    out["engine.durability.recover_replay_ms"] = recovery.get(
        "recover_replay_ms", 0.0
    )
    out["engine.durability.replayed_statements"] = recovery.get(
        "replayed_statements", 0
    )

    # -- the cluster layers -------------------------------------------------------
    out["cluster.router.self_us"] = per_op_us(self_time["router.execute"])
    for kind in ("point", "scatter"):
        if routed[kind]:
            out[f"cluster.router.{kind}_us"] = (
                1e6 * sum(routed[kind]) / len(routed[kind])
            )
    out["cluster.replication.ship_us_per_commit"] = (
        1e6 * total["replication.ship"] / commits
    )
    out["cluster.replication.ship_bytes_per_commit"] = (
        attribute("replication.feed", "bytes") / commits
    )
    out["cluster.replication.follower_lag_max"] = max(
        (span[_ATTRS]["lag"] for span in named["replication.ship"]), default=0
    )
    rounds = named["gossip.run_round"]
    if rounds:
        round_ids = {span[_ID] for span in rounds}
        out["cluster.gossip.round_ms"] = 1e3 * total["gossip.run_round"] / len(rounds)
        out["cluster.gossip.digest_bytes_per_round"] = sum(
            span[_ATTRS]["bytes"]
            for span in named["guard.gossip_digest"]
            if span[_PARENT] in round_ids
        ) / len(rounds)

    # -- registry and health deltas --------------------------------------------------
    before, after = traced["before"], traced["after"]

    def delta(name: str) -> float:
        return _value(after, name) - _value(before, name)

    for stage in STAGES:
        out[f"core.pipeline.{stage}_us"] = per_op_us(
            delta(f"guard_stage_{stage}_seconds")
        )
    out["server.fast_path_hits"] = delta("server_cache_fast_path_hits_total")
    out["server.shed_total"] = delta("server_shed_total")
    out["server.handler_errors"] = delta("server_handler_errors_total")
    out["core.result_cache.evictions"] = delta("guard_result_cache_evictions")
    out["core.result_cache.invalidations"] = delta(
        "guard_result_cache_invalidations"
    )
    out["core.popularity.tracked_keys"] = _value(
        after, "guard_popularity_tracked_keys"
    )
    parse_hits = delta("guard_parse_cache_hits")
    parse_lookups = parse_hits + delta("guard_parse_cache_misses")
    if parse_lookups:
        out["engine.parser.parse_cache_hit_ratio"] = parse_hits / parse_lookups
    out["obs.audit_bytes_per_op"] = delta("audit_bytes_written_total") / ops
    out["obs.audit_dropped_total"] = delta("audit_records_dropped_total")
    if spec.cluster:
        def routing(view: Dict, key: str) -> int:
            return view["health"]["cluster"]["routing"][key]

        single = routing(after, "single_shard_queries") - routing(
            before, "single_shard_queries"
        )
        scatter = routing(after, "scatter_queries") - routing(
            before, "scatter_queries"
        )
        if single + scatter:
            out["cluster.router.single_shard_share"] = single / (single + scatter)
            out["cluster.router.scatter_share"] = scatter / (single + scatter)
        out["cluster.gossip.rounds"] = (
            after["health"]["cluster"]["gossip"]["rounds_total"]
            - before["health"]["cluster"]["gossip"]["rounds_total"]
        )

    traced_wall = traced["end_at"] - traced["mark_at"]
    untraced_wall = untraced["end_at"] - untraced["mark_at"]
    out["trace.overhead_share"] = traced_wall / untraced_wall - 1.0
    return out
