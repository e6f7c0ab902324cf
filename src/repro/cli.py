"""Command-line interface.

Eight subcommands::

    python -m repro sql        # run SQL against a (persisted) database
    python -m repro csv        # import/export CSV
    python -m repro analyze    # closed-form predictions (eqs. 1-12)
    python -m repro experiments  # regenerate the paper's tables/figures
    python -m repro metrics    # scrape a live server's metrics
    python -m repro trace      # fetch a live server's recent traces
    python -m repro top        # live health + extraction-risk ranking
    python -m repro audit      # read a server's audit event log

Examples::

    python -m repro sql --db shop.json \
        -e "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)" \
        -e "INSERT INTO t VALUES (1, 'x')" --save
    python -m repro sql --db shop.json -e "SELECT * FROM t"
    python -m repro analyze --tuples 100000 --alpha 1.5 --cap 10
    python -m repro experiments table3 --scale 0.05
    python -m repro metrics --port 7007 --prometheus
    python -m repro trace --port 7007 --limit 5
    python -m repro top --port 7007 --watch --interval 2
    python -m repro audit audit.jsonl --kind forensic_flag --limit 50
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .core import analysis
from .engine import (
    Database,
    EngineError,
    export_csv,
    import_csv,
    open_database,
    save_database,
)
from .engine.persistence import PersistenceError
from .sim.metrics import format_ratio, format_seconds


def _load_or_create(path: Optional[str]) -> Database:
    if path and Path(path).exists():
        return open_database(path)
    return Database()


def _render_result(result) -> str:
    if result.statement_kind != "select":
        return f"ok ({result.rowcount} row(s) affected)"
    lines = []
    if result.columns:
        lines.append(" | ".join(result.columns))
    for row in result.rows:
        lines.append(
            " | ".join("NULL" if value is None else str(value) for value in row)
        )
    lines.append(f"({len(result.rows)} row(s))")
    return "\n".join(lines)


def cmd_sql(args: argparse.Namespace) -> int:
    """Execute SQL statements against a database file."""
    database = _load_or_create(args.db)
    statements: List[str] = list(args.execute or [])
    if not statements and not sys.stdin.isatty():
        text = sys.stdin.read()
        statements = [
            chunk.strip() for chunk in text.split(";") if chunk.strip()
        ]
    if not statements:
        print("no SQL given (use -e or pipe statements on stdin)")
        return 2
    status = 0
    for sql in statements:
        try:
            print(_render_result(database.execute(sql)))
        except EngineError as error:
            print(f"error: {error}", file=sys.stderr)
            status = 1
    if args.save:
        if not args.db:
            print("error: --save requires --db", file=sys.stderr)
            return 2
        save_database(database, args.db)
        print(f"saved to {args.db}")
    return status


def cmd_csv(args: argparse.Namespace) -> int:
    """Import or export a table as CSV."""
    database = _load_or_create(args.db)
    try:
        if args.direction == "export":
            count = export_csv(database, args.table, args.file)
            print(f"exported {count} row(s) from {args.table} to {args.file}")
        else:
            count = import_csv(
                database, args.table, args.file, create=args.create
            )
            print(f"imported {count} row(s) into {args.table}")
            if args.db:
                save_database(database, args.db)
                print(f"saved to {args.db}")
    except (EngineError, PersistenceError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Print the paper's closed-form predictions for a configuration."""
    n, alpha, beta, cap = args.tuples, args.alpha, args.beta, args.cap
    fmax = args.fmax
    if fmax is None:
        fmax = float(analysis.zipf_weights(n, alpha)[0])
    median = analysis.median_delay(n, fmax, alpha, beta, cap)
    total = analysis.total_extraction_delay(n, fmax, alpha, beta, cap)
    ratio = analysis.adversary_to_user_ratio(n, fmax, alpha, beta, cap)
    print(f"tuples (N)            : {n:,}")
    print(f"zipf alpha            : {alpha}")
    print(f"beta                  : {beta}")
    print(f"fmax                  : {fmax:.6g}")
    print(f"cap (d_max)           : "
          f"{'none' if cap is None else format_seconds(cap)}")
    print(f"median rank           : {analysis.median_rank(n, alpha)}")
    print(f"median user delay     : {format_seconds(median)}")
    print(f"adversary delay       : {format_seconds(total)}")
    print(f"adversary/user ratio  : {format_ratio(ratio)}")
    if cap is not None:
        m = analysis.cap_rank(n, fmax, alpha, beta, cap)
        print(f"cap rank (M)          : {m:,} "
              f"({m / n:.1%} of tuples below the cap)")
        print(f"N*d_max bound         : {format_seconds(n * cap)}")
    if args.staleness_c is not None:
        s = analysis.staleness_fraction(args.staleness_c, alpha)
        print(f"eq.12 staleness (c={args.staleness_c:g}): {s:.1%}")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    """Delegate to the experiments runner."""
    from .experiments.runner import main as run_experiments

    argv = list(args.names)
    argv += ["--scale", str(args.scale)]
    return run_experiments(argv)


def _render_metric(name: str, snapshot: dict) -> List[str]:
    lines = [f"{name} ({snapshot['type']})"]
    if snapshot["type"] == "histogram":
        summary = f"  count={snapshot['count']} sum={snapshot['sum']:.6g}"
        quantiles = snapshot.get("quantiles")
        if quantiles:
            summary += (
                f" p50={quantiles['p50']:.6g} p99={quantiles['p99']:.6g}"
            )
        lines.append(summary)
        return lines
    if "series" in snapshot:
        for series in snapshot["series"]:
            labels = series["labels"]
            label_text = ", ".join(f"{k}={v}" for k, v in labels.items())
            lines.append(f"  {{{label_text}}} {series['value']:.6g}")
    else:
        lines.append(f"  {snapshot['value']:.6g}")
    return lines


def cmd_metrics(args: argparse.Namespace) -> int:
    """Scrape a live DelayServer's metrics registry."""
    from .server import DelayClient, ServerError

    try:
        with DelayClient(args.host, args.port, timeout=args.timeout) as client:
            if args.prometheus:
                print(client.metrics(format="prometheus")["text"], end="")
                return 0
            for name, snapshot in client.metrics()["metrics"].items():
                for line in _render_metric(name, snapshot):
                    print(line)
    except (ServerError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Fetch recent query-lifecycle traces from a live DelayServer."""
    import json as json_module

    from .server import DelayClient, ServerError

    try:
        with DelayClient(args.host, args.port, timeout=args.timeout) as client:
            response = client.traces(limit=args.limit)
    except (ServerError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    traces = response["traces"]
    if args.json:
        print(json_module.dumps(traces, indent=2))
        return 0
    print(
        f"{len(traces)} trace(s) shown, "
        f"{response['finished_total']} finished total"
    )
    for trace in traces:
        identity = trace.get("identity", "-")
        sql = trace.get("sql", "")
        print(
            f"[{trace['status']}] {identity} "
            f"delay={format_seconds(trace['delay'])} "
            f"total={format_seconds(trace['duration'])} {sql}"
        )
        for span in trace["spans"]:
            print(
                f"    {span['name']:<10} +{span['offset'] * 1e3:8.3f} ms  "
                f"{span['duration'] * 1e3:10.3f} ms"
            )
        if trace.get("reason"):
            print(f"    reason: {trace['reason']}")
    return 0


def _render_top(health: dict, forensics: Optional[dict]) -> str:
    """Format one health + forensics snapshot for the terminal."""
    lines = []
    build = health.get("build", {})
    lines.append(
        f"repro {build.get('version', '?')} "
        f"(python {build.get('python', '?')}) "
        f"{health['status']}, up {format_seconds(health['uptime_seconds'])}"
    )
    server = health["server"]
    lines.append(
        f"queue {server['queue_depth']}/{server['queue_capacity']}  "
        f"parked {server['parked_delays']}/{server['max_parked']}  "
        f"workers {server['workers_busy']}/{server['workers']}  "
        f"conns {server['connections']}/{server['max_connections']}  "
        f"errors {server['handler_errors_total']}"
    )
    if server["shed_counts"]:
        shed = ", ".join(
            f"{point}={count}"
            for point, count in sorted(server["shed_counts"].items())
        )
        lines.append(f"shed: {shed}")
    for window, slo in sorted(
        health["slo"]["windows"].items(), key=lambda kv: int(kv[0])
    ):
        lines.append(
            f"slo[{window}s]: avail={slo['availability']:.4f} "
            f"burn={slo['burn_rate']:.2f} "
            f"goodput={slo['goodput_per_second']:.2f}/s "
            f"p_mean={slo['mean_latency_seconds'] * 1e3:.2f}ms "
            f"slow={slo['slow_fraction']:.1%} "
            f"({slo['requests']} reqs)"
        )
    durability = health.get("durability") or {}
    if "shards" in durability:
        # A cluster aggregates shard journals; there is no single seq.
        if durability.get("journal_attached"):
            lines.append(
                f"journal: {len(durability['shards'])} shard journals, "
                f"lag={durability['journal_lag']} since checkpoint "
                f"#{durability['checkpoints_completed']}"
            )
    elif durability.get("journal_attached"):
        lines.append(
            f"journal: seq={durability['journal_last_seq']} "
            f"lag={durability['journal_lag']} since checkpoint "
            f"#{durability['checkpoints_completed']}"
        )
    batch_events = (health.get("engine") or {}).get("column_batch_events")
    if batch_events:
        lines.append(
            "column batches: "
            f"built={batch_events.get('build', 0)} "
            f"patched={batch_events.get('patch', 0)} "
            f"dropped={batch_events.get('drop', 0)}"
        )
    cluster = health.get("cluster")
    if cluster is not None:
        routing = cluster.get("routing") or {}
        lines.append(
            f"cluster: {cluster['shard_count']} shards "
            f"N={cluster['population']}  "
            f"routed fast={routing.get('single_shard_queries', 0)} "
            f"scatter={routing.get('scatter_queries', 0)} "
            f"broadcast={routing.get('broadcast_statements', 0)}"
        )
        gossip = cluster.get("gossip")
        if gossip is not None:
            lags = ",".join(str(lag) for lag in gossip["shard_lags"])
            lines.append(
                f"gossip: rounds={gossip['rounds_total']} "
                f"adopted={gossip['entries_adopted_total']} "
                f"lag=[{lags}] "
                f"divergence={gossip['count_divergence']:.2f}"
            )
        replication = cluster.get("replication")
        if replication is not None:
            summary = replication.get("summary") or {}
            lines.append(
                f"replication: x{replication.get('factor', '?')} "
                f"groups={summary.get('groups_available', '?')}/"
                f"{summary.get('groups', '?')} up "
                f"lag={summary.get('max_replication_lag', 0)} "
                f"failovers={summary.get('failovers_total', 0)} "
                f"fenced={summary.get('fencings_total', 0)}"
            )
        groups_by_index = {
            group["group"]: group
            for group in (replication or {}).get("groups", [])
        }
        for entry in cluster.get("shards", []):
            journal = "yes" if entry.get("journal_attached") else "no"
            line = (
                f"  shard {entry['shard']}: rows={entry['rows']} "
                f"epoch={entry['mutation_epoch']} journal={journal}"
            )
            group = groups_by_index.get(entry["shard"])
            if group is not None:
                role = "up" if group["available"] else "DOWN"
                line += (
                    f" [{role} primary={group['primary']} "
                    f"term={group['term']} lag={group['replication_lag']} "
                    f"failovers={group['failovers']}]"
                )
            elif not entry.get("available", True):
                line += " [DOWN]"
            lines.append(line)
    staleness = health.get("staleness") or {}
    for table, stale in sorted(staleness.items()):
        lines.append(
            f"staleness[{table}]: S_max={stale['smax_fraction']:.2%} "
            f"T={format_seconds(stale['extraction_seconds'])} "
            f"rate={stale['update_rate_per_second']:.4g}/s"
        )
    if forensics is not None:
        lines.append(
            f"forensics: {forensics['flagged_identities']} flagged / "
            f"{forensics['tracked_identities']} tracked "
            f"(raised {forensics['flags_raised_total']}, "
            f"cleared {forensics['flags_cleared_total']})"
        )
        for entry in forensics.get("identities", []):
            flag = " FLAGGED" if entry["flagged"] else ""
            lines.append(
                f"  {entry['identity']:<20} risk={entry['risk']:.3f} "
                f"cov={entry['coverage']:.1%} nov={entry['novelty']:.1%} "
                f"reqs={entry['requests']} "
                f"eta={format_seconds(entry['eta_seconds'])}{flag}"
            )
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    """Live health + extraction-risk view of a running DelayServer."""
    import json as json_module
    import time as time_module

    from .server import DelayClient, ServerError

    try:
        with DelayClient(args.host, args.port, timeout=args.timeout) as client:
            while True:
                health = client.health()
                forensics = None
                try:
                    forensics = client.forensics(limit=args.limit)
                except ServerError as error:
                    if error.reason != "not_enabled":
                        raise
                if args.json:
                    print(
                        json_module.dumps(
                            {"health": health, "forensics": forensics},
                            indent=2,
                        )
                    )
                else:
                    print(_render_top(health, forensics))
                if not args.watch:
                    return 0
                time_module.sleep(args.interval)
                print()
    except KeyboardInterrupt:
        return 0
    except (ServerError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def cmd_audit(args: argparse.Namespace) -> int:
    """Read a server's audit event log (including rotated segments)."""
    import json as json_module
    from collections import deque

    from .obs import iter_audit_events

    if not Path(args.path).exists():
        print(f"error: no audit log at {args.path}", file=sys.stderr)
        return 1
    events = iter_audit_events(args.path)
    if args.kind:
        events = (
            event for event in events if event.get("event") in args.kind
        )
    selected = deque(events, maxlen=args.limit)
    for event in selected:
        if args.json:
            print(json_module.dumps(event))
            continue
        ts = event.get("ts")
        stamp = f"{ts:.3f}" if isinstance(ts, (int, float)) else "-"
        kind = event.get("event", "?")
        trace_id = event.get("trace_id") or "-"
        detail = ", ".join(
            f"{key}={value}"
            for key, value in sorted(event.items())
            if key not in ("v", "ts", "event", "trace_id")
        )
        print(f"{stamp} {kind:<22} trace={trace_id:<12} {detail}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Delay-based defense against database extraction "
            "(SDM@VLDB 2004 reproduction)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sql = commands.add_parser("sql", help="run SQL against a database file")
    sql.add_argument("--db", help="database file (created if missing)")
    sql.add_argument(
        "-e", "--execute", action="append", help="SQL statement (repeatable)"
    )
    sql.add_argument(
        "--save", action="store_true", help="persist the database after"
    )
    sql.set_defaults(handler=cmd_sql)

    csv_cmd = commands.add_parser("csv", help="import/export CSV")
    csv_cmd.add_argument("direction", choices=("import", "export"))
    csv_cmd.add_argument("table")
    csv_cmd.add_argument("file")
    csv_cmd.add_argument("--db", help="database file")
    csv_cmd.add_argument(
        "--create", action="store_true",
        help="create the table from the CSV header (import only)",
    )
    csv_cmd.set_defaults(handler=cmd_csv)

    analyze = commands.add_parser(
        "analyze", help="closed-form predictions for a configuration"
    )
    analyze.add_argument("--tuples", type=int, required=True)
    analyze.add_argument("--alpha", type=float, default=1.0)
    analyze.add_argument("--beta", type=float, default=0.0)
    analyze.add_argument("--cap", type=float, default=10.0)
    analyze.add_argument(
        "--no-cap", dest="cap", action="store_const", const=None
    )
    analyze.add_argument(
        "--fmax", type=float, default=None,
        help="top-item frequency (default: exact Zipf head weight)",
    )
    analyze.add_argument(
        "--staleness-c", type=float, default=None,
        help="also print eq.12 staleness for this c",
    )
    analyze.set_defaults(handler=cmd_analyze)

    experiments = commands.add_parser(
        "experiments", help="regenerate the paper's tables/figures"
    )
    experiments.add_argument("names", nargs="*")
    experiments.add_argument("--scale", type=float, default=1.0)
    experiments.set_defaults(handler=cmd_experiments)

    metrics = commands.add_parser(
        "metrics", help="scrape a live server's metrics registry"
    )
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument("--port", type=int, required=True)
    metrics.add_argument("--timeout", type=float, default=10.0)
    metrics.add_argument(
        "--prometheus", action="store_true",
        help="print Prometheus text exposition instead of a summary",
    )
    metrics.set_defaults(handler=cmd_metrics)

    trace = commands.add_parser(
        "trace", help="fetch a live server's recent query traces"
    )
    trace.add_argument("--host", default="127.0.0.1")
    trace.add_argument("--port", type=int, required=True)
    trace.add_argument("--timeout", type=float, default=10.0)
    trace.add_argument("--limit", type=int, default=20)
    trace.add_argument(
        "--json", action="store_true", help="print raw JSON traces"
    )
    trace.set_defaults(handler=cmd_trace)

    top = commands.add_parser(
        "top",
        help="live health + extraction-risk ranking from a server",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, required=True)
    top.add_argument("--timeout", type=float, default=10.0)
    top.add_argument(
        "--limit", type=int, default=10,
        help="how many risk-ranked identities to show",
    )
    top.add_argument(
        "--watch", action="store_true",
        help="refresh every --interval seconds until interrupted",
    )
    top.add_argument("--interval", type=float, default=2.0)
    top.add_argument(
        "--json", action="store_true", help="print raw JSON snapshots"
    )
    top.set_defaults(handler=cmd_top)

    audit = commands.add_parser(
        "audit", help="read an audit event log written by a server"
    )
    audit.add_argument("path", help="audit log path (rotations included)")
    audit.add_argument(
        "--limit", type=int, default=50, help="show the newest N events"
    )
    audit.add_argument(
        "--kind", action="append",
        help="only these event kinds (repeatable), e.g. forensic_flag",
    )
    audit.add_argument(
        "--json", action="store_true", help="print raw JSONL events"
    )
    audit.set_defaults(handler=cmd_audit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); exit
        # quietly like any well-behaved filter. Reopen stdout on
        # devnull so the interpreter's shutdown flush doesn't raise.
        sys.stdout = open(os.devnull, "w")
        return 0


if __name__ == "__main__":
    sys.exit(main())
