"""The server child: one ``DelayServer`` over the workload's service.

Spawned by the harness as ``python benchmarks/spine/serve.py
--workload NAME --rows N --data-dir DIR``. It builds (or, with
``--recover``, recovers) the service, loads the tables, registers the
identities, starts the server on a free port, prints one line
``READY {json}`` and then serves until its stdin closes — so a harness
that dies takes the child with it, as with ``repro.cluster.procserver``.

With ``--spans PATH`` it first installs the timing wrappers of
:mod:`benchmarks.spine.tracing` on public callables of the program's
classes and writes the spans to ``PATH`` on the way out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cluster import ClusterService
from repro.core import AccountPolicy, GuardConfig
from repro.server import DelayServer
from repro.service import DataProviderService

from benchmarks.spine.tracing import Recorder
from benchmarks.spine.workloads import (
    CATEGORIES,
    IDENTITIES,
    SCHEMA,
    WORKLOADS,
    Workload,
    category_row,
    insert_sql,
    item_row,
    load_tables,
)

RESULT_CACHE_SIZE = 1024
SHARDS = 4
REPLICATION_FACTOR = 2
GOSSIP_INTERVAL = 1.0
PROBE_INTERVAL = 0.5
#: Rows per router-split INSERT when loading the cluster.
CLUSTER_INSERT_ROWS = 500


def guard_config(spec: Workload) -> GuardConfig:
    """The shared profile; only the durable single node adds forensics."""
    return GuardConfig(
        result_cache_size=RESULT_CACHE_SIZE,
        forensics=spec.durable and not spec.cluster,
    )


def _cluster_options(data_dir: Path) -> dict:
    return dict(
        data_dir=data_dir,
        journal_sync=True,
        gossip_interval=GOSSIP_INTERVAL,
        replication_factor=REPLICATION_FACTOR,
        probe_interval=PROBE_INTERVAL,
    )


def _durable_options(data_dir: Path) -> dict:
    return dict(
        snapshot_path=data_dir / "snapshot.json",
        journal_path=data_dir / "journal.wal",
        journal_sync=True,
        audit_path=data_dir / "audit.jsonl",
    )


def build_service(spec: Workload, rows: int, data_dir: Path):
    """A fresh service for ``spec`` with its tables loaded."""
    config, policy = guard_config(spec), AccountPolicy()
    if spec.cluster:
        service = ClusterService(
            shard_count=SHARDS,
            guard_config=config,
            account_policy=policy,
            **_cluster_options(data_dir),
        )
        register_identities(service)
        loader = IDENTITIES[0]
        for statement in SCHEMA:
            service.query(loader, statement)
        for first in range(1, rows + 1, CLUSTER_INSERT_ROWS):
            batch = range(first, min(first + CLUSTER_INSERT_ROWS, rows + 1))
            service.query(
                loader, insert_sql("items", [item_row(i) for i in batch])
            )
        service.query(
            loader,
            insert_sql(
                "categories", [category_row(c) for c in range(CATEGORIES)]
            ),
        )
        return service
    service = DataProviderService(
        guard_config=config,
        account_policy=policy,
        **(_durable_options(data_dir) if spec.durable else {}),
    )
    register_identities(service)
    load_tables(service.database, rows)
    return service


def recover_service(spec: Workload, data_dir: Path):
    """The service rebuilt from what a killed child left in ``data_dir``."""
    config, policy = guard_config(spec), AccountPolicy()
    if spec.cluster:
        service = ClusterService.recover(
            SHARDS,
            guard_config=config,
            account_policy=policy,
            **_cluster_options(data_dir),
        )
    else:
        service = DataProviderService.recover(
            guard_config=config,
            account_policy=policy,
            **_durable_options(data_dir),
        )
    # Cluster accounts are not persisted, and a single node persists
    # them only in a snapshot: re-register whoever is missing.
    register_identities(service)
    return service


def register_identities(service) -> None:
    known = service.accounts.accounts
    for identity in IDENTITIES:
        if identity not in known:
            service.register(identity)


def replayed_statements(service) -> int:
    """Journal records the recovery that built ``service`` re-applied."""
    if hasattr(service, "shards"):
        members = [
            shard.primary.service if hasattr(shard, "primary") else shard
            for shard in service.shards
        ]
    else:
        members = [service]
    return sum(
        member.last_recovery.replayed_statements
        for member in members
        if member.last_recovery is not None
    )


def install_tracing(recorder: Recorder) -> None:
    """Wrap the layers' public callables (the list in ISSUE 11)."""
    import repro.service as service_module
    from repro.cluster.gossip import GossipCoordinator
    from repro.cluster.replication import ReplicaGroup, ReplicaMember
    from repro.cluster.router import ClusterRouter
    from repro.core.accounts import AccountManager
    from repro.core.delay_policy import PopularityDelayPolicy
    from repro.core.guard import DelayGuard
    from repro.core.popularity import PopularityTracker
    from repro.core.result_cache import ResultCache
    from repro.engine.database import Database
    from repro.engine.journal import WriteAheadJournal
    from repro.engine.rwlock import ReadWriteLock
    from repro.engine.vectorized.columns import ColumnBatch
    from repro.obs.forensics import ForensicsMonitor

    def entry(args, result, _prepared):
        if result is None:  # a fast-path probe that missed the cache
            return {"probe_miss": True}
        return {"tuples": len(result.per_tuple_delays), "cached": result.cached}

    def executed(args, result, _prepared):
        if result.statement_kind != "select":
            return {"kind": result.statement_kind}
        return {
            "kind": "select",
            "path": result.execution_path,
            "touched": len(result.touched),
            "rows": len(result.rows),
        }

    def journal_before(args):
        journal = args[0]
        return journal.bytes_written, journal.fsyncs

    def journal_after(args, result, before):
        journal = args[0]
        return {
            "bytes": journal.bytes_written - before[0],
            "fsyncs": journal.fsyncs - before[1],
        }

    def follower_lag(args):
        group = args[0]
        acked = [member.acked_seq for member in group.followers]
        return group.committed_seq - min(acked) if acked else 0

    recorder.wrap(DelayGuard, "execute", "guard.execute", entry)
    recorder.wrap(ClusterRouter, "execute", "router.execute", entry)
    recorder.wrap(Database, "execute", "database.execute", executed)
    recorder.wrap(
        ResultCache,
        "get",
        "result_cache.get",
        lambda args, result, _p: {"hit": result is not None},
    )
    recorder.wrap(ResultCache, "put", "result_cache.put")
    recorder.wrap(
        PopularityDelayPolicy,
        "delays_for",
        "policy.delays_for",
        lambda args, result, _p: {"n": len(result)},
    )
    recorder.wrap(
        PopularityTracker,
        "record_many",
        "popularity.record_many",
        # every caller in src/ passes a list of keys
        lambda args, _result, _p: {"n": len(args[1])},
    )
    recorder.wrap(AccountManager, "authorize_query", "accounts.authorize_query")
    recorder.wrap(
        AccountManager, "record_retrieval", "accounts.record_retrieval"
    )
    recorder.wrap(ForensicsMonitor, "observe", "forensics.observe")
    recorder.wrap(
        ColumnBatch,
        "from_table",
        "columnbatch.from_table",
        lambda args, result, _p: {"rows": len(result)},
    )
    recorder.wrap(WriteAheadJournal, "append", "journal.append")
    recorder.wrap(
        WriteAheadJournal,
        "append_many",
        "journal.append_many",
        journal_after,
        journal_before,
    )
    recorder.wrap(DataProviderService, "checkpoint", "service.checkpoint")
    recorder.wrap(
        ReplicaGroup,
        "ship",
        "replication.ship",
        lambda args, result, lag: {"delivered": result, "lag": lag},
        follower_lag,
    )
    recorder.wrap(
        ReplicaMember,
        "feed",
        "replication.feed",
        lambda args, _result, _p: {"bytes": len(args[1])},
    )
    recorder.wrap(GossipCoordinator, "run_round", "gossip.run_round")
    recorder.wrap(
        DelayGuard,
        "gossip_digest",
        "guard.gossip_digest",
        lambda args, result, _p: {"bytes": len(json.dumps(result))},
    )
    # The two halves of recovery, as ``repro.service`` names them.
    recorder.wrap(service_module, "load_database", "recover.load")
    recorder.wrap(service_module, "replay_journal", "recover.replay")
    recorder.wrap_write_lock(ReadWriteLock)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--data-dir", type=Path, required=True)
    parser.add_argument("--recover", action="store_true")
    parser.add_argument("--spans", help="trace, and dump spans here on exit")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    recorder = None
    if args.spans:
        recorder = Recorder()
        install_tracing(recorder)
    ready = {}
    if args.recover:
        service = recover_service(spec, args.data_dir)
        ready["replayed_statements"] = replayed_statements(service)
        if recorder is not None:
            for key, name in (
                ("recover_load_ms", "recover.load"),
                ("recover_replay_ms", "recover.replay"),
            ):
                ready[key] = 1000.0 * sum(
                    end - start
                    for _id, _parent, span_name, start, end, _attrs in recorder.spans
                    if span_name == name
                )
    else:
        service = build_service(spec, args.rows, args.data_dir)
    server = DelayServer(service)
    server.start()
    ready["port"] = server.address[1]
    print("READY " + json.dumps(ready), flush=True)
    try:
        sys.stdin.read()  # serve until the harness closes our stdin
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        service.close()
        if service.obs.audit is not None:
            service.obs.audit.close()
        if recorder is not None:
            recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
