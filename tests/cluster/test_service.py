"""ClusterService behind a DelayServer: the whole stack, unchanged API."""

import json

import pytest

from repro.cluster import ClusterService
from repro.core import AccessDenied, AccountPolicy, GuardConfig
from repro.obs import AuditLog, Observability
from repro.server import DelayClient, DelayServer
from repro.service import DataProviderService

CONFIG = dict(policy="popularity", cap=20.0, unit=600.0)


def build_cluster(**kwargs):
    kwargs.setdefault("guard_config", GuardConfig(**CONFIG))
    cluster = ClusterService(shard_count=2, **kwargs)
    cluster.query(
        None,
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)",
    )
    for i in range(1, 21):
        cluster.query(None, f"INSERT INTO t VALUES ({i}, 'v{i}')")
    return cluster


class TestServerIntegration:
    def test_query_report_health_over_tcp(self):
        cluster = build_cluster()
        server = DelayServer(cluster)
        server.start()
        try:
            with DelayClient(*server.address) as client:
                response = client.query("SELECT * FROM t WHERE id = 5")
                assert response["rows"] == [[5, "v5"]]
                scatter = client.query("SELECT COUNT(*) FROM t")
                assert scatter["rows"] == [[20]]
                health = client.health()
                cluster_view = health["cluster"]
                assert cluster_view["shard_count"] == 2
                assert cluster_view["population"] == 20
                assert cluster_view["routing"]["scatter_queries"] >= 1
                assert (
                    cluster_view["routing"]["single_shard_queries"] >= 1
                )
                assert len(cluster_view["shards"]) == 2
                assert health["staleness"]  # merged staleness present
                report = client.report()
                assert report["queries"] >= 2
        finally:
            server.stop()
            cluster.close()

    def test_health_payload_is_json_serialisable(self):
        cluster = build_cluster()
        server = DelayServer(cluster)
        server.start()
        try:
            with DelayClient(*server.address) as client:
                json.dumps(client.health())
        finally:
            server.stop()
            cluster.close()

    def test_register_and_identities_over_tcp(self):
        cluster = ClusterService(
            shard_count=2,
            guard_config=GuardConfig(**CONFIG),
            account_policy=AccountPolicy(),
        )
        cluster.register("seed")
        cluster.query(
            "seed", "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"
        )
        for i in range(1, 21):
            cluster.query("seed", f"INSERT INTO t VALUES ({i}, 'v{i}')")
        server = DelayServer(cluster)
        server.start()
        try:
            with DelayClient(*server.address) as client:
                client.register("alice")
                response = client.query(
                    "SELECT * FROM t WHERE id = 3", identity="alice"
                )
                assert response["rows"] == [[3, "v3"]]
        finally:
            server.stop()
            cluster.close()


class TestObservability:
    """The router runs the shared pipeline, so a cluster exports the
    lifecycle series, traces and audit events a single node does."""

    def test_guard_series_and_traces_over_tcp(self, tmp_path):
        audit = AuditLog(str(tmp_path / "audit.jsonl"))
        cluster = build_cluster(obs=Observability(audit=audit))
        stream = [
            "SELECT * FROM t WHERE id = 5",
            "SELECT COUNT(*) FROM t WHERE id <= 4",
            "UPDATE t SET v = 'u' WHERE id = 3",
            "INSERT INTO t VALUES (21, 'v21')",
            "SELECT * FROM t WHERE id = 5",
        ]
        server = DelayServer(cluster)
        server.start()
        try:
            with DelayClient(*server.address) as client:
                for sql in stream:
                    client.query(sql)
                metrics = client.metrics()["metrics"]
                traces = client.traces(limit=len(stream))["traces"]
        finally:
            server.stop()
            cluster.close()
        stats = cluster.router.stats
        assert metrics["guard_queries_total"]["value"] == stats.queries == 26
        assert metrics["guard_selects_total"]["value"] == stats.selects == 3
        assert metrics["guard_tuples_charged_total"]["value"] == 6
        assert metrics["guard_select_delay_seconds"]["count"] == 3
        assert metrics["guard_stage_execute_seconds"]["count"] == 26
        assert metrics["guard_stage_price_seconds"]["count"] == 3
        scatter = next(
            trace for trace in traces if "COUNT" in (trace["sql"] or "")
        )
        assert scatter["status"] == "ok"
        assert [span["name"] for span in scatter["spans"]][:5] == [
            "parse", "execute", "account", "price", "record"
        ]
        audit.close()
        kinds = [event["event"] for event in audit.replay()]
        assert kinds.count("query_served") == 26
        assert kinds.count("cluster_select") == kinds.count("delay_priced") == 3

    def test_quota_denial_is_audited_and_counted(self, tmp_path):
        audit = AuditLog(str(tmp_path / "audit.jsonl"))
        cluster = ClusterService(
            shard_count=2,
            guard_config=GuardConfig(**CONFIG),
            account_policy=AccountPolicy(daily_query_quota=2),
            obs=Observability(audit=audit),
        )
        cluster.register("u")
        cluster.query("u", "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        cluster.query("u", "INSERT INTO t VALUES (1, 'a')")
        with pytest.raises(AccessDenied):
            cluster.query("u", "SELECT * FROM t WHERE id = 1")
        audit.close()
        denied = [
            event
            for event in audit.replay()
            if event["event"] == "query_denied"
        ]
        assert [(e["identity"], e["reason"]) for e in denied] == [
            ("u", "query_quota")
        ]
        registry = cluster.obs.registry.to_json()
        assert registry["guard_denied_total"]["series"] == [
            {"labels": {"reason": "query_quota"}, "value": 1}
        ]
        assert cluster.obs.tracer.recent(1)[0].status == "denied"


class TestReport:
    def test_report_counts_router_not_shards(self):
        cluster = build_cluster()
        for _ in range(5):
            cluster.query(None, "SELECT * FROM t WHERE id = 1")
        report = cluster.report()
        # 21 fixture statements + 5 reads, each counted exactly once.
        assert report.queries == 26
        assert report.extraction_cost > 0
        assert report.max_extraction_cost == pytest.approx(
            20 * CONFIG["cap"]
        )

    def test_extraction_cost_matches_single_node(self):
        cluster = build_cluster()
        reference = DataProviderService(
            guard_config=GuardConfig(**CONFIG)
        )
        reference.query(
            None, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"
        )
        for i in range(1, 21):
            reference.query(None, f"INSERT INTO t VALUES ({i}, 'v{i}')")
        for i in range(1, 11):
            cluster.query(None, f"SELECT * FROM t WHERE id = {i}")
            reference.query(None, f"SELECT * FROM t WHERE id = {i}")
        cluster.gossip.run_round()
        assert cluster.guard.extraction_cost() == pytest.approx(
            reference.guard.extraction_cost(), rel=1e-9
        )


class TestDurability:
    def test_checkpoint_and_recover_round_trip(self, tmp_path):
        cluster = build_cluster(data_dir=tmp_path)
        for _ in range(4):
            cluster.query(None, "SELECT * FROM t WHERE id = 7")
        cluster.gossip.run_round()
        cluster.checkpoint()
        cluster.query(None, "INSERT INTO t VALUES (21, 'post')")
        before = sorted(
            cluster.query(
                None, "SELECT id, v FROM t", record=False
            ).result.rows
        )
        cluster.close()

        recovered = ClusterService.recover(
            shard_count=2,
            data_dir=tmp_path,
            guard_config=GuardConfig(**CONFIG),
        )
        after = sorted(
            recovered.query(
                None, "SELECT id, v FROM t", record=False
            ).result.rows
        )
        assert after == before
        # Learned popularity survived: id=7 is still the hottest tuple.
        owner = recovered.shard_map.shard_for("t", 7)
        snapshot = recovered.guards[owner].popularity.snapshot()
        assert snapshot, "owner shard lost its popularity state"
        recovered.close()

    def test_recovered_rowids_stay_on_stride(self, tmp_path):
        cluster = build_cluster(data_dir=tmp_path)
        cluster.checkpoint()
        cluster.query(None, "INSERT INTO t VALUES (30, 'x')")
        cluster.close()
        recovered = ClusterService.recover(
            shard_count=2,
            data_dir=tmp_path,
            guard_config=GuardConfig(**CONFIG),
        )
        recovered.query(None, "INSERT INTO t VALUES (31, 'y')")
        for index, shard in enumerate(recovered.shards):
            for rowid in shard.database.table("t").rowids():
                assert (rowid - 1) % 2 == index
        recovered.close()

    def test_durability_health_aggregates(self, tmp_path):
        cluster = build_cluster(data_dir=tmp_path)
        health = cluster.durability_health()
        assert health["journal_attached"] is True
        assert len(health["shards"]) == 2
        assert health["journal_lag"] > 0  # nothing checkpointed yet
        cluster.checkpoint()
        assert cluster.durability_health()["journal_lag"] == 0
        cluster.close()


class TestClusterGuardSurface:
    def test_staleness_merges_population(self):
        cluster = build_cluster()
        cluster.query(None, "UPDATE t SET v = 'u' WHERE id = 3")
        report = cluster.guard.refresh_staleness_gauges()
        assert report["t"]["population"] == 20
        assert report["t"]["updated_keys"] >= 1
        assert 0.0 <= report["t"]["smax_fraction"] <= 1.0

    def test_result_cache_absent(self):
        cluster = build_cluster()
        assert cluster.guard.result_cache is None

    def test_single_shard_cluster_works(self):
        cluster = ClusterService(
            shard_count=1, guard_config=GuardConfig(**CONFIG)
        )
        cluster.query(None, "CREATE TABLE t (id INTEGER PRIMARY KEY)")
        cluster.query(None, "INSERT INTO t VALUES (1), (2)")
        result = cluster.query(None, "SELECT COUNT(*) FROM t")
        assert result.result.rows == [(2,)]
