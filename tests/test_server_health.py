"""Tests for the server's ``health`` and ``forensics`` ops."""

import pytest

from repro.core import AccountPolicy, GuardConfig
from repro.server import DelayClient, DelayServer, ServerError
from repro.service import DataProviderService

ROWS = 50


def build_service(audit_path=None, **config):
    defaults = dict(policy="fixed", fixed_delay=0.0)
    defaults.update(config)
    service = DataProviderService(
        guard_config=GuardConfig(**defaults),
        account_policy=AccountPolicy(),
        audit_path=audit_path,
    )
    service.register("loader")
    service.guard.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)",
        identity="loader",
    )
    service.database.insert_rows(
        "t", [(i, f"v{i}") for i in range(1, ROWS + 1)]
    )
    return service


@pytest.fixture
def server():
    instance = DelayServer(build_service())
    instance.start()
    yield instance
    instance.stop()


class TestHealthOp:
    def test_health_reports_slo_and_server_state(self, server):
        with DelayClient(*server.address) as client:
            client.register("alice")
            for i in range(5):
                client.query(
                    f"SELECT * FROM t WHERE id = {i + 1}",
                    identity="alice",
                )
            with pytest.raises(ServerError):
                client.query("SELECT * FROM t", identity="nobody")
            health = client.health()
        assert health["status"] == "serving"
        assert health["uptime_seconds"] > 0
        assert set(health["build"]) == {"version", "python"}
        window = health["slo"]["windows"]["300"]
        assert window["ok"] == 5
        assert window["denied"] == 1
        assert window["availability"] == 1.0
        assert window["mean_latency_seconds"] < 1.0
        state = health["server"]
        assert state["queue_capacity"] == server.max_queue
        assert state["workers"] == server.max_workers
        assert state["handler_errors_total"] == 0
        assert health["durability"]["journal_attached"] is False
        assert health["forensics"] is None
        # Shared breakers are process-wide; just check the shape.
        assert isinstance(health["breakers"], dict)
        assert not server.handler_errors

    def test_health_without_forensics_vs_with(self):
        service = build_service(forensics=True)
        server = DelayServer(service)
        server.start()
        try:
            with DelayClient(*server.address) as client:
                client.register("bob")
                client.query(
                    "SELECT * FROM t WHERE id = 1", identity="bob"
                )
                health = client.health()
            forensics = health["forensics"]
            assert forensics["tracked_identities"] == 1
            assert forensics["flagged_identities"] == 0
        finally:
            server.stop()

    def test_staleness_under_live_updates(self):
        """S_max gauges move as updates arrive on a delayed table."""
        service = build_service(fixed_delay=0.05)
        server = DelayServer(service)
        server.start()
        try:
            with DelayClient(*server.address) as client:
                client.register("writer")
                for i in range(10):
                    client.query(
                        f"UPDATE t SET v = 'x{i}' WHERE id = {i + 1}",
                        identity="writer",
                    )
                health = client.health()
                stale = health["staleness"]["t"]
                # T = N * d for the fixed policy; updates give a rate.
                assert stale["extraction_seconds"] == pytest.approx(
                    ROWS * 0.05
                )
                assert stale["update_rate_per_second"] > 0
                assert 0 < stale["smax_fraction"] <= 1
                assert stale["updated_keys"] == 10
                # The health refresh also pumped the gauges.
                text = client.metrics("prometheus")["text"]
            assert 'staleness_smax_fraction{table="t"}' in text
            assert 'staleness_extraction_seconds{table="t"}' in text
        finally:
            server.stop()

    def test_column_batch_events_in_health_scrape_and_top(self, server):
        """Writes after the first read patch the columnar view; the
        health op, a scrape and `repro top` all read the same series."""
        from repro.cli import _render_top

        with DelayClient(*server.address) as client:
            client.register("writer")
            client.query("SELECT * FROM t WHERE id = 1", identity="writer")
            for i in range(10):
                client.query(
                    f"UPDATE t SET v = 'x{i}' WHERE id = {i + 1}",
                    identity="writer",
                )
            client.query("SELECT * FROM t WHERE id = 2", identity="writer")
            health = client.health()
            text = client.metrics("prometheus")["text"]
            scraped = client.metrics()["metrics"]
        events = {"build": 1, "patch": 10, "drop": 0}
        assert health["engine"]["column_batch_events"] == events
        assert 'engine_column_batch_events_total{event="patch"} 10' in text
        series = scraped["engine_column_batch_events_total"]["series"]
        assert {
            entry["labels"]["event"]: entry["value"] for entry in series
        } == events
        assert (
            "column batches: built=1 patched=10 dropped=0"
            in _render_top(health, None)
        )

    def test_shed_feeds_slo_and_audit(self, tmp_path):
        audit_service = build_service(
            audit_path=str(tmp_path / "audit.jsonl")
        )
        audit_server = DelayServer(audit_service)
        audit_server._note_shed("unit_test")
        assert audit_server.shed_counts == {"unit_test": 1}
        assert audit_server.slo.summary(60)["shed"] == 1
        audit_service.obs.audit.flush()
        assert (
            audit_service.obs.audit.emitted_by_kind["query_shed"] == 1
        )
        audit_server.stop()
        audit_service.close()


class TestForensicsOp:
    def test_not_enabled_is_a_structured_error(self, server):
        with DelayClient(*server.address) as client:
            with pytest.raises(ServerError) as excinfo:
                client.forensics()
        assert excinfo.value.reason == "not_enabled"

    def test_invalid_limit_rejected(self):
        service = build_service(forensics=True)
        server = DelayServer(service)
        server.start()
        try:
            with DelayClient(*server.address) as client:
                with pytest.raises(ServerError, match="limit"):
                    client.forensics(limit=0)
        finally:
            server.stop()

    def test_robot_ranked_and_flagged(self):
        service = build_service(forensics=True)
        server = DelayServer(service)
        server.start()
        try:
            with DelayClient(*server.address) as client:
                client.register("robot")
                client.register("browser")
                for i in range(ROWS):
                    client.query(
                        f"SELECT * FROM t WHERE id = {i + 1}",
                        identity="robot",
                    )
                for _ in range(ROWS):
                    client.query(
                        "SELECT * FROM t WHERE id = 1",
                        identity="browser",
                    )
                payload = client.forensics(limit=2)
            assert payload["flagged_identities"] == 1
            top = payload["identities"]
            assert top[0]["identity"] == "robot"
            assert top[0]["flagged"] is True
            assert top[0]["coverage"] == pytest.approx(1.0)
            assert top[1]["identity"] == "browser"
            assert top[1]["flagged"] is False
        finally:
            server.stop()


class TestBuildInfoMetrics:
    def test_uptime_and_build_info_in_both_formats(self, server):
        with DelayClient(*server.address) as client:
            snapshot = client.metrics("json")["metrics"]
            text = client.metrics("prometheus")["text"]
        assert snapshot["server_uptime_seconds"]["value"] > 0
        (series,) = snapshot["repro_build_info"]["series"]
        assert set(series["labels"]) == {"version", "python"}
        assert series["value"] == 1
        assert "server_uptime_seconds" in text
        assert "repro_build_info{" in text


class TestAuditTraceCorrelation:
    def test_audit_events_join_traces_by_trace_id(self, tmp_path):
        service = build_service(
            audit_path=str(tmp_path / "audit.jsonl"), fixed_delay=0.01
        )
        server = DelayServer(service)
        server.start()
        try:
            with DelayClient(*server.address) as client:
                client.register("carol")
                client.query(
                    "SELECT * FROM t WHERE id = 7", identity="carol"
                )
                traces = client.traces(limit=5)["traces"]
        finally:
            server.stop()
        audit = service.obs.audit
        audit.flush()
        events = list(audit.replay())
        served = [e for e in events if e["event"] == "query_served"]
        priced = [e for e in events if e["event"] == "delay_priced"]
        assert served and priced
        trace_ids = {trace["trace_id"] for trace in traces}
        assert served[-1]["trace_id"] in trace_ids
        assert priced[-1]["trace_id"] == served[-1]["trace_id"]
        assert served[-1]["identity"] == "carol"
        assert priced[-1]["delay"] == pytest.approx(0.01)
