"""Tests for the TCP server and client."""

import json
import socket
import threading
import time

import pytest

from repro.core import AccountPolicy, GuardConfig, RealClock
from repro.server import (
    ConnectionClosed,
    DelayClient,
    DelayServer,
    ServerError,
)
from repro.service import DataProviderService


def make_service(**guard_options):
    provider = DataProviderService(
        guard_config=GuardConfig(cap=0.001, **guard_options),
        account_policy=AccountPolicy(daily_query_quota=100),
    )
    provider.database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"
    )
    provider.database.insert_rows(
        "t", [(i, f"v{i}") for i in range(1, 21)]
    )
    return provider


@pytest.fixture
def service():
    return make_service()


@pytest.fixture
def server(service):
    with DelayServer(service) as running:
        yield running


def raw_exchange(address, *lines):
    """Send raw request lines on one socket; return the decoded answers."""
    with socket.create_connection(address, timeout=10) as sock:
        stream = sock.makefile("rwb")
        answers = []
        for line in lines:
            stream.write(line + b"\n")
            stream.flush()
            answers.append(json.loads(stream.readline()))
        return answers


class TestProtocol:
    def test_ping(self, server):
        with DelayClient(*server.address) as client:
            assert client.ping()

    def test_register_and_query(self, server):
        with DelayClient(*server.address) as client:
            client.register("alice", subnet="10.0.0.0/8")
            response = client.query(
                "SELECT * FROM t WHERE id = 1", identity="alice"
            )
        assert response["rows"] == [[1, "v1"]]
        assert response["columns"] == ["id", "v"]
        assert response["delay"] > 0

    def test_query_error_surfaces(self, server):
        with DelayClient(*server.address) as client:
            client.register("bob")
            with pytest.raises(ServerError, match="expected"):
                client.query("SELECT FROM", identity="bob")

    def test_denial_carries_reason_and_retry(self, service, server):
        with DelayClient(*server.address) as client:
            client.register("carol")
            for i in range(100):
                client.query(
                    f"SELECT * FROM t WHERE id = {1 + i % 20}",
                    identity="carol",
                )
            with pytest.raises(ServerError) as excinfo:
                client.query("SELECT * FROM t WHERE id = 1",
                             identity="carol")
        assert excinfo.value.reason == "query_quota"
        assert excinfo.value.retry_after > 0

    def test_report(self, server):
        with DelayClient(*server.address) as client:
            client.register("dave")
            client.query("SELECT * FROM t WHERE id = 3", identity="dave")
            report = client.report()
        assert report["users"] >= 1
        assert report["queries"] >= 1
        assert report["extraction_cost"] > 0

    def test_identity_required_by_service(self, server):
        with DelayClient(*server.address) as client:
            with pytest.raises(ServerError, match="identity"):
                client.query("SELECT * FROM t WHERE id = 1")

    def test_unknown_op(self, server):
        with DelayClient(*server.address) as client:
            with pytest.raises(ServerError, match="unknown op"):
                client._call({"op": "dance"})

    def test_bad_json_line(self, server):
        bad, ping = raw_exchange(
            server.address, b"{not json", b'{"op": "ping"}'
        )
        assert bad["ok"] is False
        assert bad["error"].startswith("bad json")
        assert ping == {"ok": True, "op": "pong"}  # connection survives

    def test_non_dict_request(self, server):
        bad, ping = raw_exchange(
            server.address, b'"hello"', b'{"op": "ping"}'
        )
        assert bad == {"ok": False, "error": "request must be {'op': ...}"}
        assert ping == {"ok": True, "op": "pong"}


class TestRobustness:
    def test_connection_closed_is_distinct_from_denial(self, service):
        server = DelayServer(service, drain_timeout=0.2)
        server.start()
        client = DelayClient(*server.address)
        assert client.ping()
        server.stop()
        with pytest.raises(ConnectionClosed):
            client.ping()
        # ConnectionClosed still is a ServerError, so old handlers work.
        assert issubclass(ConnectionClosed, ServerError)

    def test_oversized_request_refused(self, service):
        with DelayServer(service, max_request_bytes=256) as server:
            with DelayClient(*server.address) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.query(
                        "SELECT * FROM t WHERE v = '" + "x" * 1024 + "'"
                    )
        assert excinfo.value.reason == "request_too_large"

    def test_idle_connection_dropped_after_read_timeout(self, service):
        with DelayServer(service, read_timeout=0.2) as server:
            client = DelayClient(*server.address)
            assert client.ping()
            time.sleep(0.5)
            with pytest.raises(ConnectionClosed):
                client.ping()

    def test_handler_error_is_isolated_and_recorded(
        self, service, monkeypatch
    ):
        """Wherever the crash happens: on a worker thread (no result
        cache), or on the I/O loop while it answers a cache probe."""

        def boom(*args, **kwargs):
            raise RuntimeError("kaboom")

        cached = make_service(result_cache_size=8)
        sql = "SELECT * FROM t WHERE id = 1"
        for provider in (service, cached):
            with DelayServer(provider) as server:
                with DelayClient(*server.address, timeout=10) as client:
                    client.register("erin")
                    if provider is cached:
                        client.query(sql, identity="erin")  # prime the entry
                        hit = client.query(sql, identity="erin")
                        assert hit["cached"] is True
                        assert server.cache_fast_path_hits == 1
                    monkeypatch.setattr(provider.guard, "execute", boom)
                    with pytest.raises(ServerError) as excinfo:
                        client.query(sql, identity="erin")
                    assert excinfo.value.payload == {
                        "ok": False,
                        "error": "internal server error: kaboom",
                        "reason": "internal_error",
                    }
                    # The connection (and server) survive the crash.
                    assert client.ping()
                    scrape = client.metrics()["metrics"]
            assert len(server.handler_errors) == 1
            assert isinstance(server.handler_errors[0], RuntimeError)
            assert scrape["server_handler_errors_total"]["value"] == 1

    def test_stop_drains_active_connections(self, service):
        server = DelayServer(service, drain_timeout=2.0)
        server.start()
        with DelayClient(*server.address) as client:
            client.register("frank")
            client.query("SELECT * FROM t WHERE id = 1", identity="frank")
        server.stop()
        assert server.active_connections == 0

    def test_invalid_server_options_rejected(self, service):
        from repro.core.errors import ConfigError

        with pytest.raises(ConfigError):
            DelayServer(service, read_timeout=0)
        with pytest.raises(ConfigError):
            DelayServer(service, max_request_bytes=0)
        with pytest.raises(ConfigError):
            DelayServer(service, drain_timeout=-1)


class TestClientRetry:
    @pytest.fixture
    def realtime_service(self):
        provider = DataProviderService(
            guard_config=GuardConfig(cap=0.001),
            account_policy=AccountPolicy(
                user_query_rate=50.0, user_query_burst=1.0
            ),
            clock=RealClock(),
        )
        provider.database.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"
        )
        provider.database.insert_rows("t", [(1, "v1"), (2, "v2")])
        return provider

    def test_rate_denial_carries_retry_after(self, realtime_service):
        with DelayServer(realtime_service) as server:
            with DelayClient(*server.address) as client:
                client.register("gail")
                client.query("SELECT * FROM t WHERE id = 1",
                             identity="gail")
                with pytest.raises(ServerError) as excinfo:
                    client.query("SELECT * FROM t WHERE id = 2",
                                 identity="gail")
                assert (
                    client.last_retry_after == excinfo.value.retry_after
                )
        assert excinfo.value.reason == "user_rate"
        assert 0 < excinfo.value.retry_after < 1

    def test_retry_waits_out_the_denial(self, realtime_service):
        with DelayServer(realtime_service) as server:
            with DelayClient(*server.address) as client:
                client.register("hana")
                client.query("SELECT * FROM t WHERE id = 1",
                             identity="hana")
                # Bucket is empty (burst=1): an immediate retry is
                # denied, but honouring retry_after succeeds.
                response = client.query(
                    "SELECT * FROM t WHERE id = 2",
                    identity="hana",
                    retries=3,
                )
        assert response["rows"] == [[2, "v2"]]
        assert client.last_retry_after == 0.0

    def test_retry_gives_up_when_hint_exceeds_cap(self, service, server):
        # query_quota retry_after is ~a day: far beyond max_retry_wait,
        # so the client must surface the denial instead of sleeping.
        with DelayClient(*server.address) as client:
            client.register("ivan")
            for i in range(100):
                client.query(
                    f"SELECT * FROM t WHERE id = {1 + i % 20}",
                    identity="ivan",
                )
            with pytest.raises(ServerError) as excinfo:
                client.query(
                    "SELECT * FROM t WHERE id = 1",
                    identity="ivan",
                    retries=5,
                )
        assert excinfo.value.reason == "query_quota"


class TestConcurrentClients:
    def test_parallel_clients_all_served(self, server):
        with DelayClient(*server.address) as admin:
            for name in ("u0", "u1", "u2", "u3"):
                admin.register(name)

        errors = []
        counts = [0] * 4

        def worker(index):
            try:
                with DelayClient(*server.address) as client:
                    for item in range(1, 11):
                        client.query(
                            f"SELECT * FROM t WHERE id = {item}",
                            identity=f"u{index}",
                        )
                        counts[index] += 1
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert counts == [10, 10, 10, 10]


class TestObservabilityOps:
    def test_metrics_json_reconciles_with_stats(self, service, server):
        with DelayClient(*server.address) as client:
            client.register("mia")
            for item in range(1, 6):
                client.query(
                    f"SELECT * FROM t WHERE id = {item}", identity="mia"
                )
            scrape = client.metrics()["metrics"]
        stats = service.guard.stats
        assert scrape["guard_queries_total"]["value"] == stats.queries == 5
        assert scrape["guard_selects_total"]["value"] == stats.selects
        histogram = scrape["guard_select_delay_seconds"]
        assert histogram["count"] == 5
        assert histogram["sum"] == pytest.approx(stats.total_delay)
        # Server-side counters ride in the same registry.
        ops = {
            series["labels"]["op"]: series["value"]
            for series in scrape["server_requests_total"]["series"]
        }
        assert ops["query"] == 5
        assert ops["register"] == 1
        assert scrape["server_in_flight_connections"]["value"] >= 1

    def test_metrics_prometheus_exposition(self, server):
        with DelayClient(*server.address) as client:
            client.register("nils")
            client.query("SELECT * FROM t WHERE id = 1", identity="nils")
            response = client.metrics(format="prometheus")
        text = response["text"]
        assert response["content_type"].startswith("text/plain")
        assert "# TYPE guard_select_delay_seconds histogram" in text
        assert "guard_select_delay_seconds_count 1" in text
        assert 'guard_select_delay_seconds_bucket{le="+Inf"} 1' in text
        assert "guard_queries_total 1" in text
        assert "# TYPE server_requests_total counter" in text

    def test_metrics_unknown_format_refused(self, server):
        with DelayClient(*server.address) as client:
            with pytest.raises(ServerError, match="unknown metrics format"):
                client.metrics(format="xml")

    def test_trace_op_returns_lifecycle_spans(self, server):
        with DelayClient(*server.address) as client:
            client.register("olga")
            client.query("SELECT * FROM t WHERE id = 7", identity="olga")
            response = client.traces(limit=5)
        assert response["finished_total"] >= 1
        query_traces = [
            trace for trace in response["traces"] if trace["status"] == "ok"
        ]
        assert query_traces, response["traces"]
        newest = query_traces[0]
        assert newest["identity"] == "olga"
        assert "SELECT" in newest["sql"]
        stages = {span["name"] for span in newest["spans"]}
        # The server serves the sleep on its own connection thread and
        # appends that stage to the guard's finished trace, so a
        # delayed SELECT's recorded lifecycle is complete end to end.
        assert {
            "admit", "parse", "authorize", "execute", "account",
            "price", "record", "sleep",
        } <= stages
        assert newest["delay"] > 0
        span_total = sum(span["duration"] for span in newest["spans"])
        assert span_total == pytest.approx(newest["duration"], abs=0.01)

    def test_trace_limit_validated(self, server):
        with DelayClient(*server.address) as client:
            with pytest.raises(ServerError, match="limit"):
                client.traces(limit=0)

    def test_denials_counted_by_reason(self, service, server):
        with DelayClient(*server.address) as client:
            client.register("pia")
            for i in range(100):
                client.query(
                    f"SELECT * FROM t WHERE id = {1 + i % 20}",
                    identity="pia",
                )
            with pytest.raises(ServerError):
                client.query(
                    "SELECT * FROM t WHERE id = 1", identity="pia"
                )
            scrape = client.metrics()["metrics"]
        denied = {
            series["labels"]["reason"]: series["value"]
            for series in scrape["server_denied_total"]["series"]
        }
        assert denied["query_quota"] == 1
        assert service.guard.stats.denied == 1

    def test_handler_errors_bounded_with_exact_total(
        self, service, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(service.guard, "execute", boom)
        with DelayServer(service, max_handler_errors=3) as server:
            with DelayClient(*server.address) as client:
                client.register("quin")
                for _ in range(7):
                    with pytest.raises(ServerError, match="internal"):
                        client.query(
                            "SELECT * FROM t WHERE id = 1", identity="quin"
                        )
                scrape = client.metrics()["metrics"]
            # The ring keeps only the newest 3; the exact lifetime count
            # survives in the attribute and the registry counter.
            assert len(server.handler_errors) == 3
            assert server.handler_errors_total == 7
            assert scrape["server_handler_errors_total"]["value"] == 7

    def test_concurrent_scrapes_during_query_traffic(self, server):
        with DelayClient(*server.address) as admin:
            admin.register("rex")

        errors = []
        scrapes = []

        def query_worker():
            try:
                with DelayClient(*server.address) as client:
                    for item in range(1, 21):
                        client.query(
                            f"SELECT * FROM t WHERE id = {1 + item % 20}",
                            identity="rex",
                        )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def scrape_worker():
            try:
                with DelayClient(*server.address) as client:
                    for _ in range(10):
                        scrapes.append(client.metrics()["metrics"])
                        client.metrics(format="prometheus")
                        client.traces(limit=5)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=query_worker) for _ in range(3)]
        threads += [threading.Thread(target=scrape_worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        assert list(server.handler_errors) == []
        # Scrapes taken mid-traffic are internally consistent: the
        # histogram count can never exceed the queries counter.
        for scrape in scrapes:
            assert (
                scrape["guard_select_delay_seconds"]["count"]
                <= scrape["guard_queries_total"]["value"]
            )
        with DelayClient(*server.address) as client:
            final = client.metrics()["metrics"]
        assert final["guard_queries_total"]["value"] == 60
        assert final["guard_select_delay_seconds"]["count"] == 60


class TestLifecycle:
    def test_double_start_rejected(self, service):
        server = DelayServer(service)
        server.start()
        try:
            with pytest.raises(Exception):
                server.start()
        finally:
            server.stop()

    def test_stop_is_idempotent_enough(self, service):
        server = DelayServer(service)
        server.start()
        server.stop()
