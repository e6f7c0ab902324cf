"""Tests for the TCP server and client."""

import gc
import json
import socket
import threading
import time
import warnings

import pytest

from repro.core import AccountPolicy, GuardConfig, RealClock
from repro.server import (
    ConnectionClosed,
    DelayClient,
    DelayServer,
    ServerError,
)
from repro.service import DataProviderService
from repro.testing import injected_faults

from .test_chaos import wedge_worker


def make_service(quota=100, service_options=(), **guard_options):
    provider = DataProviderService(
        guard_config=GuardConfig(cap=0.001, **guard_options),
        account_policy=AccountPolicy(daily_query_quota=quota),
        **dict(service_options),
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


def query_line(sql, identity, **fields):
    request = {"op": "query", "sql": sql, "identity": identity, **fields}
    return json.dumps(request).encode() + b"\n"


def served_by(server):
    """How many queries each kind of thread has answered with a result."""
    counter = server.obs.registry.get("server_queries_served_total")
    return {by: counter.value(by=by) for by in ("loop", "worker")}


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
        with DelayClient(*server.address) as client:
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
            with DelayClient(*server.address) as client:
                assert client.ping()
                time.sleep(0.5)
                with pytest.raises(ConnectionClosed):
                    client.ping()

    def test_handler_error_is_isolated_and_recorded(
        self, service, monkeypatch
    ):
        """Wherever the crash happens: on a worker thread (a write never
        runs anywhere else), on the I/O loop while it answers a cache
        probe (a worker is busy, so the read is not alone), or on the
        I/O loop while it serves a lone read on an idle pool."""

        def boom(*args, **kwargs):
            raise RuntimeError("kaboom")

        select = "SELECT * FROM t WHERE id = 1"
        update = "UPDATE t SET v = 'x' WHERE id = 1"
        for route, provider, sql in (
            ("worker", service, update),
            ("probe", make_service(result_cache_size=8), select),
            ("lone", make_service(), select),
        ):
            with injected_faults() as faults, DelayServer(
                provider
            ) as server:
                with DelayClient(*server.address, timeout=10) as client:
                    client.register("erin")
                    if route == "probe":
                        client.query(sql, identity="erin")  # prime the entry
                        hit = client.query(sql, identity="erin")
                        assert hit["cached"] is True
                        assert server.cache_fast_path_hits == 1
                        faults.stall("server.handler", seconds=0.5, times=1)
                        blocker = DelayClient(*server.address)
                        wedged = wedge_worker(server, blocker, {})
                    entries = faults.on_fire(
                        "server.handler", lambda: None, times=None
                    )
                    monkeypatch.setattr(provider.guard, "execute", boom)
                    with pytest.raises(ServerError) as excinfo:
                        client.query(sql, identity="erin")
                    assert excinfo.value.payload == {
                        "ok": False,
                        "error": "internal server error: kaboom",
                        "reason": "internal_error",
                    }
                    # Only the worker route passes the worker entry.
                    assert entries.fired == (1 if route == "worker" else 0)
                    if route == "probe":
                        wedged.join(timeout=5)
                        blocker.close()
                    # The connection, the loop and the server survive.
                    assert client.ping()
                    scrape = client.metrics()["metrics"]
            assert server.handler_errors_total == 1, route
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


class TestLoopServedReads:
    """A lone read on an idle pool is served by the I/O loop itself;
    everything else, and every read once anyone is waiting, takes the
    queue and a worker exactly as before."""

    def test_lone_read_matches_worker_served_read_byte_for_byte(
        self, tmp_path
    ):
        sql = "SELECT * FROM t WHERE id = 3"
        answers = {}
        for route in ("loop", "worker"):
            provider = make_service(
                service_options={"audit_path": tmp_path / f"{route}.audit"}
            )
            with injected_faults() as faults, DelayServer(
                provider, max_workers=2
            ) as server:
                with DelayClient(*server.address) as client:
                    client.register("alice")
                if route == "worker":
                    # One of the two workers is busy, so the read is
                    # queued for the other one.
                    faults.stall("server.handler", seconds=0.5, times=1)
                    blocker = DelayClient(*server.address)
                    wedged = wedge_worker(server, blocker, {})
                entries = faults.on_fire(
                    "server.handler", lambda: None, times=None
                )
                waits = server.obs.registry.get("server_queue_wait_seconds")
                waited = waits.count
                with socket.create_connection(
                    server.address, timeout=10
                ) as sock:
                    stream = sock.makefile("rwb")
                    stream.write(query_line(sql, "alice"))
                    stream.flush()
                    answers[route] = stream.readline()
                if route == "worker":
                    assert entries.fired == 1
                    assert waits.count == waited + 1
                    assert served_by(server) == {"loop": 0, "worker": 1}
                    wedged.join(timeout=5)
                    blocker.close()
                else:
                    # Never queued, never at the worker entry.
                    assert entries.fired == 0
                    assert waits.count == waited
                    assert server._busy_workers == 0
                    assert served_by(server) == {"loop": 1, "worker": 0}
                with DelayClient(*server.address) as client:
                    state = client.health()["server"]
                assert state["queries_served"][route] == 1
                assert state["queue_wait_seconds"]["count"] >= 1
            # Charged, priced, recorded and audited exactly once.
            assert provider.accounts.account("alice").queries_issued == 1
            assert provider.guard.stats.queries == 1
            assert provider.guard.popularity.total_requests == 1
            provider.obs.audit.flush()
            kinds = provider.obs.audit.stats()["by_kind"]
            assert kinds["query_served"] == 1
            assert kinds["delay_priced"] == 1
            provider.close()
        assert json.loads(answers["loop"])["rows"] == [[3, "v3"]]
        assert json.loads(answers["loop"])["delay"] > 0
        assert answers["loop"] == answers["worker"]

    def test_waiting_reads_are_popped_in_priority_order(
        self, service, monkeypatch
    ):
        executed = []
        real_execute = service.guard.execute

        def recording_execute(sql, **kwargs):
            executed.append(sql)
            return real_execute(sql, **kwargs)

        monkeypatch.setattr(service.guard, "execute", recording_execute)
        with injected_faults() as faults, DelayServer(
            service, max_workers=1
        ) as server:
            with DelayClient(*server.address) as client:
                client.register("alice")
            faults.stall("server.handler", seconds=0.6, times=1)
            blocker = DelayClient(*server.address)
            wedged = wedge_worker(server, blocker, {})
            entries = faults.on_fire(
                "server.handler", lambda: None, times=None
            )
            socks = []
            for depth, priority in enumerate((1, 9, 5), start=1):
                sock = socket.create_connection(server.address, timeout=10)
                sock.sendall(
                    query_line(
                        f"SELECT * FROM t WHERE id = {priority}",
                        "alice",
                        priority=priority,
                    )
                )
                socks.append(sock)
                deadline = time.monotonic() + 2.0
                while (
                    server.queue_depth < depth
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.005)
                # Each read, alone in its select turn or not, waits
                # behind the busy worker: nothing ran ahead of it.
                assert server.queue_depth == depth
                assert executed == []
            answers = [
                json.loads(sock.makefile("rb").readline()) for sock in socks
            ]
            for sock in socks:
                sock.close()
            assert entries.fired == 3
            assert served_by(server) == {"loop": 0, "worker": 3}
            wedged.join(timeout=5)
            blocker.close()
        assert [answer["rows"][0][0] for answer in answers] == [1, 9, 5]
        assert executed == [
            f"SELECT * FROM t WHERE id = {priority}" for priority in (9, 5, 1)
        ]

    def test_writes_and_other_ops_always_take_a_worker(self, tmp_path):
        provider = make_service(
            service_options={"snapshot_path": tmp_path / "t.snapshot"}
        )
        with injected_faults() as faults, DelayServer(provider) as server:
            with DelayClient(*server.address) as client:
                client.register("alice")
                entries = faults.on_fire(
                    "server.handler", lambda: None, times=None
                )
                # One connection, an idle pool: every one of these
                # arrives as alone as a request can be.
                calls = [
                    lambda: client.query(
                        "INSERT INTO t (id, v) VALUES (50, 'new')",
                        identity="alice",
                    ),
                    lambda: client.query(
                        "UPDATE t SET v = 'changed' WHERE id = 50",
                        identity="alice",
                    ),
                    lambda: client.query(
                        "DELETE FROM t WHERE id = 50", identity="alice"
                    ),
                    client.checkpoint,
                    client.report,
                ]
                for expected, call in enumerate(calls, start=1):
                    assert call()["ok"] is True
                    assert entries.fired == expected
                assert served_by(server) == {"loop": 0, "worker": 3}
                # ... and a read, on the same idle pool, does not.
                client.query("SELECT * FROM t WHERE id = 1", identity="alice")
                assert entries.fired == len(calls)
                assert served_by(server) == {"loop": 1, "worker": 3}
        provider.close()

    def test_pipelined_burst_is_answered_in_order_on_the_loop(
        self, monkeypatch
    ):
        provider = make_service(quota=1000, result_cache_size=8)
        ids = [1 + index % 5 for index in range(300)]
        with DelayServer(provider) as server:
            with DelayClient(*server.address) as client:
                client.register("alice")
                for item in range(1, 6):  # prime the five cache entries
                    client.query(
                        f"SELECT * FROM t WHERE id = {item}", identity="alice"
                    )
            submitted = []
            real_submit = server._io.submit

            def counting_submit(command):
                submitted.append(command)
                real_submit(command)

            monkeypatch.setattr(server._io, "submit", counting_submit)
            with socket.create_connection(
                server.address, timeout=10
            ) as sock:
                sock.sendall(
                    b"".join(
                        query_line(
                            f"SELECT * FROM t WHERE id = {item}", "alice"
                        )
                        for item in ids
                    )
                )
                stream = sock.makefile("rb")
                answers = [json.loads(stream.readline()) for _ in ids]
                # A response produced on the loop thread is written in
                # the same turn: nothing crossed the wake socketpair.
                assert submitted == []
                # A line behind one that needs a worker still waits
                # for that one's answer.
                sock.sendall(
                    query_line("SELECT * FROM t WHERE id = 2", "alice")
                    + b'{"op": "ping"}\n'
                    + query_line("SELECT * FROM t WHERE id = 4", "alice")
                )
                tail = [json.loads(stream.readline()) for _ in range(3)]
            assert server.cache_fast_path_hits == 302
        assert all(answer["cached"] for answer in answers)
        assert [answer["rows"] for answer in answers] == [
            [[item, f"v{item}"]] for item in ids
        ]
        assert tail[0]["rows"] == [[2, "v2"]]
        assert tail[1] == {"ok": True, "op": "pong"}
        assert tail[2]["rows"] == [[4, "v4"]]
        assert not server.handler_errors


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

    def test_unstarted_server_closes_its_listener_when_collected(self):
        # __init__ binds the listener; a server dropped before start()
        # (no stop() to close it) must close it as it is collected,
        # not leave the socket to warn "unclosed" from its __del__.
        provider = make_service()
        DelayServer(provider)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            provider.close()
            del provider
            gc.collect()
        assert not [
            warning
            for warning in caught
            if issubclass(warning.category, ResourceWarning)
        ]
