"""Chaos tests: overload shedding, deadlines, breaker, injected faults.

These tests drive the server into the failure modes the overload
design exists for — full queues, exhausted connections, oversubscribed
delay parking, dying sockets, failing disks — and assert two things
each time: the degradation is *bounded and fast* (sheds answer in
milliseconds, not timeouts), and the server *recovers completely* once
the pressure or the fault is gone.
"""

import json
import socket
import threading
import time

import pytest

from repro.core import GuardConfig, RealClock
from repro.core.resilience import BreakerOpen, CircuitBreaker
from repro.server import (
    ConnectionClosed,
    DelayClient,
    DelayServer,
    ServerError,
)
from repro.service import DataProviderService
from repro.testing import injected_faults

#: Sheds must be answered faster than this (the acceptance bar is
#: 100 ms; CI boxes get a little slack for scheduling noise).
SHED_LATENCY_BUDGET = 0.1


def make_service(fixed_delay=None, clock=None, **service_kwargs):
    provider = DataProviderService(
        guard_config=(
            GuardConfig(policy="fixed", fixed_delay=fixed_delay,
                        cap=3600.0)
            if fixed_delay is not None
            else GuardConfig(cap=0.001)
        ),
        clock=clock,
        **service_kwargs,
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


def wedge_worker(server, client, results, name="blocker"):
    """Occupy one worker for as long as the armed stall lasts.

    Sends a ``report`` from a thread: an op the I/O loop never runs
    itself, so it reaches the worker entry and with it an armed
    ``server.handler`` stall (a lone SELECT on an idle pool would be
    served by the loop and never wedge anything). Returns the thread
    once a worker has the request; its ``(status, response-or-error,
    seconds)`` lands in ``results[name]``.
    """

    def run():
        start = time.perf_counter()
        try:
            response = client.report()
            results[name] = ("ok", response, time.perf_counter() - start)
        except ServerError as error:
            results[name] = ("denied", error, time.perf_counter() - start)

    thread = threading.Thread(target=run)
    thread.start()
    deadline = time.monotonic() + 2.0
    while not server._busy_workers and time.monotonic() < deadline:
        time.sleep(0.005)
    assert server._busy_workers == 1, "no worker took the wedge"
    return thread


def raw_request(address, payload, timeout=2.0):
    """One request over a raw socket; returns (response, seconds)."""
    with socket.create_connection(address, timeout=timeout) as sock:
        with sock.makefile("rwb") as stream:
            start = time.perf_counter()
            stream.write((json.dumps(payload) + "\n").encode())
            stream.flush()
            line = stream.readline()
            elapsed = time.perf_counter() - start
    if not line:
        raise ConnectionClosed()
    return json.loads(line), elapsed


class TestConnectionLimit:
    def test_over_limit_connect_is_shed_fast(self, service):
        with DelayServer(service, max_connections=2) as server:
            held = [DelayClient(*server.address) for _ in range(2)]
            try:
                for client in held:
                    client.ping()
                with socket.create_connection(
                    server.address, timeout=2.0
                ) as sock:
                    start = time.perf_counter()
                    line = sock.makefile("rb").readline()
                    elapsed = time.perf_counter() - start
                response = json.loads(line)
                assert response["ok"] is False
                assert response["reason"] == "overloaded"
                assert response["retry_after"] > 0
                assert elapsed < SHED_LATENCY_BUDGET
                # The held connections were untouched.
                for client in held:
                    assert client.ping()
            finally:
                for client in held:
                    client.close()
            assert server.shed_counts.get("connection_limit", 0) >= 1

    def test_capacity_frees_when_a_connection_closes(self, service):
        with DelayServer(service, max_connections=1) as server:
            first = DelayClient(*server.address)
            first.ping()
            first.close()
            # Give the I/O loop a beat to reap the closed socket.
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                try:
                    with DelayClient(*server.address) as second:
                        assert second.ping()
                    break
                except ServerError:
                    time.sleep(0.02)
            else:
                pytest.fail("capacity never recovered after close")


class TestAdmissionQueue:
    def test_queue_full_sheds_fast_and_admitted_work_completes(
        self, service
    ):
        with injected_faults() as faults:
            # One worker, wedged: the queue is the only buffer.
            faults.stall("server.handler", seconds=0.6, times=1)
            with DelayServer(
                service, max_workers=1, max_queue=1, max_connections=16
            ) as server:
                blocker = DelayClient(*server.address)
                queued = DelayClient(*server.address)
                shed = DelayClient(*server.address)
                results = {}

                def run(name, client):
                    try:
                        start = time.perf_counter()
                        response = client.query("SELECT * FROM t WHERE id = 1")
                        results[name] = (
                            "ok", response, time.perf_counter() - start
                        )
                    except ServerError as error:
                        results[name] = (
                            "denied", error, time.perf_counter() - start
                        )

                # Deterministic arrival order: blocker grabs the
                # worker, queued fills the queue, shed overflows it.
                threads = [wedge_worker(server, blocker, results)]
                for name, client in (("queued", queued), ("shed", shed)):
                    thread = threading.Thread(target=run, args=(name, client))
                    thread.start()
                    threads.append(thread)
                    time.sleep(0.15)
                for thread in threads:
                    thread.join(timeout=5)
                for client in (blocker, queued, shed):
                    client.close()

        assert results["blocker"][0] == "ok"
        assert results["queued"][0] == "ok"
        status, error, elapsed = results["shed"]
        assert status == "denied"
        assert error.reason == "overloaded"
        assert error.retry_after > 0
        assert elapsed < SHED_LATENCY_BUDGET
        assert server.shed_counts.get("queue_full", 0) >= 1
        assert service.guard.stats.shed >= 1

    def test_higher_priority_displaces_queued_lower_priority(
        self, service
    ):
        with injected_faults() as faults:
            faults.stall("server.handler", seconds=0.6, times=1)
            with DelayServer(
                service, max_workers=1, max_queue=1, max_connections=16
            ) as server:
                blocker = DelayClient(*server.address)
                low = DelayClient(*server.address)
                high = DelayClient(*server.address)
                results = {}

                def run(name, client, priority):
                    try:
                        response = client.query(
                            "SELECT * FROM t WHERE id = 2",
                            priority=priority,
                        )
                        results[name] = ("ok", response)
                    except ServerError as error:
                        results[name] = ("denied", error)

                threads = [wedge_worker(server, blocker, results)]
                for name, client, priority in (
                    ("low", low, 1),
                    ("high", high, 8),
                ):
                    thread = threading.Thread(
                        target=run, args=(name, client, priority)
                    )
                    thread.start()
                    threads.append(thread)
                    time.sleep(0.15)
                for thread in threads:
                    thread.join(timeout=5)
                for client in (blocker, low, high):
                    client.close()

        # The low-priority request was displaced by the late,
        # high-priority one — not the other way round.
        assert results["high"][0] == "ok"
        status, error = results["low"]
        assert status == "denied"
        assert error.reason == "overloaded"
        assert "displaced" in str(error)


class TestDeadlines:
    def test_delay_beyond_deadline_rejected_up_front(self):
        # A 30-second mandated delay against a 200 ms budget: the
        # server must answer *immediately*, reporting the full delay —
        # not sit in the sleep it knows the client will not wait out.
        provider = make_service(fixed_delay=30.0, clock=RealClock())
        with DelayServer(provider) as server:
            with DelayClient(*server.address) as client:
                start = time.perf_counter()
                with pytest.raises(ServerError) as excinfo:
                    client.query(
                        "SELECT * FROM t WHERE id = 1", deadline_ms=200
                    )
                elapsed = time.perf_counter() - start
        assert excinfo.value.reason == "deadline_exceeded"
        assert excinfo.value.retry_after == pytest.approx(30.0)
        assert elapsed < 1.0
        assert provider.guard.stats.deadline_aborts >= 1

    def test_delay_within_deadline_succeeds(self):
        provider = make_service(fixed_delay=0.01, clock=RealClock())
        with DelayServer(provider) as server:
            with DelayClient(*server.address) as client:
                response = client.query(
                    "SELECT * FROM t WHERE id = 1", deadline_ms=60_000
                )
        assert response["ok"] is True
        assert response["delay"] == pytest.approx(0.01)

    def test_budget_spent_in_queue_aborts_before_work(self, service):
        with injected_faults() as faults:
            faults.stall("server.handler", seconds=0.3, times=1)
            with DelayServer(service, max_workers=1) as server:
                with DelayClient(*server.address) as blocker:
                    wedged = wedge_worker(server, blocker, {})
                    with DelayClient(*server.address) as client:
                        with pytest.raises(ServerError) as excinfo:
                            client.query(
                                "SELECT * FROM t WHERE id = 1",
                                deadline_ms=50,
                            )
                    wedged.join(timeout=5)
        assert excinfo.value.reason == "deadline_exceeded"

    def test_client_never_retries_deadline_exceeded(self):
        provider = make_service(fixed_delay=30.0, clock=RealClock())
        with DelayServer(provider) as server:
            with DelayClient(*server.address) as client:
                start = time.perf_counter()
                with pytest.raises(ServerError) as excinfo:
                    client.query(
                        "SELECT * FROM t WHERE id = 1",
                        deadline_ms=200,
                        retries=5,
                    )
                elapsed = time.perf_counter() - start
        assert excinfo.value.reason == "deadline_exceeded"
        assert client.retries_performed == 0
        assert elapsed < 1.0


class TestValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("deadline_ms", "soon"),
            ("deadline_ms", True),
            ("deadline_ms", 0),
            ("deadline_ms", -5),
            ("deadline_ms", float("nan")),
            ("deadline_ms", 1e12),
            ("priority", "high"),
            ("priority", True),
            ("priority", 2.5),
            ("priority", -1),
            ("priority", 10),
        ],
    )
    def test_invalid_fields_are_bad_requests(self, service, field, value):
        with DelayServer(service) as server:
            payload = {"op": "query", "sql": "SELECT * FROM t", field: value}
            response, _ = raw_request(server.address, payload)
        assert response["ok"] is False
        assert response["reason"] == "bad_request"
        assert field in response["error"]

    def test_non_string_identity_rejected(self, service):
        with DelayServer(service) as server:
            response, _ = raw_request(
                server.address,
                {"op": "query", "sql": "SELECT 1", "identity": 42},
            )
        assert response["reason"] == "bad_request"

    def test_valid_bounds_accepted(self, service):
        with DelayServer(service) as server:
            with DelayClient(*server.address) as client:
                response = client.query(
                    "SELECT * FROM t WHERE id = 1",
                    deadline_ms=60_000,
                    priority=9,
                )
        assert response["ok"] is True


class TestDelayParkingShed:
    def test_largest_delay_shed_first(self):
        # A 0.2 s/tuple price: the point query owes 0.2 s, the range
        # scan owes 1 s. With room for one parked delay, the range scan
        # must be the one sacrificed — and its retry_after must be the
        # full delay it owed.
        provider = make_service(fixed_delay=0.2, clock=RealClock())
        with DelayServer(provider, max_parked=1) as server:
            cheap = DelayClient(*server.address)
            expensive = DelayClient(*server.address)
            results = {}

            def run(name, client, sql):
                start = time.perf_counter()
                try:
                    response = client.query(sql)
                    results[name] = (
                        "ok", response, time.perf_counter() - start
                    )
                except ServerError as error:
                    results[name] = (
                        "denied", error, time.perf_counter() - start
                    )

            cheap_thread = threading.Thread(
                target=run,
                args=("cheap", cheap, "SELECT * FROM t WHERE id = 1"),
            )
            cheap_thread.start()
            time.sleep(0.05)  # the cheap delay parks first
            expensive_thread = threading.Thread(
                target=run,
                args=(
                    "expensive",
                    expensive,
                    "SELECT * FROM t WHERE id <= 5",
                ),
            )
            expensive_thread.start()
            cheap_thread.join(timeout=5)
            expensive_thread.join(timeout=5)
            cheap.close()
            expensive.close()

        status, response, elapsed = results["cheap"]
        assert status == "ok"
        assert response["rows"] == [[1, "v1"]]
        assert elapsed >= 0.2  # it genuinely served its delay
        status, error, elapsed = results["expensive"]
        assert status == "denied"
        assert error.reason == "overloaded"
        assert error.retry_after == pytest.approx(1.0)
        # Shed the moment it tried to park — it never slept its 1 s.
        assert elapsed < 0.5
        assert server.shed_counts.get("delay_parking", 0) == 1

    def test_parked_delays_cancelled_on_stop(self):
        # stop() must not wait out a parked multi-second delay beyond
        # drain_timeout; the victim hears shutting_down + what it owed.
        provider = make_service(fixed_delay=30.0, clock=RealClock())
        server = DelayServer(provider, drain_timeout=0.2)
        server.start()
        client = DelayClient(*server.address)
        result = {}

        def run():
            try:
                result["response"] = client.query(
                    "SELECT * FROM t WHERE id = 1"
                )
            except ServerError as error:
                result["error"] = error

        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.monotonic() + 2.0
        while server.parked_delays == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.parked_delays == 1
        start = time.perf_counter()
        server.stop()
        stop_elapsed = time.perf_counter() - start
        thread.join(timeout=5)
        client.close()
        assert stop_elapsed < 5.0  # not the 30 s the delay owed
        error = result.get("error")
        assert error is not None, f"expected a denial, got {result}"
        assert error.reason == "shutting_down"
        assert error.retry_after > 25.0


class TestFaultInjection:
    def test_read_fault_kills_one_connection_not_the_server(
        self, service
    ):
        with DelayServer(service) as server:
            with injected_faults() as faults:
                faults.fail(
                    "server.read", error=OSError("injected"), times=1
                )
                with DelayClient(*server.address) as victim:
                    with pytest.raises(ConnectionClosed):
                        victim.ping()
            with DelayClient(*server.address) as survivor:
                assert survivor.ping()
        assert len(server.handler_errors) == 0

    def test_accept_fault_drops_connection_then_recovers(self, service):
        with DelayServer(service) as server:
            with injected_faults() as faults:
                faults.fail(
                    "server.accept", error=OSError("injected"), times=1
                )
                with DelayClient(*server.address) as dropped:
                    with pytest.raises(ConnectionClosed):
                        dropped.ping()
            with DelayClient(*server.address) as client:
                assert client.ping()

    def test_handler_fault_is_recorded_and_isolated(self, service):
        with DelayServer(service) as server:
            with DelayClient(*server.address) as client:
                with injected_faults() as faults:
                    faults.fail(
                        "server.handler",
                        error=RuntimeError("injected handler crash"),
                        times=1,
                    )
                    with pytest.raises(ServerError) as excinfo:
                        client.ping()
                assert excinfo.value.reason == "internal_error"
                # The same connection keeps working afterwards.
                assert client.ping()
        assert server.handler_errors_total == 1

    def test_engine_fault_surfaces_and_server_survives(self, service):
        with DelayServer(service) as server:
            with DelayClient(*server.address) as client:
                with injected_faults() as faults:
                    faults.fail(
                        "engine.execute",
                        error=RuntimeError("injected engine crash"),
                        times=1,
                    )
                    with pytest.raises(ServerError):
                        client.query("SELECT * FROM t WHERE id = 1")
                response = client.query("SELECT * FROM t WHERE id = 1")
        assert response["rows"] == [[1, "v1"]]

    def test_fsync_fault_surfaces_and_server_survives(self, tmp_path):
        provider = make_service(journal_path=tmp_path / "wal.journal")
        with DelayServer(provider) as server:
            with DelayClient(*server.address) as client:
                with injected_faults() as faults:
                    faults.fail(
                        "journal.fsync",
                        error=OSError("injected: disk full"),
                        times=1,
                    )
                    with pytest.raises(ServerError):
                        client.query(
                            "INSERT INTO t (id, v) VALUES (100, 'x')"
                        )
                # The disk "recovered": writes work again.
                response = client.query(
                    "INSERT INTO t (id, v) VALUES (101, 'y')"
                )
        assert response["ok"] is True
        provider.close()

    def test_injected_faults_are_counted_in_metrics(self, service):
        with DelayServer(service) as server:
            with injected_faults() as faults:
                faults.fail(
                    "server.read", error=OSError("injected"), times=1
                )
                with DelayClient(*server.address) as client:
                    with pytest.raises(ConnectionClosed):
                        client.ping()
            with DelayClient(*server.address) as probe:
                metrics = probe.metrics()["metrics"]
        fired = metrics["faults_injected_total"]["value"]
        assert fired >= 1


class TestCircuitBreaker:
    def test_breaker_walks_all_states_from_injected_faults(self, service):
        # The full state machine — closed → open → (fail fast) →
        # half-open → closed — driven purely by injected socket faults:
        # no real outage, no real waits beyond the 100 ms probe timer.
        breaker = CircuitBreaker(
            endpoint="chaos", failure_threshold=2, probe_interval=0.1
        )
        with DelayServer(service) as server:
            client = DelayClient(*server.address, breaker=breaker)
            with injected_faults() as faults:
                faults.fail(
                    "server.read", error=OSError("injected"), times=2
                )
                for _ in range(2):
                    with pytest.raises(ConnectionClosed):
                        client.ping()
                    try:
                        client._reconnect()
                    except OSError:
                        pass
            assert breaker.state == "open"
            # Open: the call fails locally, without touching the wire.
            start = time.perf_counter()
            with pytest.raises(BreakerOpen) as excinfo:
                client.ping()
            assert time.perf_counter() - start < 0.05
            assert excinfo.value.retry_after > 0
            # After the probe interval, one probe is admitted and its
            # success closes the breaker.
            time.sleep(0.12)
            assert breaker.state == "half_open"
            assert client.ping()
            assert breaker.state == "closed"
            client.close()
        assert breaker.transitions["closed->open"] == 1
        assert breaker.transitions["open->half_open"] == 1
        assert breaker.transitions["half_open->closed"] == 1
        stats = client.resilience_stats()
        assert stats["breaker"]["state"] == "closed"

    def test_failed_probe_reopens(self, service):
        breaker = CircuitBreaker(
            endpoint="chaos2", failure_threshold=1, probe_interval=0.1
        )
        with DelayServer(service) as server:
            client = DelayClient(*server.address, breaker=breaker)
            with injected_faults() as faults:
                faults.fail(
                    "server.read", error=OSError("injected"), times=2
                )
                with pytest.raises(ConnectionClosed):
                    client.ping()
                client._reconnect()
                time.sleep(0.12)
                # The probe itself hits the second injected fault.
                with pytest.raises(ConnectionClosed):
                    client.ping()
            assert breaker.state == "open"
            assert breaker.transitions["half_open->open"] == 1
            # Second probe succeeds and recovers.
            time.sleep(0.12)
            client._reconnect()
            assert client.ping()
            assert breaker.state == "closed"
            client.close()

    def test_semantic_denials_do_not_trip_the_breaker(self, service):
        breaker = CircuitBreaker(
            endpoint="chaos3", failure_threshold=1, probe_interval=0.1
        )
        with DelayServer(service) as server:
            with DelayClient(*server.address, breaker=breaker) as client:
                for _ in range(3):
                    with pytest.raises(ServerError):
                        client.query("SELECT FROM")  # bad SQL
                # Bad SQL is the *client's* problem; the endpoint is
                # healthy and the breaker must stay closed.
                assert breaker.state == "closed"
                assert client.ping()

    def test_shared_breaker_registry_is_per_endpoint(self):
        first = DelayClient.shared_breaker("10.0.0.1", 4000)
        again = DelayClient.shared_breaker("10.0.0.1", 4000)
        other = DelayClient.shared_breaker("10.0.0.2", 4000)
        assert first is again
        assert first is not other


class TestClientRetries:
    def test_overload_shed_is_retried_until_capacity_returns(
        self, service
    ):
        with injected_faults() as faults:
            faults.stall("server.handler", seconds=0.4, times=1)
            with DelayServer(
                service, max_workers=1, max_queue=1,
                overload_retry_after=0.2,
            ) as server:
                blocker = DelayClient(*server.address)
                queued = DelayClient(*server.address)
                retrier = DelayClient(*server.address)
                outcome = {}

                def run_blocking(name, client):
                    outcome[name] = client.query(
                        "SELECT * FROM t WHERE id = 1"
                    )

                threads = [
                    wedge_worker(server, blocker, outcome),
                    threading.Thread(
                        target=run_blocking, args=("queued", queued)
                    ),
                ]
                threads[1].start()
                time.sleep(0.1)
                # First attempt is shed (worker wedged + queue full);
                # the retry_after hint paces the retry into the window
                # where capacity is back.
                response = retrier.query(
                    "SELECT * FROM t WHERE id = 1", retries=5
                )
                for thread in threads:
                    thread.join(timeout=5)
                for client in (blocker, queued, retrier):
                    client.close()
        assert response["ok"] is True
        assert retrier.retries_performed >= 1

    def test_connection_closed_is_retried_with_reconnect(self, service):
        with DelayServer(service) as server:
            with injected_faults() as faults:
                faults.fail(
                    "server.read", error=OSError("injected"), times=1
                )
                client = DelayClient(*server.address)
                response = client.query(
                    "SELECT * FROM t WHERE id = 1", retries=2
                )
                client.close()
        assert response["ok"] is True
        assert client.reconnects_performed == 1

    def test_zero_retries_raises_immediately(self, service):
        with DelayServer(service) as server:
            with injected_faults() as faults:
                faults.fail(
                    "server.read", error=OSError("injected"), times=1
                )
                with DelayClient(*server.address) as client:
                    with pytest.raises(ConnectionClosed):
                        client.query("SELECT * FROM t WHERE id = 1")

    def test_bad_request_never_retried(self, service):
        with DelayServer(service) as server:
            with DelayClient(*server.address) as client:
                start = time.perf_counter()
                with pytest.raises(ServerError) as excinfo:
                    client.query(
                        "SELECT * FROM t WHERE id = 1",
                        deadline_ms=0,  # invalid: bad_request
                        retries=5,
                    )
                assert excinfo.value.reason == "bad_request"
                assert client.retries_performed == 0
                assert time.perf_counter() - start < 1.0
