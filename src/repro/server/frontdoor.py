"""``DelayServer``: lifecycle, the one serving path, and the op handlers."""

from __future__ import annotations

import json
import socket
import threading
import time
import weakref
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..core.clock import VirtualClock
from ..core.errors import AccessDenied, ConfigError, DelayDefenseError
from ..engine.errors import EngineError
from ..engine.parser.ast import SelectStatement
from ..engine.parser.parser import parse_cached
from ..obs import SloTracker, build_info
from ..service import DataProviderService
from ..testing.faults import fire, injector
from . import wire
from .admission import AdmissionQueue, DelayScheduler, Request
from .client import DelayClient
from .ioloop import Connection, IOLoop

#: What a cache probe that missed returns instead of a response.
_PROBE_MISS: Dict = {}


class DelayServer:
    """Serves a :class:`DataProviderService` over TCP.

    Args:
        service: the guarded provider to expose.
        host/port: bind address; port 0 picks a free port.
        read_timeout: seconds a connection may sit idle between requests
            before it is dropped (None disables the timeout).
        max_request_bytes: longest accepted request line; longer lines
            are answered with ``request_too_large`` and the connection
            is closed.
        drain_timeout: how long :meth:`stop` waits for in-flight
            requests (queued, executing, or parked in delay) before
            cancelling whatever is left.
        max_handler_errors: how many recent handler exceptions to retain
            in :attr:`handler_errors`.
        max_workers: fixed worker-thread pool size. Thread count is
            bounded by ``max_workers`` plus a small constant (I/O loop,
            delay scheduler, acceptor) regardless of connection count.
        max_queue: admission-queue capacity; a request arriving at a
            full queue is shed (or trades places with a queued
            lower-priority request). Defaults to ``max_connections``,
            so well-behaved request-response clients are never shed at
            the queue before the connection limit bites.
        max_connections: concurrently open connections; further
            connects receive a fast ``overloaded`` answer and a close.
        max_parked: delay-parking-lot capacity. Over it, the largest
            priced delay is shed first with the full delay as
            ``retry_after``.
        overload_retry_after: the ``retry_after`` hint attached to
            queue/connection sheds.
    """

    def __init__(
        self,
        service: DataProviderService,
        host: str = "127.0.0.1",
        port: int = 0,
        read_timeout: Optional[float] = 30.0,
        max_request_bytes: int = 64 * 1024,
        drain_timeout: float = 5.0,
        max_handler_errors: int = 64,
        max_workers: int = 8,
        max_queue: Optional[int] = None,
        max_connections: int = 128,
        max_parked: Optional[int] = None,
        overload_retry_after: float = 1.0,
    ):
        if read_timeout is not None and read_timeout <= 0:
            raise ConfigError(
                f"read_timeout must be positive, got {read_timeout}"
            )
        if max_request_bytes < 1:
            raise ConfigError(
                f"max_request_bytes must be >= 1, got {max_request_bytes}"
            )
        if drain_timeout < 0:
            raise ConfigError(
                f"drain_timeout must be >= 0, got {drain_timeout}"
            )
        if max_handler_errors < 1:
            raise ConfigError(
                f"max_handler_errors must be >= 1, got {max_handler_errors}"
            )
        if max_workers < 1:
            raise ConfigError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if max_connections < 1:
            raise ConfigError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        if max_queue is None:
            max_queue = max_connections
        if max_queue < 1:
            raise ConfigError(f"max_queue must be >= 1, got {max_queue}")
        if max_parked is None:
            max_parked = max_connections
        if max_parked < 1:
            raise ConfigError(
                f"max_parked must be >= 1, got {max_parked}"
            )
        if overload_retry_after < 0:
            raise ConfigError(
                f"overload_retry_after must be >= 0, "
                f"got {overload_retry_after}"
            )
        self.service = service
        self.read_timeout = read_timeout
        self.max_request_bytes = max_request_bytes
        self.drain_timeout = drain_timeout
        self.max_workers = max_workers
        self.max_queue = max_queue
        self.max_connections = max_connections
        self.max_parked = max_parked
        self.overload_retry_after = overload_retry_after
        #: lifetime count of result-cache hits answered on the I/O loop
        #: (no worker-pool round trip), by the cache probe or as a lone
        #: read; only the loop thread writes it.
        self.cache_fast_path_hits = 0
        #: recent unexpected exceptions that escaped request handling,
        #: newest last, bounded so a long-running server cannot leak; a
        #: healthy server keeps this empty. The lifetime total is
        #: :attr:`handler_errors_total`.
        self.handler_errors: Deque[BaseException] = deque(
            maxlen=max_handler_errors
        )
        #: exact lifetime count of handler errors (survives ring wrap).
        self.handler_errors_total = 0
        #: lifetime count of shed requests, by reason.
        self.shed_counts: Dict[str, int] = {}
        self.obs = service.obs
        # Registration only. Queries are NOT serialised here: the
        # guard's pipeline and the engine's read/write lock provide all
        # statement-level synchronisation.
        self._lock = threading.Lock()
        self._draining = threading.Event()
        self._conn_cond = threading.Condition()
        self._connection_count = 0
        #: admission order; only the I/O loop thread assigns it.
        self._request_seq = 0
        #: a simulated clock charges a delay instantly, so it is served
        #: inline; a real one is served by the parking lot.
        self._virtual_delay = isinstance(service.clock, VirtualClock)
        self._queue = AdmissionQueue(max_queue)
        self._sleeper = self._new_sleeper()
        self._busy_workers = 0
        self._listen(host, port)
        self._io: Optional[IOLoop] = None
        self._workers: List[threading.Thread] = []
        self._started = False
        self._stopped = False
        self._started_at: Optional[float] = None
        #: rolling availability / latency SLO windows for the ``health``
        #: op. Latencies recorded here exclude the priced delay: the
        #: delay is the defense working, not service slowness.
        self.slo = SloTracker()
        self._ops = {
            "ping": lambda request: {"ok": True, "op": "pong"},
            "bye": lambda request: {"ok": True, "op": "bye"},
            "register": self._handle_register,
            "report": self._handle_report,
            "metrics": self._handle_metrics,
            "trace": self._handle_trace,
            "forensics": self._handle_forensics,
            "health": self._handle_health,
            "checkpoint": self._handle_checkpoint,
        }
        if self.obs.enabled:
            self._register_metrics()

    def _listen(self, host: str, port: int) -> None:
        """Bind the listening socket. A server collected without
        :meth:`stop` (one built and never started, say) closes it then:
        the finaliser holds the socket, not the server."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(128)
        self._listener = listener
        self._address: Tuple[str, int] = listener.getsockname()
        weakref.finalize(self, listener.close)

    def _new_sleeper(self) -> DelayScheduler:
        return DelayScheduler(
            self._send_response, self._note_shed, self.max_parked
        )

    def _register_metrics(self) -> None:
        """Create the server's metric handles in the shared registry."""
        registry = self.obs.registry
        self._m_requests = registry.counter(
            "server_requests_total", "Requests received, by op", ("op",)
        )
        self._m_denied = registry.counter(
            "server_denied_total",
            "Requests answered with a denial, by reason",
            ("reason",),
        )
        self._m_handler_errors = registry.counter(
            "server_handler_errors_total",
            "Unexpected exceptions that escaped request handling",
        )
        self._m_connections = registry.counter(
            "server_connections_total", "Connections accepted"
        )
        self._m_shed = registry.counter(
            "server_shed_total",
            "Requests shed by overload protection, by shed point",
            ("reason",),
        )
        self._m_served = registry.counter(
            "server_queries_served_total",
            "Queries answered with a result, by the thread that ran them",
            ("by",),
        )
        self._m_queue_wait = registry.histogram(
            "server_queue_wait_seconds",
            "Time from a request's arrival to a worker taking it "
            "off the admission queue",
        )
        registry.gauge(
            "server_in_flight_connections",
            "Connections currently being served",
        ).set_function(lambda: self.active_connections)
        registry.gauge(
            "server_queue_depth",
            "Requests waiting for a worker in the admission queue",
        ).set_function(lambda: len(self._queue))
        registry.gauge(
            "server_queue_capacity", "Admission-queue capacity"
        ).set_function(lambda: self.max_queue)
        registry.gauge(
            "server_parked_delays",
            "Responses currently waiting out a priced delay",
        ).set_function(lambda: len(self._sleeper))
        registry.gauge(
            "server_workers", "Worker-pool size"
        ).set_function(lambda: self.max_workers)
        registry.gauge(
            "server_workers_busy",
            "Workers currently executing a request",
        ).set_function(lambda: self._busy_workers)
        registry.counter(
            "faults_injected_total",
            "Faults fired by the chaos-testing injector",
        ).set_function(lambda: injector.fired_total)
        registry.gauge(
            "server_uptime_seconds",
            "Seconds since the server last started serving",
        ).set_function(lambda: self.uptime_seconds)
        registry.counter(
            "server_cache_fast_path_hits_total",
            "Queries answered on the I/O loop straight from the "
            "result cache",
        ).set_function(lambda: self.cache_fast_path_hits)
        registry.gauge(
            "repro_build_info",
            "Build information; value is always 1",
            ("version", "python"),
        ).set(1, **build_info())

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port)."""
        return self._address

    @property
    def active_connections(self) -> int:
        """Connections currently being served."""
        with self._conn_cond:
            return self._connection_count

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a worker."""
        return len(self._queue)

    @property
    def parked_delays(self) -> int:
        """Responses currently waiting out a priced delay."""
        return len(self._sleeper)

    @property
    def uptime_seconds(self) -> float:
        """Seconds since the last :meth:`start` (0.0 before the first)."""
        if self._started_at is None:
            return 0.0
        return max(0.0, time.monotonic() - self._started_at)

    def start(self) -> None:
        """Serve in background threads until :meth:`stop`.

        A stopped server may be started again: :meth:`stop` closed the
        listening socket, so a fresh one is bound to the same address.
        """
        if self._started:
            raise ConfigError("server already started")
        if self._stopped:
            self._listen(*self._address)
            self._queue = AdmissionQueue(self.max_queue)
            self._sleeper = self._new_sleeper()
            self._stopped = False
        self._draining.clear()
        self._io = IOLoop(self, self._listener)
        self._io.start()
        self._sleeper.start()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-worker-{index}",
                daemon=True,
            )
            for index in range(self.max_workers)
        ]
        for worker in self._workers:
            worker.start()
        self._started = True
        self._started_at = time.monotonic()

    def stop(self) -> None:
        """Stop accepting, drain in-flight work, then close.

        The drain covers queued requests, executing requests, and
        delays parked in the scheduler — all bounded by
        ``drain_timeout``. Whatever is left when the budget runs out is
        answered with a ``shutting_down`` denial (parked entries
        report the delay they still owed as ``retry_after``), so
        shutdown is never held hostage by a penalised query.
        """
        if not self._started:
            self._teardown()
            return
        self._draining.set()
        deadline = time.monotonic() + self.drain_timeout
        while time.monotonic() < deadline:
            busy = (
                len(self._queue)
                or len(self._sleeper)
                or self._busy_workers
                or (self._io is not None and self._io.busy_count())
            )
            if not busy:
                break
            time.sleep(0.01)
        # Cancel whatever outlived the drain budget.
        self._queue.close()
        for request in self._queue.drain():
            self._send_response(
                request.conn, wire.shed_response("shutting_down")
            )
        self._sleeper.cancel_all("shutting_down")
        self._sleeper.stop()
        for worker in self._workers:
            worker.join(timeout=2)
        self._workers = []
        # Give final responses a moment to flush before closing sockets.
        flush_deadline = time.monotonic() + 1.0
        while time.monotonic() < flush_deadline:
            if self._io is None or not self._io.busy_count():
                break
            time.sleep(0.01)
        self._teardown()

    def _teardown(self) -> None:
        if self._io is not None:
            self._io.shutdown()
            self._io.join(timeout=5)
            self._io = None
        try:
            self._listener.close()
        except OSError:
            pass
        self._started = False
        self._stopped = True

    def __enter__(self) -> "DelayServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- bookkeeping -----------------------------------------------------------

    def _connection_opened(self) -> None:
        with self._conn_cond:
            self._connection_count += 1
        if self.obs.enabled:
            self._m_connections.inc()

    def _connection_closed(self) -> None:
        with self._conn_cond:
            self._connection_count -= 1
            self._conn_cond.notify_all()

    def _record_handler_error(self, error: BaseException) -> None:
        with self._conn_cond:
            self.handler_errors.append(error)
            self.handler_errors_total += 1
        if self.obs.enabled:
            self._m_handler_errors.inc()

    def _note_shed(self, point: str) -> None:
        with self._conn_cond:
            self.shed_counts[point] = self.shed_counts.get(point, 0) + 1
        self.service.guard.stats.note_shed()
        self.slo.note("shed")
        if self.obs.enabled:
            self._m_shed.inc(reason=point)
        audit = self.obs.audit
        if audit is not None:
            audit.emit("query_shed", point=point)

    def _send_response(
        self,
        conn: Connection,
        payload: Dict,
        close_after: bool = False,
    ) -> None:
        """Hand a response to the I/O loop for delivery (any thread)."""
        io = self._io
        if io is None:
            return
        io.send(conn, wire.encode(payload), close_after)

    # -- request intake (I/O loop thread) --------------------------------------

    def _dispatch_line(
        self, conn: Connection, line: str, alone: bool
    ) -> None:
        """Parse, validate, and admit one request line (I/O thread).

        Anything that can be answered without a worker — parse errors,
        invalid fields, admission sheds, result-cache hits — is
        answered here, so a saturated worker pool never delays the
        fast rejection path. So is a read nobody else is waiting
        behind: ``alone`` says this connection is the only one the
        current select turn made readable, and with the queue empty
        and every worker idle a hand-off would buy no parallelism,
        only a second thread contending for the GIL.
        """
        received_at = time.monotonic()
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            self._send_response(
                conn, {"ok": False, "error": f"bad json: {error}"}
            )
            return
        if not isinstance(payload, dict) or "op" not in payload:
            self._send_response(
                conn,
                {"ok": False, "error": "request must be {'op': ...}"},
            )
            return
        op = payload["op"]
        if self.obs.enabled:
            self._m_requests.inc(
                op=op if op in wire.KNOWN_OPS else "unknown"
            )
        invalid = wire.validate_request(payload)
        if invalid is not None:
            if self.obs.enabled:
                self._m_denied.inc(reason="bad_request")
            self._send_response(conn, invalid)
            return
        if self._draining.is_set():
            self._send_response(conn, wire.shed_response("shutting_down"))
            return
        deadline_ms = payload.get("deadline_ms")
        self._request_seq += 1
        request = Request(
            conn=conn,
            payload=payload,
            seq=self._request_seq,
            received_at=received_at,
            deadline_at=(
                None
                if deadline_ms is None
                else received_at + deadline_ms / 1000.0
            ),
            priority=payload.get("priority", wire.PRIORITY_DEFAULT),
        )
        conn.busy = True
        if op == "query":
            if (
                alone
                and self._queue.empty()
                and not self._busy_workers
                and self._is_select(payload.get("sql"))
            ):
                self._reply(request, self._answer(request, by="loop"))
                return
            if self.service.guard.result_cache is not None:
                response = self._answer(request, by="loop", cache_only=True)
                if response is not _PROBE_MISS:
                    self._reply(request, response)
                    return
        admitted, victim = self._queue.offer(request)
        if victim is not None:
            self._shed_at_queue(
                victim, "displaced by a higher-priority request"
            )
        if not admitted:
            self._shed_at_queue(
                request, f"admission queue full ({self.max_queue})"
            )

    @staticmethod
    def _is_select(sql: Optional[str]) -> bool:
        """Whether ``sql`` parses to a SELECT.

        Only reads may run on the I/O loop: DML, DDL and transaction
        statements take the engine's write lock and fsync the journal.
        ``parse_cached`` fills the statement memo the pipeline's parse
        stage reads, so serving the statement lexes nothing a second
        time.
        """
        if not sql:
            return False
        try:
            statement = parse_cached(sql)
        except Exception:  # noqa: BLE001 — the worker's parse reports it
            return False
        return isinstance(statement, SelectStatement)

    def _shed_at_queue(self, request: Request, detail: str) -> None:
        self._note_shed("queue_full")
        self._send_response(
            request.conn,
            wire.shed_response(
                "overloaded",
                retry_after=self.overload_retry_after,
                detail=detail,
            ),
        )

    # -- the serving path (worker threads and the I/O loop) --------------------

    def _worker_loop(self) -> None:
        while True:
            request = self._queue.pop()
            if request is None:
                return
            with self._conn_cond:
                self._busy_workers += 1
            if self.obs.enabled:
                self._m_queue_wait.observe(
                    time.monotonic() - request.received_at
                )
            try:
                response = self._answer(request)
            finally:
                # Before the hand-off, not after it: a closed-loop
                # client's next request can reach the loop before this
                # thread runs again, and must not find the worker that
                # just answered it still busy.
                with self._conn_cond:
                    self._busy_workers -= 1
            self._reply(request, response)

    def _reply(self, request: Request, response: Optional[Dict]) -> None:
        """Send what :meth:`_answer` returned (None: a parked delay
        answers later)."""
        if response is not None:
            self._send_response(
                request.conn,
                response,
                close_after=response.get("op") == "bye",
            )

    def _answer(
        self, request: Request, by: str = "worker", cache_only: bool = False
    ) -> Optional[Dict]:
        """Serve one request and return its response.

        One function, three callers: a worker thread with an admitted
        request of any op; the I/O loop (``by="loop"``) with a SELECT
        that arrived alone at an idle pool; and the I/O loop with
        ``cache_only`` set for a query it may be able to answer from
        the result cache. Every exception becomes a response: denials
        and refused statements are the request's fault; anything else
        is a server bug, recorded in :attr:`handler_errors` (tests
        assert that list is empty) without killing the thread that hit
        it.

        Returns None when the priced delay was parked and the parking
        lot sends the response later, and ``_PROBE_MISS`` when a cache
        probe missed: nothing was charged, and the request still needs
        a worker.
        """
        try:
            if by == "worker":
                # Worker entry only: a stall rule must not block the loop.
                fire("server.handler")
            if (
                request.deadline_at is not None
                and time.monotonic() >= request.deadline_at
            ):
                # The budget died in the queue: answer before doing
                # work the client no longer wants.
                raise AccessDenied("deadline_exceeded")
            if request.op == "query":
                return self._serve_query(request, by, cache_only)
            return self._ops.get(request.op, self._handle_unknown)(
                request.payload
            )
        except AccessDenied as denied:
            self.slo.note("denied")
            if self.obs.enabled:
                self._m_denied.inc(reason=denied.reason or "denied")
            return wire.denied_response(denied)
        except (EngineError, DelayDefenseError) as error:
            # A refused or malformed statement is the request's fault,
            # not the server's: a denial for SLO purposes, not an error.
            self.slo.note("denied")
            return {"ok": False, "error": str(error)}
        except Exception as error:  # noqa: BLE001 — isolate the thread
            self._record_handler_error(error)
            self.slo.note("error")
            return wire.internal_error_response(error)

    def _serve_query(
        self, request: Request, by: str, cache_only: bool
    ) -> Optional[Dict]:
        """Execute a query once and serve its delay once.

        With ``cache_only`` the guard answers only from its result
        cache: a miss returns before the authorize stage, so the
        account has not been charged and the worker run charges exactly
        once; a hit is authorized, priced, recorded and delayed exactly
        like a worker-served query. Returns the response, None when the
        delay was parked, or ``_PROBE_MISS``.
        """
        payload = request.payload
        sql = payload.get("sql")
        if not sql:
            return wire.bad_request("query needs sql")
        result = self.service.guard.execute(
            sql,
            identity=payload.get("identity"),
            sleep=False,
            deadline_at=request.deadline_at,
            cache_only=cache_only,
        )
        if result is None:
            return _PROBE_MISS
        if by == "loop" and result.cached:
            self.cache_fast_path_hits += 1
        if self.obs.enabled:
            self._m_served.inc(by=by)
        # SLO latency deliberately excludes the priced delay served
        # below: the delay is the defense working, not slowness.
        self.slo.note(
            "ok", latency=time.monotonic() - request.received_at
        )
        response = wire.query_response(result)
        if result.delay <= 0:
            return response
        if self._virtual_delay:
            sleep_start = time.perf_counter()
            self.service.clock.sleep(result.delay)
            if result.trace is not None:
                result.trace.extend(
                    "sleep", sleep_start, time.perf_counter()
                )
            return response
        return self._sleeper.park(
            request, response, result.delay, result.trace
        )

    # -- the other ops ---------------------------------------------------------

    @staticmethod
    def _handle_unknown(request: Dict) -> Dict:
        return {"ok": False, "error": f"unknown op {request['op']!r}"}

    def _handle_register(self, request: Dict) -> Dict:
        identity = request.get("identity")
        if not identity:
            return {"ok": False, "error": "register needs an identity"}
        with self._lock:
            account = self.service.register(
                identity, subnet=request.get("subnet", "0.0.0.0/0")
            )
        return {
            "ok": True,
            "identity": account.identity,
            "registered_at": account.registered_at,
        }

    def _handle_report(self, request: Dict) -> Dict:
        # Lock-free: report() reads the engine under its read lock and
        # the trackers/stats under their own locks.
        report = self.service.report()
        return {
            "ok": True,
            "users": report.users,
            "queries": report.queries,
            "denied": report.denied,
            "median_user_delay": report.median_user_delay,
            "extraction_cost": report.extraction_cost,
            "max_extraction_cost": report.max_extraction_cost,
        }

    def _handle_metrics(self, request: Dict) -> Dict:
        # Registry reads take only per-metric locks: a scrape during a
        # long penalised query returns immediately.
        fmt = request.get("format", "json")
        if fmt == "json":
            return {"ok": True, "metrics": self.obs.registry.to_json()}
        if fmt == "prometheus":
            return {
                "ok": True,
                "content_type": "text/plain; version=0.0.4",
                "text": self.obs.registry.render_prometheus(),
            }
        return {
            "ok": False,
            "error": f"unknown metrics format {fmt!r}; "
            "use 'json' or 'prometheus'",
        }

    def _handle_checkpoint(self, request: Dict) -> Dict:
        """Snapshot service state and truncate the journal.

        The target is always the service's configured ``snapshot_path``
        — a client-supplied path would let any remote peer write files
        wherever the server process can. A service without a configured
        path answers with a :class:`~repro.core.errors.ConfigError`
        message.
        """
        seq = self.service.checkpoint()
        return {
            "ok": True,
            "journal_seq": seq,
            "checkpoints_completed": self.service.checkpoints_completed,
        }

    def _handle_trace(self, request: Dict) -> Dict:
        limit = request.get("limit", 20)
        if not isinstance(limit, int) or limit < 1:
            return {"ok": False, "error": f"limit must be >= 1, got {limit}"}
        return {
            "ok": True,
            "traces": self.obs.tracer.to_json(limit),
            "finished_total": self.obs.tracer.finished_total,
        }

    def _handle_forensics(self, request: Dict) -> Dict:
        """Top risk-ranked identities from the live forensics monitor."""
        forensics = self.service.guard.forensics
        if forensics is None:
            return {
                "ok": False,
                "error": (
                    "forensics is not enabled on this guard; set "
                    "GuardConfig(forensics=True)"
                ),
                "reason": "not_enabled",
            }
        limit = request.get("limit", 10)
        if (
            isinstance(limit, bool)
            or not isinstance(limit, int)
            or limit < 1
        ):
            return {"ok": False, "error": f"limit must be >= 1, got {limit}"}
        payload = {"ok": True, "identities": forensics.top(limit)}
        payload.update(forensics.summary())
        return payload

    def _handle_health(self, request: Dict) -> Dict:
        """One self-describing operational snapshot for dashboards.

        Everything an operator needs to answer "is the defense healthy
        and holding?": saturation of every bounded resource, rolling
        availability/latency SLO windows, durability (journal lag since
        the last checkpoint), live per-table staleness guarantees
        (S_max, eqs. 8-12), forensic flag counts, and the process-wide
        client circuit breakers.
        """
        guard = self.service.guard
        forensics = guard.forensics
        with DelayClient._shared_breakers_lock:
            breaker_items = list(DelayClient._shared_breakers.items())
        queue_depth = len(self._queue)
        cluster = (
            self.service.cluster_health()
            if hasattr(self.service, "cluster_health")
            else None
        )
        # Read from the registry series, so `repro top` and a metrics
        # scrape can never disagree (absent on a cluster: shard guards
        # run without a registry).
        registry = self.obs.registry
        batch_events = registry.get("engine_column_batch_events_total")
        served = registry.get("server_queries_served_total")
        queue_wait = registry.get("server_queue_wait_seconds")
        return {
            "ok": True,
            "status": "draining" if self._draining.is_set() else "serving",
            "build": build_info(),
            "uptime_seconds": self.uptime_seconds,
            "server": {
                "queue_depth": queue_depth,
                "queue_capacity": self.max_queue,
                "queue_saturation": queue_depth / self.max_queue,
                "parked_delays": len(self._sleeper),
                "max_parked": self.max_parked,
                "workers": self.max_workers,
                "workers_busy": self._busy_workers,
                "connections": self.active_connections,
                "max_connections": self.max_connections,
                "shed_counts": dict(self.shed_counts),
                "handler_errors_total": self.handler_errors_total,
                "cache_fast_path_hits": self.cache_fast_path_hits,
                "queries_served": (
                    {
                        by: int(served.value(by=by))
                        for by in ("loop", "worker")
                    }
                    if served is not None
                    else None
                ),
                "queue_wait_seconds": (
                    {
                        "count": queue_wait.count,
                        "mean": queue_wait.mean(),
                        "max": queue_wait.max,
                    }
                    if queue_wait is not None
                    else None
                ),
            },
            "cluster": cluster,
            "engine": (
                {
                    "column_batch_events": {
                        labels["event"]: int(value)
                        for labels, value in batch_events.series()
                    }
                }
                if batch_events is not None
                else None
            ),
            "slo": self.slo.report(),
            "durability": self.service.durability_health(),
            "staleness": guard.refresh_staleness_gauges(),
            "forensics": (
                forensics.summary() if forensics is not None else None
            ),
            "audit": (
                self.obs.audit.stats()
                if self.obs.audit is not None
                else None
            ),
            "breakers": {
                f"{host}:{port}": breaker.snapshot()
                for (host, port), breaker in breaker_items
            },
        }
