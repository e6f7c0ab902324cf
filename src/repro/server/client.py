"""The Python client for :class:`~repro.server.DelayServer`, and its errors."""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Dict, Optional, Tuple, Union

from ..core.errors import DelayDefenseError
from ..core.resilience import BackoffPolicy, CircuitBreaker
from . import wire


class ServerError(DelayDefenseError):
    """Raised by :class:`DelayClient` when the server reports an error.

    Attributes:
        reason: the machine-readable denial reason, when the server sent
            one (e.g. ``query_quota``, ``user_rate``, ``overloaded``,
            ``deadline_exceeded``, ``bad_request``).
        retry_after: seconds after which the request may succeed, when
            the server knows (0.0 otherwise).
    """

    def __init__(self, payload: Dict):
        super().__init__(payload.get("error", "server error"))
        self.payload = payload
        self.reason = payload.get("reason")
        self.retry_after = payload.get("retry_after", 0.0)


class ConnectionClosed(ServerError):
    """The transport died: no response arrived for the request.

    Distinct from an application-level denial (plain
    :class:`ServerError`): the caller cannot know whether the request
    was processed, so retrying may repeat side effects.
    """

    def __init__(self, detail: str = "connection closed by server"):
        super().__init__({"error": detail})


#: Denial reasons :meth:`DelayClient.query` never retries: waiting and
#: resending the identical request cannot change the answer.
NON_RETRYABLE_REASONS = frozenset(
    {"deadline_exceeded", "bad_request", "request_too_large"}
)


class DelayClient:
    """JSON-lines client for :class:`DelayServer`.

    Resilience: :meth:`query` retries transport failures and overload
    sheds with capped exponential backoff and full jitter (so a fleet
    of shed clients does not stampede back in lockstep), honours
    ``retry_after`` hints from throttle denials, and never retries
    semantic denials. An optional per-endpoint circuit breaker
    (``breaker=True``, or pass a
    :class:`~repro.core.resilience.CircuitBreaker`) fails calls fast
    locally after repeated transport/overload failures, probing the
    endpoint again after its ``probe_interval``.

    >>> # with DelayServer(service) as server:
    >>> #     client = DelayClient(*server.address)
    >>> #     client.query("SELECT * FROM t WHERE id = 1")
    """

    #: process-wide per-endpoint breakers, shared by every client that
    #: asked for ``breaker=True`` against the same (host, port).
    _shared_breakers: Dict[Tuple[str, int], CircuitBreaker] = {}
    _shared_breakers_lock = threading.Lock()

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        breaker: Union[CircuitBreaker, bool, None] = None,
        backoff: Optional[BackoffPolicy] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        if breaker is True:
            breaker = self.shared_breaker(host, port)
        elif breaker is False:
            breaker = None
        self.breaker: Optional[CircuitBreaker] = breaker
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        #: retry_after from the most recent denial (0.0 when none).
        self.last_retry_after = 0.0
        #: lifetime retry/reconnect counts for this client.
        self.retries_performed = 0
        self.reconnects_performed = 0
        self._connect()

    @classmethod
    def shared_breaker(
        cls,
        host: str,
        port: int,
        failure_threshold: int = 5,
        probe_interval: float = 1.0,
    ) -> CircuitBreaker:
        """The process-wide breaker for one endpoint (created on first
        use); every client passing ``breaker=True`` shares it, so one
        client's failures protect the rest of the process."""
        key = (host, port)
        with cls._shared_breakers_lock:
            existing = cls._shared_breakers.get(key)
            if existing is None:
                existing = CircuitBreaker(
                    endpoint=f"{host}:{port}",
                    failure_threshold=failure_threshold,
                    probe_interval=probe_interval,
                )
                cls._shared_breakers[key] = existing
            return existing

    def _connect(self) -> None:
        self._socket = socket.create_connection(
            (self.host, self.port), self.timeout
        )
        self._file = self._socket.makefile("rwb")

    def _reconnect(self) -> None:
        try:
            self._file.close()
            self._socket.close()
        except OSError:
            pass
        self._connect()
        self.reconnects_performed += 1

    def _call(self, request: Dict) -> Dict:
        """One request/response round trip, feeding the breaker.

        Breaker accounting: transport failures and overload sheds count
        as failures (the endpoint is unhealthy); any other answer —
        including semantic denials — counts as a success (the server
        answered competently).
        """
        if self.breaker is not None:
            self.breaker.before_call()
        try:
            response = self._roundtrip(request)
        except ConnectionClosed:
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        except ServerError as error:
            if self.breaker is not None:
                if error.reason == "overloaded":
                    self.breaker.record_failure()
                else:
                    self.breaker.record_success()
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        return response

    def _roundtrip(self, request: Dict) -> Dict:
        try:
            self._file.write(wire.encode(request))
            self._file.flush()
            line = self._file.readline()
        except OSError as error:
            raise ConnectionClosed(f"transport failure: {error}") from error
        if not line:
            raise ConnectionClosed()
        try:
            response = json.loads(line.decode("utf-8", errors="replace"))
        except json.JSONDecodeError as error:
            # A half-written line (server died mid-response) is a
            # transport failure, not an application denial: the caller
            # cannot know whether the request took effect.
            raise ConnectionClosed(
                f"garbled server response: {error}"
            ) from error
        if not isinstance(response, dict):
            raise ConnectionClosed(
                f"garbled server response: expected an object, "
                f"got {type(response).__name__}"
            )
        if not response.get("ok"):
            error = ServerError(response)
            self.last_retry_after = error.retry_after
            raise error
        self.last_retry_after = 0.0
        return response

    def ping(self) -> bool:
        """Round-trip health check."""
        return self._call({"op": "ping"})["op"] == "pong"

    def register(self, identity: str, subnet: str = "0.0.0.0/0") -> Dict:
        """Register an identity with the provider."""
        return self._call(
            {"op": "register", "identity": identity, "subnet": subnet}
        )

    def query(
        self,
        sql: str,
        identity: Optional[str] = None,
        retries: int = 0,
        max_retry_wait: float = 5.0,
        max_retry_elapsed: float = 30.0,
        deadline_ms: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> Dict:
        """Run one statement; returns columns/rows/delay.

        Args:
            retries: how many times to retry a *retryable* failure:
                a transport failure (:class:`ConnectionClosed` — the
                client reconnects first), an ``overloaded`` shed, or a
                denial carrying a ``retry_after`` hint. Semantic
                denials (``bad_request``, ``deadline_exceeded``,
                ``request_too_large``, or any hint-less refusal) are
                never retried — resending the same request cannot
                change the answer.
            max_retry_wait: give up instead of honouring a hint longer
                than this many seconds; also caps each backoff draw.
            max_retry_elapsed: total wall-clock budget across all
                retry waits; once spent, the last error surfaces.
            deadline_ms: end-to-end budget forwarded to the server; the
                guard aborts the request once it cannot finish (and
                rejects a mandated delay that would not fit, reporting
                the full delay as ``retry_after``).
            priority: 0 (expendable) .. 9 (critical); under overload
                the server sheds lower priorities first.
        """
        request: Dict = {"op": "query", "sql": sql}
        if identity is not None:
            request["identity"] = identity
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        if priority is not None:
            request["priority"] = priority
        attempts_left = retries
        attempt = 0
        started = time.monotonic()
        while True:
            try:
                return self._call(request)
            except ConnectionClosed:
                if attempts_left <= 0:
                    raise
                wait = self.backoff.wait(attempt)
                self._wait_to_retry(wait, started, max_retry_elapsed)
                attempts_left -= 1
                attempt += 1
                self.retries_performed += 1
                try:
                    self._reconnect()
                except OSError as error:
                    if attempts_left <= 0:
                        raise ConnectionClosed(
                            f"reconnect failed: {error}"
                        ) from error
            except ServerError as denied:
                wait = denied.retry_after
                retryable = denied.reason == "overloaded" or (
                    wait > 0 and denied.reason not in NON_RETRYABLE_REASONS
                )
                if not retryable or attempts_left <= 0:
                    raise
                if wait > max_retry_wait:
                    raise
                if wait <= 0:
                    wait = self.backoff.wait(attempt)
                self._wait_to_retry(wait, started, max_retry_elapsed)
                attempts_left -= 1
                attempt += 1
                self.retries_performed += 1

    @staticmethod
    def _wait_to_retry(
        wait: float, started: float, max_retry_elapsed: float
    ) -> None:
        """Sleep before a retry, unless it would bust the total budget."""
        elapsed = time.monotonic() - started
        if elapsed + wait > max_retry_elapsed:
            raise ServerError(
                {
                    "error": (
                        "retry budget exhausted after "
                        f"{elapsed:.2f}s (cap {max_retry_elapsed}s)"
                    ),
                    "reason": "retry_budget",
                }
            )
        if wait > 0:
            time.sleep(wait)

    def report(self) -> Dict:
        """Fetch the operator report."""
        return self._call({"op": "report"})

    def checkpoint(self) -> Dict:
        """Ask the server to snapshot its state and truncate its journal."""
        return self._call({"op": "checkpoint"})

    def metrics(self, format: str = "json") -> Dict:
        """Scrape the server's metrics registry.

        Args:
            format: ``"json"`` (structured snapshots under ``metrics``)
                or ``"prometheus"`` (text exposition under ``text``).
        """
        return self._call({"op": "metrics", "format": format})

    def traces(self, limit: int = 20) -> Dict:
        """Fetch the most recent query-lifecycle traces, newest first."""
        return self._call({"op": "trace", "limit": limit})

    def forensics(self, limit: int = 10) -> Dict:
        """Fetch the top risk-ranked identities from live forensics."""
        return self._call({"op": "forensics", "limit": limit})

    def health(self) -> Dict:
        """Fetch the server's health / SLO / staleness snapshot."""
        return self._call({"op": "health"})

    def resilience_stats(self) -> Dict:
        """Client-side resilience state: breaker + retry counters."""
        return {
            "breaker": (
                self.breaker.snapshot() if self.breaker is not None else None
            ),
            "retries_performed": self.retries_performed,
            "reconnects_performed": self.reconnects_performed,
        }

    def close(self) -> None:
        """Say goodbye and close the connection.

        Closing is best-effort: a peer that already went away (or shed
        this connection) must not turn cleanup into a new exception.
        """
        try:
            self._roundtrip({"op": "bye"})
        except (ServerError, OSError):
            pass
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._socket.close()
        except OSError:
            pass

    def __enter__(self) -> "DelayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
