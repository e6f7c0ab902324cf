"""A TCP front door for the data-provider service.

:class:`DelayServer` exposes a :class:`~repro.service.DataProviderService`
over a JSON-lines protocol — one JSON object per line in each direction
— and :class:`DelayClient` is its Python client. This is the deployment
shape the paper assumes: clients cannot reach the database except
through the guarded front door, and delays are served while the
connection waits.

Protocol requests::

    {"op": "register", "identity": "alice", "subnet": "10.0.0.0/8"}
    {"op": "query", "sql": "SELECT ...", "identity": "alice",
     "deadline_ms": 250, "priority": 7}
    {"op": "report"}
    {"op": "metrics", "format": "json" | "prometheus"}
    {"op": "trace", "limit": 20}
    {"op": "forensics", "limit": 10}
    {"op": "health"}
    {"op": "checkpoint"}
    {"op": "ping"}

Responses are ``{"ok": true, ...}`` or
``{"ok": false, "error": "...", "reason": "...", "retry_after": 1.5}``.

Overload resilience
-------------------

The delay defense only works while the front door stays up: the guard
prices adversaries into hours of waiting, so the cheapest attack is not
to pay — it is to exhaust the server with connections or park it in
delay sleeps. The server therefore treats *threads* as the scarce
resource and bounds every way a client could consume one:

* **Bounded admission.** A fixed pool of ``max_workers`` threads
  executes requests; parsed requests wait in a bounded priority queue
  (``max_queue``). A request arriving at a full queue is either traded
  against a strictly-lower-priority queued request or **shed** with a
  fast ``{"ok": false, "reason": "overloaded", "retry_after": ...}``
  answer — never accepted and stalled. ``max_connections`` bounds
  concurrently-open connections the same way: connection number
  ``max_connections + 1`` receives the overload answer immediately and
  is closed.
* **Event-driven I/O.** One selector thread owns every socket (accept,
  read, write, idle timeout); neither an idle connection nor a slow
  reader holds a thread. Process thread count is ``max_workers`` plus a
  small constant, independent of connection count.
* **Delay parking, not delay sleeping.** A priced delay is served by a
  timer heap (the *parking lot*), not by a worker blocked in ``sleep``:
  the worker finishes in microseconds and the response is released when
  the delay has elapsed. The lot holds at most ``max_parked`` entries;
  over capacity, the entry with the **largest priced delay is shed
  first** — heavily-delayed (adversary-shaped) traffic is sacrificed
  before cheap popular-tuple queries, preserving the paper's
  legitimate/adversary asymmetry under overload.
* **End-to-end deadlines.** Clients may attach ``deadline_ms``; the
  budget is checked before work starts, at every pipeline stage
  boundary, and against the priced delay itself — a mandated delay
  longer than the remaining budget is rejected up front with the full
  delay as ``retry_after`` instead of holding resources it cannot
  repay.

Everything is observable: queue depth, parked delays, shed counts by
reason, deadline aborts, and injected faults all land in the shared
metrics registry (``metrics`` op, JSON or Prometheus exposition).

Concurrency model
-----------------

There is **no global statement lock**: worker threads run the guard's
staged pipeline (:mod:`repro.core.pipeline`) directly, the engine
arbitrates data access with a writer-preferring read/write lock, and
trackers/stats carry their own internal locks. The server's one
remaining lock covers registration only. A penalised query never
blocks another client: its delay waits in the parking lot while the
workers serve everyone else.

Per-connection robustness: reads are bounded by ``read_timeout`` and
``max_request_bytes``; a handler crash is recorded in
:attr:`DelayServer.handler_errors` and answered with an error response
instead of silently killing a worker; and :meth:`DelayServer.stop`
drains in-flight requests (bounded by ``drain_timeout``) and cancels
parked delays, so shutdown is never held hostage by a penalised
query's multi-hour sleep.

One serving path
----------------

Every request is answered by one function,
``DelayServer._answer``, reached from two places: a worker thread
that popped it from the admission queue, and — for a query on a guard
that has a result cache — the I/O loop itself, which first asks the
guard for a ``cache_only`` answer. A cache hit is authorized, priced,
recorded and delayed exactly like a worker-served query and never
costs a queue round trip; a miss returns before anything is charged
and the request is admitted as usual. Both callers share the one
query execution, the one response builder, the one delay hand-off
(served inline on a simulated clock, parked on a real one) and the one
mapping from exceptions to responses, so an unexpected exception is
isolated and recorded wherever it is raised.

Modules: :mod:`.wire` (constants, validation, response shapes),
:mod:`.admission` (admission queue, delay parking lot), :mod:`.ioloop`
(the selector thread), :mod:`.frontdoor` (:class:`DelayServer` and the
op handlers), :mod:`.client` (:class:`DelayClient` and its errors).
"""

from .client import ConnectionClosed, DelayClient, ServerError
from .frontdoor import DelayServer

__all__ = ["ConnectionClosed", "DelayClient", "DelayServer", "ServerError"]
