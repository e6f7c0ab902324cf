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

There is **no global statement lock**: whichever thread serves a
request runs the guard's staged pipeline (:mod:`repro.core.pipeline`)
directly, the engine arbitrates data access with a writer-preferring
read/write lock, and trackers/stats carry their own internal locks.
The server's one remaining lock covers registration only. A penalised
query never blocks another client: its delay waits in the parking lot
while the threads serve everyone else.

The worker pool exists for *concurrent* requests. Under one GIL a
hand-off buys parallelism only while a second request is waiting; for
a request that arrives alone it costs two Python threads contending
for the interpreter (measured: +~190 µs of server CPU per point read,
against 97 µs for the whole round trip when the worker has nothing to
run). So the I/O loop is the worker of first resort for **reads**: a
``query`` whose statement parses to a SELECT, on the only connection
the current ``select`` turn made readable, with the admission queue
empty and no worker busy, is served by the loop itself and its
response written in the same turn. The moment a second request is
waiting — two readable connections in one turn, a queued request, a
busy worker — every request takes the bounded priority queue, so
displacement, ``queue_full`` sheds, deadline-in-queue aborts and the
``max_queue``/``max_workers`` bounds mean what they always meant. What
the loop **never** runs, however idle the pool: DML, DDL and
transaction statements (they take the engine's write lock and fsync
the journal) and every other op (``checkpoint``, ``report``,
``metrics``, ``health``, ``register``, …: they snapshot, fsync or
serialise large payloads). A real-clock delay is parked, never slept,
on either route. The price is head-of-line: while the loop runs a
lone read, a request arriving behind it waits for that one statement
before it is read.

Per-connection robustness: reads are bounded by ``read_timeout`` and
``max_request_bytes``; a handler crash is recorded in
:attr:`DelayServer.handler_errors` and answered with an error response
instead of silently killing a worker; and :meth:`DelayServer.stop`
drains in-flight requests (bounded by ``drain_timeout``) and cancels
parked delays, so shutdown is never held hostage by a penalised
query's multi-hour sleep.

One serving path
----------------

Every request is answered by one function, ``DelayServer._answer``,
with three callers: the I/O loop for a lone read on an idle pool (one
full pipeline pass); the I/O loop for a query on a guard that has a
result cache, when the read is not alone (a ``cache_only`` pass: a
hit is authorized, priced, recorded and delayed exactly like any
other query and never costs a queue round trip, a miss returns before
anything is charged and the request is admitted as usual); and a
worker thread for everything else. All three share the one query
execution, the one response builder, the one delay hand-off (served
inline on a simulated clock, parked on a real one) and the one mapping
from exceptions to responses, so an unexpected exception is isolated
and recorded wherever it is raised. Which thread served a query is
counted (``server_queries_served_total{by="loop"|"worker"}``), as is
the time a queued request waited for a worker
(``server_queue_wait_seconds``); a response produced on the loop
thread is written directly, one produced anywhere else is queued for
the loop and wakes it.

Modules: :mod:`.wire` (constants, validation, response shapes),
:mod:`.admission` (admission queue, delay parking lot), :mod:`.ioloop`
(the selector thread), :mod:`.frontdoor` (:class:`DelayServer` and the
op handlers), :mod:`.client` (:class:`DelayClient` and its errors).
"""

from .client import ConnectionClosed, DelayClient, ServerError
from .frontdoor import DelayServer

__all__ = ["ConnectionClosed", "DelayClient", "DelayServer", "ServerError"]
