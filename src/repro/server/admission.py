"""Where a request waits: the admission queue and the delay parking lot.

A parsed request waits for a worker in the bounded
:class:`AdmissionQueue`; a priced response waits out its delay in the
:class:`DelayScheduler` instead of in a sleeping worker. Both shed by
the rules in the package docstring.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from . import wire


class Request:
    """One validated request, from the I/O loop to its response."""

    __slots__ = (
        "conn",
        "payload",
        "op",
        "received_at",
        "deadline_at",
        "priority",
        "seq",
    )

    def __init__(
        self,
        conn,
        payload: Dict,
        seq: int,
        received_at: float,
        deadline_at: Optional[float],
        priority: int,
    ):
        self.conn = conn
        self.payload = payload
        self.op = payload.get("op")
        self.seq = seq
        self.received_at = received_at
        self.deadline_at = deadline_at
        self.priority = priority


class AdmissionQueue:
    """Bounded priority queue between the I/O loop and the workers.

    Pop order is highest priority first, FIFO within a priority. When
    full, :meth:`offer` trades the lowest-priority (newest within that
    priority) queued entry for a strictly-higher-priority newcomer, or
    refuses the newcomer — the caller sheds whichever lost.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._cond = threading.Condition()
        self._heap: List[Tuple[int, int, Request]] = []
        self._closed = False

    def __len__(self) -> int:
        with self._cond:
            return len(self._heap)

    def empty(self) -> bool:
        """Whether nothing is queued, read without the lock.

        The I/O loop asks this once per request; one attribute read is
        atomic, and a stale answer only sends a read through the queue.
        """
        return not self._heap

    def offer(self, request: Request) -> Tuple[bool, Optional[Request]]:
        """Try to admit ``request``.

        Returns ``(admitted, victim)``: ``victim`` is a previously
        queued request evicted to make room (to be shed by the caller);
        ``admitted`` False means the newcomer itself must be shed.
        """
        key = (-request.priority, request.seq, request)
        with self._cond:
            if self._closed:
                return False, None
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, key)
                self._cond.notify()
                return True, None
            worst = max(self._heap)
            if -worst[0] < request.priority:
                index = self._heap.index(worst)
                self._heap[index] = self._heap[-1]
                self._heap.pop()
                heapq.heapify(self._heap)
                heapq.heappush(self._heap, key)
                self._cond.notify()
                return True, worst[2]
            return False, None

    def pop(self) -> Optional[Request]:
        """Blocking pop; returns None once closed and drained."""
        with self._cond:
            while not self._heap and not self._closed:
                self._cond.wait(0.5)
            if not self._heap:
                return None
            return heapq.heappop(self._heap)[2]

    def drain(self) -> List[Request]:
        """Remove and return everything still queued."""
        with self._cond:
            drained = [entry[2] for entry in self._heap]
            self._heap.clear()
            return drained

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class Parked:
    """One response waiting out its priced delay in the parking lot."""

    __slots__ = ("due", "seq", "request", "response", "delay", "trace",
                 "sleep_start")

    def __init__(self, due, seq, request, response, delay, trace,
                 sleep_start):
        self.due = due
        self.seq = seq
        self.request = request
        self.response = response
        self.delay = delay
        self.trace = trace
        self.sleep_start = sleep_start


class DelayScheduler:
    """Serves priced delays on a timer heap instead of worker sleeps.

    A single thread waits for the earliest due entry and releases its
    response through ``send(conn, response)``. Capacity is bounded:
    inserting past ``capacity`` evicts the entry with the *largest*
    priced delay (possibly the newcomer), which is answered with an
    overload shed carrying the full delay as ``retry_after`` and
    reported through ``note_shed(point)`` — the cheapest queries ride
    out overload, the most expensive are sacrificed first.
    """

    def __init__(
        self,
        send: Callable[[object, Dict], None],
        note_shed: Callable[[str], None],
        capacity: int,
    ):
        self._send = send
        self._note_shed = note_shed
        self.capacity = capacity
        self._cond = threading.Condition()
        self._heap: List[Tuple[float, int, Parked]] = []
        self._seq = 0
        self._running = False
        self._thread: Optional[threading.Thread] = None

    def __len__(self) -> int:
        with self._cond:
            return len(self._heap)

    def start(self) -> None:
        with self._cond:
            self._running = True
        self._thread = threading.Thread(
            target=self._run, name="repro-delay-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        with self._cond:
            self._running = False
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def park(
        self,
        request: Request,
        response: Dict,
        delay: float,
        trace,
    ) -> Optional[Dict]:
        """Park ``response`` until ``delay`` has elapsed.

        Returns None when the response will be delivered later, or the
        shed response the caller should send right away when the
        newcomer itself lost the capacity fight (it carried the
        largest delay) or the scheduler is shutting down.
        """
        now = time.monotonic()
        evicted: List[Parked] = []
        with self._cond:
            if not self._running:
                return wire.shed_response("shutting_down", retry_after=delay)
            self._seq += 1
            entry = Parked(
                due=now + delay,
                seq=self._seq,
                request=request,
                response=response,
                delay=delay,
                trace=trace,
                sleep_start=time.perf_counter(),
            )
            heapq.heappush(self._heap, (entry.due, entry.seq, entry))
            while len(self._heap) > self.capacity:
                index = max(
                    range(len(self._heap)),
                    key=lambda i: self._heap[i][2].delay,
                )
                evicted.append(self._heap[index][2])
                self._heap[index] = self._heap[-1]
                self._heap.pop()
                heapq.heapify(self._heap)
            self._cond.notify()
        shed_self = None
        for victim in evicted:
            shed = wire.shed_response(
                "overloaded",
                retry_after=victim.delay,
                detail="delay capacity exceeded; largest delay shed first",
            )
            self._note_shed("delay_parking")
            if victim is entry:
                shed_self = shed
            else:
                self._send(victim.request.conn, shed)
        return shed_self

    def cancel_all(self, reason: str) -> int:
        """Answer every parked entry with a denial; returns the count.

        Used by ``DelayServer.stop`` so shutdown is bounded by
        ``drain_timeout`` even when a penalised query still owes hours
        of delay — the caller gets ``retry_after`` equal to what it
        still owed, and no data.
        """
        now = time.monotonic()
        with self._cond:
            cancelled = [entry for _, _, entry in self._heap]
            self._heap.clear()
            self._cond.notify_all()
        for entry in cancelled:
            self._send(
                entry.request.conn,
                wire.shed_response(
                    reason, retry_after=max(0.0, entry.due - now)
                ),
            )
        return len(cancelled)

    def _run(self) -> None:
        while True:
            with self._cond:
                if not self._running:
                    return
                if not self._heap:
                    self._cond.wait(0.5)
                    continue
                due = self._heap[0][0]
                now = time.monotonic()
                if due > now:
                    self._cond.wait(min(due - now, 0.5))
                    continue
                entry = heapq.heappop(self._heap)[2]
            if entry.trace is not None:
                entry.trace.extend(
                    "sleep", entry.sleep_start, time.perf_counter()
                )
            self._send(entry.request.conn, entry.response)
