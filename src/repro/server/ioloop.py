"""The selector thread: every socket's accept, read, write and timeout."""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..testing.faults import fire
from . import wire


class Connection:
    """Per-socket state owned by the I/O loop thread.

    Only the I/O thread touches the buffers and flags; workers and the
    delay scheduler communicate through the loop's command queue.
    """

    __slots__ = (
        "sock",
        "inbuf",
        "outbuf",
        "busy",
        "pumping",
        "close_after_write",
        "last_activity",
        "closed",
    )

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        #: a request from this connection has not been answered yet;
        #: further complete lines wait in ``inbuf``.
        self.busy = False
        #: ``_pump`` is dispatching this connection's lines right now.
        self.pumping = False
        self.close_after_write = False
        self.last_activity = time.monotonic()
        self.closed = False


class IOLoop(threading.Thread):
    """Owns the listener and every connection of one ``DelayServer``.

    Complete request lines go to ``server._dispatch_line`` on this
    thread; responses come back from any thread through :meth:`send`.
    """

    def __init__(self, server, listener: socket.socket):
        super().__init__(name="repro-io-loop", daemon=True)
        self._server = server
        self._listener = listener
        self._selector = selectors.DefaultSelector()
        self._commands: Deque[Tuple] = deque()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._running = True
        #: the connection this select turn made readable, when it is
        #: the only one; None when none or several are.
        self._lone_reader: Optional[Connection] = None
        # Idle connections are swept on a timer, not once per turn (a
        # turn is a request): a quarter of the timeout bounds how long
        # a connection can outlive it.
        timeout = server.read_timeout
        self._sweep_every = None if timeout is None else timeout / 4
        self._next_sweep = time.monotonic()
        self.connections: Dict[int, Connection] = {}
        self._listener.setblocking(False)
        self._selector.register(listener, selectors.EVENT_READ, "accept")
        self._selector.register(
            self._wake_r, selectors.EVENT_READ, "wake"
        )

    # -- cross-thread API ----------------------------------------------------

    def send(
        self, conn: Connection, data: bytes, close_after: bool = False
    ) -> None:
        """Deliver ``data`` on ``conn`` (any thread).

        The loop thread writes it now; any other thread queues it and
        wakes the loop.
        """
        if threading.get_ident() == self.ident:
            self._enqueue_send(conn, data, close_after)
        else:
            self.submit(("send", conn, data, close_after))

    def submit(self, command: Tuple) -> None:
        """Queue a command for the loop thread and wake it."""
        self._commands.append(command)
        try:
            self._wake_w.send(b"x")
        except OSError:
            pass

    def shutdown(self) -> None:
        self._running = False
        self.submit(("noop",))

    def busy_count(self) -> int:
        """Connections with an unanswered request (approximate read)."""
        return sum(
            1 for conn in list(self.connections.values()) if conn.busy
        )

    # -- the loop ------------------------------------------------------------

    def run(self) -> None:
        try:
            tick = 0.2
            if self._sweep_every is not None:
                tick = min(tick, self._sweep_every)
            while self._running:
                events = self._selector.select(timeout=tick)
                readers = [
                    key.data
                    for key, mask in events
                    if mask & selectors.EVENT_READ
                    and type(key.data) is Connection
                ]
                self._lone_reader = readers[0] if len(readers) == 1 else None
                self._drain_commands()
                for key, mask in events:
                    if key.data == "accept":
                        self._accept()
                    elif key.data == "wake":
                        self._drain_wake()
                    else:
                        conn: Connection = key.data
                        if mask & selectors.EVENT_READ:
                            self._read(conn)
                        if mask & selectors.EVENT_WRITE and not conn.closed:
                            self._flush(conn)
                self._sweep_idle()
        finally:
            for conn in list(self.connections.values()):
                self._close(conn)
            try:
                self._selector.unregister(self._listener)
            except (KeyError, ValueError):
                pass
            self._selector.close()
            self._wake_r.close()
            self._wake_w.close()

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass

    def _drain_commands(self) -> None:
        while self._commands:
            command = self._commands.popleft()
            kind = command[0]
            if kind == "send":
                _, conn, data, close_after = command
                self._enqueue_send(conn, data, close_after)
            elif kind == "close":
                self._close(command[1])

    # -- accept --------------------------------------------------------------

    def _accept(self) -> None:
        server = self._server
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            try:
                fire("server.accept")
            except Exception:
                sock.close()
                continue
            if server._draining.is_set():
                sock.close()
                continue
            if len(self.connections) >= server.max_connections:
                # Fast shed: the kindest thing a saturated server can
                # do is answer *immediately* so the client backs off
                # instead of timing out.
                server._note_shed("connection_limit")
                try:
                    sock.setblocking(False)
                    sock.send(
                        wire.encode(
                            wire.shed_response(
                                "overloaded",
                                retry_after=server.overload_retry_after,
                                detail=(
                                    "connection limit "
                                    f"({server.max_connections}) reached"
                                ),
                            )
                        )
                    )
                except OSError:
                    pass
                sock.close()
                continue
            sock.setblocking(False)
            conn = Connection(sock)
            self.connections[id(conn)] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)
            server._connection_opened()

    # -- read side -----------------------------------------------------------

    def _read(self, conn: Connection) -> None:
        try:
            fire("server.read")
            data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except Exception:
            # OSError from the peer, or an injected read fault: either
            # way this connection failed — the loop must survive.
            self._close(conn)
            return
        if not data:
            self._close(conn)
            return
        conn.inbuf += data
        conn.last_activity = time.monotonic()
        self._pump(conn)

    def _pump(self, conn: Connection) -> None:
        """Dispatch complete lines while the connection is idle.

        Not reentrant: a line answered on this thread comes back here
        through ``_enqueue_send`` while the loop below is still
        running, and that loop — not a nested one — takes the next
        line, so a burst of pipelined lines iterates.
        """
        if conn.pumping:
            return
        conn.pumping = True
        try:
            limit = self._server.max_request_bytes
            alone = self._lone_reader is conn
            while not conn.busy and not conn.closed:
                newline = conn.inbuf.find(b"\n")
                # An unterminated line is judged by its length so far.
                if (len(conn.inbuf) if newline < 0 else newline) > limit:
                    conn.inbuf.clear()  # the connection closes; serve no more
                    self._enqueue_send(
                        conn,
                        wire.encode(wire.too_large_response(limit)),
                        close_after=True,
                    )
                    return
                if newline < 0:
                    return
                raw = bytes(conn.inbuf[:newline])
                del conn.inbuf[: newline + 1]
                line = raw.decode("utf-8", errors="replace").strip()
                if line:
                    self._server._dispatch_line(conn, line, alone)
        finally:
            conn.pumping = False

    # -- write side ----------------------------------------------------------

    def _enqueue_send(
        self, conn: Connection, data: bytes, close_after: bool = False
    ) -> None:
        if conn.closed:
            return
        conn.outbuf += data
        # Answering marks the request cycle complete; the next
        # pipelined line (if any) may dispatch.
        conn.busy = False
        if close_after:
            conn.close_after_write = True
        self._flush(conn)
        if not conn.closed and not conn.close_after_write:
            self._pump(conn)

    def _flush(self, conn: Connection) -> None:
        try:
            fire("server.write")
            while conn.outbuf:
                sent = conn.sock.send(conn.outbuf)
                del conn.outbuf[:sent]
        except (BlockingIOError, InterruptedError):
            self._want_write(conn, True)
            return
        except Exception:
            # OSError from the peer, or an injected write fault: the
            # connection is unusable either way.
            self._close(conn)
            return
        self._want_write(conn, False)
        if conn.close_after_write:
            self._close(conn)

    def _want_write(self, conn: Connection, wanted: bool) -> None:
        events = selectors.EVENT_READ | (
            selectors.EVENT_WRITE if wanted else 0
        )
        try:
            self._selector.modify(conn.sock, events, conn)
        except (KeyError, ValueError, OSError):
            pass

    # -- lifecycle -----------------------------------------------------------

    def _sweep_idle(self) -> None:
        if self._sweep_every is None:
            return
        now = time.monotonic()
        if now < self._next_sweep:
            return
        self._next_sweep = now + self._sweep_every
        timeout = self._server.read_timeout
        for conn in list(self.connections.values()):
            if (
                not conn.busy
                and not conn.outbuf
                and now - conn.last_activity > timeout
            ):
                self._close(conn)

    def _close(self, conn: Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self.connections.pop(id(conn), None)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self._server._connection_closed()
