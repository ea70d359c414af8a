"""Transport seam between the striping layer and its byte-stream backends.

A transport bundles everything the striping layer needs from its environment:

    transport.connect()          -> Stream (reliable, ordered, duplex)
    transport.release(stream)    -> take back a cleanly ended stream: TCP keeps
                                    it for a later connect(), the simulator closes it
    transport.listen()           -> Listener with accept() / close()
    transport.spawn(fn, name)    -> worker handle with join(); does not wait for fn to start
    transport.channel()          -> FIFO with put() / blocking get()
    transport.now()              -> monotonic seconds

Each side runs one worker per open stream, and the receiver an accept loop
besides.  TCP parks a sender worker with the stream it keeps, for the next
spawn(); a receiver worker ends with its stream.

Streams expose blocking ``read_some`` / ``read_into`` / ``write_all`` /
``close`` with TCP semantics.  ``read_some(max_bytes, timeout, min_bytes=1)``
is a low-water read, like ``SO_RCVLOWAT`` in socket(7): it blocks until
``min_bytes`` (at most ``max_bytes``) are buffered or the stream ends, then
returns up to ``max_bytes``; fewer than ``min_bytes`` only at the end, and
b"" once the end is reached.  ``read_into(view, timeout)`` fills ``view``
and returns how many bytes it read, fewer only at the end.  ``timeout`` is
an idle timeout: each byte that arrives restarts it, and ``TimeoutError``
is raised only after ``timeout`` seconds with no new byte.
``write_all(*parts)`` writes its parts in order as one write.  ``abort``
may be called from another thread and wakes a reader blocked on the
stream.  The backend here is real OS TCP sockets; the simulated-bottleneck
backend lives in ``ptcp.simbridge``.
"""

from __future__ import annotations

import contextlib
import queue
import socket
import struct
import threading
import time

READ_CHUNK = 64 * 1024  # read_some's default max_bytes, on every backend
LISTEN_BACKLOG = 64


class ThreadHandle:
    """Join-able worker; re-raises the worker's exception on join."""

    def __init__(self, fn, name: str = "worker"):
        self._fn = fn
        self._name = name
        self._exc: BaseException | None = None
        self.done = threading.Event()  # set by the thread that ran it

    def run(self) -> None:
        threading.current_thread().name = self._name  # a reused thread takes the new name
        try:
            self._fn()
        except BaseException as exc:  # noqa: BLE001 - surfaced on join
            self._exc = exc
        self._fn = None  # a thread kept for later work keeps nothing of this one

    def join(self, timeout: float | None = None):
        if not self.done.wait(timeout):
            raise TimeoutError("worker did not finish in time")
        if self._exc is not None:
            raise self._exc


# ---------------------------------------------------------------------------
# Real TCP sockets
# ---------------------------------------------------------------------------


class TcpStream:
    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)  # blocking, so a recv is one system call
        self._sock = sock
        self._timeout = None  # of reads, as SO_RCVTIMEO

    def read_some(
        self, max_bytes: int = READ_CHUNK, timeout: float | None = None, min_bytes: int = 1
    ) -> bytearray:
        data = bytearray(max_bytes)
        del data[self._recv_into(data, min_bytes, timeout) :]
        return data

    def read_into(self, view, timeout: float | None = None) -> int:
        return self._recv_into(view, len(view), timeout)

    def _recv_into(self, buffer, min_bytes: int, timeout: float | None) -> int:
        """Receive into ``buffer`` until ``min_bytes`` are in or the stream ends."""
        if timeout != self._timeout:  # SO_RCVTIMEO bounds each recv, so it is an idle timeout
            usec = 0 if timeout is None else max(1, round(timeout * 1e6))  # 0 blocks for ever
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, struct.pack("ll", *divmod(usec, 10**6)))
            self._timeout = timeout
        got = 0
        with memoryview(buffer) as view:  # released before read_some trims its buffer
            try:
                while got < min_bytes:
                    n = self._sock.recv_into(view[got:])
                    if n == 0:
                        break
                    got += n
            except BlockingIOError as exc:  # what a recv that SO_RCVTIMEO ends raises
                raise TimeoutError("read timed out") from exc
        return got

    def write_all(self, *parts) -> None:
        parts = list(parts)
        while parts:  # one sendmsg gathers them all unless the socket takes a part only
            sent = self._sock.sendmsg(parts)
            while parts and sent >= len(parts[0]):
                sent -= len(parts.pop(0))
            if sent:
                parts[0] = memoryview(parts[0])[sent:]

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        # Drain until peer EOF so close() implies the peer saw everything.
        try:
            self._sock.settimeout(5.0)
            while self._sock.recv(READ_CHUNK):
                pass
        except OSError:
            pass
        self._sock.close()

    def abort(self) -> None:
        with contextlib.suppress(OSError):  # wakes a thread blocked in recv() on this socket
            self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()


class TcpListener:
    def __init__(self, host: str, port: int):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
            self._sock.listen(LISTEN_BACKLOG)
        except OSError:
            self._sock.close()
            raise

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def accept(self) -> TcpStream:
        conn, _ = self._sock.accept()
        return TcpStream(conn)

    def close(self) -> None:
        with contextlib.suppress(OSError):  # wakes a thread blocked in accept()
            self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()


class TcpTransport:
    """host:port addressed OS TCP sockets.  connect() reuses a released stream
    unless the peer closed, reset or wrote to it.  A worker that returns parks
    while more streams are kept than workers parked, for spawn() to reuse, so a
    transfer over kept streams starts no thread.  close() ends both."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._kept: list[TcpStream] = []
        self._parked: list[queue.SimpleQueue] = []  # the inbox of each parked worker
        self._lock = threading.Lock()  # guards both lists

    def connect(self) -> TcpStream:
        while True:
            with self._lock:
                if not self._kept:
                    break
                stream = self._kept.pop()
            try:  # a byte, or b"" at the end: not quiet
                stream._sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
            except BlockingIOError:
                return stream  # nothing to read, no end, no error
            except OSError:
                pass  # reset
            stream.abort()
            self._end_parked()
        return TcpStream(socket.create_connection((self.host, self.port), timeout=10.0))

    def release(self, stream: TcpStream) -> None:
        with self._lock:
            self._kept.append(stream)

    def close(self) -> None:
        with self._lock:
            kept, self._kept = self._kept, []
        for stream in kept:
            stream.abort()  # nothing is in flight on a kept stream, so nothing to drain
        self._end_parked()

    def spawn(self, fn, name: str = "worker") -> ThreadHandle:
        with self._lock:
            inbox = self._parked.pop() if self._parked else None
        handle = ThreadHandle(fn, name)
        if inbox is None:
            threading.Thread(target=self._work, args=(handle,), name=name, daemon=True).start()
        else:
            inbox.put(handle)  # the parked worker runs it; nothing to wait for
        return handle

    def _work(self, handle: ThreadHandle | None) -> None:
        inbox = queue.SimpleQueue()
        while handle is not None:
            handle.run()
            with self._lock:
                parks = len(self._kept) > len(self._parked)
                if parks:
                    self._parked.append(inbox)
            handle.done.set()  # once parked, so a spawn() after join() finds this worker
            handle = inbox.get() if parks else None  # None also ends a parked worker

    def _end_parked(self) -> None:
        with self._lock:
            while len(self._parked) > len(self._kept):
                self._parked.pop().put(None)

    def listen(self) -> TcpListener:
        listener = TcpListener(self.host, self.port)
        if self.port == 0:
            self.port = listener.address[1]
        return listener

    def channel(self) -> queue.SimpleQueue:
        return queue.SimpleQueue()

    def now(self) -> float:
        return time.monotonic()
