"""Blocking stream transport backed by the simulated network.

The simulator is strictly single-threaded, but the transfer code is written
against blocking streams.  SimHub marries the two with a token: tasks run on
OS threads, yet only the thread holding the token ever runs.  A task that
would block (empty read buffer, full send buffer, accept with nothing
pending, join, sleep) parks, and while it still holds the token it picks
who runs next: the first ready task, else it steps the network until an
event or a virtual timer makes some task ready.  When that is the parking
task itself it carries on at once; otherwise it releases the chosen task's
own baton and blocks on its own.  The thread inside ``run()`` has a baton
too and gets the token back when the tasks are done, the clock reaches
``until``, the network fails or the tasks deadlock.  The network only
steps when no task is ready, so the interleaving is a pure function of the
simulation and wall-clock thread scheduling cannot leak in.

Each connection is one AIMD flow through the bottleneck carrying the
connect-side byte stream as MSS-sized segments (the final partial segment
is padded on the wire).  End of stream rides an empty segment through the
same flow, so it obeys ordering, loss, and retransmission like any data.
The accept side's writes ride the reverse path: pure propagation delay,
no bandwidth, no loss, which mirrors how the simulator treats acks.
"""

from __future__ import annotations

import threading
from collections import deque

from .simnet import AimdFlow, LinkConfig, Network

READ_CHUNK = 64 * 1024
SEND_BUFFER_CAP = 256 * 1024


def _baton() -> threading.Lock:
    """A held lock: its owner blocks on acquire until another thread
    releases it to pass the token."""
    baton = threading.Lock()
    baton.acquire()
    return baton


class _WaitPoint:
    """A parking spot: tasks wait here, events notify it."""

    __slots__ = ("waiters",)

    def __init__(self):
        self.waiters: list[_Task] = []


class _Runner:
    """The thread inside ``run()``: the token's owner when no task runs."""

    __slots__ = ("baton",)

    def __init__(self):
        self.baton = _baton()


class _Task:
    def __init__(self, hub, fn, name, daemon):
        self.hub = hub
        self.fn = fn
        self.name = name
        self.daemon = daemon
        self.baton = _baton()
        self.parked = False
        self.queued = False
        self.park_gen = 0
        self.finished = False
        self.error: BaseException | None = None
        self.error_seen = False
        self.done = _WaitPoint()
        self.thread = threading.Thread(target=self._body, name=name, daemon=True)

    def _body(self):
        hub = self.hub
        self.baton.acquire()
        self.parked = False
        try:
            self.fn()
        except BaseException as exc:  # noqa: BLE001 - surfaced at join/run
            self.error = exc
        with hub._lock:
            self.finished = True
            hub._notify_locked(self.done)
            hub._live.discard(self)
            successor = hub._pick_locked()
        successor.baton.release()


class SimTaskHandle:
    """Joinable handle for a hub task; join re-raises the task's exception."""

    def __init__(self, hub, task):
        self._hub = hub
        self._task = task

    def join(self, timeout: float | None = None) -> None:
        hub, task = self._hub, self._task
        with hub._lock:
            deadline = None if timeout is None else hub.network.now + timeout
            while not task.finished:
                if not hub._wait_on_locked(task.done, deadline):
                    raise TimeoutError(f"task {task.name!r} still running")
            if task.error is not None:
                task.error_seen = True
                raise task.error

    def is_alive(self) -> bool:
        return not self._task.finished


class SimHub:
    """Token scheduler tying blocking tasks to the event loop.

    Whichever thread holds the token steps the network when no task is
    ready; each task, and the ``run()`` caller, waits for the token on its
    own baton, so a hand-off wakes exactly the thread that runs next.
    """

    def __init__(self, network: Network):
        self.network = network
        self._lock = threading.Lock()
        self._runner = _Runner()
        self._current: _Task | _Runner = self._runner
        self._ready: deque[_Task] = deque()
        self._live: set[_Task] = set()  # unfinished non-daemon tasks
        self._tasks: list[_Task] = []
        self._task_counter = 0
        self._until: float | None = None
        self._failure: BaseException | None = None  # for the run() caller

    # -- task management --

    def spawn(self, fn, name: str | None = None, daemon: bool = False) -> SimTaskHandle:
        with self._lock:
            self._task_counter += 1
            task = _Task(self, fn, name or f"task-{self._task_counter}", daemon)
            if not daemon:
                self._live.add(task)
                self._tasks.append(task)
            task.parked = True  # starts parked; a token holder picks it
            task.queued = True
            self._ready.append(task)
            task.thread.start()
            return SimTaskHandle(self, task)

    def run(self, until: float | None = None) -> None:
        """Drive tasks and network until every non-daemon task finished, or
        virtual time reaches ``until``.  Errors of the network (a failing
        ``schedule_call`` callback, a deadlock) and unjoined task errors
        are raised here."""
        runner = self._runner
        with self._lock:
            if self._current is not runner:
                raise RuntimeError("run() re-entered from inside a task")
            self._until = until
            successor = self._pick_locked()
            if successor is not runner:
                self._switch_locked(successor, runner.baton)
            failure, self._failure = self._failure, None
            if failure is not None:
                raise failure
            for task in self._tasks:
                if task.finished and task.error is not None and not task.error_seen:
                    task.error_seen = True
                    raise task.error

    def now(self) -> float:
        return self.network.now

    def sleep(self, seconds: float) -> None:
        """Park the calling task for ``seconds`` of virtual time."""
        point = _WaitPoint()
        with self._lock:
            self._wait_on_locked(point, self.network.now + seconds)

    # -- internals (all assume self._lock is held) --

    def _pick_locked(self) -> _Task | _Runner:
        """Choose the next token holder and make it current: the first ready
        task, else the network steps until one is ready.  The runner gets
        the token when nothing is left to run, at ``until``, and on a
        network error or deadlock, which it raises from ``run()``."""
        runner = self._runner
        self._current = runner  # network callbacks run outside any task
        network = self.network
        until = self._until
        while True:
            if self._ready:
                task = self._ready.popleft()
                task.queued = False
                self._current = task
                return task
            if not self._live:
                return runner
            if until is not None and network.now >= until:
                return runner
            heap = network._heap
            if not heap:
                parked = ", ".join(sorted(t.name for t in self._live))
                self._failure = RuntimeError(f"deadlock: tasks parked with no pending events: {parked}")
                return runner
            if until is not None and heap[0][0] > until:
                network.now = until
                return runner
            try:
                network.step()
            except BaseException as exc:  # noqa: BLE001 - raised by run()
                self._failure = exc
                return runner

    def _switch_locked(self, successor: _Task | _Runner, baton: threading.Lock) -> None:
        """Pass the token to ``successor``, then block until ``baton`` is
        released; the hub lock is dropped while blocked."""
        self._lock.release()
        try:
            successor.baton.release()
            baton.acquire()
        finally:
            self._lock.acquire()

    def _park_locked(self, task: _Task) -> None:
        task.park_gen += 1
        task.parked = True
        successor = self._pick_locked()
        if successor is not task:
            self._switch_locked(successor, task.baton)
        task.parked = False

    def _unpark_locked(self, task: _Task) -> None:
        if task.parked and not task.queued:
            task.queued = True
            self._ready.append(task)

    def _notify_locked(self, point: _WaitPoint) -> None:
        for task in point.waiters:
            self._unpark_locked(task)
        point.waiters.clear()

    def _wait_on_locked(self, point: _WaitPoint, deadline: float | None = None) -> bool:
        """Park the current task on ``point``.  False if a timer woke it."""
        task = self._current
        if task is self._runner:
            raise RuntimeError("blocking operation outside a sim task")
        if deadline is not None:
            if self.network.now >= deadline:
                return False
            gen = task.park_gen + 1

            def timer():
                if task.park_gen == gen:
                    self._unpark_locked(task)

            self.network.schedule_call(deadline, timer)
        point.waiters.append(task)
        self._park_locked(task)
        if task in point.waiters:  # woken by the timer, not the point
            point.waiters.remove(task)
            return False
        return True


class SimChannel:
    """FIFO between tasks; get parks until a value arrives."""

    def __init__(self, hub: SimHub):
        self._hub = hub
        self._items: deque = deque()
        self._readable = _WaitPoint()

    def put(self, item) -> None:
        with self._hub._lock:
            self._items.append(item)
            self._hub._notify_locked(self._readable)

    def get(self, timeout: float | None = None):
        hub = self._hub
        with hub._lock:
            deadline = None if timeout is None else hub.network.now + timeout
            while not self._items:
                if not hub._wait_on_locked(self._readable, deadline):
                    raise TimeoutError("channel get timed out")
            return self._items.popleft()


class _StreamFlow(AimdFlow):
    """AIMD flow whose segments carry bytes from a stream's send buffer."""

    def __init__(self, flow_id: str, link: LinkConfig, conn: "_SimConnection", **kwargs):
        super().__init__(flow_id, link, **kwargs)
        self._conn = conn
        self._pending = bytearray()  # written, not yet bound to a segment
        self._seg_data: dict[int, bytes] = {}
        self._closing = False
        self._fin_seq: int | None = None

    def feed(self, data: bytes) -> None:
        self._pending.extend(data)

    def close_writing(self) -> None:
        self._closing = True

    def pending_bytes(self) -> int:
        return len(self._pending)

    def _new_segment_ready(self) -> bool:
        if self._pending:
            return True
        return self._closing and self._fin_seq is None

    def _on_new_seq(self, seq: int) -> None:
        take = min(self.link.mss, len(self._pending))
        with memoryview(self._pending) as view:
            self._seg_data[seq] = bytes(view[:take])
        del self._pending[:take]
        if self._closing and not self._pending and self._fin_seq is None:
            self._fin_seq = seq  # the last segment doubles as end-of-stream
        if take:
            self._conn._on_send_buffer_drain_locked()

    def segment_payload(self, seq: int) -> int:
        return len(self._seg_data[seq])

    def _release(self, seq: int, now: float) -> None:
        data = self._seg_data.pop(seq)
        self._conn._deliver_forward_locked(data, eof=(seq == self._fin_seq))


class _Endpoint:
    """One side's inbound byte buffer."""

    def __init__(self):
        self.buf = bytearray()
        self.eof = False
        self.readable = _WaitPoint()


class _SimConnection:
    """Shared state of one connection: the forward AIMD flow plus the
    delay-only reverse path."""

    def __init__(self, hub: SimHub, flow_id: str, send_buffer_cap: int):
        self.hub = hub
        self.link = hub.network.link
        self.send_buffer_cap = send_buffer_cap
        self.flow = _StreamFlow(flow_id, self.link, self, start_time=hub.network.now)
        self.client_read = _Endpoint()  # fed by the reverse path
        self.server_read = _Endpoint()  # fed by the forward flow
        self.writable = _WaitPoint()
        self.established = _WaitPoint()
        self.handshake_done = False
        self.refused = False

    # forward direction (connect side -> accept side)

    def client_write_locked(self, data: bytes) -> None:
        self.flow.feed(data)
        self.hub.network.pump(self.flow)
        while self.flow.pending_bytes() > self.send_buffer_cap:
            self.hub._wait_on_locked(self.writable)

    def client_close_locked(self, discard_pending: bool = False) -> None:
        if discard_pending:
            self.flow._pending.clear()
        self.flow.close_writing()
        self.hub.network.pump(self.flow)

    def _on_send_buffer_drain_locked(self) -> None:
        if self.flow.pending_bytes() <= self.send_buffer_cap:
            self.hub._notify_locked(self.writable)

    def _deliver_forward_locked(self, data: bytes, eof: bool) -> None:
        self.server_read.buf.extend(data)
        if eof:
            self.server_read.eof = True
        self.hub._notify_locked(self.server_read.readable)

    # reverse direction (accept side -> connect side): delay only

    def server_write_locked(self, data: bytes) -> None:
        payload = bytes(data)

        def arrive():
            self.client_read.buf.extend(payload)
            self.hub._notify_locked(self.client_read.readable)

        self.hub.network.schedule_call(self.hub.network.now + self.link.one_way_delay, arrive)

    def server_close_locked(self) -> None:
        def arrive():
            self.client_read.eof = True
            self.hub._notify_locked(self.client_read.readable)

        self.hub.network.schedule_call(self.hub.network.now + self.link.one_way_delay, arrive)


class SimStream:
    """One endpoint of a simulated connection."""

    def __init__(self, conn: _SimConnection, is_client: bool):
        self._conn = conn
        self._is_client = is_client
        self._read_end = conn.client_read if is_client else conn.server_read
        self._write_closed = False

    def read_some(self, max_bytes: int = READ_CHUNK, timeout: float | None = None) -> bytes:
        hub = self._conn.hub
        end = self._read_end
        with hub._lock:
            deadline = None if timeout is None else hub.network.now + timeout
            while not end.buf and not end.eof:
                if not hub._wait_on_locked(end.readable, deadline):
                    raise TimeoutError("read timed out")
            if not end.buf:
                return b""
            with memoryview(end.buf) as view:
                data = bytes(view[:max_bytes])
            del end.buf[: len(data)]
            return data

    def write_all(self, data: bytes) -> None:
        conn = self._conn
        with conn.hub._lock:
            if self._write_closed:
                raise ConnectionError("stream closed for writing")
            if self._is_client:
                conn.client_write_locked(data)
            else:
                conn.server_write_locked(data)

    def close(self) -> None:
        conn = self._conn
        with conn.hub._lock:
            if self._write_closed:
                return
            self._write_closed = True
            if self._is_client:
                conn.client_close_locked()
            else:
                conn.server_close_locked()

    def abort(self) -> None:
        """Hard stop: drop unsent bytes, end both directions."""
        conn = self._conn
        with conn.hub._lock:
            if not self._write_closed:
                self._write_closed = True
                if self._is_client:
                    conn.client_close_locked(discard_pending=True)
                else:
                    conn.server_close_locked()
            self._read_end.eof = True
            conn.hub._notify_locked(self._read_end.readable)


class SimListener:
    def __init__(self, hub: SimHub):
        self._hub = hub
        self._pending: deque[SimStream] = deque()
        self._readable = _WaitPoint()
        self.closed = False

    @property
    def address(self) -> str:
        return "sim"

    def accept(self) -> SimStream:
        hub = self._hub
        with hub._lock:
            while not self._pending:
                if self.closed:
                    raise ConnectionError("listener closed")
                hub._wait_on_locked(self._readable)
            return self._pending.popleft()

    def close(self) -> None:
        with self._hub._lock:
            self.closed = True
            self._hub._notify_locked(self._readable)

    def _offer_locked(self, stream: SimStream) -> bool:
        if self.closed:
            return False
        self._pending.append(stream)
        self._hub._notify_locked(self._readable)
        return True


class SimTransport:
    """Transport facade over one simulated network endpoint pair."""

    def __init__(self, hub: SimHub, *, send_buffer_cap: int = SEND_BUFFER_CAP, flow_prefix: str = "conn"):
        self._hub = hub
        self._listener: SimListener | None = None
        self._send_buffer_cap = send_buffer_cap
        self._flow_prefix = flow_prefix
        self._conn_counter = 0

    def connect(self) -> SimStream:
        hub = self._hub
        with hub._lock:
            listener = self._listener
            if listener is None or listener.closed:
                raise ConnectionRefusedError("nothing is listening")
            self._conn_counter += 1
            conn = _SimConnection(
                hub, f"{self._flow_prefix}-{self._conn_counter}", self._send_buffer_cap
            )
            hub.network.add_flow(conn.flow)
            client = SimStream(conn, is_client=True)
            server = SimStream(conn, is_client=False)

            def complete():
                if listener._offer_locked(server):
                    conn.handshake_done = True
                else:
                    conn.refused = True
                hub._notify_locked(conn.established)

            # Connection setup costs one base RTT before data can move.
            hub.network.schedule_call(hub.network.now + self.link.rtt_base, complete)
            while not conn.handshake_done and not conn.refused:
                hub._wait_on_locked(conn.established)
            if conn.refused:
                raise ConnectionRefusedError("listener closed during handshake")
            return client

    @property
    def link(self) -> LinkConfig:
        return self._hub.network.link

    def listen(self) -> SimListener:
        with self._hub._lock:
            if self._listener is not None and not self._listener.closed:
                raise OSError("endpoint already has a listener")
            self._listener = SimListener(self._hub)
            return self._listener

    def spawn(self, fn, name: str | None = None) -> SimTaskHandle:
        return self._hub.spawn(fn, name)

    def channel(self) -> SimChannel:
        return SimChannel(self._hub)

    def now(self) -> float:
        return self._hub.network.now
