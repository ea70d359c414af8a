"""Blocking stream transport backed by the simulated network; ``simulate_transfer`` runs a transfer on it.

The simulator is strictly single-threaded, but the transfer code is written
against blocking streams.  SimHub marries the two with a token: tasks run on
OS threads, yet only the thread holding the token ever runs.  A task that
would block (a read short of its bytes, full send buffer, accept with
nothing pending, join, sleep) parks, and while it still holds the token it
picks who runs next: the first ready task, else it steps the network until
an event or a virtual timer makes some task ready.  When that is the parking
task itself it carries on at once; otherwise it releases the chosen task's
own baton and blocks on its own.  The thread inside ``run()`` has a baton
too and gets the token back when the tasks are done, the network fails or
the tasks deadlock.  The network only steps when no task is ready, so the
interleaving is a pure function of the simulation and wall-clock thread
scheduling cannot leak in.

A task waiting in ``SimListener.accept()`` is an idle server: it keeps no
``run()`` going.  No task outlives ``run()``, which ends every task still
parked and joins every task thread before it returns or raises.  A
finished run leaves no reference cycle, so dropping the hub frees it, its
network and whatever the tasks held by reference counting alone, even with
events still pending.  An ending task drops its function and its hub and
leaves the point it was parked on.  A task's error keeps the frames it was
raised through, and the task's own, join()'s and run()'s let go of the
task and the hub before they end.  Nothing the network holds refers to the
hub: a parked task carries its own hub, through which a wait point, an
inbox or a path wakes it, and a timer callback holds only its task.

A connection is two one-way paths, each ending in the other side's inbox.
The forward path is one AIMD flow through the bottleneck carrying the
connect side's bytes as MSS-sized segments (the final partial segment is
padded on the wire).  End of stream rides an empty segment through the
same flow, so it obeys ordering, loss, and retransmission like any data.
The reverse path carries the accept side's writes and close: pure
propagation delay, no bandwidth, no loss, which mirrors how the simulator
treats acks.

Bytes are stored once: a write goes into the peer's inbox by reference at
once, and a path carries byte counts only (each new segment is bound to
the next MSS of written bytes and delivers that count).  ``write_all``
joins its parts into one write, so a DATA frame binds to segments as one;
it keeps a lone ``bytes`` part and copies any other, which its caller may
reuse.  A read copies what it takes once, into the buffer it returns or fills.

Reads wake at a low-water mark.  An inbox keeps the waiting reader's
``min_bytes`` and wakes it only once that many bytes are in, at end of
stream or on abort, so a reader waiting for a 64 KiB frame wakes once, not
once per delivered segment.  The wake-ups this skips had no effect on the
network, so the interleaving is the same.  A read's idle timer that fires
after bytes came in since the read began is re-armed one timeout after the
last of them.  A task keeps at most one timer on the network: a later
deadline reuses it (it re-arms if it fires early), only an earlier one
schedules another.
"""

from __future__ import annotations

import threading
from collections import deque
from functools import partial

from .simnet import AimdFlow, Network
from .striping import ReceivedTransfer, TransferReport, send_transfer, serve
from .transport import READ_CHUNK

SEND_BUFFER_CAP = 256 * 1024


def _baton() -> threading.Lock:
    """A held lock: its owner blocks on acquire until another thread
    releases it to pass the token."""
    baton = threading.Lock()
    baton.acquire()
    return baton


class _TaskEnded(BaseException):
    """Unwinds a task that run() ends; task code's ``except Exception`` lets it by."""


class _Task:
    """A hub task on its own thread; ``join`` re-raises the task's error."""

    def __init__(self, hub, fn, name):
        self.hub = hub
        self.fn = fn
        self.name = name
        self.baton = _baton()
        self.parked = True  # starts parked and queued; a token holder picks it
        self.queued = True
        self.deadline: float | None = None  # of the timed park in progress
        self.timer_at: float | None = None  # when the task's armed timer fires
        self.finished = False
        self.error: BaseException | None = None
        self.error_seen = False
        self.done: list[_Task] = []  # tasks parked in join()
        self.thread = threading.Thread(target=self._body, name=name, daemon=True)

    def _body(self):
        hub = self.hub
        self.baton.acquire()
        self.parked = False
        try:
            if not hub._ending:  # a task ended before it ran never starts
                self.fn()
        except _TaskEnded:
            pass
        except BaseException as exc:  # noqa: BLE001 - surfaced at join/run
            self.error = exc
        self.fn = None  # what it captured may refer back to the hub
        with hub._lock:
            self.finished = True
            self.hub = None  # the hub lists its tasks, so a finished one lets go of it
            _wake(self.done)
            hub._live.discard(self)
            baton = hub._baton_of(hub._pick_locked())
        del self, hub  # an error's traceback keeps this frame, so it must not refer back
        baton.release()

    def join(self) -> None:
        hub = self.hub  # None once the task has finished
        if hub is not None:
            with hub._lock:
                while not self.finished:
                    hub._wait_on_locked(self.done)
        if self.error is not None:
            self.error_seen = True
            try:
                raise self.error
            finally:
                self = hub = None  # the error's traceback keeps this frame

    def _arm_locked(self, at: float) -> None:
        self.timer_at = at
        self.hub.network.schedule_call(at, partial(self._on_timer_locked, at))

    def _on_timer_locked(self, at: float) -> None:
        """The task's timer fired: it wakes a park whose deadline is now and
        re-arms at a later one.  A timer an earlier one replaced does nothing,
        and so does one of a task no longer parked."""
        if self.timer_at != at:
            return
        self.timer_at = None
        if self.deadline is not None and self.deadline <= at:
            self.hub._unpark_locked(self)
        elif self.deadline is not None:
            self._arm_locked(self.deadline)


def _wake(point: list[_Task]) -> None:
    """Unpark every task parked on ``point``, each through its own hub, so a
    wait point needs no hub of its own."""
    for task in point:
        task.hub._unpark_locked(task)
    point.clear()


class SimHub:
    """Token scheduler tying blocking tasks to the event loop.

    Whichever thread holds the token steps the network when no task is
    ready; each task, and the ``run()`` caller, waits for the token on its
    own baton, so a hand-off wakes exactly the thread that runs next.
    """

    def __init__(self, network: Network):
        self.network = network
        self._lock = threading.Lock()
        self._baton = _baton()  # the run() caller's
        self._current: _Task | None = None  # None while the run() caller holds the token
        self._ready: deque[_Task] = deque()
        self._live: set[_Task] = set()  # unfinished tasks, idle servers aside
        self._tasks: list[_Task] = []
        self._ending = False  # run() is ending the tasks left parked
        self._failure: BaseException | None = None  # for the run() caller

    # -- task management --

    def spawn(self, fn, name: str | None = None) -> _Task:
        with self._lock:
            task = _Task(self, fn, name or f"task-{len(self._tasks) + 1}")
            self._live.add(task)
            self._tasks.append(task)
            self._ready.append(task)
            task.thread.start()
            return task

    def run(self) -> None:
        """Drive tasks and network until only idle servers are left, then
        end the tasks left parked.  Errors of the network (a failing
        ``schedule_call`` callback, a deadlock) and unjoined task errors are
        raised here."""
        with self._lock:
            if self._current is not None:
                raise RuntimeError("run() re-entered from inside a task")
            successor = self._pick_locked()
            if successor is not None:
                self._switch_locked(successor, self._baton)
            # Each unfinished task gets the token, unwinds and hands it back.
            self._ending = True
            for task in self._tasks:
                if not task.finished:
                    self._current = task
                    self._switch_locked(task, self._baton)
                task.thread.join()
            self._ending = False
            self._ready.clear()
            failure, self._failure = self._failure, None
            for task in self._tasks:
                if failure is None and task.error is not None and not task.error_seen:
                    task.error_seen = True
                    failure = task.error
        if failure is not None:
            try:
                raise failure
            finally:
                self = successor = task = failure = None  # the error's traceback keeps this frame

    def now(self) -> float:
        return self.network.now

    def sleep(self, seconds: float) -> None:
        """Park the calling task for ``seconds`` of virtual time."""
        with self._lock:
            self._wait_on_locked([], self.network.now + seconds)

    # -- internals (all assume self._lock is held) --

    def _baton_of(self, holder: _Task | None) -> threading.Lock:
        return self._baton if holder is None else holder.baton

    def _pick_locked(self) -> _Task | None:
        """Choose the next token holder and make it current: the first ready
        task, else the network steps until one is ready.  The run() caller
        (None) gets it when nothing is left to run, on a network error or
        deadlock, which it raises from ``run()``, and while ending."""
        self._current = None  # network callbacks run outside any task
        if self._ending:
            return None
        network = self.network
        while True:
            if self._ready:
                task = self._ready.popleft()
                task.queued = False
                self._current = task
                return task
            if not self._live:
                return None
            if network.next_time() is None:
                parked = ", ".join(sorted(t.name for t in self._live))
                self._failure = RuntimeError(f"deadlock: tasks parked with no pending events: {parked}")
                return None
            try:
                network.step()
            except BaseException as exc:  # noqa: BLE001 - raised by run()
                self._failure = exc
                return None

    def _switch_locked(self, successor: _Task | None, baton: threading.Lock) -> None:
        """Pass the token to ``successor``, then block until ``baton`` is
        released; the hub lock is dropped while blocked."""
        self._lock.release()
        try:
            self._baton_of(successor).release()
            baton.acquire()
        finally:
            self._lock.acquire()

    def _park_locked(self, task: _Task) -> None:
        task.parked = True
        successor = self._pick_locked()
        if successor is not task:
            self._switch_locked(successor, task.baton)
        task.parked = False

    def _unpark_locked(self, task: _Task) -> None:
        if task.parked and not task.queued:
            task.queued = True
            self._ready.append(task)

    def _wait_on_locked(self, point: list[_Task], deadline: float | None = None, idle: bool = False) -> bool:
        """Park the current task on ``point``.  False if a timer woke it.
        An ``idle`` task keeps no ``run()`` going while it waits."""
        if self._ending:
            raise _TaskEnded
        task = self._current
        if task is None:
            raise RuntimeError("blocking operation outside a sim task")
        if deadline is not None:
            if self.network.now >= deadline:
                return False
            if task.timer_at is None or deadline < task.timer_at:
                task._arm_locked(deadline)
        task.deadline = deadline
        point.append(task)
        if idle:
            self._live.discard(task)
        self._park_locked(task)
        if idle:
            self._live.add(task)
        task.deadline = None
        woken = task not in point
        if not woken:  # the timer woke it, or run() is ending it
            point.remove(task)
        if self._ending:
            raise _TaskEnded
        return woken


class SimChannel:
    """FIFO between tasks; get parks until a value arrives."""

    def __init__(self, hub: SimHub):
        self._hub = hub
        self._items: deque = deque()
        self._readable: list[_Task] = []

    def put(self, item) -> None:
        with self._hub._lock:
            self._items.append(item)
            _wake(self._readable)

    def get(self):
        hub = self._hub
        with hub._lock:
            while not self._items:
                hub._wait_on_locked(self._readable)
            return self._items.popleft()


class _Inbox:
    """One side's inbound bytes: the peer's writes, of which the first
    ``ready`` bytes were delivered.  The reader is woken only once
    ``low_water`` bytes are ready, or at the end."""

    def __init__(self):
        self.chunks: deque[bytes] = deque()  # written by the peer, not yet read
        self.offset = 0  # read position in chunks[0]
        self.ready = 0
        self.eof = False
        self.low_water = 1  # the last reader's min_bytes
        self.last_arrival = 0.0  # virtual time the last byte came in
        self.readable: list[_Task] = []
        self.writable: list[_Task] = []  # the peer's writes parked on a full send buffer
        self.refusing = False  # its owner's abort came in: the peer's writes fail, a parked one too

    def reset(self) -> None:
        self.refusing = True
        _wake(self.writable)

    def put_locked(self, now: float, size: int, eof: bool = False) -> None:
        if size:
            self.ready += size
            self.last_arrival = now
        if eof:
            self.eof = True
        if self.eof or self.ready >= self.low_water:
            _wake(self.readable)

    def take_into(self, view) -> None:
        """Fill ``view`` with the next ready bytes, copied from the written chunks."""
        chunks = self.chunks
        self.ready -= len(view)
        pos = 0
        while pos < len(view):
            piece = memoryview(chunks[0])[self.offset : self.offset + len(view) - pos]
            view[pos : pos + len(piece)] = piece
            pos += len(piece)
            self.offset += len(piece)
            if self.offset == len(chunks[0]):
                chunks.popleft()
                self.offset = 0

    def drop_tail(self, size: int) -> None:
        """Forget the last ``size`` written bytes, never delivered."""
        chunks = self.chunks
        while size and len(chunks[-1]) <= size:
            size -= len(chunks.pop())
        if size:
            chunks[-1] = chunks[-1][:-size]


class _StreamFlow(AimdFlow):
    """Forward path: an AIMD flow whose segments carry the connect side's
    bytes into the peer's inbox.  A write parks while more than
    ``SEND_BUFFER_CAP`` bytes wait to be bound to a segment."""

    def __init__(self, flow_id: str, network: Network, peer: _Inbox):
        super().__init__(flow_id, network.link, start_time=network.now)
        self._peer = peer
        self._unbound = 0  # bytes written, not yet bound to a segment
        self._seg_size: dict[int, int] = {}
        self._closing = False
        self._fin_seq: int | None = None

    def write_locked(self, hub: SimHub, data: bytes) -> None:
        self._peer.chunks.append(data)
        self._unbound += len(data)
        hub.network.pump(self)
        while self._unbound > SEND_BUFFER_CAP:
            hub._wait_on_locked(self._peer.writable)
            if self._peer.refusing:
                raise ConnectionResetError("peer aborted the stream")

    def close_locked(self, hub: SimHub, discard_pending: bool = False) -> None:
        if discard_pending:
            self._peer.drop_tail(self._unbound)
            self._unbound = 0
        self._closing = True
        hub.network.pump(self)

    def _new_segment_ready(self) -> bool:
        return self._unbound > 0 or (self._closing and self._fin_seq is None)

    def _on_new_seq(self, seq: int) -> None:
        take = min(self.link.mss, self._unbound)
        self._seg_size[seq] = take
        self._unbound -= take
        if self._closing and not self._unbound and self._fin_seq is None:
            self._fin_seq = seq  # the last segment doubles as end-of-stream
        if take and self._unbound <= SEND_BUFFER_CAP:
            _wake(self._peer.writable)

    def segment_payload(self, seq: int) -> int:
        return self._seg_size[seq]

    def _release(self, seq: int, now: float) -> None:
        self._peer.put_locked(now, self._seg_size.pop(seq), eof=(seq == self._fin_seq))


class _DelayLine:
    """Reverse path: each write or close reaches the peer's inbox one
    ``one_way_delay`` later, with no bandwidth and no loss, as acks do."""

    def __init__(self, peer: _Inbox):
        self._peer = peer

    def write_locked(self, hub: SimHub, data: bytes, eof: bool = False) -> None:
        network = hub.network
        self._peer.chunks.append(data)
        at = network.now + network.link.one_way_delay
        network.schedule_call(at, partial(self._peer.put_locked, at, len(data), eof))

    def close_locked(self, hub: SimHub, discard_pending: bool = False) -> None:
        self.write_locked(hub, b"", eof=True)  # nothing waits unsent, so nothing to discard


class SimStream:
    """One endpoint of a simulated connection: it reads its own inbox and writes
    through its path, the ``_StreamFlow`` when it connected, else a ``_DelayLine``."""

    def __init__(self, hub: SimHub, inbox: _Inbox, path: _StreamFlow | _DelayLine):
        self._hub = hub
        self._inbox = inbox
        self._path = path
        self._write_closed = False

    def read_some(
        self, max_bytes: int = READ_CHUNK, timeout: float | None = None, min_bytes: int = 1
    ) -> bytearray:
        with self._hub._lock:
            data = bytearray(min(max_bytes, self._wait_locked(min_bytes, timeout)))
            self._inbox.take_into(memoryview(data))
            return data

    def read_into(self, view, timeout: float | None = None) -> int:
        with self._hub._lock:
            size = min(len(view), self._wait_locked(len(view), timeout))
            self._inbox.take_into(memoryview(view)[:size])
            return size

    def _wait_locked(self, min_bytes: int, timeout: float | None) -> int:
        """Park until ``min_bytes`` are ready or the stream ends; the bytes ready."""
        hub, inbox = self._hub, self._inbox
        start = hub.network.now
        deadline = None if timeout is None else start + timeout
        inbox.low_water = min_bytes
        while inbox.ready < min_bytes and not inbox.eof:
            if not hub._wait_on_locked(inbox.readable, deadline):
                # Bytes that came in since the read began restart the idle clock.
                deadline = max(start, inbox.last_arrival) + timeout
                if hub.network.now >= deadline:
                    raise TimeoutError("read timed out")
        return inbox.ready

    def write_all(self, *parts) -> None:
        data = b"".join(parts)  # kept until read, so a buffer the caller may reuse is copied
        with self._hub._lock:
            if self._write_closed:
                raise ConnectionError("stream closed for writing")
            if self._path._peer.refusing:
                raise ConnectionResetError("peer aborted the stream")
            self._path.write_locked(self._hub, data)

    def close(self) -> None:
        with self._hub._lock:
            if self._write_closed:
                return
            self._write_closed = True
            self._path.close_locked(self._hub)

    def abort(self) -> None:
        """Hard stop: drop unsent bytes, end both directions; the peer's writes fail a one-way delay
        later and its reads return b"", as after a TCP abort, whose FIN comes before the reset."""
        with self._hub._lock:
            network = self._hub.network
            if not self._write_closed:
                self._write_closed = True
                self._path.close_locked(self._hub, discard_pending=True)
            self._inbox.put_locked(network.now, 0, eof=True)
            network.schedule_call(network.now + network.link.one_way_delay, self._inbox.reset)


class SimListener:
    def __init__(self, hub: SimHub):
        self._hub = hub
        self._pending: deque[SimStream] = deque()
        self._readable: list[_Task] = []
        self.closed = False

    def accept(self) -> SimStream:
        hub = self._hub
        with hub._lock:
            while not self._pending:
                if self.closed:
                    raise ConnectionError("listener closed")
                hub._wait_on_locked(self._readable, idle=True)
            return self._pending.popleft()

    def close(self) -> None:
        with self._hub._lock:
            self.closed = True
            _wake(self._readable)

    def _offer_locked(self, stream: SimStream) -> bool:
        if self.closed:
            return False
        self._pending.append(stream)
        _wake(self._readable)
        return True


class SimTransport:
    """Transport facade over one simulated network endpoint pair."""

    def __init__(self, hub: SimHub):
        self._hub = hub
        self._listener: SimListener | None = None
        self._conn_counter = 0

    def connect(self) -> SimStream:
        hub = self._hub
        network = hub.network
        with hub._lock:
            listener = self._listener
            if listener is None or listener.closed:
                raise ConnectionRefusedError("nothing is listening")
            self._conn_counter += 1
            client_inbox, server_inbox = _Inbox(), _Inbox()
            flow = _StreamFlow(f"conn-{self._conn_counter}", network, server_inbox)
            network.add_flow(flow)
            client = SimStream(hub, client_inbox, flow)
            server = SimStream(hub, server_inbox, _DelayLine(client_inbox))
            # Connection setup costs one base RTT before data can move.
            hub._wait_on_locked([], network.now + network.link.rtt_base)
            if not listener._offer_locked(server):
                raise ConnectionRefusedError("listener closed during handshake")
            return client

    def release(self, stream: SimStream) -> None:
        stream.close()  # no stream is kept, so the wire carries what it always did

    def listen(self) -> SimListener:
        with self._hub._lock:
            if self._listener is not None and not self._listener.closed:
                raise OSError("endpoint already has a listener")
            self._listener = SimListener(self._hub)
            return self._listener

    def spawn(self, fn, name: str | None = None) -> _Task:
        return self._hub.spawn(fn, name)

    def channel(self) -> SimChannel:
        return SimChannel(self._hub)

    def now(self) -> float:
        return self._hub.network.now


def simulate_transfer(
    network: Network, payload, connection_count: int
) -> tuple[TransferReport, ReceivedTransfer, bytearray | None]:
    """Run ``serve``, then ``send_transfer`` of ``payload`` on ``connection_count`` connections, as
    tasks of a new hub on ``network``; returns the report, the received transfer and its payload."""
    hub = SimHub(network)
    transport = SimTransport(hub)
    box: dict = {}

    def serve_task():
        box["result"] = serve(transport, lambda _tid, data: box.__setitem__("data", data))

    def send_task():
        box["report"] = send_transfer(payload, transport, connection_count)

    hub.spawn(serve_task, name="serve")  # first, so it listens before the sender connects
    hub.spawn(send_task, name="send")
    hub.run()
    return box["report"], box["result"], box.get("data")
