"""Sender and receiver sides of the parallel striped transfer.

Each side is a protocol core that moves no bytes, ``SenderCore`` and
``ReceiverCore``, and a blocking driver that moves them, ``send_transfer``
and ``Receiver``: only the drivers read, write, spawn and lock, on TCP
threads and simulator tasks alike, one frame head at a time.

Each connection carries one chunk: HELLO, DATA frames (head and payload
in one write each), FIN with the chunk digest, then the receiver's
receipt, a FIN echoing the digest it computed.  The last chunk's receipt
goes out only once the hash-list root over the chunk digests matched
HELLO's and the sink took the payload, so receipts that all verify mean
delivered.  A failure on any stream fails the whole transfer and aborts
the streams of its chunks not yet complete; there is no retry.  Every
failure carries a ``FailureKind``, and its reason, on either side, reads
``"{kind.value}: {detail}"``.
"""

from __future__ import annotations

import hashlib
import math
import sys
import threading
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import partial

from .wire import (
    MAX_DATA_PAYLOAD,
    DataHead,
    Fin,
    FrameDecoder,
    Hello,
    ProtocolError,
    TransferManifest,
    chunk_assignment,
    encode_frame,
    root_digest,
)

DATA_FRAME_BYTES = MAX_DATA_PAYLOAD  # payload bytes per DATA frame, the last of a chunk aside
DEFAULT_IDLE_TIMEOUT = 30.0
DEFAULT_BUFFER_CAP = 256 * 1024 * 1024
FINISHED_IDS_KEPT = 64  # finished transfer ids remembered to turn away late streams


class FailureKind(Enum):
    """Why a transfer failed; each value is the prefix of the reasons of its kind."""

    CONNECT = "connect failed"  # the sender could not open a connection
    CONNECTION = "connection failed"  # a stream broke or was refused mid-transfer
    PROTOCOL = "protocol-error"  # a frame stream broke the protocol
    STALLED = "stalled"  # no bytes within the idle or receipt timeout
    CORRUPT_CHUNK = "corrupt-chunk"  # a chunk's bytes do not match its FIN digest
    CORRUPT_PAYLOAD = "corrupt-payload"  # the chunk digests do not match HELLO's root
    SINK = "sink failed"  # the receiver's sink raised on the verified payload


# ---------------------------------------------------------------------------
# Sender side
# ---------------------------------------------------------------------------


@dataclass
class ConnectionStat:
    chunk_index: int
    bytes: int
    start_time: float
    end_time: float


@dataclass
class TransferReport:
    transfer_id: bytes
    bytes_sent: int
    wall_time: float
    per_connection: list[ConnectionStat]
    ok: bool
    failure_reason: str | None = None
    failing_chunk: int | None = None
    failure_kind: FailureKind | None = None


class SenderCore:
    """The sender's protocol for one transfer, with no stream: the writes
    that carry each chunk, and the check of the receipt that answers them."""

    def __init__(self, payload, connection_count: int, transfer_id: bytes | None = None):
        self.payload = payload
        self.manifest = TransferManifest.for_payload(payload, connection_count, transfer_id)

    def writes(self, index: int):
        """Chunk ``index``'s frames in order, each the parts of one write: HELLO, DATA (head, payload), FIN."""
        chunk = self.manifest.chunks[index]
        body = memoryview(self.payload)[chunk.offset : chunk.offset + chunk.length]
        yield (encode_frame(self.manifest.hello(index)),)
        for off in range(0, len(body), DATA_FRAME_BYTES):
            piece = body[off : off + DATA_FRAME_BYTES]
            yield encode_frame(DataHead(index, off, len(piece))), piece
        yield (encode_frame(Fin(index, self.manifest.chunk_digests[index])),)

    def receipt(self, index: int, frame) -> None:
        """Judge chunk ``index``'s receipt, the frame after its FIN (None: the stream ended); raise if it fails."""
        if frame is None:
            raise ConnectionError(f"stream closed before receipt for chunk {index}")
        if not isinstance(frame, Fin) or frame.chunk_index != index:
            raise ProtocolError(f"unexpected receipt frame {frame!r}")
        if frame.chunk_digest != self.manifest.chunk_digests[index]:
            raise _CorruptChunk(f"receiver digest mismatch on chunk {index}")


def send_transfer(
    payload: bytes,
    transport,
    connection_count: int,
    *,
    transfer_id: bytes | None = None,
) -> TransferReport:
    """Send ``payload`` over ``connection_count`` concurrent streams.

    Returns a report rather than raising on transfer failure; a stream that
    fails to open or breaks mid-chunk fails the transfer with that chunk's
    index.
    """
    t0 = transport.now()  # the clock covers hashing the payload for the manifest
    core = SenderCore(payload, connection_count, transfer_id)
    chunks = core.manifest.chunks
    stats: list[ConnectionStat | None] = [None] * connection_count
    errors: list[tuple[FailureKind, str] | None] = [None] * connection_count  # texts: no traceback outlives it

    streams = []
    for chunk in chunks:
        try:
            streams.append(transport.connect())
        except OSError as exc:
            errors[chunk.index] = (FailureKind.CONNECT, str(exc))
            for s in streams:
                s.abort()
            break

    def worker(index: int):
        stream = streams[index]
        start = transport.now() - t0
        try:
            for parts in core.writes(index):
                stream.write_all(*parts)
            core.receipt(index, next(_frames(stream, DEFAULT_IDLE_TIMEOUT), None))
            transport.release(stream)  # the transport may keep it for its next transfer
            stats[index] = ConnectionStat(index, chunks[index].length, start, transport.now() - t0)
        except Exception as exc:  # noqa: BLE001 - reported in the transfer outcome
            errors[index] = (_failure_kind(exc), str(exc))
            stream.abort()

    if len(streams) == connection_count:
        handles = [transport.spawn(lambda i=i: worker(i), name=f"send-{i}") for i in range(1, connection_count)]
        worker(0)
        for h in handles:
            h.join()

    failing = next((i for i, e in enumerate(errors) if e is not None), None)
    kind, detail = (None, None) if failing is None else errors[failing]
    done = [s for s in stats if s is not None]
    return TransferReport(
        transfer_id=core.manifest.transfer_id,
        bytes_sent=sum(s.bytes for s in done),
        wall_time=transport.now() - t0,
        per_connection=done,
        ok=failing is None,
        failure_reason=None if kind is None else _reason(kind, detail),
        failing_chunk=failing,
        failure_kind=kind,
    )


class _CorruptChunk(Exception):
    """A chunk's bytes do not match the digest its FIN carries."""


def _failure_kind(exc: Exception) -> FailureKind:
    """The kind of failure an exception raised on a stream stands for."""
    if isinstance(exc, _CorruptChunk):
        return FailureKind.CORRUPT_CHUNK
    if isinstance(exc, ProtocolError):
        return FailureKind.PROTOCOL
    if isinstance(exc, TimeoutError):
        return FailureKind.STALLED
    return FailureKind.CONNECTION


def _reason(kind: FailureKind, detail: object) -> str:
    """Every failure reason, on either side: the kind's prefix, then what went wrong."""
    return f"{kind.value}: {detail}"


def _frames(stream, timeout: float):
    """The frames ``stream`` carries, up to its end.  Each read takes just the
    bytes the next head needs, so the caller reads a ``DataHead``'s payload."""
    decoder = FrameDecoder()
    while data := stream.read_some(decoder.needed, timeout, decoder.needed):
        yield from decoder.feed(data)


# ---------------------------------------------------------------------------
# Receiver side
# ---------------------------------------------------------------------------


@dataclass
class ReceiverState:
    """Snapshot of one unfinished transfer's progress at the monitor."""

    transfer_id: bytes
    connection_count: int
    registered: set[int]
    completed: set[int]


@dataclass
class ReceivedTransfer:
    transfer_id: bytes
    ok: bool
    reason: str | None
    total_size: int
    wall_time: float
    per_connection: list[ConnectionStat]
    failure_kind: FailureKind | None = None


@dataclass
class _Chunk:
    """One registered chunk at the monitor."""

    offset: int
    length: int
    hasher: hashlib._Hash  # running digest of the bytes written so far
    started: float  # when its HELLO arrived, in seconds after the transfer's first
    filled: int = 0
    digest: bytes | None = None  # its FIN digest, once verified against its bytes


class _TransferMonitor:
    """Completion tracker for one transfer: register / slot / data / complete.
    ``carriers`` holds the ``StreamState`` of each chunk not yet complete."""

    def __init__(self, hello: Hello, received_at: float):
        self.transfer_id = hello.transfer_id
        self.total_size = hello.total_size
        self.connection_count = hello.connection_count
        self.payload_digest = hello.payload_digest
        self.started_at = received_at
        self.chunks: dict[int, _Chunk] = {}
        self.carriers: dict[int, StreamState] = {}
        self.buffer: bytearray | None = None  # whole payload; allocated by the first valid HELLO
        self.stats: list[ConnectionStat] = []  # one per completed chunk
        self.finished = False

    def register(self, hello: Hello, carrier: StreamState, now: float, buffer_cap: int, allocate) -> None:
        """Admit ``carrier`` as the stream of HELLO's chunk; the first
        admitted takes the transfer's buffer from ``allocate(total_size)``."""
        fields = (hello.total_size, hello.connection_count, hello.payload_digest)
        if fields != (self.total_size, self.connection_count, self.payload_digest):
            raise ProtocolError(f"HELLO fields inconsistent across connections of transfer {self.transfer_id.hex()}")
        if hello.chunk_index in self.chunks:
            raise ProtocolError(f"duplicate registration for chunk {hello.chunk_index}")
        if hello.chunk_index >= self.connection_count:
            raise ProtocolError(f"chunk index {hello.chunk_index} out of range for {self.connection_count} connections")
        expected = chunk_assignment(self.total_size, self.connection_count, hello.chunk_index)
        if (hello.chunk_offset, hello.chunk_length) != (expected.offset, expected.length):
            raise ProtocolError(
                f"chunk {hello.chunk_index} placed at ({hello.chunk_offset}, {hello.chunk_length}), "
                f"expected ({expected.offset}, {expected.length})"
            )
        if self.total_size > buffer_cap:
            raise ProtocolError(f"transfer of {self.total_size} bytes exceeds receiver buffer cap {buffer_cap}")
        if self.buffer is None:
            self.buffer = allocate(self.total_size)
        self.chunks[hello.chunk_index] = _Chunk(
            hello.chunk_offset, hello.chunk_length, hashlib.sha256(), now - self.started_at
        )
        self.carriers[hello.chunk_index] = carrier

    def slot(self, head: DataHead) -> memoryview:
        """The slice of the buffer ``head``'s payload fills, once the head is
        checked to start at the chunk's next byte and end within the chunk."""
        index = head.chunk_index
        chunk = self.chunks[index]
        if head.offset_in_chunk != chunk.filled:
            raise ProtocolError(f"chunk {index}: DATA offset {head.offset_in_chunk}, expected {chunk.filled}")
        if chunk.filled + head.length > chunk.length:
            raise ProtocolError(f"chunk {index} overflows its declared length")
        start = chunk.offset + chunk.filled
        return memoryview(self.buffer)[start : start + head.length]

    def data(self, index: int, payload: memoryview) -> None:
        """Take in a payload read into its ``slot``: hash it and advance chunk ``index``."""
        chunk = self.chunks[index]
        chunk.hasher.update(payload)
        chunk.filled += len(payload)

    def complete(self, frame: Fin, now: float) -> bool:
        """Verify and mark one chunk done; True when this was the last chunk."""
        index = frame.chunk_index
        chunk = self.chunks[index]
        if chunk.filled != chunk.length:
            raise ProtocolError(f"chunk {index} FIN after {chunk.filled} of {chunk.length} bytes")
        if chunk.hasher.digest() != frame.chunk_digest:
            raise _CorruptChunk(f"chunk {index} digest mismatch")
        chunk.digest = frame.chunk_digest
        del self.carriers[index]  # it may carry another transfer next, so a failure spares it
        self.stats.append(ConnectionStat(index, chunk.length, chunk.started, now - self.started_at))
        return len(self.stats) == self.connection_count


def _sole_refcount() -> int | None:
    """What ``sys.getrefcount(spare)`` reads, as ``ReceiverCore._allocate`` reads it, when a local
    ``spare`` is the only reference: the figure differs between interpreter versions.  None where
    the count cannot show every holder: no ``sys.getrefcount`` (PyPy), or no GIL (free-threaded)."""
    if not hasattr(sys, "getrefcount") or not getattr(sys, "_is_gil_enabled", lambda: True)():
        return None
    spare = bytearray(0)
    alone = sys.getrefcount(spare)
    held = [spare]  # one more holder must read as one more
    more = sys.getrefcount(spare)
    del held
    return alone if more == alone + 1 else None


_SOLE_REFCOUNT = _sole_refcount()  # None: a receiver never reuses a buffer


@dataclass(eq=False)
class StreamState:
    """One stream at a ``ReceiverCore``; its driver fills ``slot``, else writes ``receipt``, else reads a head."""

    monitor: _TransferMonitor | None = None  # of the sequence in progress; None between sequences
    index: int = -1  # that sequence's chunk
    slot: memoryview | None = None  # where the payload of the DATA head just read goes
    receipt: bytes | None = None


class ReceiverCore:
    """The receiver's protocol, with no stream, thread or lock.

    The driver fills a ``StreamState``'s ``slot`` and calls ``filled``, or writes its
    ``receipt`` and calls ``sent``, or else reads a frame head for ``frame`` (None at the
    stream's end); a stream error goes to ``broke``.  Calls must not overlap, ``filled`` aside.
    ``frame`` and ``broke`` return ``(end, ending)``: the driver first ends the stream as
    ``end`` says ("close", "abort", or "stop": leave it to the failure that aborted it), then
    carries out ``ending``, a transfer that ended, as ``(monitor, kind, detail, carriers)``:
    the sink takes a verified payload (``kind`` None), a failure aborts the streams of
    ``carriers``, and ``settle`` makes the completion.  With no ``end`` the stream goes on,
    unless its ``ending`` failed.  A transfer ends once.
    """

    def __init__(self, buffer_cap: int = DEFAULT_BUFFER_CAP):
        self.buffer_cap = buffer_cap
        self.monitors: dict[bytes, _TransferMonitor] = {}  # the transfers not yet finished
        self.finished_ids: deque[bytes] = deque(maxlen=FINISHED_IDS_KEPT)
        self.spare: bytearray | None = None  # the last finished transfer's buffer
        self.closed = False

    def frame(self, state: StreamState, frame, now: float) -> tuple:
        """Take in the next frame head on ``state``'s stream, None at its end."""
        monitor = state.monitor
        try:
            if monitor is None:  # a sequence opens: only a valid HELLO names its transfer
                if frame is None:
                    return "close", None  # the sender ended it between sequences
                if not isinstance(frame, Hello) or frame.transfer_id in self.finished_ids:
                    return "abort", None
                monitor = self.monitors.get(frame.transfer_id)
                if monitor is None:
                    monitor = self.monitors[frame.transfer_id] = _TransferMonitor(frame, now)
                state.monitor, state.index = monitor, frame.chunk_index
                monitor.register(frame, state, now, self.buffer_cap, self._allocate)
                return None, None
            index = state.index
            if frame is None:
                raise ProtocolError(f"stream for chunk {index} ended before FIN")
            if monitor.finished:
                return "stop", None
            if isinstance(frame, Hello):
                raise ProtocolError("second HELLO within one chunk")
            if frame.chunk_index != index:
                raise ProtocolError(f"{frame.kind.name} for chunk {frame.chunk_index} on the chunk-{index} stream")
            if isinstance(frame, DataHead):
                state.slot = monitor.slot(frame)  # checked before a byte is read
                return None, None
            last = monitor.complete(frame, now)
            state.receipt = encode_frame(Fin(index, frame.chunk_digest))  # complete() verified this digest
            if not last:
                return None, None
            # Every chunk digest was verified against its bytes, and register()
            # pinned each chunk to its partition entry, so the root over them
            # stands for the whole buffer.
            chunk_digests = (monitor.chunks[i].digest for i in range(monitor.connection_count))
            ok = root_digest(chunk_digests) == monitor.payload_digest
            return None, self._end(monitor, None if ok else FailureKind.CORRUPT_PAYLOAD, "digest mismatch")
        except Exception as exc:  # noqa: BLE001 - reported in the transfer outcome
            return self.broke(state, exc)

    def filled(self, state: StreamState) -> None:
        """The driver filled ``state.slot``: hash it in and advance its chunk."""
        state.monitor.data(state.index, state.slot)
        state.slot = None

    def sent(self, state: StreamState) -> None:
        """The driver wrote ``state.receipt``: the stream is between sequences."""
        state.monitor = state.receipt = None

    def broke(self, state: StreamState, exc: Exception) -> tuple:
        """``state``'s stream raised ``exc``: it is aborted, and so fails the transfer it carries."""
        return "abort", self._end(state.monitor, _failure_kind(exc), str(exc))  # text: no traceback cycle

    def _end(self, monitor: _TransferMonitor | None, kind: FailureKind | None, detail) -> tuple | None:
        """End ``monitor``'s transfer; None when there is none, or it has ended already."""
        if monitor is None or monitor.finished:
            return None
        monitor.finished = True
        del self.monitors[monitor.transfer_id]
        self.finished_ids.append(monitor.transfer_id)
        carriers, monitor.carriers = list(monitor.carriers.values()), {}  # so no state and monitor refer to each other
        return monitor, kind, detail, carriers

    def settle(self, monitor: _TransferMonitor, kind: FailureKind | None, detail, now: float) -> ReceivedTransfer:
        """The completion of an ended transfer (a success when ``kind`` is None); its buffer becomes the spare."""
        if monitor.buffer is not None and not self.closed and _SOLE_REFCOUNT is not None:
            self.spare = monitor.buffer
        monitor.buffer = None  # so a finished monitor pins nothing
        return ReceivedTransfer(
            transfer_id=monitor.transfer_id,
            ok=kind is None,
            reason=None if kind is None else _reason(kind, detail),
            total_size=monitor.total_size,
            wall_time=now - monitor.started_at,
            per_connection=sorted(monitor.stats, key=lambda s: s.chunk_index),
            failure_kind=kind,
        )

    def close(self) -> None:
        """Keep no spare from now on."""
        self.closed = True
        self.spare = None

    def _allocate(self, size: int) -> bytearray:
        """A receive buffer of ``size`` bytes: the spare, if it has that size and no other holder, else a fresh one."""
        spare, self.spare = self.spare, None
        # Only ``spare`` refers to it: no sink kept it, and no worker of a
        # failed transfer still holds a slice of it.  (A spare exists only
        # where ``_SOLE_REFCOUNT`` is known.)
        if spare is not None and len(spare) == size and sys.getrefcount(spare) == _SOLE_REFCOUNT:
            return spare
        del spare  # freed before the fresh one is allocated, unless kept elsewhere
        return bytearray(size)


class Receiver:
    """An accept loop and one worker per accepted stream, driving one ``ReceiverCore``.

    A worker (``recv-conn``) serves one sequence after another on its stream, of any
    transfer, until it ends or idles out.  ``close()`` ends the accept loop (``recv-accept``)
    and aborts the streams between sequences; a worker busy with a chunk ends once that chunk
    is done.  A kept stream retired so just as its sender starts a transfer on it fails that
    transfer as ``CONNECTION``.  ``serve_one`` returns the next transfer to finish, of any id.
    The sink is called as ``sink(transfer_id, payload)`` with the receive buffer itself,
    which it may keep.  The last finished transfer's buffer stays, until the next transfer or
    ``close()``, as a spare for the next of its size, reused only when its reference count
    shows nothing else refers to it (see ``_sole_refcount``).  ``_lock`` keeps the core's
    calls from overlapping and guards ``_streams``.
    """

    def __init__(
        self,
        transport,
        sink=None,
        *,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        buffer_cap: int = DEFAULT_BUFFER_CAP,
    ):
        if not 0 < idle_timeout < math.inf:  # also False for nan
            raise ValueError(f"idle_timeout must be positive and finite, got {idle_timeout}")
        self._transport = transport
        self._sink = sink
        self._idle_timeout = idle_timeout
        self._core = ReceiverCore(buffer_cap)
        self._listener = transport.listen()
        self._lock = threading.Lock()
        self._streams: dict[StreamState, object] = {}  # each open stream, by its state at the core
        self._completions = transport.channel()
        self._acceptor = transport.spawn(self._accept_loop, name="recv-accept")

    def transfer_states(self) -> list[ReceiverState]:
        with self._lock:
            return [
                ReceiverState(m.transfer_id, m.connection_count, set(m.chunks), {s.chunk_index for s in m.stats})
                for m in self._core.monitors.values()
            ]

    def serve_one(self) -> ReceivedTransfer:
        return self._completions.get()

    def close(self) -> None:
        self._listener.close()
        with self._lock:
            self._core.close()
            waiting = [stream for state, stream in self._streams.items() if state.monitor is None]
        for stream in waiting:  # a sequence on one of the others ends once its chunk is done
            stream.abort()

    # -- internals --

    def _accept_loop(self):
        """Accept streams until the listener closes, each served by a worker of its own."""
        while True:
            try:
                stream = self._listener.accept()
            except (ConnectionError, OSError):
                return
            self._transport.spawn(partial(self._serve_stream, stream), name="recv-conn")

    def _serve_stream(self, stream):
        """Move bytes between ``stream`` and the core until the stream ends."""
        core, state, end = self._core, StreamState(), None
        frames = _frames(stream, self._idle_timeout)
        with self._lock:
            self._streams[state] = stream
        try:
            while end is None:
                try:
                    frame = None
                    if state.slot is not None:
                        with state.slot as view:  # released before a failure can free the buffer
                            if stream.read_into(view, self._idle_timeout) == len(view):  # else it ended mid-payload
                                core.filled(state)
                                continue
                    elif state.receipt is not None:
                        stream.write_all(state.receipt)
                        core.sent(state)
                        continue
                    elif state.monitor is None and core.closed:  # else close() aborts it from now on
                        raise ConnectionError("receiver closed")
                    else:
                        frame = next(frames, None)
                except Exception as exc:  # noqa: BLE001 - reported in the transfer outcome
                    end, ending, streams = self._decided(core.broke, state, exc)
                else:
                    end, ending, streams = self._decided(core.frame, state, frame, self._transport.now())
                if end == "abort":
                    stream.abort()  # also how a stream idle between sequences is retired
                elif end == "close":
                    stream.close()
                if ending is not None and not self._finish(ending, streams) and end is None:
                    stream.abort()  # so the sender fails on the receipt held for delivery
                    end = "abort"
        finally:
            with self._lock:
                del self._streams[state]

    def _decided(self, decide, *args) -> tuple:
        """A core call's ``(end, ending)``, and its carriers' streams, looked up under the same lock."""
        with self._lock:
            end, ending = decide(*args)
            return end, ending, [self._streams[carrier] for carrier in ending[3]] if ending else ()

    def _finish(self, ending: tuple, streams) -> bool:
        """Post an ending's completion, True on success: a verified payload goes to the sink, a
        failure aborts ``streams``, and a sink that raises fails the transfer as ``SINK``."""
        monitor, kind, detail, _ = ending
        if kind is None and self._sink is not None:
            try:
                self._sink(monitor.transfer_id, monitor.buffer)
            except Exception as exc:  # noqa: BLE001 - reported in the transfer outcome
                # Its text only: the traceback would keep the sink's frame, and the payload in it.
                kind, detail = FailureKind.SINK, str(exc)
        with self._lock:
            result = self._core.settle(monitor, kind, detail, self._transport.now())
        if kind is not None:
            for stream in streams:
                stream.abort()
        self._completions.put(result)
        return kind is None


def serve(transport, sink=None) -> ReceivedTransfer:
    """Serve a single transfer on ``transport`` and return its result."""
    receiver = Receiver(transport, sink)
    try:
        return receiver.serve_one()
    finally:
        receiver.close()
