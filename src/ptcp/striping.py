"""Sender and receiver sides of the parallel striped transfer.

Sender: split the payload into one chunk per connection, open the
connections, then pump every chunk concurrently, the calling thread
running chunk 0 — HELLO, DATA frames in order (head and payload in one
stream write each), FIN with the chunk digest.
After FIN each sender worker waits for the receiver's receipt (a FIN frame
echoing the digest the receiver computed) so corruption is observable end
to end, then hands the stream back to the transport.  The receiver holds
the last chunk's receipt until the payload is delivered, so receipts that
all verify mean delivered, not only arrived.  A TCP transport keeps the
stream and the worker, so a transfer over kept ones starts no thread.

Receiver: one accept loop starts a worker for each stream it accepts.  The
worker reads one sequence after another from its stream, of any transfer,
until the stream ends or idles out: HELLO, which registers the stream with
its transfer's monitor (the first valid HELLO sets up one buffer for the
whole payload), DATA frames, each head checked against the chunk before
its payload is read from the stream straight into its slice of the
buffer and hashed there, and FIN, which completes the chunk once that
digest verifies.  When the last chunk completes, the hash-list root over the
verified chunk digests is checked against HELLO's payload digest, the
buffer itself goes to the sink, and only then does that chunk's receipt go
out; if the check or the sink fails, its stream is aborted instead.  A
failure on any stream fails the whole transfer and aborts the streams of
its chunks not yet complete; there is no retry, and late streams of a
finished transfer are turned away.  A stream whose sequence does not open
with a valid HELLO names no transfer: it is aborted and reported nowhere.
One lock guards the receiver; a transfer it lists has not finished, and it
finishes exactly once.

A receiver keeps the buffer of its last finished transfer as a spare for
the next transfer of that size, unless something else still refers to it
(see ``Receiver``).

Every failed transfer carries a ``FailureKind`` next to its reason string,
and every reason, on either side, reads ``"{kind.value}: {detail}"``.
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
    manifest = TransferManifest.for_payload(payload, connection_count, transfer_id)
    t0 = transport.now()
    stats: list[ConnectionStat | None] = [None] * connection_count
    errors: list[tuple[FailureKind, Exception] | None] = [None] * connection_count

    streams = []
    for chunk in manifest.chunks:
        try:
            streams.append(transport.connect())
        except OSError as exc:
            errors[chunk.index] = (FailureKind.CONNECT, exc)
            for s in streams:
                s.abort()
            break

    def worker(index: int):
        chunk = manifest.chunks[index]
        stream = streams[index]
        body = memoryview(payload)[chunk.offset : chunk.offset + chunk.length]
        start = transport.now() - t0
        try:
            stream.write_all(encode_frame(manifest.hello(index)))
            for off in range(0, len(body), DATA_FRAME_BYTES):
                piece = body[off : off + DATA_FRAME_BYTES]
                stream.write_all(encode_frame(DataHead(chunk.index, off, len(piece))), piece)
            digest = manifest.chunk_digests[index]
            stream.write_all(encode_frame(Fin(chunk.index, digest)))
            _read_receipt(stream, chunk.index, digest)
            transport.release(stream)  # the transport may keep it for its next transfer
            stats[index] = ConnectionStat(chunk.index, len(body), start, transport.now() - t0)
        except Exception as exc:  # noqa: BLE001 - reported in the transfer outcome
            errors[index] = (_failure_kind(exc), exc)
            stream.abort()

    if len(streams) == connection_count:
        handles = [
            transport.spawn(lambda i=i: worker(i), name=f"send-{i}") for i in range(1, connection_count)
        ]
        worker(0)
        for h in handles:
            h.join()

    failing = next((i for i, e in enumerate(errors) if e is not None), None)
    kind, exc = (None, None) if failing is None else errors[failing]
    done = [s for s in stats if s is not None]
    return TransferReport(
        transfer_id=manifest.transfer_id,
        bytes_sent=sum(s.bytes for s in done),
        wall_time=transport.now() - t0,
        per_connection=done,
        ok=failing is None,
        failure_reason=None if kind is None else _reason(kind, exc),
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


def _read_receipt(stream, chunk_index: int, expected_digest: bytes) -> None:
    frame = next(_frames(stream, DEFAULT_IDLE_TIMEOUT), None)
    if frame is None:
        raise ConnectionError(f"stream closed before receipt for chunk {chunk_index}")
    if not isinstance(frame, Fin) or frame.chunk_index != chunk_index:
        raise ProtocolError(f"unexpected receipt frame {frame!r}")
    if frame.chunk_digest != expected_digest:
        raise _CorruptChunk(f"receiver digest mismatch on chunk {chunk_index}")


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

    register() and complete() run under the receiver's lock; slot() and
    data() need none (see there).  The receiver's ``_finish`` ends the transfer."""

    def __init__(self, hello: Hello, received_at: float):
        self.transfer_id = hello.transfer_id
        self.total_size = hello.total_size
        self.connection_count = hello.connection_count
        self.payload_digest = hello.payload_digest
        self.started_at = received_at
        self.chunks: dict[int, _Chunk] = {}
        self.streams: dict = {}  # chunk index -> stream of each chunk not yet complete
        self.buffer: bytearray | None = None  # whole payload; allocated by the first valid HELLO
        self.stats: list[ConnectionStat] = []  # one per completed chunk
        self.finished = False

    def register(self, hello: Hello, stream, now: float, buffer_cap: int, allocate) -> None:
        """Admit ``stream`` as the carrier of HELLO's chunk; the first
        admitted takes the transfer's buffer from ``allocate(total_size)``."""
        if (hello.total_size, hello.connection_count, hello.payload_digest) != (
            self.total_size,
            self.connection_count,
            self.payload_digest,
        ):
            raise ProtocolError(
                f"HELLO fields inconsistent across connections of transfer {self.transfer_id.hex()}"
            )
        if hello.chunk_index in self.chunks:
            raise ProtocolError(f"duplicate registration for chunk {hello.chunk_index}")
        if hello.chunk_index >= self.connection_count:
            raise ProtocolError(
                f"chunk index {hello.chunk_index} out of range for {self.connection_count} connections"
            )
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
        self.streams[hello.chunk_index] = stream

    # slot() and data() run on the chunk's own worker only (register() rejects a
    # second stream for a chunk), so its _Chunk and buffer slice need no lock.

    def slot(self, head: DataHead) -> memoryview:
        """The slice of the buffer ``head``'s payload fills, once the head is
        checked to start at the chunk's next byte and end within the chunk."""
        index = head.chunk_index
        chunk = self.chunks[index]
        if head.offset_in_chunk != chunk.filled:
            raise ProtocolError(f"chunk {index}: DATA offset {head.offset_in_chunk}, expected {chunk.filled}")
        if chunk.filled + head.length > chunk.length:
            raise ProtocolError(f"chunk {index} overflows its declared length")
        buffer = self.buffer
        if buffer is None:  # _finish took it: the transfer failed since the head was read
            raise ConnectionError(f"transfer {self.transfer_id.hex()} has finished")
        start = chunk.offset + chunk.filled
        return memoryview(buffer)[start : start + head.length]

    def data(self, head: DataHead, payload: memoryview) -> None:
        """Take in a payload read into its ``slot``: hash it and advance."""
        chunk = self.chunks[head.chunk_index]
        chunk.hasher.update(payload)
        chunk.filled += head.length

    def complete(self, frame: Fin, now: float) -> bool:
        """Verify and mark one chunk done; True when this was the last chunk."""
        index = frame.chunk_index
        chunk = self.chunks[index]
        if chunk.filled != chunk.length:
            raise ProtocolError(f"chunk {index} FIN after {chunk.filled} of {chunk.length} bytes")
        if chunk.hasher.digest() != frame.chunk_digest:
            raise _CorruptChunk(f"chunk {index} digest mismatch")
        chunk.digest = frame.chunk_digest
        del self.streams[index]  # it may carry another transfer next, so a failure spares it
        self.stats.append(ConnectionStat(index, chunk.length, chunk.started, now - self.started_at))
        return len(self.stats) == self.connection_count


def _sole_refcount() -> int | None:
    """What ``sys.getrefcount(spare)`` reads when a local ``spare`` is the
    only reference, read in the same way as ``Receiver._buffer_locked``
    reads it: the figure differs between interpreter versions.  None where
    the count cannot show every holder: no ``sys.getrefcount`` (PyPy), or
    no GIL (a free-threaded build)."""
    if not hasattr(sys, "getrefcount") or not getattr(sys, "_is_gil_enabled", lambda: True)():
        return None
    spare = bytearray(0)
    alone = sys.getrefcount(spare)
    held = [spare]  # one more holder must read as one more
    more = sys.getrefcount(spare)
    del held
    return alone if more == alone + 1 else None


_SOLE_REFCOUNT = _sole_refcount()  # None: a receiver never reuses a buffer


class Receiver:
    """An accept loop and one worker per open stream, feeding per-transfer monitors.

    The accept loop (``recv-accept``) starts a worker (``recv-conn``) for
    each stream it accepts.  The worker serves one chunk after another on
    its stream and returns when the stream ends.  ``close()`` ends the
    accept loop and aborts the streams waiting for a HELLO; a worker busy
    with a chunk ends once that chunk is done.  A kept stream retired here
    (idle timeout, ``close()``) just as its sender starts a transfer on it
    fails that transfer as ``FailureKind.CONNECTION``, like any broken stream.

    Supports concurrent transfers with distinct transfer ids on one
    listener.  ``serve_one`` blocks until the next transfer finishes
    (success or failure) and returns its result.  A transfer succeeds when
    every chunk's bytes match its FIN digest and the hash-list root over
    those digests (``wire.root_digest``) matches HELLO's payload digest;
    the payload is never hashed as a whole.  On success the sink is
    called as ``sink(transfer_id, payload)`` with the receive buffer itself,
    a ``bytearray`` the sink may keep; it is not copied into ``bytes``.  A
    failure aborts every stream of its transfer; a stream that does not open
    with a valid HELLO is aborted, and ``serve_one`` never sees it.

    The buffer of the last finished transfer, successful or failed, stays
    as a spare.  The next transfer of the same ``total_size`` fills it
    instead of a fresh one, but only when nothing else refers to it (its
    reference count), so a buffer the sink kept, itself or through a
    ``memoryview``, is never written again.  Only that traffic gains: a
    sink that keeps each payload, or sizes that change, allocate as before.
    The cost: an idle receiver holds that buffer, at most ``buffer_cap``
    bytes, until its next transfer or ``close()``, and a transfer that
    overlaps it runs next to it.  Where reference counts cannot show every
    holder the receiver keeps no spare (see ``_sole_refcount``).

    A failed transfer's ``failure_kind`` says why: ``CONNECTION``,
    ``PROTOCOL``, ``STALLED``, ``CORRUPT_CHUNK``, ``CORRUPT_PAYLOAD``, or
    ``SINK`` when the sink raised.  The last chunk's receipt is written only
    once the sink has returned, so on a ``CORRUPT_PAYLOAD`` or ``SINK``
    failure its stream is aborted and the sender fails on that chunk.

    One lock, ``_lock``, guards the receiver, its monitors and the spare.
    ``_monitors`` lists a transfer from its first HELLO until ``_finish``
    marks it finished, in one critical section, so a listed transfer has not
    finished.
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
        self._buffer_cap = buffer_cap
        self._listener = transport.listen()
        self._lock = threading.Lock()
        self._monitors: dict[bytes, _TransferMonitor] = {}  # the transfers not yet finished
        self._finished_ids: deque[bytes] = deque(maxlen=FINISHED_IDS_KEPT)
        self._completions = transport.channel()
        self._waiting: set = set()  # streams waiting for a HELLO
        self._spare: bytearray | None = None  # the last finished transfer's buffer
        self._closed = False
        self._acceptor = transport.spawn(self._accept_loop, name="recv-accept")

    def transfer_states(self) -> list[ReceiverState]:
        with self._lock:
            return [
                ReceiverState(m.transfer_id, m.connection_count, set(m.chunks), {s.chunk_index for s in m.stats})
                for m in self._monitors.values()
            ]

    def serve_one(self) -> ReceivedTransfer:
        return self._completions.get()

    def close(self) -> None:
        self._listener.close()
        with self._lock:
            self._closed = True
            self._spare = None
            waiting = list(self._waiting)
        for stream in waiting:
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
        """Serve one sequence after another on ``stream`` until it ends."""
        frames = _frames(stream, self._idle_timeout)
        while self._serve_chunk(stream, frames):
            pass

    def _serve_chunk(self, stream, frames) -> bool:
        """One sequence on ``stream``: HELLO, DATA frames in order, FIN,
        receipt.  True when the stream may carry another."""
        monitor: _TransferMonitor | None = None
        try:
            with self._lock:
                if self._closed:
                    raise ConnectionError("receiver closed")
                self._waiting.add(stream)  # close() aborts it until HELLO comes
            try:
                hello = next(frames, None)
            finally:
                with self._lock:
                    self._waiting.discard(stream)
            if hello is None:
                stream.close()  # the sender ended it between sequences
                return False
            now = self._transport.now()
            with self._lock:
                if isinstance(hello, Hello) and hello.transfer_id not in self._finished_ids:
                    monitor = self._monitors.get(hello.transfer_id)
                    if monitor is None:
                        monitor = self._monitors[hello.transfer_id] = _TransferMonitor(hello, now)
                    monitor.register(hello, stream, now, self._buffer_cap, self._buffer_locked)
            if monitor is None:
                stream.abort()  # no valid HELLO, or its transfer has finished
                return False
            index = hello.chunk_index
            for frame in frames:
                if monitor.finished:
                    return False  # the transfer failed and aborted this stream
                if isinstance(frame, Hello):
                    raise ProtocolError("second HELLO within one chunk")
                if frame.chunk_index != index:
                    raise ProtocolError(
                        f"{frame.kind.name} for chunk {frame.chunk_index} on the chunk-{index} stream"
                    )
                if isinstance(frame, DataHead):
                    with monitor.slot(frame) as view:  # checked before a byte is read
                        if stream.read_into(view, self._idle_timeout) < len(view):
                            break  # the stream ended mid-payload
                        monitor.data(frame, view)
                    continue
                with self._lock:
                    last = monitor.complete(frame, self._transport.now())
                if last:
                    # Every chunk digest was verified against its bytes, and
                    # register() pinned each chunk to its partition entry, so
                    # the root over them stands for the whole buffer.
                    chunk_digests = (monitor.chunks[i].digest for i in range(monitor.connection_count))
                    ok = root_digest(chunk_digests) == monitor.payload_digest
                    if not self._finish(monitor, None if ok else FailureKind.CORRUPT_PAYLOAD, "digest mismatch"):
                        stream.abort()  # so the sender fails on the receipt held for delivery
                        return False
                # complete() verified this digest against the buffered chunk.
                stream.write_all(encode_frame(Fin(index, frame.chunk_digest)))
                return True
            raise ProtocolError(f"stream for chunk {index} ended before FIN")
        except Exception as exc:  # noqa: BLE001 - reported in the transfer outcome
            stream.abort()  # also how a stream idle between sequences is retired
            if monitor is not None:
                self._finish(monitor, _failure_kind(exc), exc)
            return False

    def _finish(self, monitor: _TransferMonitor, kind: FailureKind | None, detail) -> bool:
        """Post the transfer's one completion; True when it succeeded.  With
        ``kind`` None the sink takes the payload first, and a sink that
        raises fails the transfer as ``FailureKind.SINK``.  A failure aborts
        the streams of its chunks not yet complete.  Later calls for the
        transfer do nothing and return False."""
        with self._lock:
            if monitor.finished:
                return False
            monitor.finished = True
            del self._monitors[monitor.transfer_id]
            self._finished_ids.append(monitor.transfer_id)
            streams = list(monitor.streams.values())
        if kind is None and self._sink is not None:
            try:
                self._sink(monitor.transfer_id, monitor.buffer)
            except Exception as exc:  # noqa: BLE001 - reported in the transfer outcome
                # Its text only: the traceback would keep the sink's frame, and the payload in it.
                kind, detail = FailureKind.SINK, str(exc)
        with self._lock:
            if monitor.buffer is not None and not self._closed and _SOLE_REFCOUNT is not None:
                self._spare = monitor.buffer
            monitor.buffer = None  # so a finished monitor pins nothing
        if kind is not None:
            for stream in streams:
                stream.abort()
        self._completions.put(
            ReceivedTransfer(
                transfer_id=monitor.transfer_id,
                ok=kind is None,
                reason=None if kind is None else _reason(kind, detail),
                total_size=monitor.total_size,
                wall_time=self._transport.now() - monitor.started_at,
                per_connection=sorted(monitor.stats, key=lambda s: s.chunk_index),
                failure_kind=kind,
            )
        )
        return kind is None

    def _buffer_locked(self, size: int) -> bytearray:
        """A receive buffer of ``size`` bytes: the spare, if it has that size
        and nothing else refers to it, else a fresh one.  Runs under ``_lock``."""
        spare, self._spare = self._spare, None
        # Only ``spare`` refers to it: no sink kept it, and no worker of a
        # failed transfer still holds a slice of it.  (A spare exists only
        # where ``_SOLE_REFCOUNT`` is known.)
        if spare is not None and len(spare) == size and sys.getrefcount(spare) == _SOLE_REFCOUNT:
            return spare
        del spare  # freed before the fresh one is allocated, unless kept elsewhere
        return bytearray(size)


def serve(transport, sink=None) -> ReceivedTransfer:
    """Serve a single transfer on ``transport`` and return its result."""
    receiver = Receiver(transport, sink)
    try:
        return receiver.serve_one()
    finally:
        receiver.close()
