"""Sender and receiver sides of the parallel striped transfer.

Sender: split the payload into one chunk per connection, open the
connections, then pump every chunk concurrently — HELLO, DATA frames in
order, FIN with the chunk digest.  After FIN each sender worker waits for
the receiver's receipt (a FIN frame echoing the digest the receiver
computed) so corruption is observable end to end.

Receiver: an accept loop hands each new stream to a connection worker.
Workers register with the per-transfer monitor on HELLO; the first valid
HELLO allocates one buffer for the whole payload.  Each DATA frame is
written in place at its chunk's offset and fed to that chunk's running
digest, and FIN completes the chunk once that digest verifies.  When the
last chunk completes, the payload digest is verified over the buffer and
the buffer itself goes to the sink.  A failure on any connection fails the
whole transfer; there is no retry, and late streams of a failed transfer
are dropped.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque
from dataclasses import dataclass

from .wire import (
    Data,
    Fin,
    FrameDecoder,
    Hello,
    ProtocolError,
    TransferManifest,
    chunk_assignment,
    encode_frame,
    sha256,
)

DEFAULT_DATA_FRAME_BYTES = 64 * 1024
DEFAULT_IDLE_TIMEOUT = 30.0
DEFAULT_BUFFER_CAP = 256 * 1024 * 1024
FINISHED_IDS_KEPT = 64  # finished transfer ids remembered to turn away late streams


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


def send_transfer(
    payload: bytes,
    transport,
    connection_count: int,
    *,
    data_frame_bytes: int = DEFAULT_DATA_FRAME_BYTES,
    transfer_id: bytes | None = None,
    receipt_timeout: float = DEFAULT_IDLE_TIMEOUT,
) -> TransferReport:
    """Send ``payload`` over ``connection_count`` concurrent streams.

    Returns a report rather than raising on transfer failure; a stream that
    fails to open or breaks mid-chunk fails the transfer with that chunk's
    index.
    """
    if connection_count < 1:
        raise ValueError(f"connection_count must be >= 1, got {connection_count}")
    manifest = TransferManifest.for_payload(payload, connection_count, transfer_id)
    t0 = transport.now()

    streams = []
    for chunk in manifest.chunks:
        try:
            streams.append(transport.connect())
        except OSError as exc:
            for s in streams:
                s.abort()
            return TransferReport(
                transfer_id=manifest.transfer_id,
                bytes_sent=0,
                wall_time=transport.now() - t0,
                per_connection=[],
                ok=False,
                failure_reason=f"connect failed: {exc}",
                failing_chunk=chunk.index,
            )

    stats: list[ConnectionStat | None] = [None] * connection_count
    errors: list[tuple[int, str] | None] = [None] * connection_count

    def worker(index: int):
        chunk = manifest.chunks[index]
        stream = streams[index]
        body = memoryview(payload)[chunk.offset : chunk.offset + chunk.length]
        start = transport.now() - t0
        try:
            stream.write_all(
                encode_frame(
                    Hello(
                        transfer_id=manifest.transfer_id,
                        total_size=manifest.total_size,
                        connection_count=connection_count,
                        chunk_index=chunk.index,
                        chunk_offset=chunk.offset,
                        chunk_length=chunk.length,
                        payload_digest=manifest.payload_digest,
                    )
                )
            )
            for off in range(0, len(body), data_frame_bytes):
                piece = body[off : off + data_frame_bytes]
                stream.write_all(encode_frame(Data(chunk.index, off, piece)))
            digest = sha256(body)
            stream.write_all(encode_frame(Fin(chunk.index, digest)))
            _read_receipt(stream, chunk.index, digest, receipt_timeout)
            stream.close()
            stats[index] = ConnectionStat(chunk.index, len(body), start, transport.now() - t0)
        except Exception as exc:  # noqa: BLE001 - reported in the transfer outcome
            errors[index] = (index, f"{type(exc).__name__}: {exc}")
            stream.abort()

    handles = [transport.spawn(lambda i=i: worker(i), name=f"send-{i}") for i in range(connection_count)]
    for h in handles:
        h.join()

    failures = [e for e in errors if e is not None]
    if failures:
        failing_chunk, reason = failures[0]
        return TransferReport(
            transfer_id=manifest.transfer_id,
            bytes_sent=sum(s.bytes for s in stats if s is not None),
            wall_time=transport.now() - t0,
            per_connection=[s for s in stats if s is not None],
            ok=False,
            failure_reason=reason,
            failing_chunk=failing_chunk,
        )
    return TransferReport(
        transfer_id=manifest.transfer_id,
        bytes_sent=manifest.total_size,
        wall_time=transport.now() - t0,
        per_connection=[s for s in stats if s is not None],
        ok=True,
    )


def _read_receipt(stream, chunk_index: int, expected_digest: bytes, timeout: float) -> None:
    decoder = FrameDecoder()
    while True:
        data = stream.read_some(timeout=timeout)
        if data == b"":
            raise ConnectionError(f"stream closed before receipt for chunk {chunk_index}")
        for frame in decoder.feed(data):
            if not isinstance(frame, Fin) or frame.chunk_index != chunk_index:
                raise ProtocolError(f"unexpected receipt frame {frame!r}")
            if frame.chunk_digest != expected_digest:
                raise ConnectionError(f"receiver digest mismatch on chunk {chunk_index}")
            return


# ---------------------------------------------------------------------------
# Receiver side
# ---------------------------------------------------------------------------


@dataclass
class ReceiverState:
    """Snapshot of one transfer's progress at the monitor."""

    transfer_id: bytes
    connection_count: int
    registered: set[int]
    completed: set[int]
    failed: str | None


@dataclass
class ReceivedTransfer:
    transfer_id: bytes | None
    ok: bool
    reason: str | None
    total_size: int
    wall_time: float
    per_connection: list[ConnectionStat]
    timeline: list[tuple[float, int, int]]  # (time, chunk_index, bytes)


class _TransferMonitor:
    """Completion tracker for one transfer: register / data / complete / fail."""

    def __init__(self, hello: Hello, received_at: float, buffer_cap: int):
        self.transfer_id = hello.transfer_id
        self.total_size = hello.total_size
        self.connection_count = hello.connection_count
        self.payload_digest = hello.payload_digest
        self.buffer_cap = buffer_cap
        self.started_at = received_at
        self.lock = threading.Lock()
        self.registered: set[int] = set()
        self.completed: set[int] = set()
        self.buffer: bytearray | None = None  # whole payload; allocated by the first valid HELLO
        self.chunk_meta: dict[int, tuple[int, int]] = {}  # index -> (offset, length)
        # Per chunk: bytes written so far and the running digest of them.
        self.filled: dict[int, int] = {}
        self.hashers: dict[int, hashlib._Hash] = {}
        self.stats: list[ConnectionStat] = []
        self.timeline: list[tuple[float, int, int]] = []
        self.failed: str | None = None
        self.finalized = False

    def consistent_with(self, hello: Hello) -> bool:
        return (
            hello.total_size == self.total_size
            and hello.connection_count == self.connection_count
            and hello.payload_digest == self.payload_digest
        )

    def register(self, hello: Hello) -> None:
        with self.lock:
            if not self.consistent_with(hello):
                raise ProtocolError(
                    f"HELLO fields inconsistent across connections of transfer {self.transfer_id.hex()}"
                )
            if hello.chunk_index in self.registered:
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
            if self.total_size > self.buffer_cap:
                raise ProtocolError(
                    f"transfer of {self.total_size} bytes exceeds receiver buffer cap {self.buffer_cap}"
                )
            if self.buffer is None:
                self.buffer = bytearray(self.total_size)
            self.registered.add(hello.chunk_index)
            self.chunk_meta[hello.chunk_index] = (hello.chunk_offset, hello.chunk_length)
            self.filled[hello.chunk_index] = 0
            self.hashers[hello.chunk_index] = hashlib.sha256()

    # data() and complete() run on the chunk's own worker only (register()
    # rejects a second stream for a chunk), so its slice of the buffer, fill
    # count and digest need no lock.

    def data(self, frame: Data, now: float) -> None:
        index, size = frame.chunk_index, len(frame.payload)
        offset, length = self.chunk_meta[index]
        filled = self.filled[index]
        if frame.offset_in_chunk != filled:
            raise ProtocolError(f"chunk {index}: DATA offset {frame.offset_in_chunk}, expected {filled}")
        if filled + size > length:
            raise ProtocolError(f"chunk {index} overflows its declared length")
        self.buffer[offset + filled : offset + filled + size] = frame.payload
        self.hashers[index].update(frame.payload)
        self.filled[index] = filled + size
        with self.lock:
            self.timeline.append((now, index, size))

    def complete(self, frame: Fin, started: float, now: float) -> bool:
        """Verify and mark one chunk done; True when this was the last chunk."""
        index = frame.chunk_index
        _, length = self.chunk_meta[index]
        if self.filled[index] != length:
            raise ProtocolError(f"chunk {index} FIN after {self.filled[index]} of {length} bytes")
        if self.hashers[index].digest() != frame.chunk_digest:
            raise _CorruptChunk(index)
        with self.lock:
            self.completed.add(index)
            self.stats.append(ConnectionStat(index, length, started, now))
            return len(self.completed) == self.connection_count

    def fail(self, reason: str) -> bool:
        """Record the first failure; True if this call was it."""
        with self.lock:
            first = self.failed is None
            if first:
                self.failed = reason
            return first

    def result(self, reason: str | None, now: float) -> ReceivedTransfer:
        return ReceivedTransfer(
            transfer_id=self.transfer_id,
            ok=reason is None,
            reason=reason,
            total_size=self.total_size,
            wall_time=now - self.started_at,
            per_connection=sorted(self.stats, key=lambda s: s.chunk_index),
            timeline=list(self.timeline),
        )

    def snapshot(self) -> ReceiverState:
        with self.lock:
            return ReceiverState(
                transfer_id=self.transfer_id,
                connection_count=self.connection_count,
                registered=set(self.registered),
                completed=set(self.completed),
                failed=self.failed,
            )


class _CorruptChunk(Exception):
    def __init__(self, chunk_index: int):
        super().__init__(f"chunk {chunk_index} digest mismatch")
        self.chunk_index = chunk_index


class Receiver:
    """Accept loop plus per-connection workers feeding per-transfer monitors.

    Supports concurrent transfers with distinct transfer ids on one
    listener.  ``serve_one`` blocks until the next transfer finalizes
    (success or failure) and returns its result.  On success the sink is
    called as ``sink(transfer_id, payload)`` with the receive buffer itself,
    a ``bytearray`` the sink may keep; it is not copied into ``bytes``.
    """

    def __init__(
        self,
        transport,
        sink=None,
        *,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        buffer_cap: int = DEFAULT_BUFFER_CAP,
    ):
        self._transport = transport
        self._sink = sink
        self._idle_timeout = idle_timeout
        self._buffer_cap = buffer_cap
        self._listener = transport.listen()
        self._monitors: dict[bytes, _TransferMonitor] = {}
        self._monitors_lock = threading.Lock()
        self._finished_ids: deque[bytes] = deque(maxlen=FINISHED_IDS_KEPT)
        self._completions = transport.channel()
        self._acceptor = transport.spawn(self._accept_loop, name="recv-accept")

    @property
    def listener(self):
        return self._listener

    def transfer_states(self) -> list[ReceiverState]:
        with self._monitors_lock:
            monitors = list(self._monitors.values())
        return [m.snapshot() for m in monitors]

    def serve_one(self) -> ReceivedTransfer:
        return self._completions.get()

    def close(self) -> None:
        self._listener.close()

    # -- internals --

    def _accept_loop(self):
        while True:
            try:
                stream = self._listener.accept()
            except (ConnectionError, OSError):
                return
            self._transport.spawn(lambda s=stream: self._connection_worker(s), name="recv-conn")

    def _monitor_for(self, hello: Hello, now: float) -> _TransferMonitor | None:
        """The transfer's monitor, made on its first HELLO; None once it
        finished, whether it failed or succeeded."""
        with self._monitors_lock:
            if hello.transfer_id in self._finished_ids:
                return None
            monitor = self._monitors.get(hello.transfer_id)
            if monitor is None:
                monitor = _TransferMonitor(hello, now, self._buffer_cap)
                self._monitors[hello.transfer_id] = monitor
            return monitor

    def _connection_worker(self, stream):
        decoder = FrameDecoder()
        monitor: _TransferMonitor | None = None
        chunk_index: int | None = None
        started = 0.0
        try:
            eof = False
            while not eof:
                data = stream.read_some(timeout=self._idle_timeout)
                if data == b"":
                    eof = True
                for frame in decoder.feed(data):
                    if monitor is not None and monitor.failed is not None:
                        stream.abort()
                        return
                    if isinstance(frame, Hello):
                        if monitor is not None:
                            raise ProtocolError("second HELLO on one stream")
                        started = self._transport.now()
                        monitor = self._monitor_for(frame, started)
                        if monitor is None:
                            stream.abort()
                            return
                        chunk_index = frame.chunk_index
                        monitor.register(frame)
                    elif isinstance(frame, Data):
                        if monitor is None:
                            raise ProtocolError("DATA before HELLO on stream")
                        if frame.chunk_index != chunk_index:
                            raise ProtocolError(
                                f"DATA for chunk {frame.chunk_index} on the chunk-{chunk_index} stream"
                            )
                        monitor.data(frame, self._transport.now() - monitor.started_at)
                    elif isinstance(frame, Fin):
                        if monitor is None:
                            raise ProtocolError("FIN before HELLO on stream")
                        if frame.chunk_index != chunk_index:
                            raise ProtocolError(
                                f"FIN for chunk {frame.chunk_index} on the chunk-{chunk_index} stream"
                            )
                        now = self._transport.now()
                        last = monitor.complete(
                            frame, started - monitor.started_at, now - monitor.started_at
                        )
                        # complete() verified this digest against the buffered chunk.
                        stream.write_all(encode_frame(Fin(chunk_index, frame.chunk_digest)))
                        stream.close()
                        if last:
                            self._finalize(monitor)
                        return
            if monitor is None or chunk_index is None:
                raise ProtocolError("stream ended before HELLO")
            raise ProtocolError(f"stream for chunk {chunk_index} ended before FIN")
        except _CorruptChunk as exc:
            self._fail_transfer(monitor, f"corrupt-chunk: {exc.chunk_index}")
            stream.abort()
        except ProtocolError as exc:
            self._fail_transfer(monitor, f"protocol-error: {exc}")
            stream.abort()
        except TimeoutError:
            self._fail_transfer(monitor, "stalled: idle timeout")
            stream.abort()
        except (ConnectionError, OSError) as exc:
            self._fail_transfer(monitor, f"connection failed: {exc}")
            stream.abort()

    def _fail_transfer(self, monitor: _TransferMonitor | None, reason: str) -> None:
        if monitor is None:
            # Stream-level failure with no registered transfer.
            self._completions.put(
                ReceivedTransfer(None, False, reason, 0, 0.0, [], [])
            )
            return
        if monitor.fail(reason):
            with self._monitors_lock:
                self._monitors.pop(monitor.transfer_id, None)
                self._finished_ids.append(monitor.transfer_id)
            self._completions.put(monitor.result(reason, self._transport.now()))

    def _finalize(self, monitor: _TransferMonitor) -> None:
        if monitor.finalized:
            return
        monitor.finalized = True
        if sha256(monitor.buffer) != monitor.payload_digest:
            self._fail_transfer(monitor, "corrupt-payload: digest mismatch")
            return
        with self._monitors_lock:
            self._monitors.pop(monitor.transfer_id, None)
            self._finished_ids.append(monitor.transfer_id)
        if self._sink is not None:
            self._sink(monitor.transfer_id, monitor.buffer)
        self._completions.put(monitor.result(None, self._transport.now()))


def serve(transport, sink=None, **options) -> ReceivedTransfer:
    """Serve a single transfer on ``transport`` and return its result."""
    receiver = Receiver(transport, sink, **options)
    try:
        return receiver.serve_one()
    finally:
        receiver.close()
