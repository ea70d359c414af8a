"""End-to-end striped transfers plus the failure paths of the receiver."""

import gc
import hashlib
import random
import struct
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ptcp import striping
from ptcp.striping import DEFAULT_IDLE_TIMEOUT, FailureKind, Receiver, send_transfer, serve
from ptcp.transport import TcpTransport
from ptcp.wire import (
    MAX_DATA_PAYLOAD,
    Data,
    DataHead,
    Fin,
    FrameDecoder,
    TransferManifest,
    decode_frames,
    encode_frame,
    sha256,
)

from conftest import run_on_sim, wait_until


def collect_sink(store):
    def sink(transfer_id, payload):
        store[transfer_id] = payload

    return sink


def _sim_transfer(payload, connections, idle_timeout=DEFAULT_IDLE_TIMEOUT):
    """Send ``payload`` over ``connections`` simulated streams to a fresh
    receiver; returns the sender's report, the receiver's result and the
    payloads the sink stored."""
    store = {}

    def run(transport):
        receiver = Receiver(transport, collect_sink(store), idle_timeout=idle_timeout)
        report = send_transfer(payload, transport, connections)
        result = receiver.serve_one()
        receiver.close()
        return report, result

    [(report, result)] = run_on_sim(run)
    return report, result, store


def test_roundtrip_sim_four_connections():
    payload = random.Random(41).randbytes(1024 * 1024)
    report, result, store = _sim_transfer(payload, 4)

    assert report.ok, report.failure_reason
    assert result.ok, result.reason
    assert store[report.transfer_id] == payload
    assert report.bytes_sent == len(payload)
    assert result.total_size == len(payload)
    assert sorted(s.chunk_index for s in report.per_connection) == [0, 1, 2, 3]
    assert sum(s.bytes for s in report.per_connection) == len(payload)
    assert sorted(s.chunk_index for s in result.per_connection) == [0, 1, 2, 3]
    assert result.wall_time >= 0.0


def test_zero_byte_payload():
    report, result, store = _sim_transfer(b"", 2)
    assert report.ok and result.ok
    assert store[report.transfer_id] == b""


def test_single_connection_baseline():
    payload = random.Random(7).randbytes(200_000)
    with mock.patch.object(striping, "DATA_FRAME_BYTES", 8192):
        report, result, store = _sim_transfer(payload, 1)
    assert report.ok and result.ok
    assert store[report.transfer_id] == payload
    assert len(report.per_connection) == 1
    assert report.per_connection[0].bytes == len(payload)


def test_completion_order_does_not_matter():
    # Finish the higher-indexed chunk first; assembly must still be in
    # index order.
    payload = b"A" * 10 + b"B" * 10
    manifest = TransferManifest.for_payload(payload, 2)

    def run(transport):
        store = {}
        receiver = Receiver(transport, collect_sink(store))

        s0 = transport.connect()
        s1 = transport.connect()
        for stream, chunk in ((s0, manifest.chunks[0]), (s1, manifest.chunks[1])):
            body = payload[chunk.offset : chunk.offset + chunk.length]
            stream.write_all(encode_frame(manifest.hello(chunk.index)))
            stream.write_all(encode_frame(Data(chunk.index, 0, body)))
        # FIN chunk 1 first, wait for its receipt, then FIN chunk 0.
        s1.write_all(encode_frame(Fin(1, sha256(b"B" * 10))))
        assert s1.read_some(timeout=5.0) != b""
        s0.write_all(encode_frame(Fin(0, sha256(b"A" * 10))))

        result = receiver.serve_one()
        receiver.close()
        assert result.ok, result.reason
        assert store[manifest.transfer_id] == payload

    run_on_sim(run)


def test_duplicate_chunk_index_fails_transfer():
    payload = b"x" * 100
    manifest = TransferManifest.for_payload(payload, 2)

    def run(transport):
        receiver = Receiver(transport)

        s0 = transport.connect()
        s1 = transport.connect()
        s0.write_all(encode_frame(manifest.hello(0)))
        # Second stream claims chunk 0 as well.
        s1.write_all(encode_frame(manifest.hello(0)))

        result = receiver.serve_one()
        receiver.close()
        assert not result.ok
        assert "duplicate" in result.reason

    run_on_sim(run)


def test_stream_without_hello_completes_nothing():
    # A stream that opens with DATA names no transfer: it is aborted, and the
    # next completion is the next real transfer, not an anonymous failure.
    def run(transport):
        receiver = Receiver(transport)
        stray = transport.connect()
        stray.write_all(encode_frame(Data(0, 0, b"orphan")))
        assert stray.read_some(timeout=5.0) == b""
        report = send_transfer(b"real" * 100, transport, 2)
        result = receiver.serve_one()
        receiver.close()
        assert report.ok and result.ok, result.reason
        assert result.transfer_id == report.transfer_id

    run_on_sim(run)


@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_failure_ends_every_stream_of_the_transfer(backend):
    # The chunk-1 stream sends its HELLO and goes quiet; then chunk 0 fails
    # with a short FIN.  The failure must end the quiet stream at once, not at
    # the 30 s idle timeout, and with it the stream's worker.
    manifest = TransferManifest.for_payload(b"Q" * 1000, 2)

    def run(transport, hub=None):
        receiver = Receiver(transport, idle_timeout=30.0)
        quiet = transport.connect()
        failing = transport.connect()
        try:
            quiet.write_all(encode_frame(manifest.hello(1)))
            assert wait_until(lambda: [s.registered for s in receiver.transfer_states()] == [{1}], hub=hub)
            failing.write_all(encode_frame(manifest.hello(0)))
            failing.write_all(encode_frame(Fin(0, sha256(b""))))
            result = receiver.serve_one()
            assert result.failure_kind is FailureKind.PROTOCOL
            assert "FIN after 0 of 500" in result.reason
            assert quiet.read_some(timeout=1.0) == b""
            assert wait_until(lambda: _live_workers(hub) == 0, 1.0, hub)
        finally:
            quiet.abort()
            failing.abort()
            receiver.close()

    if backend == "sim":
        run_on_sim(lambda transport: run(transport, transport._hub))
    else:
        transport = TcpTransport("127.0.0.1", 0)
        try:
            run(transport)
        finally:
            transport.close()


def _live_workers(hub=None) -> int:
    """The receiver's stream workers still running: threads, or ``hub``'s tasks."""
    if hub is not None:
        return sum(task.name == "recv-conn" and not task.finished for task in hub._tasks)
    return sum(t.name == "recv-conn" for t in threading.enumerate())


def _recv_threads() -> list[str]:
    return sorted(t.name for t in threading.enumerate() if t.name.startswith("recv-"))


@pytest.mark.parametrize("connections", [1, 3])
def test_transfers_start_threads_only_at_the_sender(connections):
    # The first transfer opens the connections: the receiver starts a worker
    # per stream, next to its accept loop, and the sender one per chunk beyond
    # chunk 0, which it parks with the stream it keeps.  Transfers over the
    # kept connections run on those threads and start none on either side.
    recv_transport = TcpTransport("127.0.0.1", 0)
    receiver = Receiver(recv_transport)
    sender = TcpTransport("127.0.0.1", recv_transport.port)
    spawned, ran_on = [], []

    def recording(transport):
        spawn = transport.spawn

        def recording_spawn(fn, name):
            spawned.append(name)

            def recorded():
                ran_on.append(threading.current_thread())
                fn()

            return spawn(recorded, name)

        transport.spawn = recording_spawn

    recording(recv_transport)
    recording(sender)
    try:
        for i in range(3):
            spawned.clear()
            ran_on.clear()
            alive = set(threading.enumerate())
            report = send_transfer(bytes([i]) * 30_000, sender, connections)
            result = receiver.serve_one()
            assert report.ok and result.ok, (report.failure_reason, result.reason)
            senders = [f"send-{k}" for k in range(1, connections)]
            if i == 0:
                assert sorted(spawned) == ["recv-conn"] * connections + senders
            else:
                assert spawned == senders  # each handed to a parked worker
                assert set(ran_on) <= alive
            assert _recv_threads() == ["recv-accept"] + ["recv-conn"] * connections
    finally:
        sender.close()  # aborts the kept streams, so their workers end
        receiver.close()
    assert wait_until(lambda: not _recv_threads(), 2.0), _recv_threads()


def test_inconsistent_hello_fails_transfer():
    payload = b"y" * 64
    manifest = TransferManifest.for_payload(payload, 2)

    def run(transport):
        receiver = Receiver(transport)

        s0 = transport.connect()
        s1 = transport.connect()
        s0.write_all(encode_frame(manifest.hello(0)))
        assert wait_until(receiver.transfer_states, hub=transport._hub)  # the good HELLO makes the monitor
        bad = replace(manifest.hello(1), total_size=manifest.total_size + 1)  # disagrees with the first HELLO
        s1.write_all(encode_frame(bad))
        result = receiver.serve_one()
        receiver.close()
        assert not result.ok
        assert "inconsistent" in result.reason

    run_on_sim(run)


def test_corrupt_chunk_detected_end_to_end():
    # The wire flips bytes: DATA carries garbage while FIN still carries the
    # digest of the original body.  The receiver must reject the chunk and
    # never send a receipt, so the raw sender sees the stream drop.
    payload = b"real payload bytes" * 10
    manifest = TransferManifest.for_payload(payload, 1)
    body = payload

    def run(transport):
        receiver = Receiver(transport)
        stream = transport.connect()
        stream.write_all(encode_frame(manifest.hello(0)))
        corrupted = bytes(b ^ 0xFF for b in body)
        stream.write_all(encode_frame(Data(0, 0, corrupted)))
        stream.write_all(encode_frame(Fin(0, sha256(body))))

        result = receiver.serve_one()
        receiver.close()
        assert not result.ok
        assert "corrupt-chunk" in result.reason
        assert result.failure_kind is FailureKind.CORRUPT_CHUNK
        # No receipt: the stream was aborted.
        assert stream.read_some(timeout=5.0) == b""

    run_on_sim(run)


def test_root_mismatch_fails_transfer_as_corrupt_payload():
    # Chunk 1's DATA carries altered bytes and its FIN their digest, so the
    # chunk check passes; only the hash-list root in HELLO can catch it.
    payload = random.Random(11).randbytes(3000)
    manifest = TransferManifest.for_payload(payload, 3)

    def run(transport):
        store = {}
        receiver = Receiver(transport, collect_sink(store), idle_timeout=5.0)
        streams = []
        for chunk in manifest.chunks:
            body = payload[chunk.offset : chunk.offset + chunk.length]
            if chunk.index == 1:
                body = bytes(b ^ 0x5A for b in body)
            stream = transport.connect()
            stream.write_all(encode_frame(manifest.hello(chunk.index)))
            stream.write_all(encode_frame(Data(chunk.index, 0, body)))
            stream.write_all(encode_frame(Fin(chunk.index, sha256(body))))
            streams.append(stream)

        result = receiver.serve_one()
        receiver.close()
        assert not result.ok
        assert result.reason == "corrupt-payload: digest mismatch"
        assert result.failure_kind is FailureKind.CORRUPT_PAYLOAD
        assert store == {}

    run_on_sim(run)


@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_sink_that_raises_fails_the_transfer_on_both_sides(backend, receive_buffers):
    # The last chunk's receipt waits for the sink.  A sink that raises gives
    # one failed completion and aborts the stream of the held receipt, so
    # the sender fails on that chunk long before any idle timeout.  The
    # receiver then serves the next transfer as usual, in the failed one's
    # buffer, and delivers exactly its own bytes.
    payloads = [random.Random(5).randbytes(100_000), random.Random(6).randbytes(100_000)]
    failures = [OSError("disk full")]
    store = {}

    def sink(transfer_id, payload):
        if failures:
            raise failures.pop()
        store[transfer_id] = payload

    def run(transport):
        receiver = Receiver(transport, sink, idle_timeout=5.0)
        try:
            start = transport.now()
            failed = send_transfer(payloads[0], transport, 2)
            failure = receiver.serve_one()
            elapsed = transport.now() - start
            report = send_transfer(payloads[1], transport, 2)
            result = receiver.serve_one()
        finally:
            receiver.close()
        return failed, failure, elapsed, report, result

    failed, failure, elapsed, report, result = _run_on(backend, run)
    assert failure.transfer_id == failed.transfer_id
    assert failure.failure_kind is FailureKind.SINK
    assert failure.reason == "sink failed: disk full"
    assert not failed.ok and failed.failure_kind is FailureKind.CONNECTION
    assert [s.chunk_index for s in failed.per_connection] == [1 - failed.failing_chunk]
    assert elapsed < 1.0
    assert report.ok and result.ok and result.transfer_id == report.transfer_id
    assert store == {report.transfer_id: payloads[1]}
    assert len(receive_buffers) == 1


def _run_on(backend, run):
    """``run(transport)``, as a simulation task or on a loopback TCP transport."""
    if backend == "sim":
        [result] = run_on_sim(run)
        return result
    transport = TcpTransport("127.0.0.1", 0)
    try:
        return run(transport)
    finally:
        transport.close()


def _serve_each(payloads, sink):
    """A task sending each of ``payloads`` in turn to one receiver with
    ``sink``; it returns whether each transfer succeeded on both sides."""

    def run(transport):
        receiver = Receiver(transport, sink, idle_timeout=5.0)
        try:
            oks = []
            for payload in payloads:
                report = send_transfer(payload, transport, 2)
                result = receiver.serve_one()
                oks.append(report.ok and result.ok and result.transfer_id == report.transfer_id)
            return oks
        finally:
            receiver.close()

    return run


@pytest.fixture
def receive_buffers(monkeypatch):
    """Weak references to the receive buffers the receiver allocates, in
    order.  Each is a ``bytearray`` subclass, which takes weak references."""
    allocated = []

    class Buffer(bytearray):
        pass

    def allocate(size):
        buffer = Buffer(size)
        allocated.append(weakref.ref(buffer))
        return buffer

    monkeypatch.setattr(striping, "bytearray", allocate, raising=False)
    return allocated


@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_receiver_refills_the_buffer_its_sink_let_go(backend, receive_buffers):
    # The sink keeps nothing, so the second transfer of the same size fills
    # the first one's buffer again: one allocation, the same object twice.
    payloads = [random.Random(1).randbytes(200_000), random.Random(2).randbytes(200_000)]
    delivered = []

    def sink(transfer_id, payload):
        delivered.append((payload is receive_buffers[0](), bytes(payload)))

    assert _run_on(backend, _serve_each(payloads, sink)) == [True, True]
    assert len(receive_buffers) == 1
    assert delivered == [(True, payloads[0]), (True, payloads[1])]


@pytest.mark.parametrize("keep", ["payload", "view"])
@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_a_buffer_the_sink_kept_is_never_written_again(backend, keep):
    # The first payload, or only a memoryview of it, outlives the sink; the
    # second transfer, of the same size and other bytes, gets its own buffer.
    payloads = [random.Random(3).randbytes(200_000), random.Random(4).randbytes(200_000)]
    kept = []

    def sink(transfer_id, payload):
        kept.append(payload if keep == "payload" else memoryview(payload))

    assert _run_on(backend, _serve_each(payloads, sink)) == [True, True]
    first, second = (k if keep == "payload" else k.obj for k in kept)
    assert first is not second
    assert [bytes(k) for k in kept] == payloads


def test_buffer_reuse_check_holds_on_this_interpreter():
    # The same rule, checked with the standard library alone by a script
    # meant for interpreters that have no numpy or pytest.
    script = Path(__file__).resolve().parent.parent / "tools" / "check_buffer_reuse.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("; OK\n")


def test_a_corrupt_transfers_buffer_takes_exactly_the_next_payload(receive_buffers):
    # The failed transfer leaves its own bytes in the buffer it hands on; the
    # next transfer of that size fills the same buffer and delivers exactly
    # its payload.
    first, second = random.Random(5).randbytes(60_000), random.Random(6).randbytes(60_000)
    store = {}

    def run(transport):
        receiver = Receiver(transport, collect_sink(store), idle_timeout=5.0)
        try:
            manifest = TransferManifest.for_payload(first, 1)
            stream = transport.connect()
            stream.write_all(encode_frame(manifest.hello(0)))
            stream.write_all(encode_frame(Data(0, 0, bytes(b ^ 0xFF for b in first))))
            stream.write_all(encode_frame(Fin(0, sha256(first))))
            failed = receiver.serve_one()
            report = send_transfer(second, transport, 2)
            return failed, report, receiver.serve_one()
        finally:
            receiver.close()

    [(failed, report, result)] = run_on_sim(run)
    assert failed.failure_kind is FailureKind.CORRUPT_CHUNK
    assert report.ok and result.ok
    assert store == {report.transfer_id: second}
    assert len(receive_buffers) == 1


@pytest.mark.parametrize("counts", ["no getrefcount", "no GIL"])
def test_without_exact_reference_counts_no_buffer_is_reused(counts, monkeypatch, receive_buffers):
    # Where the count cannot show every holder, the receiver keeps no spare:
    # each transfer gets a fresh buffer, and a finished one is freed at once.
    if counts == "no getrefcount":
        monkeypatch.delattr(sys, "getrefcount")
    else:
        monkeypatch.setattr(sys, "_is_gil_enabled", lambda: False, raising=False)
    monkeypatch.setattr(striping, "_SOLE_REFCOUNT", striping._sole_refcount())
    payloads = [random.Random(7).randbytes(200_000), random.Random(8).randbytes(200_000)]
    freed = []

    def sink(transfer_id, payload):
        freed.append([ref() is None for ref in receive_buffers])

    assert striping._SOLE_REFCOUNT is None
    assert _run_on("sim", _serve_each(payloads, sink)) == [True, True]
    assert freed == [[False], [True, False]]


def test_serve_holds_no_spare_buffer_once_it_returns(receive_buffers):
    # serve() closes its receiver, which lets go of the spare: the buffer a
    # sink did not keep is freed as serve() returns, while the receiver's
    # workers, and so the receiver, still live.
    def serve_task(transport):
        result = serve(transport, lambda transfer_id, payload: None)
        return result.ok, [ref() is None for ref in receive_buffers]

    def send_task(transport):
        return send_transfer(b"spare" * 20_000, transport, 2)

    (ok, freed), report = run_on_sim(serve_task, send_task)
    assert ok and report.ok
    assert freed == [True]


def test_slot_of_a_finished_transfer_fails_cleanly():
    # A worker reading its next DATA head as another stream fails the
    # transfer finds the buffer gone with the finished monitor.
    manifest = TransferManifest.for_payload(b"x" * 100, 1)
    hello = manifest.hello(0)
    monitor = striping._TransferMonitor(hello, 0.0)
    monitor.register(hello, None, 0.0, striping.DEFAULT_BUFFER_CAP, bytearray)
    monitor.buffer = None  # as _finish leaves a finished monitor
    with pytest.raises(ConnectionError, match="has finished"):
        monitor.slot(DataHead(0, 0, 100))


def test_each_side_hashes_every_byte_once(monkeypatch):
    # Sender: each chunk once for its FIN, then the root over n digests.
    # Receiver: each DATA byte once, then the same root.
    hashed = []
    real_sha256 = hashlib.sha256

    class CountingSha256:
        def __init__(self, data=b""):
            hashed.append(memoryview(data).nbytes)
            self._hash = real_sha256(data)

        def update(self, data):
            hashed.append(memoryview(data).nbytes)
            self._hash.update(data)

        def digest(self):
            return self._hash.digest()

    monkeypatch.setattr(hashlib, "sha256", CountingSha256)
    payload = random.Random(13).randbytes(200_001)
    report, result, store = _sim_transfer(payload, 3)
    assert report.ok and result.ok
    assert store[report.transfer_id] == payload
    assert sum(hashed) == 2 * len(payload) + 2 * 32 * 3


def test_wrong_offset_fails_transfer():
    payload = b"z" * 50
    manifest = TransferManifest.for_payload(payload, 1)

    def run(transport):
        receiver = Receiver(transport)
        stream = transport.connect()
        stream.write_all(encode_frame(manifest.hello(0)))
        stream.write_all(encode_frame(Data(0, 10, payload[10:])))  # hole at 0..10
        result = receiver.serve_one()
        receiver.close()
        assert not result.ok
        assert "offset" in result.reason

    run_on_sim(run)


def test_fin_before_all_data_fails():
    payload = b"w" * 50
    manifest = TransferManifest.for_payload(payload, 1)

    def run(transport):
        receiver = Receiver(transport)
        stream = transport.connect()
        stream.write_all(encode_frame(manifest.hello(0)))
        stream.write_all(encode_frame(Data(0, 0, payload[:20])))
        stream.write_all(encode_frame(Fin(0, sha256(payload))))
        result = receiver.serve_one()
        receiver.close()
        assert not result.ok
        assert "FIN after 20 of 50" in result.reason

    run_on_sim(run)


_MANIFEST_2 = TransferManifest.for_payload(b"e" * 1024, 2)  # chunk 0 is (0, 512)
_HELLO_0 = _MANIFEST_2.hello(0)


@pytest.mark.parametrize(
    ("frames", "detail"),
    [
        ([replace(_HELLO_0, chunk_index=2)], "chunk index 2 out of range for 2 connections"),
        ([_HELLO_0, _HELLO_0], "second HELLO within one chunk"),
        ([_HELLO_0, Data(1, 0, b"e")], "DATA for chunk 1 on the chunk-0 stream"),
        ([_HELLO_0, Data(0, 0, b"e" * 513)], "chunk 0 overflows its declared length"),
        ([_HELLO_0, Data(0, 0, b"e" * 100), None], "stream for chunk 0 ended before FIN"),  # None: close
    ],
    ids=["chunk-index-out-of-range", "second-hello", "data-for-other-chunk", "data-past-length", "closed-before-fin"],
)
def test_protocol_errors_fail_the_transfer_and_abort_its_stream(frames, detail):
    def run(transport):
        receiver = Receiver(transport)
        stream = transport.connect()
        for frame in frames:
            if frame is None:
                stream.close()
            else:
                stream.write_all(encode_frame(frame))
        result = receiver.serve_one()
        receiver.close()
        assert result.failure_kind is FailureKind.PROTOCOL
        assert result.reason == f"protocol-error: {detail}"
        assert stream.read_some(timeout=1.0) == b""
        stream.close()

    run_on_sim(run)


def _raw_data_head(length):
    """A chunk-0 DATA head at offset 0 that announces ``length`` payload bytes."""
    return b"PTCP" + bytes([2, 0x02]) + struct.pack("!IQI", 0, 0, length)


@pytest.mark.parametrize(
    ("hostile", "detail", "head_valid"),
    [
        (encode_frame(Data(0, 0, b"\xee" * 600)), "chunk 0 overflows its declared length", False),
        (encode_frame(Data(0, 500, b"\xee" * 100)), "chunk 0: DATA offset 500, expected 0", False),
        (encode_frame(Data(0, 0, b"\xee" * 100))[:60], "stream for chunk 0 ended before FIN", True),
        # encode_frame refuses these lengths, so their heads are packed by hand;
        # the head's body starts at byte 92, after the 86-byte HELLO and the header.
        (_raw_data_head(0), "zero-length DATA payload (at byte 92)", False),
        (_raw_data_head(MAX_DATA_PAYLOAD + 1), "DATA payload length 65537 exceeds cap (at byte 92)", False),
    ],
    ids=["length-past-chunk", "offset-past-chunk", "ended-mid-payload", "zero-length", "length-past-cap"],
)
def test_data_head_is_checked_before_its_payload_is_read(hostile, detail, head_valid):
    # Chunk 1 completes, then chunk 0's stream sends a hostile DATA frame.
    # The receiver reads a payload straight into the buffer, so it must check
    # the head first: chunk 1's bytes, right after chunk 0's, stay unchanged.
    payload = b"A" * 500 + b"B" * 500
    manifest = TransferManifest.for_payload(payload, 2)
    body = payload[500:]

    def run(transport):
        receiver = Receiver(transport)
        s0, s1 = transport.connect(), transport.connect()
        for frame in (manifest.hello(1), Data(1, 0, body), Fin(1, sha256(body))):
            s1.write_all(encode_frame(frame))
        assert FrameDecoder().feed(s1.read_some(timeout=5.0)) == [Fin(1, sha256(body))]
        buffer = receiver._monitors[manifest.transfer_id].buffer
        s0.write_all(encode_frame(manifest.hello(0)))
        s0.write_all(hostile)
        s0.close()  # ends the cut-short frame; the others fail before it matters
        result = receiver.serve_one()
        s1.close()
        receiver.close()
        assert result.failure_kind is FailureKind.PROTOCOL
        assert result.reason == f"protocol-error: {detail}"
        assert buffer[500:] == body
        if not head_valid:
            assert buffer[:500] == bytes(500)  # not a byte of the hostile payload was read

    run_on_sim(run)


def test_sender_rejects_bad_receipt_digest():
    # A hand-rolled receiver answers chunk 0's FIN with a bad receipt: the
    # wrong digest, a frame that is not a FIN, or a FIN for another chunk.
    # The sender must report the transfer as failed on chunk 0; a wrong
    # digest as a corrupt chunk, as the receiver reports the same event.
    payload = b"p" * 1000
    receipts = [
        (Fin(0, b"\x00" * 32), FailureKind.CORRUPT_CHUNK, "receiver digest mismatch on chunk 0"),
        (TransferManifest.for_payload(payload, 1).hello(0), FailureKind.PROTOCOL, "unexpected receipt frame Hello("),
        (Fin(1, sha256(payload)), FailureKind.PROTOCOL, "unexpected receipt frame Fin(chunk_index=1"),
    ]
    for receipt, kind, detail in receipts:

        def bogus_receiver(transport, receipt=receipt):  # runs first, so it listens before the sender connects
            listener = transport.listen()
            stream = listener.accept()
            received = b""
            while not any(isinstance(frame, Fin) for frame in decode_frames(received)[0]):
                data = stream.read_some(timeout=5.0)
                if data == b"":
                    break
                received += data
            stream.write_all(encode_frame(receipt))
            stream.close()
            listener.close()

        _, report = run_on_sim(bogus_receiver, lambda transport: send_transfer(payload, transport, 1))
        assert not report.ok
        assert report.failure_kind is kind
        assert report.failing_chunk == 0
        assert report.failure_reason.startswith(f"{kind.value}: {detail}"), report.failure_reason


def test_stalled_connection_hits_idle_timeout():
    payload = b"s" * 100
    manifest = TransferManifest.for_payload(payload, 1)

    def run(transport):
        receiver = Receiver(transport, idle_timeout=0.2)
        stream = transport.connect()
        stream.write_all(encode_frame(manifest.hello(0)))
        # ... and nothing more.
        result = receiver.serve_one()
        receiver.close()
        assert not result.ok
        assert "stalled" in result.reason

    run_on_sim(run)


@pytest.mark.parametrize("idle_timeout", [0.0, -1.0, float("nan"), float("inf")])
def test_receiver_rejects_idle_timeout_not_positive_and_finite(idle_timeout):
    transport = TcpTransport("127.0.0.1", 0)
    with pytest.raises(ValueError, match="idle_timeout"):
        Receiver(transport, idle_timeout=idle_timeout)
    assert transport.port == 0  # rejected before it listened


def test_buffer_cap_rejects_oversized_transfer():
    payload = b"c" * 2048
    manifest = TransferManifest.for_payload(payload, 1)

    def run(transport):
        receiver = Receiver(transport, buffer_cap=1024)
        stream = transport.connect()
        stream.write_all(encode_frame(manifest.hello(0)))
        result = receiver.serve_one()
        receiver.close()
        assert not result.ok
        assert "buffer cap" in result.reason

    run_on_sim(run)


@pytest.mark.parametrize(
    ("offset", "length"),
    [(0, 64 * 1024 * 1024), (0, 512)],
    ids=["oversized-length", "wrong-offset"],
)
def test_hello_chunk_placement_must_match_partition(offset, length):
    # A 1 KiB transfer over two streams: chunk 1 is (512, 512).  A HELLO
    # claiming any other placement could otherwise buffer past buffer_cap.
    manifest = TransferManifest.for_payload(b"h" * 1024, 2)

    def run(transport):
        receiver = Receiver(transport, buffer_cap=1024 * 1024, idle_timeout=2.0)
        stream = transport.connect()
        hello = replace(manifest.hello(1), chunk_offset=offset, chunk_length=length)
        stream.write_all(encode_frame(hello))
        result = receiver.serve_one()
        receiver.close()
        assert not result.ok
        assert "protocol-error" in result.reason
        assert "placed" in result.reason

    run_on_sim(run)


def test_transfer_states_snapshot_during_stall():
    payload = b"q" * 100
    manifest = TransferManifest.for_payload(payload, 2)

    def run(transport):
        receiver = Receiver(transport, idle_timeout=2.0)
        stream = transport.connect()
        stream.write_all(encode_frame(manifest.hello(0)))

        hub = transport._hub
        deadline = hub.now() + 2.0
        states = []
        while hub.now() < deadline:
            states = receiver.transfer_states()
            if states and states[0].registered == {0}:
                break
            hub.sleep(0.01)
        assert len(states) == 1
        assert states[0].transfer_id == manifest.transfer_id
        assert states[0].connection_count == 2
        assert states[0].registered == {0}
        assert states[0].completed == set()
        stream.abort()
        result = receiver.serve_one()
        assert not result.ok
        receiver.close()

    run_on_sim(run)


def test_independent_concurrent_transfers():
    store = {}
    payload_a = random.Random(1).randbytes(300_000)
    payload_b = random.Random(2).randbytes(300_000)

    def serve_two(transport):  # runs first, so it listens before either sender connects
        receiver = Receiver(transport, collect_sink(store))
        results = receiver.serve_one(), receiver.serve_one()
        receiver.close()
        return results

    (r1, r2), report_a, report_b = run_on_sim(
        serve_two,
        lambda transport: send_transfer(payload_a, transport, 3),
        lambda transport: send_transfer(payload_b, transport, 2),
    )

    assert report_a.ok and report_b.ok
    assert r1.ok and r2.ok
    assert store[report_a.transfer_id] == payload_a
    assert store[report_b.transfer_id] == payload_b


def test_connect_failure_reported_not_raised():
    [report] = run_on_sim(lambda transport: send_transfer(b"data", transport, 2))  # nothing listening
    assert not report.ok
    assert "connect failed" in report.failure_reason
    assert report.failure_kind is FailureKind.CONNECT
    assert report.failing_chunk == 0

    # The second connect is refused after the first stream opened: the
    # transfer fails on chunk 1, and the open stream is aborted, not left open.
    def refuse_second_connect(transport):
        listener = transport.listen()
        first = transport.connect()
        refused = ConnectionRefusedError("second connect refused")
        with (
            mock.patch.object(first, "abort", wraps=first.abort) as abort,
            mock.patch.object(transport, "connect", side_effect=[first, refused]),
        ):
            report = send_transfer(b"data", transport, 2)
        server = listener.accept()
        assert server.read_some(timeout=1.0) == b""  # the sender wrote nothing before it gave up
        server.close()
        listener.close()
        return report, abort.call_count

    [(report, aborts)] = run_on_sim(refuse_second_connect)
    assert not report.ok
    assert report.failure_kind is FailureKind.CONNECT
    assert report.failing_chunk == 1
    assert report.failure_reason == "connect failed: second connect refused"
    assert aborts == 1


def test_serve_helper_single_transfer():
    payload = b"one shot"
    store = {}
    # serve() runs first, so it binds its listener before the sender connects.
    result, report = run_on_sim(
        lambda transport: serve(transport, collect_sink(store)),
        lambda transport: send_transfer(payload, transport, 2),
    )
    assert report.ok, report.failure_reason
    assert result.ok, result.reason
    assert store[report.transfer_id] == payload


def test_striping_over_tcp_loopback():
    payload = random.Random(99).randbytes(256 * 1024)
    transport = TcpTransport("127.0.0.1", 0)
    store = {}
    receiver = Receiver(transport, collect_sink(store))
    report = send_transfer(payload, transport, 3)
    result = receiver.serve_one()
    transport.close()
    receiver.close()
    assert report.ok, report.failure_reason
    assert result.ok, result.reason
    assert store[report.transfer_id] == payload


def _counting_accepts(transport):
    """``transport`` with its listener's accept() calls counted in the list returned."""
    accepted = []
    listener = transport.listen()
    accept = listener.accept

    def counting_accept():
        stream = accept()
        accepted.append(stream)
        return stream

    listener.accept = counting_accept
    transport.listen = lambda: listener
    return accepted


def test_back_to_back_tcp_transfers_reuse_their_connections():
    # The sender keeps each stream whose receipt verified, and the receiver's
    # worker takes the next HELLO on it: after the first transfer, none of
    # the next three opens a connection.
    recv_transport = TcpTransport("127.0.0.1", 0)
    accepted = _counting_accepts(recv_transport)
    store = {}
    receiver = Receiver(recv_transport, collect_sink(store))
    sender = TcpTransport("127.0.0.1", recv_transport.port)
    try:
        for i in range(4):
            payload = bytes([i]) * 50_000
            report = send_transfer(payload, sender, 2)
            result = receiver.serve_one()
            assert report.ok and result.ok, (report.failure_reason, result.reason)
            assert store.pop(report.transfer_id) == payload
        assert len(accepted) == 2
    finally:
        sender.close()
        receiver.close()


def _tcp_pair():
    """A receiver on its own TCP transport and a sender transport aimed at it."""
    recv_transport = TcpTransport("127.0.0.1", 0)
    receiver = Receiver(recv_transport)
    return receiver, TcpTransport("127.0.0.1", recv_transport.port)


def _send_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("send-")]


def test_back_to_back_tcp_transfers_start_no_sender_thread():
    # A finished sender worker parks on the transport that keeps its stream,
    # and the next transfer's spawn() hands it the next chunk.  The barrier
    # keeps both chunks running at once: otherwise chunk 1 may finish before
    # chunk 2 is spawned, and one parked worker then runs both.  Thread
    # objects, not idents, tell threads apart: the OS reuses idents.
    receiver, sender = _tcp_pair()
    spawn = sender.spawn
    spawned, ran_on = [], []
    together = threading.Barrier(2)

    def recording_spawn(fn, name):
        spawned.append(name)

        def recorded():
            ran_on.append(threading.current_thread())
            together.wait(timeout=5.0)
            fn()

        return spawn(recorded, name)

    sender.spawn = recording_spawn
    try:
        for i in range(4):
            spawned.clear()
            ran_on.clear()
            alive = set(threading.enumerate())
            report = send_transfer(bytes([i]) * 30_000, sender, 3)
            assert report.ok and receiver.serve_one().ok, report.failure_reason
            assert spawned == ["send-1", "send-2"]
            assert len(set(ran_on)) == 2
            if i > 0:
                assert set(ran_on) <= alive
            assert len(sender._parked) == 2 <= len(sender._kept)
    finally:
        sender.close()
        receiver.close()
    assert wait_until(lambda: not _send_threads(), 2.0), _send_threads()


def test_failed_tcp_transfer_leaves_no_worker_beyond_its_kept_streams():
    receiver, sender = _tcp_pair()
    try:
        assert send_transfer(b"a" * 30_000, sender, 3).ok and receiver.serve_one().ok
        assert sender._parked
        receiver.close()  # aborts the kept streams at its end and stops listening
        time.sleep(0.05)  # let the ends of stream arrive
        report = send_transfer(b"b" * 30_000, sender, 3)
        assert not report.ok
        assert len(sender._parked) <= len(sender._kept)
        assert wait_until(lambda: not _send_threads(), 2.0), _send_threads()
    finally:
        sender.close()
        receiver.close()


def test_parked_sender_workers_hold_no_reference_to_the_payload():
    receiver, sender = _tcp_pair()
    try:
        payload = np.full(100_000, 7, np.uint8)
        sent = weakref.ref(payload)
        report = send_transfer(payload, sender, 3)
        assert report.ok and receiver.serve_one().ok, report.failure_reason
        assert sender._parked
        del payload
        gc.collect()
        assert sent() is None
    finally:
        sender.close()
        receiver.close()


def test_kept_stream_retired_by_the_receiver_is_replaced():
    # The receiver retires a stream idle past its timeout; the sender's
    # check before reuse finds it closed and opens a new connection.
    recv_transport = TcpTransport("127.0.0.1", 0)
    accepted = _counting_accepts(recv_transport)
    receiver = Receiver(recv_transport, idle_timeout=0.3)
    sender = TcpTransport("127.0.0.1", recv_transport.port)
    try:
        first = send_transfer(b"a" * 10_000, sender, 2)
        assert first.ok and receiver.serve_one().ok
        time.sleep(0.6)
        second = send_transfer(b"b" * 10_000, sender, 2)
        assert second.ok, second.failure_reason
        result = receiver.serve_one()
        assert result.ok and result.transfer_id == second.transfer_id
        assert len(accepted) == 4
    finally:
        sender.close()
        receiver.close()


def test_receiver_close_ends_workers_waiting_between_chunks():
    # The sender still holds its streams open, so only close() can end the
    # workers waiting on them; the suite's thread check allows 2 s.
    recv_transport = TcpTransport("127.0.0.1", 0)
    receiver = Receiver(recv_transport)
    sender = TcpTransport("127.0.0.1", recv_transport.port)
    try:
        report = send_transfer(b"w" * 10_000, sender, 3)
        assert report.ok and receiver.serve_one().ok
        assert wait_until(lambda: len(receiver._waiting) == 3)
        receiver.close()
        assert wait_until(lambda: _live_workers() == 0, 2.0)
    finally:
        sender.close()
        receiver.close()


def test_sender_that_closes_after_the_receipt_frees_the_worker():
    # Senders that do not keep streams, as older ones did and as the
    # simulated transport does, close after the receipt: the worker takes
    # that end of stream and ends, and the accept loop is left alone.
    payload = b"c" * 5000
    manifest = TransferManifest.for_payload(payload, 1)
    transport = TcpTransport("127.0.0.1", 0)
    receiver = Receiver(transport)
    stream = transport.connect()
    try:
        for frame in (manifest.hello(0), Data(0, 0, payload), Fin(0, sha256(payload))):
            stream.write_all(encode_frame(frame))
        assert FrameDecoder().feed(stream.read_some(timeout=5.0)) == [Fin(0, sha256(payload))]
        stream.close()
        assert receiver.serve_one().ok
        assert wait_until(lambda: _recv_threads() == ["recv-accept"] and not receiver._waiting)
    finally:
        stream.abort()
        receiver.close()


def test_failure_spares_the_streams_of_completed_chunks():
    # Chunk 0 of transfer A completes; then chunk 1 fails A.  The stream that
    # carried chunk 0 may already carry the next transfer, so A's failure
    # must not abort it.
    def run(transport):
        store = {}
        receiver = Receiver(transport, collect_sink(store), idle_timeout=5.0)
        first = TransferManifest.for_payload(b"A" * 1000, 2)
        reused, failing = transport.connect(), transport.connect()
        try:
            body = b"A" * 500
            for frame in (first.hello(0), Data(0, 0, body), Fin(0, sha256(body))):
                reused.write_all(encode_frame(frame))
            assert FrameDecoder().feed(reused.read_some(timeout=5.0)) == [Fin(0, sha256(body))]
            failing.write_all(encode_frame(first.hello(1)))
            failing.write_all(encode_frame(Fin(1, sha256(b""))))
            assert receiver.serve_one().failure_kind is FailureKind.PROTOCOL

            payload = b"next transfer"
            second = TransferManifest.for_payload(payload, 1)
            for frame in (second.hello(0), Data(0, 0, payload), Fin(0, sha256(payload))):
                reused.write_all(encode_frame(frame))
            result = receiver.serve_one()
            assert result.ok and result.transfer_id == second.transfer_id, result.reason
            assert store[second.transfer_id] == payload
        finally:
            reused.abort()
            failing.abort()
            receiver.close()

    run_on_sim(run)


def test_closed_tcp_receiver_frees_its_port():
    # close() must wake the worker in accept(); while it sits there the
    # listening socket, and so the port, stays bound.
    transport = TcpTransport("127.0.0.1", 0)
    first = Receiver(transport)
    port = transport.port
    first.close()
    first._acceptor.join(timeout=1.0)
    second = Receiver(TcpTransport("127.0.0.1", port))
    second.close()
    second._acceptor.join(timeout=1.0)


class _HeldReceiptStream:
    """Receiver-side stream whose first chunk-0 receipt write waits for
    ``release``, then fails as if the sender had gone."""

    def __init__(self, inner, release: threading.Event, aborted: threading.Event):
        self._inner = inner
        self._release = release
        self._aborted = aborted

    def read_some(self, *args, **kwargs):
        return self._inner.read_some(*args, **kwargs)

    def read_into(self, *args, **kwargs):
        return self._inner.read_into(*args, **kwargs)

    def write_all(self, data: bytes) -> None:
        (receipt,) = FrameDecoder().feed(data)
        if receipt.chunk_index == 0 and not self._release.is_set():
            self._release.wait(5.0)
            raise ConnectionError("peer vanished")
        self._inner.write_all(data)

    def close(self) -> None:
        self._inner.close()

    def abort(self) -> None:
        self._inner.abort()
        self._aborted.set()


def test_one_completion_per_transfer_id():
    # Chunk 0 completes, then its receipt write fails only after chunk 1
    # finalized the transfer: that failure must not be a second completion.
    # A receiver worker blocks on an Event, so this runs on OS threads.
    release, aborted = threading.Event(), threading.Event()
    transport = TcpTransport("127.0.0.1", 0)
    listener = transport.listen()
    accept = listener.accept
    listener.accept = lambda: _HeldReceiptStream(accept(), release, aborted)
    transport.listen = lambda: listener
    store = {}
    receiver = Receiver(transport, collect_sink(store), idle_timeout=5.0)
    payload = random.Random(3).randbytes(10_000)
    manifest = TransferManifest.for_payload(payload, 2)
    sent_by_hand = []

    def send_chunk(chunk):
        stream = transport.connect()
        sent_by_hand.append(stream)
        body = payload[chunk.offset : chunk.offset + chunk.length]
        frames = (manifest.hello(chunk.index), Data(chunk.index, 0, body), Fin(chunk.index, sha256(body)))
        for frame in frames:
            stream.write_all(encode_frame(frame))
        return stream

    try:
        s0 = send_chunk(manifest.chunks[0])
        assert wait_until(lambda: [s.completed for s in receiver.transfer_states()] == [{0}])
        send_chunk(manifest.chunks[1])  # chunk 1 completes last, so it finalizes the transfer
        first = receiver.serve_one()
        assert first.ok, first.reason
        assert store[first.transfer_id] == payload
        release.set()
        assert aborted.wait(5.0)
        assert s0.read_some(timeout=5.0) == b""  # chunk 0 never got its receipt

        report = send_transfer(payload, transport, 2)
        following = receiver.serve_one()
    finally:
        release.set()
        for stream in sent_by_hand:
            stream.abort()
        transport.close()  # closes the streams it kept
        receiver.close()
    assert report.ok and following.ok
    assert following.transfer_id == report.transfer_id


def test_late_stream_of_failed_transfer_is_turned_away():
    # Chunk 0 fails the transfer with a short FIN.  A chunk-1 stream that
    # arrives afterwards must be aborted without a new monitor (which would
    # hold a payload-sized buffer) and without a second completion.
    payload = b"L" * 1000
    manifest = TransferManifest.for_payload(payload, 2)

    def run(transport):
        receiver = Receiver(transport, idle_timeout=0.6)
        s0 = transport.connect()
        s0.write_all(encode_frame(manifest.hello(0)))
        s0.write_all(encode_frame(Fin(0, sha256(b""))))
        failed = receiver.serve_one()
        assert not failed.ok and "FIN after 0 of 500" in failed.reason

        s1 = transport.connect()
        s1.write_all(encode_frame(manifest.hello(1)))
        s1.write_all(encode_frame(Data(1, 0, payload[500:600])))
        assert s1.read_some(timeout=0.3) == b""  # aborted at once, not left to idle out
        assert receiver.transfer_states() == []

        # Past the idle timeout a zombie would have queued its own failure
        # ahead of this transfer's completion.
        transport._hub.sleep(0.8)
        report = send_transfer(payload, transport, 2)
        result = receiver.serve_one()
        receiver.close()
        assert report.ok and result.ok
        assert result.transfer_id == report.transfer_id

    run_on_sim(run)


def test_late_stream_of_succeeded_transfer_is_turned_away():
    # A stray chunk-0 HELLO after the transfer completed must not open a new
    # monitor (and buffer) that would later time out into a second
    # completion for the same transfer id.
    payload = b"S" * 1000
    manifest = TransferManifest.for_payload(payload, 2)

    def run(transport):
        receiver = Receiver(transport, idle_timeout=0.6)
        report = send_transfer(payload, transport, 2, transfer_id=manifest.transfer_id)
        done = receiver.serve_one()
        assert report.ok and done.ok

        late = transport.connect()
        late.write_all(encode_frame(manifest.hello(0)))
        assert late.read_some(timeout=0.3) == b""  # aborted at once, not left to idle out
        assert receiver.transfer_states() == []

        transport._hub.sleep(0.8)
        following = send_transfer(payload, transport, 2)
        result = receiver.serve_one()
        receiver.close()
        assert following.ok and result.ok
        assert result.transfer_id == following.transfer_id

    run_on_sim(run)


def test_many_workers_under_fast_thread_switching():
    # More workers than cores, switching threads every microsecond: the
    # per-chunk writes and digests run outside the monitor lock and must
    # still land every byte in its place.
    payload = random.Random(5).randbytes(512 * 1024)
    transport = TcpTransport("127.0.0.1", 0)
    store = {}
    receiver = Receiver(transport, collect_sink(store), idle_timeout=20.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(striping, "DATA_FRAME_BYTES", 1024):
            report = send_transfer(payload, transport, 16)
        result = receiver.serve_one()
    finally:
        sys.setswitchinterval(interval)
        transport.close()  # closes the streams it kept
        receiver.close()
    assert report.ok, report.failure_reason
    assert result.ok, result.reason
    assert store[report.transfer_id] == payload


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(0, 300_000),
    connections=st.integers(1, 8),
    frame_bytes=st.integers(512, 64 * 1024),
    seed=st.integers(0, 2**32 - 1),
)
def test_roundtrip_any_size_connections_and_frame_size(size, connections, frame_bytes, seed):
    # Covers n > size (empty chunks) and frames that split chunks unevenly.
    payload = random.Random(seed).randbytes(size)
    with mock.patch.object(striping, "DATA_FRAME_BYTES", frame_bytes):
        report, result, store = _sim_transfer(payload, connections, 10.0)
    assert report.ok, report.failure_reason
    assert result.ok, result.reason
    assert store[report.transfer_id] == payload


def test_connection_count_validation():
    def run(transport):
        with pytest.raises(ValueError):
            send_transfer(b"x", transport, 0)

    run_on_sim(run)
