"""End-to-end striped transfers plus the failure paths of the receiver."""

import random
import sys
import time
from dataclasses import replace

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ptcp.striping import Receiver, send_transfer, serve
from ptcp.transport import MemoryTransport, TcpTransport
from ptcp.wire import Data, Fin, FrameDecoder, Hello, TransferManifest, encode_frame, sha256


def collect_sink(store):
    def sink(transfer_id, payload):
        store[transfer_id] = payload

    return sink


def test_roundtrip_memory_four_connections():
    payload = random.Random(41).randbytes(1024 * 1024)
    transport = MemoryTransport()
    store = {}
    receiver = Receiver(transport, collect_sink(store))
    report = send_transfer(payload, transport, 4)
    result = receiver.serve_one()
    receiver.close()

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
    transport = MemoryTransport()
    store = {}
    receiver = Receiver(transport, collect_sink(store))
    report = send_transfer(b"", transport, 2)
    result = receiver.serve_one()
    receiver.close()
    assert report.ok and result.ok
    assert store[report.transfer_id] == b""


def test_single_connection_baseline():
    payload = random.Random(7).randbytes(200_000)
    transport = MemoryTransport()
    store = {}
    receiver = Receiver(transport, collect_sink(store))
    report = send_transfer(payload, transport, 1, data_frame_bytes=8192)
    result = receiver.serve_one()
    receiver.close()
    assert report.ok and result.ok
    assert store[report.transfer_id] == payload
    assert len(report.per_connection) == 1
    assert report.per_connection[0].bytes == len(payload)


def test_completion_order_does_not_matter():
    # Finish the higher-indexed chunk first; assembly must still be in
    # index order.
    payload = b"A" * 10 + b"B" * 10
    manifest = TransferManifest.for_payload(payload, 2)
    transport = MemoryTransport()
    store = {}
    receiver = Receiver(transport, collect_sink(store))

    s0 = transport.connect()
    s1 = transport.connect()
    for stream, chunk in ((s0, manifest.chunks[0]), (s1, manifest.chunks[1])):
        body = payload[chunk.offset : chunk.offset + chunk.length]
        stream.write_all(
            encode_frame(
                Hello(
                    manifest.transfer_id,
                    manifest.total_size,
                    2,
                    chunk.index,
                    chunk.offset,
                    chunk.length,
                    manifest.payload_digest,
                )
            )
        )
        stream.write_all(encode_frame(Data(chunk.index, 0, body)))
    # FIN chunk 1 first, wait for its receipt, then FIN chunk 0.
    s1.write_all(encode_frame(Fin(1, sha256(b"B" * 10))))
    assert s1.read_some(timeout=5.0) != b""
    s0.write_all(encode_frame(Fin(0, sha256(b"A" * 10))))

    result = receiver.serve_one()
    receiver.close()
    assert result.ok, result.reason
    assert store[manifest.transfer_id] == payload


def _hello_for(manifest, chunk):
    return Hello(
        manifest.transfer_id,
        manifest.total_size,
        manifest.connection_count,
        chunk.index,
        chunk.offset,
        chunk.length,
        manifest.payload_digest,
    )


def test_duplicate_chunk_index_fails_transfer():
    payload = b"x" * 100
    manifest = TransferManifest.for_payload(payload, 2)
    transport = MemoryTransport()
    receiver = Receiver(transport)

    s0 = transport.connect()
    s1 = transport.connect()
    s0.write_all(encode_frame(_hello_for(manifest, manifest.chunks[0])))
    # Second stream claims chunk 0 as well.
    s1.write_all(encode_frame(_hello_for(manifest, manifest.chunks[0])))

    result = receiver.serve_one()
    receiver.close()
    assert not result.ok
    assert "duplicate" in result.reason


def test_data_before_hello_is_protocol_error():
    transport = MemoryTransport()
    receiver = Receiver(transport)
    stream = transport.connect()
    stream.write_all(encode_frame(Data(0, 0, b"orphan")))
    result = receiver.serve_one()
    receiver.close()
    assert not result.ok
    assert result.transfer_id is None
    assert "protocol-error" in result.reason


def test_inconsistent_hello_fails_transfer():
    payload = b"y" * 64
    manifest = TransferManifest.for_payload(payload, 2)
    transport = MemoryTransport()
    receiver = Receiver(transport)

    s0 = transport.connect()
    s1 = transport.connect()
    s0.write_all(encode_frame(_hello_for(manifest, manifest.chunks[0])))
    bad = Hello(
        manifest.transfer_id,
        manifest.total_size + 1,  # disagrees with the first HELLO
        2,
        1,
        manifest.chunks[1].offset,
        manifest.chunks[1].length,
        manifest.payload_digest,
    )
    s1.write_all(encode_frame(bad))
    result = receiver.serve_one()
    receiver.close()
    assert not result.ok
    assert "inconsistent" in result.reason


def test_corrupt_chunk_detected_end_to_end():
    # The wire flips bytes: DATA carries garbage while FIN still carries the
    # digest of the original body.  The receiver must reject the chunk and
    # never send a receipt, so the raw sender sees the stream drop.
    payload = b"real payload bytes" * 10
    manifest = TransferManifest.for_payload(payload, 1)
    body = payload
    transport = MemoryTransport()
    receiver = Receiver(transport)
    stream = transport.connect()
    stream.write_all(encode_frame(_hello_for(manifest, manifest.chunks[0])))
    corrupted = bytes(b ^ 0xFF for b in body)
    stream.write_all(encode_frame(Data(0, 0, corrupted)))
    stream.write_all(encode_frame(Fin(0, sha256(body))))

    result = receiver.serve_one()
    receiver.close()
    assert not result.ok
    assert "corrupt-chunk" in result.reason
    # No receipt: the stream was aborted.
    assert stream.read_some(timeout=5.0) == b""


def test_wrong_offset_fails_transfer():
    payload = b"z" * 50
    manifest = TransferManifest.for_payload(payload, 1)
    transport = MemoryTransport()
    receiver = Receiver(transport)
    stream = transport.connect()
    stream.write_all(encode_frame(_hello_for(manifest, manifest.chunks[0])))
    stream.write_all(encode_frame(Data(0, 10, payload[10:])))  # hole at 0..10
    result = receiver.serve_one()
    receiver.close()
    assert not result.ok
    assert "offset" in result.reason


def test_fin_before_all_data_fails():
    payload = b"w" * 50
    manifest = TransferManifest.for_payload(payload, 1)
    transport = MemoryTransport()
    receiver = Receiver(transport)
    stream = transport.connect()
    stream.write_all(encode_frame(_hello_for(manifest, manifest.chunks[0])))
    stream.write_all(encode_frame(Data(0, 0, payload[:20])))
    stream.write_all(encode_frame(Fin(0, sha256(payload))))
    result = receiver.serve_one()
    receiver.close()
    assert not result.ok
    assert "FIN after 20 of 50" in result.reason


def test_sender_rejects_bad_receipt_digest():
    # A hand-rolled receiver acknowledges with the wrong digest; the sender
    # must report the transfer as failed.
    payload = b"p" * 1000
    transport = MemoryTransport()
    listener = transport.listen()

    def bogus_receiver():
        stream = listener.accept()
        decoder = FrameDecoder()
        done = False
        while not done:
            data = stream.read_some(timeout=5.0)
            if data == b"":
                break
            for frame in decoder.feed(data):
                if isinstance(frame, Fin):
                    done = True
        stream.write_all(encode_frame(Fin(0, b"\x00" * 32)))
        stream.close()

    handle = transport.spawn(bogus_receiver)
    report = send_transfer(payload, transport, 1)
    handle.join(timeout=5.0)
    listener.close()
    assert not report.ok
    assert "digest mismatch" in report.failure_reason


def test_stalled_connection_hits_idle_timeout():
    payload = b"s" * 100
    manifest = TransferManifest.for_payload(payload, 1)
    transport = MemoryTransport()
    receiver = Receiver(transport, idle_timeout=0.2)
    stream = transport.connect()
    stream.write_all(encode_frame(_hello_for(manifest, manifest.chunks[0])))
    # ... and nothing more.
    result = receiver.serve_one()
    receiver.close()
    assert not result.ok
    assert "stalled" in result.reason


def test_buffer_cap_rejects_oversized_transfer():
    payload = b"c" * 2048
    manifest = TransferManifest.for_payload(payload, 1)
    transport = MemoryTransport()
    receiver = Receiver(transport, buffer_cap=1024)
    stream = transport.connect()
    stream.write_all(encode_frame(_hello_for(manifest, manifest.chunks[0])))
    result = receiver.serve_one()
    receiver.close()
    assert not result.ok
    assert "buffer cap" in result.reason


@pytest.mark.parametrize(
    ("offset", "length"),
    [(0, 64 * 1024 * 1024), (0, 512)],
    ids=["oversized-length", "wrong-offset"],
)
def test_hello_chunk_placement_must_match_partition(offset, length):
    # A 1 KiB transfer over two streams: chunk 1 is (512, 512).  A HELLO
    # claiming any other placement could otherwise buffer past buffer_cap.
    manifest = TransferManifest.for_payload(b"h" * 1024, 2)
    transport = MemoryTransport()
    receiver = Receiver(transport, buffer_cap=1024 * 1024, idle_timeout=2.0)
    stream = transport.connect()
    hello = replace(_hello_for(manifest, manifest.chunks[1]), chunk_offset=offset, chunk_length=length)
    stream.write_all(encode_frame(hello))
    result = receiver.serve_one()
    receiver.close()
    assert not result.ok
    assert "protocol-error" in result.reason
    assert "placed" in result.reason


def test_transfer_states_snapshot_during_stall():
    payload = b"q" * 100
    manifest = TransferManifest.for_payload(payload, 2)
    transport = MemoryTransport()
    receiver = Receiver(transport, idle_timeout=2.0)
    stream = transport.connect()
    stream.write_all(encode_frame(_hello_for(manifest, manifest.chunks[0])))

    deadline = time.monotonic() + 2.0
    states = []
    while time.monotonic() < deadline:
        states = receiver.transfer_states()
        if states and states[0].registered == {0}:
            break
        time.sleep(0.01)
    assert len(states) == 1
    assert states[0].transfer_id == manifest.transfer_id
    assert states[0].connection_count == 2
    assert states[0].registered == {0}
    assert states[0].completed == set()
    assert states[0].failed is None
    stream.abort()
    result = receiver.serve_one()
    assert not result.ok
    receiver.close()


def test_independent_concurrent_transfers():
    transport = MemoryTransport()
    store = {}
    receiver = Receiver(transport, collect_sink(store))
    payload_a = random.Random(1).randbytes(300_000)
    payload_b = random.Random(2).randbytes(300_000)

    reports = {}
    ha = transport.spawn(lambda: reports.__setitem__("a", send_transfer(payload_a, transport, 3)))
    hb = transport.spawn(lambda: reports.__setitem__("b", send_transfer(payload_b, transport, 2)))
    ha.join(timeout=30.0)
    hb.join(timeout=30.0)
    r1 = receiver.serve_one()
    r2 = receiver.serve_one()
    receiver.close()

    assert reports["a"].ok and reports["b"].ok
    assert r1.ok and r2.ok
    assert store[reports["a"].transfer_id] == payload_a
    assert store[reports["b"].transfer_id] == payload_b


def test_connect_failure_reported_not_raised():
    transport = MemoryTransport()  # nothing listening
    report = send_transfer(b"data", transport, 2)
    assert not report.ok
    assert "connect failed" in report.failure_reason
    assert report.failing_chunk == 0


def test_serve_helper_single_transfer():
    payload = b"one shot"
    transport = MemoryTransport()
    store = {}
    reports = {}

    def run_send():
        time.sleep(0.05)  # serve() below binds its listener first
        reports["r"] = send_transfer(payload, transport, 2)

    handle = transport.spawn(run_send)
    result = serve(transport, collect_sink(store))
    handle.join(timeout=10.0)
    assert reports["r"].ok, reports["r"].failure_reason
    assert result.ok, result.reason
    assert store[reports["r"].transfer_id] == payload


def test_striping_over_tcp_loopback():
    payload = random.Random(99).randbytes(256 * 1024)
    transport = TcpTransport("127.0.0.1", 0)
    store = {}
    receiver = Receiver(transport, collect_sink(store))
    report = send_transfer(payload, transport, 3)
    result = receiver.serve_one()
    receiver.close()
    assert report.ok, report.failure_reason
    assert result.ok, result.reason
    assert store[report.transfer_id] == payload


def test_late_stream_of_failed_transfer_is_turned_away():
    # Chunk 0 fails the transfer with a short FIN.  A chunk-1 stream that
    # arrives afterwards must be aborted without a new monitor (which would
    # hold a payload-sized buffer) and without a second completion.
    payload = b"L" * 1000
    manifest = TransferManifest.for_payload(payload, 2)
    transport = MemoryTransport()
    receiver = Receiver(transport, idle_timeout=0.6)
    s0 = transport.connect()
    s0.write_all(encode_frame(_hello_for(manifest, manifest.chunks[0])))
    s0.write_all(encode_frame(Fin(0, sha256(b""))))
    failed = receiver.serve_one()
    assert not failed.ok and "FIN after 0 of 500" in failed.reason

    s1 = transport.connect()
    s1.write_all(encode_frame(_hello_for(manifest, manifest.chunks[1])))
    s1.write_all(encode_frame(Data(1, 0, payload[500:600])))
    assert s1.read_some(timeout=0.3) == b""  # aborted at once, not left to idle out
    assert receiver.transfer_states() == []

    # Past the idle timeout a zombie would have queued its own failure
    # ahead of this transfer's completion.
    time.sleep(0.8)
    report = send_transfer(payload, transport, 2)
    result = receiver.serve_one()
    receiver.close()
    assert report.ok and result.ok
    assert result.transfer_id == report.transfer_id


def test_late_stream_of_succeeded_transfer_is_turned_away():
    # A stray chunk-0 HELLO after the transfer completed must not open a new
    # monitor (and buffer) that would later time out into a second
    # completion for the same transfer id.
    payload = b"S" * 1000
    manifest = TransferManifest.for_payload(payload, 2)
    transport = MemoryTransport()
    receiver = Receiver(transport, idle_timeout=0.6)
    report = send_transfer(payload, transport, 2, transfer_id=manifest.transfer_id)
    done = receiver.serve_one()
    assert report.ok and done.ok

    late = transport.connect()
    late.write_all(encode_frame(_hello_for(manifest, manifest.chunks[0])))
    assert late.read_some(timeout=0.3) == b""  # aborted at once, not left to idle out
    assert receiver.transfer_states() == []

    time.sleep(0.8)
    following = send_transfer(payload, transport, 2)
    result = receiver.serve_one()
    receiver.close()
    assert following.ok and result.ok
    assert result.transfer_id == following.transfer_id


def test_many_workers_under_fast_thread_switching():
    # More workers than cores, switching threads every microsecond: the
    # per-chunk writes and digests run outside the monitor lock and must
    # still land every byte in its place.
    payload = random.Random(5).randbytes(512 * 1024)
    transport = MemoryTransport()
    store = {}
    receiver = Receiver(transport, collect_sink(store), idle_timeout=20.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = send_transfer(payload, transport, 16, data_frame_bytes=1024)
        result = receiver.serve_one()
    finally:
        sys.setswitchinterval(interval)
        receiver.close()
    assert report.ok, report.failure_reason
    assert result.ok, result.reason
    assert store[report.transfer_id] == payload
    assert sum(size for _, _, size in result.timeline) == len(payload)


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
    transport = MemoryTransport()
    store = {}
    receiver = Receiver(transport, collect_sink(store), idle_timeout=10.0)
    report = send_transfer(payload, transport, connections, data_frame_bytes=frame_bytes)
    result = receiver.serve_one()
    receiver.close()
    assert report.ok, report.failure_reason
    assert result.ok, result.reason
    assert store[report.transfer_id] == payload


def test_connection_count_validation():
    with pytest.raises(ValueError):
        send_transfer(b"x", MemoryTransport(), 0)
