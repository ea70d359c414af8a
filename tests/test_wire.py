"""Codec and partition contract tests."""

import copy
import random
import re
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcp.wire import (
    MAX_DATA_PAYLOAD,
    ChunkAssignment,
    Data,
    DataHead,
    Fin,
    FrameDecoder,
    Hello,
    ProtocolError,
    TransferManifest,
    decode_frames,
    encode_frame,
    partition,
    sha256,
)


def test_partition_remainder_first():
    assert partition(10, 3) == [
        ChunkAssignment(0, 0, 4),
        ChunkAssignment(1, 4, 3),
        ChunkAssignment(2, 7, 3),
    ]


def test_partition_single_connection_identity():
    assert partition(8, 1) == [ChunkAssignment(0, 0, 8)]


def test_partition_more_connections_than_bytes():
    assert [c.length for c in partition(2, 4)] == [1, 1, 0, 0]


def test_partition_rejects_zero_connections():
    with pytest.raises(ValueError):
        partition(10, 0)


def test_partition_rejects_negative_size():
    with pytest.raises(ValueError):
        partition(-1, 2)


def test_partition_properties_random():
    # Coverage, disjointness, contiguity, balance over random (size, n) pairs.
    rng = random.Random(0xD15C)
    for _ in range(2000):
        total = rng.randrange(0, 2**32)
        n = rng.randrange(1, 1025)
        chunks = partition(total, n)
        assert len(chunks) == n
        offset = 0
        lengths = set()
        for i, c in enumerate(chunks):
            assert c.index == i
            assert c.offset == offset
            assert c.length >= 0
            offset += c.length
            lengths.add(c.length)
        assert offset == total
        assert max(lengths) - min(lengths) <= 1


def _random_frame(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        return Hello(
            transfer_id=rng.randbytes(16),
            total_size=rng.randrange(2**64),
            connection_count=rng.randrange(1, 2**32),
            chunk_index=rng.randrange(2**32),
            chunk_offset=rng.randrange(2**64),
            chunk_length=rng.randrange(2**64),
            payload_digest=rng.randbytes(32),
        )
    if kind == 1:
        return Data(
            chunk_index=rng.randrange(2**32),
            offset_in_chunk=rng.randrange(2**64),
            payload=rng.randbytes(rng.randrange(1, 2048)),
        )
    return Fin(chunk_index=rng.randrange(2**32), chunk_digest=rng.randbytes(32))


def test_codec_round_trip_random_frames():
    rng = random.Random(0xC0DEC)
    for _ in range(1000):
        frame = _random_frame(rng)
        decoded, residual = decode_frames(encode_frame(frame))
        assert decoded == [frame]
        assert residual == b""


_u32 = st.integers(0, 2**32 - 1)
_u64 = st.integers(0, 2**64 - 1)
_frames = st.lists(
    st.one_of(
        st.builds(
            Hello,
            st.binary(min_size=16, max_size=16),
            _u64,
            _u32,
            _u32,
            _u64,
            _u64,
            st.binary(min_size=32, max_size=32),
        ),
        st.builds(
            lambda index, offset, size: Data(index, offset, bytes([size % 251]) * size),
            _u32,
            _u64,
            st.one_of(st.integers(1, 64), st.integers(1, MAX_DATA_PAYLOAD)),
        ),
        st.builds(Fin, _u32, st.binary(min_size=32, max_size=32)),
    ),
    max_size=6,
)
LARGEST_FRAME = len(encode_frame(Data(0, 0, bytes(MAX_DATA_PAYLOAD))))


@settings(max_examples=60, deadline=None)
@given(frames=_frames, data=st.data())
def test_decoder_needed_reads_whole_frames(frames, data):
    stream = b"".join(encode_frame(f) for f in frames)
    decoder = FrameDecoder()
    out = []
    pos = 0
    while pos < len(stream):
        needed = decoder.needed
        assert 1 <= needed <= min(LARGEST_FRAME, len(stream) - pos)
        # Fewer than ``needed`` bytes never complete a frame.
        probe = copy.deepcopy(decoder)
        short = data.draw(st.integers(0, needed - 1), label="short")
        assert probe.feed(stream[pos : pos + short]) == []
        heads = decoder.feed(stream[pos : pos + needed])
        pos += needed
        for head in heads:  # a DATA head's payload follows it, for the reader to take
            if isinstance(head, DataHead):
                head = Data(head.chunk_index, head.offset_in_chunk, stream[pos : pos + head.length])
                pos += len(head.payload)
            out.append(head)
    assert out == frames == decode_frames(stream)[0]
    assert decoder.residual == b""


def test_fin_layout_is_exact():
    digest = sha256(b"chunk zero")
    encoded = encode_frame(Fin(0, digest))
    assert encoded == b"PTCP" + bytes([2, 0x03]) + (0).to_bytes(4, "big") + digest


@pytest.mark.parametrize(
    ("frame", "error", "message"),
    [
        (b"PTCP", TypeError, "not a frame: b'PTCP'"),
        (
            replace(TransferManifest.for_payload(b"x", 1).hello(0), transfer_id=bytes(15)),
            ValueError,
            "transfer_id must be 16 bytes",
        ),
        (Fin(0, bytes(31)), ValueError, "chunk_digest must be 32 bytes"),
    ],
    ids=["not-a-frame", "15-byte-transfer-id", "31-byte-digest"],
)
def test_encode_frame_rejects_what_is_not_a_whole_frame(frame, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        encode_frame(frame)


def test_data_zero_payload_rejected():
    with pytest.raises(ValueError):
        encode_frame(Data(2, 0, b""))


def test_data_oversize_payload_rejected():
    with pytest.raises(ValueError):
        encode_frame(Data(0, 0, b"x" * (64 * 1024 + 1)))


def test_data_max_payload_accepted():
    frame = Data(0, 0, b"x" * (64 * 1024))
    assert decode_frames(encode_frame(frame))[0] == [frame]


def test_decode_empty_buffer():
    assert decode_frames(b"") == ([], b"")


def test_streaming_decode_split_invariant():
    # Two frame heads, split at every byte boundary: always the same two
    # frames.  The decoder reads heads only; a DATA payload is its reader's.
    f1 = Hello(b"\x01" * 16, 1000, 4, 2, 500, 250, sha256(b"payload"))
    f2 = DataHead(2, 0, len(b"hello chunk data"))
    stream = encode_frame(f1) + encode_frame(f2)
    for cut in range(len(stream) + 1):
        decoder = FrameDecoder()
        frames = decoder.feed(stream[:cut])
        frames += decoder.feed(stream[cut:])
        assert frames == [f1, f2]
        assert decoder.residual == b""


def test_streaming_decode_byte_by_byte():
    frames_in = [Fin(7, sha256(b"a")), Data(7, 9, b"zz"), Fin(8, sha256(b"b"))]
    stream = b"".join(encode_frame(f) for f in frames_in)
    decoder = FrameDecoder()
    out = []
    pos = 0
    while pos < len(stream):
        heads = decoder.feed(stream[pos : pos + 1])
        pos += 1 + sum(h.length for h in heads if isinstance(h, DataHead))  # the reader takes payloads
        out += heads
    assert out == [frames_in[0], DataHead(7, 9, 2), frames_in[2]]


def test_feeding_past_a_data_head_is_an_error():
    # The payload after a DATA head is its reader's to take, never the decoder's.
    with pytest.raises(ValueError, match="past a DATA head"):
        FrameDecoder().feed(encode_frame(Data(0, 0, b"payload")))


def test_bad_magic_reports_offset_zero():
    with pytest.raises(ProtocolError) as exc:
        decode_frames(b"JUNKJUNKJUNK")
    assert exc.value.offset == 0


def test_bad_magic_offset_after_valid_frame():
    good = encode_frame(Fin(1, sha256(b"")))
    with pytest.raises(ProtocolError) as exc:
        decode_frames(good + b"XXXXXX")
    assert exc.value.offset == len(good)


def test_unknown_version_rejected():
    frame = bytearray(encode_frame(Fin(1, sha256(b""))))
    frame[4] = 9
    with pytest.raises(ProtocolError):
        decode_frames(bytes(frame))


def test_unknown_kind_rejected():
    frame = bytearray(encode_frame(Fin(1, sha256(b""))))
    frame[5] = 0x7F
    with pytest.raises(ProtocolError):
        decode_frames(bytes(frame))


def test_partial_frame_is_residual():
    encoded = encode_frame(Data(0, 0, b"abcdef"))
    frames, residual = decode_frames(encoded[:-3])
    assert frames == []
    assert residual == encoded[:-3]


def test_manifest_invariants():
    payload = b"0123456789"
    manifest = TransferManifest.for_payload(payload, 3)
    assert manifest.total_size == 10
    assert [c.length for c in manifest.chunks] == [4, 3, 3]
    assert manifest.chunk_digests == (sha256(b"0123"), sha256(b"456"), sha256(b"789"))
    # HELLO's payload digest is the hash-list root over the chunk digests.
    assert manifest.payload_digest == sha256(sha256(b"0123") + sha256(b"456") + sha256(b"789"))


def test_manifest_hello_announces_its_chunk():
    manifest = TransferManifest.for_payload(b"0123456789", 3)
    assert manifest.hello(1) == Hello(manifest.transfer_id, 10, 3, 1, 4, 3, manifest.payload_digest)


# encode_frame refuses what these heads carry, so they are packed by hand.


@pytest.mark.parametrize("head", [b"X", b"PX", b"PTCX", b"QTCP\x02"])
def test_bad_magic_in_a_short_head_reports_its_offset(head):
    # Fewer than the 6 header bytes already show a wrong magic.
    with pytest.raises(ProtocolError, match="bad frame magic") as exc:
        FrameDecoder().feed(head)
    assert exc.value.offset == 0
    good = encode_frame(Fin(1, sha256(b"")))
    decoder = FrameDecoder()
    assert decoder.feed(good) == [Fin(1, sha256(b""))]
    with pytest.raises(ProtocolError, match="bad frame magic") as exc:
        decoder.feed(head)
    assert exc.value.offset == len(good)


@pytest.mark.parametrize(
    ("length", "message"),
    [(0, "zero-length DATA payload"), (MAX_DATA_PAYLOAD + 1, f"DATA payload length {MAX_DATA_PAYLOAD + 1} exceeds cap")],
    ids=["zero", "past-cap"],
)
def test_data_head_length_outside_its_range_is_rejected_at_its_body(length, message):
    # The offset is that of the head's body, after the 6 header bytes, in
    # the whole stream: here one FIN precedes the head.
    good = encode_frame(Fin(1, sha256(b"")))
    head = b"PTCP" + bytes([2, 0x02]) + struct.pack("!IQI", 0, 0, length)
    with pytest.raises(ProtocolError) as exc:
        FrameDecoder().feed(head)
    assert str(exc.value) == f"{message} (at byte 6)"
    assert exc.value.offset == 6
    decoder = FrameDecoder()
    decoder.feed(good)
    with pytest.raises(ProtocolError) as exc:
        decoder.feed(head)
    assert exc.value.offset == len(good) + 6
