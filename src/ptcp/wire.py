"""Binary wire protocol and chunk partitioning for parallel striped transfers.

Every connection of a striped transfer carries the same self-delimiting frame
stream.  A connection carries one chunk sequence after another (HELLO, DATA,
FIN, the receiver's FIN receipt) until the sender closes it; each HELLO may
name another transfer.  Frame layout (all integers big-endian):

    magic    4 bytes   0x50 0x54 0x43 0x50 ("PTCP")
    version  u8        2
    kind     u8        HELLO=0x01, DATA=0x02, FIN=0x03
    body     kind-specific, fixed size except DATA (length-prefixed payload)

    HELLO body: transfer_id (16) | total_size u64 | connection_count u32 |
                chunk_index u32 | chunk_offset u64 | chunk_length u64 |
                payload_digest (32)
    DATA  body: chunk_index u32 | offset_in_chunk u64 | payload_len u32 | payload
    FIN   body: chunk_index u32 | chunk_digest (32)

``FrameDecoder`` decodes heads only: a DATA frame comes out as a
``DataHead`` (magic through payload_len), and its reader takes the payload.

Digests are SHA-256.  A FIN's chunk_digest covers its chunk's bytes.
HELLO's payload_digest is the root of a one-level hash list over those chunk
digests: sha256(chunk_digest_0 || ... || chunk_digest_{n-1}), in chunk-index
order (``root_digest``), so each side hashes every payload byte once.  The
version is 2 because version 1 peers, with the same layout, hashed the whole
payload into payload_digest.  A DATA payload is capped at 64 KiB and must be
non-empty; an empty chunk is carried by HELLO+FIN alone.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

MAGIC = b"PTCP"
VERSION = 2
MAX_DATA_PAYLOAD = 64 * 1024
DIGEST_SIZE = 32
TRANSFER_ID_SIZE = 16

_HEADER = struct.Struct("!4sBB")
_HELLO_BODY = struct.Struct("!16sQIIQQ32s")
_DATA_HEAD = struct.Struct("!IQI")
_FIN_BODY = struct.Struct("!I32s")
_SHORTEST_HEAD = _HEADER.size + _DATA_HEAD.size  # no frame is shorter than a DATA head


class FrameKind(IntEnum):
    HELLO = 0x01
    DATA = 0x02
    FIN = 0x03


class ProtocolError(Exception):
    """Malformed or out-of-contract frame stream.

    ``offset`` is the absolute byte offset of the offending byte within the
    decoded stream, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (at byte {offset})")
        self.offset = offset


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def root_digest(chunk_digests) -> bytes:
    """HELLO's payload digest: SHA-256 over the chunk digests in index order."""
    return sha256(b"".join(chunk_digests))


class ChunkAssignment(NamedTuple):
    """One connection's slice of the payload: contiguous [offset, offset+length)."""

    index: int
    offset: int
    length: int


def partition(total_size: int, connection_count: int) -> list[ChunkAssignment]:
    """Split ``total_size`` bytes into ``connection_count`` contiguous chunks.

    The first ``total_size % connection_count`` chunks carry one extra byte,
    so chunk lengths differ by at most one.  Empty chunks are legal when
    there are more connections than bytes.
    """
    if connection_count < 1:
        raise ValueError(f"connection_count must be >= 1, got {connection_count}")
    if total_size < 0:
        raise ValueError(f"total_size must be >= 0, got {total_size}")
    return [chunk_assignment(total_size, connection_count, i) for i in range(connection_count)]


def chunk_assignment(total_size: int, connection_count: int, index: int) -> ChunkAssignment:
    """Entry ``index`` of ``partition(total_size, connection_count)``,
    computed without building the list."""
    base, extra = divmod(total_size, connection_count)
    return ChunkAssignment(index, index * base + min(index, extra), base + (index < extra))


@dataclass(frozen=True)
class TransferManifest:
    """Chunk table binding byte ranges to connection sequence numbers, with
    each chunk's digest and the hash-list root over them."""

    transfer_id: bytes
    total_size: int
    connection_count: int
    chunks: tuple[ChunkAssignment, ...]
    chunk_digests: tuple[bytes, ...]
    payload_digest: bytes

    @classmethod
    def for_payload(
        cls, payload: bytes, connection_count: int, transfer_id: bytes | None = None
    ) -> "TransferManifest":
        if transfer_id is None:
            transfer_id = os.urandom(TRANSFER_ID_SIZE)
        chunks = tuple(partition(len(payload), connection_count))
        with memoryview(payload) as view:
            chunk_digests = tuple(sha256(view[c.offset : c.offset + c.length]) for c in chunks)
        return cls(
            transfer_id=transfer_id,
            total_size=len(payload),
            connection_count=connection_count,
            chunks=chunks,
            chunk_digests=chunk_digests,
            payload_digest=root_digest(chunk_digests),
        )


@dataclass(frozen=True)
class Hello:
    """Per-connection transfer announcement; every stream carries its own."""

    transfer_id: bytes
    total_size: int
    connection_count: int
    chunk_index: int
    chunk_offset: int
    chunk_length: int
    payload_digest: bytes

    kind = FrameKind.HELLO


@dataclass(frozen=True)
class Data:
    chunk_index: int
    offset_in_chunk: int
    payload: bytes = field(repr=False)

    kind = FrameKind.DATA


@dataclass(frozen=True)
class DataHead:
    """A DATA frame up to its payload: the ``length`` bytes after it on the wire."""

    chunk_index: int
    offset_in_chunk: int
    length: int

    kind = FrameKind.DATA


@dataclass(frozen=True)
class Fin:
    """End-of-chunk marker carrying the chunk's SHA-256."""

    chunk_index: int
    chunk_digest: bytes

    kind = FrameKind.FIN


Frame = Hello | Data | DataHead | Fin


def encode_frame(frame: Frame) -> bytes:
    """A frame's bytes on the wire; a ``DataHead``'s are those before its payload."""
    if isinstance(frame, Data):
        return encode_frame(DataHead(frame.chunk_index, frame.offset_in_chunk, len(frame.payload))) + frame.payload
    header = _HEADER.pack(MAGIC, VERSION, frame.kind)
    if isinstance(frame, Hello):
        if len(frame.transfer_id) != TRANSFER_ID_SIZE:
            raise ValueError("transfer_id must be 16 bytes")
        if len(frame.payload_digest) != DIGEST_SIZE:
            raise ValueError("payload_digest must be 32 bytes")
        body = _HELLO_BODY.pack(
            frame.transfer_id,
            frame.total_size,
            frame.connection_count,
            frame.chunk_index,
            frame.chunk_offset,
            frame.chunk_length,
            frame.payload_digest,
        )
    elif isinstance(frame, DataHead):
        if not 0 < frame.length <= MAX_DATA_PAYLOAD:
            raise ValueError(f"DATA payload length {frame.length} outside 1..{MAX_DATA_PAYLOAD}")
        body = _DATA_HEAD.pack(frame.chunk_index, frame.offset_in_chunk, frame.length)
    elif isinstance(frame, Fin):
        if len(frame.chunk_digest) != DIGEST_SIZE:
            raise ValueError("chunk_digest must be 32 bytes")
        body = _FIN_BODY.pack(frame.chunk_index, frame.chunk_digest)
    else:
        raise TypeError(f"not a frame: {frame!r}")
    return header + body


class FrameDecoder:
    """Incremental decoder of frame heads.

    Feed byte slices; frames come out as their heads close: HELLO and FIN
    whole, DATA as a ``DataHead``, which ends the feed.  Its ``length``
    payload bytes are the caller's to take, so feeding a byte past a DATA
    head is an error.  ``needed`` is how many more bytes the next head needs
    before feeding can yield it: at least 1, and never past that head.
    """

    def __init__(self):
        self._buf = bytearray()
        self._consumed = 0  # absolute offset of _buf[0] in the stream
        self.needed = _SHORTEST_HEAD

    @property
    def residual(self) -> bytes:
        return bytes(self._buf)

    def feed(self, data) -> list[Frame]:
        self._buf.extend(data)
        frames = []
        while True:
            frame, used = self._try_decode_one()
            if frame is None:
                self.needed = used
                return frames
            del self._buf[:used]
            self._consumed += used
            frames.append(frame)
            if isinstance(frame, DataHead):
                if self._buf:
                    raise ValueError("bytes fed past a DATA head, into its payload")
                self._consumed += frame.length  # the payload, which its reader takes

    def _try_decode_one(self) -> tuple[Frame | None, int]:
        """``(frame, bytes it used)``, or ``(None, bytes still missing)``."""
        buf = self._buf
        if len(buf) < _HEADER.size:
            if buf and not MAGIC.startswith(bytes(buf[:4])):
                raise ProtocolError("bad frame magic", self._consumed)
            return None, _SHORTEST_HEAD - len(buf)
        magic, version, kind = _HEADER.unpack_from(buf)
        if magic != MAGIC:
            raise ProtocolError("bad frame magic", self._consumed)
        if version != VERSION:
            raise ProtocolError(f"unsupported version {version}", self._consumed + 4)
        pos = _HEADER.size
        if kind == FrameKind.HELLO:
            if len(buf) < pos + _HELLO_BODY.size:
                return None, pos + _HELLO_BODY.size - len(buf)
            (tid, total, count, idx, off, length, digest) = _HELLO_BODY.unpack_from(buf, pos)
            return Hello(tid, total, count, idx, off, length, digest), pos + _HELLO_BODY.size
        if kind == FrameKind.DATA:
            if len(buf) < pos + _DATA_HEAD.size:
                return None, pos + _DATA_HEAD.size - len(buf)
            idx, off, plen = _DATA_HEAD.unpack_from(buf, pos)
            if plen > MAX_DATA_PAYLOAD:
                raise ProtocolError(f"DATA payload length {plen} exceeds cap", self._consumed + pos)
            if plen == 0:
                raise ProtocolError("zero-length DATA payload", self._consumed + pos)
            return DataHead(idx, off, plen), pos + _DATA_HEAD.size
        if kind == FrameKind.FIN:
            if len(buf) < pos + _FIN_BODY.size:
                return None, pos + _FIN_BODY.size - len(buf)
            idx, digest = _FIN_BODY.unpack_from(buf, pos)
            return Fin(idx, digest), pos + _FIN_BODY.size
        raise ProtocolError(f"unknown frame kind 0x{kind:02x}", self._consumed + 5)


def decode_frames(buffer: bytes) -> tuple[list[Frame], bytes]:
    """One-shot decode: all complete frames, DATA with its payload, plus the
    unconsumed tail; read as a receiver reads, head by head, then payload."""
    decoder = FrameDecoder()
    frames = []
    start = pos = 0  # where the frame being read begins, and how far it is read
    while pos < len(buffer):
        end = pos + decoder.needed
        for frame in decoder.feed(buffer[pos:end]):  # at most one: the head ``needed`` closes
            if isinstance(frame, DataHead):
                end += frame.length
                frame = Data(frame.chunk_index, frame.offset_in_chunk, bytes(buffer[end - frame.length : end]))
            if end <= len(buffer):  # else the payload is cut short
                frames.append(frame)
                start = end
        pos = end
    return frames, bytes(buffer[start:])
