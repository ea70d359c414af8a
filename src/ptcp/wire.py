"""Binary wire protocol and chunk partitioning for parallel striped transfers.

Every connection of a striped transfer carries the same self-delimiting frame
stream.  A connection carries one chunk sequence after another (HELLO, DATA,
FIN, the receiver's FIN receipt) until the sender closes it; each HELLO may
name another transfer.  Every frame opens with the same header (all integers
big-endian):

    magic    4 bytes   0x50 0x54 0x43 0x50 ("PTCP")
    version  u8        2
    kind     u8        HELLO=0x01, DATA=0x02, FIN=0x03

and its body follows: the fields of its frame class in order, each packed
by one code of the kind's row in ``_LAYOUTS``, the one statement of the
layout that both ``encode_frame`` and ``FrameDecoder`` read.  An ``Ns``
code is a field of exactly N bytes.  A DATA frame's payload follows its
body, ``length`` bytes of it.

``FrameDecoder`` decodes heads only: a DATA frame comes out as a
``DataHead`` (header through length), and its reader takes the payload.

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
from dataclasses import dataclass, field, fields
from enum import IntEnum
from operator import attrgetter
from typing import NamedTuple

MAGIC = b"PTCP"
VERSION = 2
MAX_DATA_PAYLOAD = 64 * 1024
DIGEST_SIZE = 32
TRANSFER_ID_SIZE = 16

_HEADER = struct.Struct("!4sBB")


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

    def hello(self, index: int) -> Hello:
        """The HELLO that opens chunk ``index``'s sequence."""
        chunk = self.chunks[index]  # its index, offset and length, as HELLO orders them
        return Hello(self.transfer_id, self.total_size, self.connection_count, *chunk, self.payload_digest)


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


class _Layout:
    """One frame kind's head: the class it decodes to, and its body's struct,
    one code per field of that class."""

    def __init__(self, cls: type, codes: str):
        names = [f.name for f in fields(cls)]
        self.cls = cls
        self.body = struct.Struct("!" + codes)
        self.header = _HEADER.pack(MAGIC, VERSION, cls.kind)
        self.values = attrgetter(*names)
        self.sized = [(i, names[i], int(code[:-1])) for i, code in enumerate(codes.split()) if code.endswith("s")]


_LAYOUTS = {
    layout.cls.kind: layout
    for layout in (
        _Layout(Hello, f"{TRANSFER_ID_SIZE}s Q I I Q Q {DIGEST_SIZE}s"),
        _Layout(DataHead, "I Q I"),  # the payload follows: ``length`` bytes
        _Layout(Fin, f"I {DIGEST_SIZE}s"),
    )
}
_ENCODINGS = {layout.cls: layout for layout in _LAYOUTS.values()}
_SHORTEST_HEAD = _HEADER.size + min(layout.body.size for layout in _LAYOUTS.values())


def _length_fault(length: int) -> str | None:
    """Why a DATA payload length is outside 1..MAX_DATA_PAYLOAD, or None."""
    if length > MAX_DATA_PAYLOAD:
        return f"DATA payload length {length} exceeds cap"
    if length < 1:
        return "zero-length DATA payload"
    return None


def encode_frame(frame: Frame) -> bytes:
    """A frame's bytes on the wire; a ``DataHead``'s are those before its payload."""
    if isinstance(frame, Data):
        return encode_frame(DataHead(frame.chunk_index, frame.offset_in_chunk, len(frame.payload))) + frame.payload
    layout = _ENCODINGS.get(type(frame))
    if layout is None:
        raise TypeError(f"not a frame: {frame!r}")
    values = layout.values(frame)
    if layout.cls is DataHead and _length_fault(frame.length):
        raise ValueError(f"DATA payload length {frame.length} outside 1..{MAX_DATA_PAYLOAD}")
    for i, name, size in layout.sized:
        if len(values[i]) != size:
            raise ValueError(f"{name} must be {size} bytes")
    return layout.header + layout.body.pack(*values)


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
        layout = _LAYOUTS.get(kind)
        if layout is None:
            raise ProtocolError(f"unknown frame kind 0x{kind:02x}", self._consumed + 5)
        end = _HEADER.size + layout.body.size
        if len(buf) < end:
            return None, end - len(buf)
        frame = layout.cls(*layout.body.unpack_from(buf, _HEADER.size))
        if layout.cls is DataHead and (fault := _length_fault(frame.length)):
            raise ProtocolError(fault, self._consumed + _HEADER.size)
        return frame, end


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
