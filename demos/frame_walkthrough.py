"""
The wire protocol, one frame at a time
======================================

A transfer is announced per connection (HELLO), carried as offset-tagged
DATA frames, and sealed with a FIN holding the chunk digest.  This script
builds the frames of one stream, its HELLO from the transfer's manifest,
then feeds the encoded bytes to the streaming decoder in awkward little
pieces to show that framing never depends on read boundaries.  The
decoder reads frame heads only: after a DATA head, the reader takes the
payload itself, as the receiver does when it reads each payload straight
into its place in the transfer's buffer.
"""

from ptcp.wire import (
    Data,
    DataHead,
    Fin,
    FrameDecoder,
    TransferManifest,
    encode_frame,
    partition,
    root_digest,
    sha256,
)

# A small payload split across three connections.  The partition is
# remainder-first: the first (size % n) chunks carry one extra byte.
payload = bytes(range(256)) * 40  # 10240 bytes
manifest = TransferManifest.for_payload(payload, 3)
print(f"payload: {manifest.total_size} bytes, digest {manifest.payload_digest.hex()[:16]}...")
for chunk in manifest.chunks:
    print(f"  chunk {chunk.index}: offset {chunk.offset}, length {chunk.length}")

# Every stream opens with its own HELLO carrying the whole plan, so the
# receiver can reconstruct the transfer no matter which stream lands first.
chunk = manifest.chunks[1]
hello = manifest.hello(chunk.index)
body = payload[chunk.offset : chunk.offset + chunk.length]
frames = [hello]
for off in range(0, len(body), 1024):
    frames.append(Data(chunk.index, off, body[off : off + 1024]))
frames.append(Fin(chunk.index, sha256(body)))

stream_bytes = b"".join(encode_frame(f) for f in frames)
print(f"\nstream for chunk 1: {len(frames)} frames, {len(stream_bytes)} bytes on the wire")

# Feed the decoder slivers of at most 7 bytes, never past the head it is
# reading (``needed``); heads pop out whole regardless.  Each DATA head
# says how many payload bytes follow, and the reader takes them itself.
decoder = FrameDecoder()
decoded = []
pos = 0
while pos < len(stream_bytes):
    sliver = stream_bytes[pos : pos + min(7, decoder.needed)]
    pos += len(sliver)
    for frame in decoder.feed(sliver):
        if isinstance(frame, DataHead):
            piece = stream_bytes[pos : pos + frame.length]
            pos += frame.length
            frame = Data(frame.chunk_index, frame.offset_in_chunk, piece)
        decoded.append(frame)
print(f"decoded {len(decoded)} frames from reads of at most 7 bytes; residual {len(decoder.residual)} bytes")
assert decoded == frames

# Chunks in index order rebuild the payload.  (The receiver writes each
# DATA frame straight to its place in one buffer instead.)  HELLO's payload
# digest is a hash list: SHA-256 over the chunk digests in index order, so
# the receiver checks it from the FIN digests it already verified.
rebuilt = b"".join(payload[c.offset : c.offset + c.length] for c in manifest.chunks)
fin_digests = [sha256(payload[c.offset : c.offset + c.length]) for c in manifest.chunks]
root_matches = root_digest(fin_digests) == manifest.payload_digest
print(f"payload rebuilt: {rebuilt == payload}; hash-list root matches HELLO: {root_matches}")
assert rebuilt == payload
assert root_matches
