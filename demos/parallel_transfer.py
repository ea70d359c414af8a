"""
A striped transfer, end to end
==============================

One sender splits a payload over four concurrent TCP connections on the
loopback interface; the receiver writes every chunk in place into one
buffer and hands it over once the last FIN verifies.  Both ends run in
this one process, so the demo needs no second terminal; ``ptcp recv`` and
``ptcp send`` run the same code across hosts.
"""

from contextlib import closing

import numpy as np

from ptcp.striping import Receiver, send_transfer
from ptcp.transport import TcpTransport
from ptcp.wire import sha256

rng = np.random.Generator(np.random.PCG64(1))
payload = rng.integers(0, 256, 1024 * 1024, dtype=np.uint8).tobytes()
print(f"sending {len(payload)} bytes over 4 connections")

received = {}

# The receiver listens on a free port, which its transport then reads as
# ``port``, before the sender connects, then serves one transfer on the
# main thread; the sender runs in a transport-spawned worker, exactly as
# the per-chunk senders do.  Closing the sender's transport closes the
# connections it kept for a next transfer.
receiving = TcpTransport("127.0.0.1", 0)
receiver = Receiver(receiving, sink=lambda tid, data: received.update(payload=data))
with closing(TcpTransport("127.0.0.1", receiving.port)) as transport:
    sender = transport.spawn(
        lambda: received.update(report=send_transfer(payload, transport, 4)),
        name="sender",
    )
    result = receiver.serve_one()
    sender.join()
receiver.close()

report = received["report"]
print(f"\nsender: ok={report.ok}, {report.bytes_sent} bytes in {report.wall_time:.3f} s")
for stat in report.per_connection:
    print(f"  connection {stat.chunk_index}: {stat.bytes} bytes")

print(f"\nreceiver: ok={result.ok}, {result.total_size} bytes in {result.wall_time:.3f} s")
digests_match = sha256(received["payload"]) == sha256(payload)
print(f"digests match: {digests_match}")

# The receiver times each connection too, from its HELLO to its verified
# FIN, in seconds after the transfer's first HELLO.
for stat in result.per_connection:
    print(
        f"  connection {stat.chunk_index}: {stat.bytes} bytes "
        f"[{stat.start_time:.4f} s .. {stat.end_time:.4f} s]"
    )

assert report.ok and result.ok and digests_match
