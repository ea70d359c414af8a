"""Check the receiver's buffer-reuse rule on the interpreter running this script.

A receiver refills its spare receive buffer only when ``sys.getrefcount``
reads the figure ``striping._sole_refcount()`` measured at import, and that
figure may differ between interpreter versions.  The tests that pin the
rule need numpy and pytest; this check needs only the standard library.  It
loads ``ptcp.striping`` through a stub ``ptcp`` package, so the package's
``__init__`` and its numpy import never run, and sends two transfers of one
size over loopback TCP, twice:

- to a sink that lets go of each payload: the second transfer must refill
  the first one's buffer;
- to a sink that keeps each payload: the second must get a buffer of its own.

Where reference counts cannot show every holder (no ``sys.getrefcount``, or
no GIL) the receiver keeps no spare, and both runs must allocate twice.

Run it with each interpreter to check, from any directory:

    python3.12 tools/check_buffer_reuse.py

It prints what it found and exits 0 when every check holds, else 1.
"""

import importlib
import os
import platform
import sys
import types
import weakref

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "ptcp")
PAYLOAD_SIZE = 200_000


def load_modules():
    """``ptcp.striping`` and ``ptcp.transport``, without ``ptcp/__init__.py``."""
    package = types.ModuleType("ptcp")
    package.__path__ = [SRC]
    sys.modules["ptcp"] = package
    return importlib.import_module("ptcp.striping"), importlib.import_module("ptcp.transport")


def two_transfers(striping, transport_module, keep: bool) -> tuple[int, list[bool]]:
    """How many receive buffers two transfers of one size allocated, and for
    each delivery whether the sink got the first one's buffer."""
    allocated = []

    class Buffer(bytearray):  # takes weak references, as bytearray does not
        pass

    def allocate(size):
        buffer = Buffer(size)
        allocated.append(weakref.ref(buffer))
        return buffer

    kept, first_buffer = [], []

    def sink(transfer_id, payload):
        first_buffer.append(payload is allocated[0]())
        if keep:
            kept.append(payload)

    striping.bytearray = allocate  # found before the builtin
    transport = transport_module.TcpTransport("127.0.0.1", 0)
    receiver = striping.Receiver(transport, sink, idle_timeout=5.0)
    try:
        for fill in (1, 2):
            report = striping.send_transfer(bytes([fill]) * PAYLOAD_SIZE, transport, 2)
            result = receiver.serve_one()
            if not (report.ok and result.ok):
                raise RuntimeError(f"transfer failed: {report.failure_reason or result.reason}")
    finally:
        receiver.close()
        transport.close()
        del striping.bytearray
    return len(allocated), first_buffer


def main() -> int:
    striping, transport_module = load_modules()
    counts_tell = hasattr(sys, "getrefcount") and getattr(sys, "_is_gil_enabled", lambda: True)()
    sole = striping._SOLE_REFCOUNT
    let_go = two_transfers(striping, transport_module, keep=False)
    kept = two_transfers(striping, transport_module, keep=True)
    failures = []
    if counts_tell and sole is None:
        failures.append("_SOLE_REFCOUNT is None where reference counts can tell")
    if let_go != ((1, [True, True]) if counts_tell else (2, [True, False])):
        failures.append(f"a spare the sink let go of: {let_go[0]} buffers, first buffer delivered {let_go[1]}")
    if kept != (2, [True, False]):
        failures.append(f"a spare the sink kept: {kept[0]} buffers, first buffer delivered {kept[1]}")
    print(
        f"{platform.python_implementation()} {platform.python_version()}: _SOLE_REFCOUNT={sole}, "
        f"buffers for two transfers: {let_go[0]} when the sink lets go, {kept[0]} when it keeps; "
        + ("; ".join(failures) if failures else "OK")
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
