"""Paired timing of two ptcp source trees in one process, pinned to one CPU.

    python3 tools/ab_pairs.py PARENT_SRC CHANGE_SRC {sweep,simwire,loopback} [--pairs N] [--cpu K]

Each SRC is a directory holding a ``ptcp`` package, such as ``src`` of a
checkout or of ``git archive`` output.  The parent tree loads as package
``ptcp_parent`` and the change as ``ptcp_change``, side by side in this
process, which pins itself (and every thread it starts) to one CPU.  Each
of N pairs (default 10) runs the operation once on each side, and the side
that runs first alternates from pair to pair.  Runs in separate processes
cannot resolve ±10% on a host whose speed drifts up to 2x within minutes;
runs paired in one process see the same drift on both sides.  The
operations:

- ``sweep``: ``harness.run_experiment`` on the default config, seed 0;
  each side's ``throughput.csv`` and ``fairness.csv`` digests must match
  the other side's and stay the same from run to run.
- ``simwire``: ``simbridge.simulate_transfer`` of 16 MiB over 2 simulated
  connections on the 100 Mbit/s, 10 ms, 100-packet, 1%-loss link, seed 0;
  the fingerprint (virtual time, segments sent, losses) must match
  likewise, and the payload must arrive whole.
- ``loopback``: 64 KiB transfers over 2 loopback TCP connections kept
  from one transfer to the next, started 10 ms apart; a sample is the
  median of ``BATCH`` transfers, and every payload must arrive whole.

Prints each side's median and the parent's interquartile range, in
milliseconds, the median of the per-pair ratios change / parent, and in
how many pairs the change was faster.  Exits 1 when an output check fails.
Uses only the standard library.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BATCH = 50  # loopback transfers per sample
SPACING_S = 0.010  # between loopback transfers, as the loopback_small workload starts them
SIM_LINK = dict(capacity=100e6, one_way_delay=0.010, queue_limit=100, loss_probability=0.01, seed=0)


def load(src: str, name: str):
    """The ``ptcp`` package under ``src``, imported as package ``name``."""
    init = Path(src).resolve() / "ptcp" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("harness", "simbridge", "simnet", "striping", "transport"):
        importlib.import_module(f"{name}.{module}")  # which binds it on the package
    return package


class Sweep:
    def __init__(self, ptcp):
        self.ptcp = ptcp
        self.out = tempfile.mkdtemp(prefix="ab-sweep-")
        self.config = ptcp.harness.parse_experiment(f"seed=0\nout={self.out}\n")

    def run(self) -> tuple[float, tuple]:
        start = time.perf_counter()
        self.ptcp.harness.run_experiment(self.config)
        seconds = time.perf_counter() - start
        digests = tuple(
            hashlib.sha256((Path(self.out) / name).read_bytes()).hexdigest()[:16]
            for name in ("throughput.csv", "fairness.csv")
        )
        return seconds, digests

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class SimWire:
    def __init__(self, ptcp):
        self.ptcp = ptcp
        self.payload = random.Random(0).randbytes(16 * 1024 * 1024)

    def run(self) -> tuple[float, tuple]:
        simnet = self.ptcp.simnet
        network = simnet.Network(simnet.LinkConfig(**SIM_LINK))
        start = time.perf_counter()
        report, result, received = self.ptcp.simbridge.simulate_transfer(network, self.payload, 2)
        seconds = time.perf_counter() - start
        sent = sum(flow.sent_segments for flow in network.flows.values())
        whole = report.ok and result.ok and received == self.payload
        return seconds, (repr(report.wall_time), sent, network.bernoulli_losses, whole)


class Loopback:
    def __init__(self, ptcp):
        transport = ptcp.transport
        self.payload = random.Random(1).randbytes(64 * 1024)
        self.received = {}
        recv_transport = transport.TcpTransport("127.0.0.1", 0)
        self.receiver = ptcp.striping.Receiver(recv_transport, self.received.__setitem__)
        self.sender = transport.TcpTransport("127.0.0.1", recv_transport.port)
        self.send_transfer = ptcp.striping.send_transfer

    def run(self) -> tuple[float, tuple]:
        times, whole = [], True
        for _ in range(BATCH):
            start = time.perf_counter()
            report = self.send_transfer(self.payload, self.sender, 2)
            result = self.receiver.serve_one()
            times.append(time.perf_counter() - start)
            whole &= report.ok and result.ok and self.received.pop(result.transfer_id, None) == self.payload
            time.sleep(max(0.0, SPACING_S - times[-1]))
        return statistics.median(times), (whole,)

    def close(self) -> None:
        self.sender.close()
        self.receiver.close()


OPERATIONS = {"sweep": Sweep, "simwire": SimWire, "loopback": Loopback}


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("operation", choices=sorted(OPERATIONS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)))
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    os.sched_setaffinity(0, {args.cpu})  # before any thread starts, so that all of them inherit it
    sys.dont_write_bytecode = True  # leave both trees as they were
    sides = {name: OPERATIONS[args.operation](load(src, f"ptcp_{name}"))
             for name, src in (("parent", args.parent_src), ("change", args.change_src))}
    times = {name: [] for name in sides}
    outputs = {name: set() for name in sides}
    try:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for name in order:
                gc.collect()  # untimed: each run starts from the same heap
                seconds, output = sides[name].run()
                times[name].append(seconds)
                outputs[name].add(output)
            print(f"pair {pair + 1}: parent {times['parent'][-1] * 1e3:.3f} ms, change {times['change'][-1] * 1e3:.3f} ms")
    finally:
        for side in sides.values():
            getattr(side, "close", lambda: None)()
    parent, change = times["parent"], times["change"]
    ratios = [c / p for p, c in zip(parent, change)]
    q1, q3 = quartiles(parent)
    print(f"{args.operation}, {args.pairs} pairs on CPU {args.cpu}")
    print(f"parent median {statistics.median(parent) * 1e3:.3f} ms, IQR {(q3 - q1) * 1e3:.3f} ms "
          f"[{q1 * 1e3:.3f}-{q3 * 1e3:.3f}]")
    print(f"change median {statistics.median(change) * 1e3:.3f} ms")
    print(f"paired ratio change/parent, median {statistics.median(ratios):.3f}; "
          f"change faster in {sum(c < p for p, c in zip(parent, change))} of {args.pairs} pairs")
    print(f"outputs: parent {sorted(outputs['parent'])}, change {sorted(outputs['change'])}")
    same = len(outputs["parent"]) == 1 and outputs["parent"] == outputs["change"]
    whole = all(output[-1] is not False for output in outputs["parent"] | outputs["change"])
    if not (same and whole):
        print("output check FAILED: the sides differ, vary from run to run, or lost bytes", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
