"""The four benchmark workloads, driven through ptcp's public API.

Each workload is built in two steps: the constructor builds the program
objects (the part timed as ``setup_s``), and ``prepare`` makes the seeded
inputs.  ``op`` then runs one closed-loop operation and checks its output:
one transfer on the loopback and simulated-wire workloads, one whole
experiment sweep on ``sweep_default``.

Only the benchmark seed chooses inputs: the payload bytes, the transfer
ids and the simulated link's loss seed.  The program never sees the seed
itself.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import struct
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ptcp import harness, simnet
from ptcp.simbridge import SimHub, SimTransport
from ptcp.simnet import LinkConfig, Network
from ptcp.striping import Receiver, send_transfer, serve
from ptcp.transport import TcpTransport
from reference import Pace
from tracing import Patches

# Captured before any tracing patch, so the benchmark's own checks are
# never counted as the program's hashing.
_sha256 = hashlib.sha256

DEFAULT_SEED = 0
CONNECTIONS = 2  # the target host has 2 cores; more connections would measure the scheduler
HOST = "127.0.0.1"

# loopback_small opens two connections per transfer, and each one leaves a
# socket in TIME_WAIT for 60 s.  Starting a transfer at most every 10 ms
# keeps that to 12000 sockets, well inside the ephemeral port range
# (32768-60999), however long or many the runs.
SMALL_SPACING_S = 0.010

SIM_PAYLOAD = 16 * 1024 * 1024
SIM_LINK = dict(capacity=100e6, one_way_delay=0.010, queue_limit=100, loss_probability=0.01)

# Outputs pinned at DEFAULT_SEED: virtual completion time (repr of the
# sender's wall_time), segments sent, Bernoulli losses.
SIMWIRE_FINGERPRINT = ("7.796399999999838", 11297, 103)
# sha256 of throughput.csv and fairness.csv of the default sweep.
SWEEP_DIGESTS = (
    "d8cafc401d088bdafd7f17f1d0c93c88fac8d0bf29621af1cd08c4538c13a949",
    "e6be257c421e11bd2b75de3ee17df67dd85bdd55f0ca3df66065ee0a58b7c26b",
)


class CheckFailed(Exception):
    """An output did not match what the inputs require."""


@dataclass
class OpResult:
    seconds: float  # host wall time of the whole operation
    payload_bytes: int  # application bytes moved, 0 when the operation failed
    attempted: int
    failed: int
    model: dict = field(default_factory=dict)  # simulator counters, summed


def seeded_bytes(seed: int, size: int) -> bytes:
    return np.random.Generator(np.random.PCG64(seed)).bytes(size)


def transfer_id(seed: int, index: int) -> bytes:
    return struct.pack(">QQ", seed, index)


def network_counters(networks) -> dict:
    """Model outputs of finished simulations, summed over ``networks``."""
    counts = dict(sent=0, delivered=0, drops=0, bernoulli_losses=0, timeouts=0, halvings=0)
    for network in networks:
        counts["drops"] += network.drops
        counts["bernoulli_losses"] += network.bernoulli_losses
        for flow in network.flows.values():
            counts["sent"] += flow.sent_segments
            counts["delivered"] += len(flow.delivery_log)
            counts["timeouts"] += flow.timeouts
            counts["halvings"] += flow.halvings
    return counts


class Loopback:
    """One seeded payload sent over 2 TCP connections on 127.0.0.1, one
    transfer after another, sender and receiver in this process."""

    def __init__(self, seed: int, payload_size: int, spacing_s: float = 0.0):
        self.seed = seed
        self.payload_size = payload_size
        self.spacing_s = spacing_s
        self._received: dict[bytes, bytes] = {}
        self._open_receiver()

    def _open_receiver(self) -> None:
        recv_transport = TcpTransport(HOST, 0)
        self.receiver = Receiver(recv_transport, sink=self._received.__setitem__)
        self.sender = TcpTransport(HOST, recv_transport.port)

    def prepare(self) -> None:
        self.payload = seeded_bytes(self.seed, self.payload_size)

    def op(self, index: int) -> OpResult:
        tid = transfer_id(self.seed, index)
        start = time.perf_counter()
        report = send_transfer(self.payload, self.sender, CONNECTIONS, transfer_id=tid)
        if not report.ok:
            print(f"transfer {index} failed at the sender: {report.failure_reason}", file=sys.stderr)
            # A connect error (TIME_WAIT churn) or broken stream: count it and
            # start over on a fresh receiver, so a half-open transfer cannot
            # leave a stray completion behind.
            seconds = time.perf_counter() - start
            self.receiver.close()
            self._received.clear()
            self._open_receiver()
            return OpResult(seconds, 0, 1, 1)
        result = self.receiver.serve_one()
        seconds = time.perf_counter() - start
        received = self._received.pop(tid, None)
        if not result.ok:
            print(f"transfer {index} failed at the receiver: {result.reason}", file=sys.stderr)
            return OpResult(seconds, 0, 1, 1)
        if result.transfer_id != tid:
            raise CheckFailed(f"transfer {index}: completion for another transfer id")
        if received != self.payload:
            raise CheckFailed(f"transfer {index}: received payload differs from the one sent")
        return OpResult(seconds, self.payload_size, 1, 0)

    def close(self) -> None:
        self.receiver.close()


class SimWire:
    """A 16 MiB payload over 2 simulated connections through a 100 Mbit/s,
    10 ms, 100-packet, 1%-loss bottleneck, in virtual time."""

    spacing_s = 0.0

    def __init__(self, seed: int):
        self.seed = seed
        self.link = LinkConfig(seed=seed, **SIM_LINK)
        self._build()
        self.fingerprints: set[tuple] = set()

    def _build(self) -> None:
        self.network = Network(self.link)
        self.hub = SimHub(self.network)
        self.transport = SimTransport(self.hub)

    def prepare(self) -> None:
        self.payload = seeded_bytes(self.seed, SIM_PAYLOAD)

    def op(self, index: int) -> OpResult:
        if index > 0:
            # The previous transfer's hub, tasks and buffers form reference
            # cycles; free them now, untimed, so that peak memory is that of
            # one transfer rather than of however many the collector kept.
            gc.collect()
            self._build()
        network, hub, transport = self.network, self.hub, self.transport
        box: dict = {}
        tid = transfer_id(self.seed, index)

        def serve_task():
            box["result"] = serve(transport, sink=lambda _tid, data: box.__setitem__("data", data))

        def send_task():
            box["report"] = send_transfer(self.payload, transport, CONNECTIONS, transfer_id=tid)

        start = time.perf_counter()
        hub.spawn(serve_task, name="serve")
        hub.spawn(send_task, name="send")
        try:
            hub.run()
        except RuntimeError:
            traceback.print_exc()
            return OpResult(time.perf_counter() - start, 0, 1, 1)
        seconds = time.perf_counter() - start
        model = network_counters([network])
        report, result = box.get("report"), box.get("result")
        if report is None or result is None or not report.ok or not result.ok:
            print(f"transfer {index} failed: {report} / {result}", file=sys.stderr)
            return OpResult(seconds, 0, 1, 1, model)
        if box.get("data") != self.payload:
            raise CheckFailed(f"transfer {index}: received payload differs from the one sent")
        capacity_bytes = self.link.capacity / 8
        if len(self.payload) / report.wall_time > capacity_bytes:
            raise CheckFailed(f"transfer {index}: goodput above link capacity")
        fingerprint = (repr(report.wall_time), model["sent"], model["bernoulli_losses"])
        self.fingerprints.add(fingerprint)
        if len(self.fingerprints) > 1:
            raise CheckFailed(f"same inputs, different outcomes: {sorted(self.fingerprints)}")
        if self.seed == DEFAULT_SEED and fingerprint != SIMWIRE_FINGERPRINT:
            raise CheckFailed(f"fingerprint {fingerprint} != pinned {SIMWIRE_FINGERPRINT}")
        return OpResult(seconds, len(self.payload), 1, 0, model)

    def close(self) -> None:
        pass


class SweepDefault:
    """``harness.run_experiment`` on the default config: levels 1,2,4,8,16,
    3 repetitions, 30 virtual seconds each, one background flow."""

    spacing_s = 0.0

    def __init__(self, seed: int, scratch: Path, pace: Pace):
        self.seed = seed
        self.pace = pace
        self.out_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=scratch))
        # At DEFAULT_SEED (0) this text resolves to exactly the default config.
        self.config = harness.parse_experiment(f"seed={seed}\nout={self.out_dir}\n")
        self._networks: list[Network] = []
        self._counts: list[dict] = []
        self._hooks = Patches()
        self._hooks.replace(simnet.Network, "__init__", self._registering, "Network.__init__")
        self._hooks.replace(harness, "run_level", self._counting_cell, "harness.run_level")
        self.digests: set[tuple] = set()

    def _registering(self, init):
        networks = self._networks

        def register(network, *args, **kwargs):
            init(network, *args, **kwargs)
            networks.append(network)

        return register

    def _counting_cell(self, run_level):
        """Read each cell's simulator counters as soon as the cell ends, so
        its ``Network`` is not kept alive for the rest of the sweep.  Between
        cells, run the reference chunks that are due, so that a sweep's
        several seconds are scaled by the host speed during them."""

        def counted(*args, **kwargs):
            try:
                return run_level(*args, **kwargs)
            finally:
                self._counts.append(network_counters(self._networks))
                self._networks.clear()
                self.pace.keep_up()

        return counted

    def prepare(self) -> None:
        pass

    def op(self, index: int) -> OpResult:
        cells = len(self.config.levels) * self.config.repetitions
        self._counts.clear()
        paced = self.pace.spent
        start = time.perf_counter()
        try:
            results = harness.run_experiment(self.config)
        except Exception:  # noqa: BLE001 - a failed cell fails the sweep, not the run
            traceback.print_exc()
            return OpResult(time.perf_counter() - start - (self.pace.spent - paced), 0, cells, cells)
        seconds = time.perf_counter() - start - (self.pace.spent - paced)
        model = {key: sum(c[key] for c in self._counts) for key in self._counts[0]}
        self._check(results)
        delivered = sum(t.total_bytes for r in results for t in r.traces)
        return OpResult(seconds, int(delivered), cells, 0, model)

    def _check(self, results) -> None:
        expected_cells = len(self.config.levels) * self.config.repetitions
        if len(results) != expected_cells:
            raise CheckFailed(f"sweep produced {len(results)} cells, expected {expected_cells}")
        ceiling = self.config.link.capacity / 8 * self.config.duration
        for r in results:
            delivered = sum(t.total_bytes for t in r.traces)
            if not 0 < delivered <= ceiling:
                raise CheckFailed(f"cell n={r.n} rep={r.rep}: {delivered} bytes exceed link capacity")
        digests = tuple(
            _sha256((self.out_dir / name).read_bytes()).hexdigest()
            for name in ("throughput.csv", "fairness.csv")
        )
        self.digests.add(digests)
        if len(self.digests) > 1:
            raise CheckFailed(f"same config, different CSVs: {sorted(self.digests)}")
        if self.seed == DEFAULT_SEED and digests != SWEEP_DIGESTS:
            raise CheckFailed(f"CSV digests {digests} != pinned {SWEEP_DIGESTS}")

    def close(self) -> None:
        self._hooks.undo()
        shutil.rmtree(self.out_dir, ignore_errors=True)


def build(name: str, seed: int, scratch: Path, pace: Pace):
    if name == "loopback_bulk":
        return Loopback(seed, 64 * 1024 * 1024)
    if name == "loopback_small":
        return Loopback(seed, 64 * 1024, spacing_s=SMALL_SPACING_S)
    if name == "simwire_lossy":
        return SimWire(seed)
    if name == "sweep_default":
        return SweepDefault(seed, scratch, pace)
    raise ValueError(f"unknown workload {name!r}")
