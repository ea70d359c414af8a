"""Acceptance gate: eight headline checks, one printed verdict line each.

Run visibly with ``python3 -m pytest tests/test_acceptance.py -v -s``.
Each check exercises the public surfaces end to end at its stated
tolerance and runtime budget; the printed line carries the verdict even
when pytest's own reporting is captured.
"""

import contextlib
import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from ptcp.harness import experiment_from_keys, run_experiment, run_level
from ptcp.metrics import jain_fairness
from ptcp.simnet import (
    AimdFlow,
    FlowSpec,
    LinkConfig,
    Network,
    aggregate_window_reduction,
    steady_state_throughput,
)
from ptcp.striping import Receiver, send_transfer
from ptcp.transport import TcpTransport
from ptcp.wire import Data, DataHead, Fin, FrameDecoder, Hello, decode_frames, encode_frame, partition, sha256


@contextlib.contextmanager
def criterion(index: int, name: str, budget_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nacceptance {index} FAIL: {name}")
        raise
    elapsed = time.monotonic() - t0
    if elapsed >= budget_s:
        print(f"\nacceptance {index} FAIL: {name} ({elapsed:.2f} s over the {budget_s:.0f} s budget)")
        raise AssertionError(f"runtime {elapsed:.2f} s exceeds the {budget_s:.0f} s budget")
    print(f"\nacceptance {index} PASS: {name} ({elapsed:.2f} s, budget {budget_s:.0f} s)")


def test_criterion_1_jain_index_oracle():
    with criterion(1, "Jain index matches the closed form on 1000 random vectors", 1.0):
        rng = np.random.Generator(np.random.PCG64(20250816))
        for _ in range(1000):
            n = int(rng.integers(1, 17))
            xs = rng.uniform(0.0, 100.0, n)
            xs[rng.uniform(0.0, 1.0, n) < 0.2] = 0.0  # zeros are legal inputs
            if not xs.any():
                xs[0] = 1.0
            direct = float(xs.sum()) ** 2 / (n * float((xs * xs).sum()))
            value = jain_fairness(xs)
            assert abs(value - direct) <= 1e-12
            assert 1.0 / n - 1e-12 <= value <= 1.0 + 1e-12
        assert abs(jain_fairness([1.0, 2.0, 3.0]) - 36.0 / 42.0) <= 1e-12


def test_criterion_2_synchronized_loss_reduction():
    with criterion(2, "loss on 2 of 5 equal flows cuts the aggregate window by 2/10", 5.0):
        link = LinkConfig(capacity=1e9, one_way_delay=0.05, queue_limit=1_000_000)
        network = Network(link)
        flows = [network.add_flow(AimdFlow(f"flow-{i}", link)) for i in range(5)]
        network.run_until(3.0)
        windows = [f.cwnd for f in flows]
        assert max(windows) - min(windows) < 1e-9  # equal-window precondition
        pre = sum(windows)
        network.inject_loss(["flow-0", "flow-1"])
        post = sum(f.cwnd for f in flows)
        expected = (1.0 - aggregate_window_reduction(5, 2)) * pre
        assert aggregate_window_reduction(5, 2) == 0.2
        assert abs(post - expected) <= 1.0  # within one segment

        solo_net = Network(link)
        solo = solo_net.add_flow(AimdFlow("solo", link))
        solo_net.run_until(3.0)
        before = solo.cwnd
        solo_net.inject_loss()
        assert aggregate_window_reduction(1, 1) == 0.5
        assert solo.cwnd == 0.5 * before  # exact halving


def test_criterion_3_aimd_sawtooth_throughput():
    with criterion(3, "sawtooth at w_max=20 averages 0.75*w_max*MSS/RTT within 5%", 5.0):
        link = LinkConfig(capacity=1e8, one_way_delay=0.05, queue_limit=1_000)
        network = Network(link)
        flow = network.add_flow(AimdFlow("saw", link, loss_at_cwnd=20))
        duration = 20.0  # 200 base RTTs at rtt_base = 0.1 s
        network.run_until(duration)
        oracle = steady_state_throughput(20, 1500, 0.1)
        assert oracle == 225_000.0
        mean_rate = flow.delivered_bytes / duration
        assert flow.halvings >= 10  # the sawtooth actually cycled
        assert mean_rate == pytest.approx(oracle, rel=0.05)


class _StaggeredStream:
    """Delays the first write so connection i's whole chunk starts late."""

    def __init__(self, inner, delay: float):
        self._inner = inner
        self._delay = delay
        self._started = False

    def write_all(self, *parts) -> None:
        if not self._started:
            self._started = True
            time.sleep(self._delay)
        self._inner.write_all(*parts)

    def read_some(self, *args, **kwargs):
        return self._inner.read_some(*args, **kwargs)

    def read_into(self, *args, **kwargs):
        return self._inner.read_into(*args, **kwargs)

    def close(self) -> None:
        self._inner.close()

    def abort(self) -> None:
        self._inner.abort()


class _StaggeredTransport:
    """Hands out connections whose sending starts in reverse chunk order."""

    def __init__(self, inner, step: float, count: int):
        self._inner = inner
        self._step = step
        self._count = count
        self._issued = 0

    def connect(self):
        delay = self._step * (self._count - 1 - self._issued)
        self._issued += 1
        return _StaggeredStream(self._inner.connect(), delay)

    def release(self, stream) -> None:
        stream.close()  # a kept wrapper would carry its delay into the next transfer

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_criterion_4_loopback_integrity_matrix():
    with criterion(4, "10 MiB survives loopback striping for n in {1,2,4,8,16}", 30.0):
        rng = np.random.Generator(np.random.PCG64(77))
        payload = rng.integers(0, 256, 10 * 1024 * 1024, dtype=np.uint8).tobytes()
        source_digest = sha256(payload)

        def one_run(n, wrap=None):
            store = {}
            recv_transport = TcpTransport("127.0.0.1", 0)
            receiver = Receiver(recv_transport, sink=lambda tid, data: store.update(data=data))
            sender = TcpTransport("127.0.0.1", recv_transport.port)
            try:
                report = send_transfer(payload, sender if wrap is None else wrap(sender), n)
                result = receiver.serve_one()
            finally:
                sender.close()
                receiver.close()
            assert report.ok, report.failure_reason
            assert result.ok, result.reason
            assert sha256(store["data"]) == source_digest
            return result

        for n in (1, 2, 4, 8, 16):
            one_run(n)

        # Completion order permuted: connection 7 starts first, 0 last.
        staggered = one_run(8, wrap=lambda t: _StaggeredTransport(t, 0.05, 8))
        ends = {s.chunk_index: s.end_time for s in staggered.per_connection}
        order = sorted(ends, key=ends.get)
        assert order == list(range(7, -1, -1))


def test_criterion_5_parallelism_raises_throughput():
    with criterion(5, "targeted aggregate grows with n; n=8 at least 1.5x n=1", 30.0):
        config = experiment_from_keys(
            {
                "capacity_bps": "50000000",
                "one_way_delay_s": "0.05",
                "queue_limit_pkts": "50",
                "loss_prob": "0.01",
                "seed": "7",
                "duration_s": "30.0",
                "levels": "1,2,4,8",
                "repetitions": "1",
            }
        )
        rates = {n: run_level(config, n, 0).targeted_bps for n in config.levels}
        assert all(rates[b] >= rates[a] for a, b in zip(config.levels, config.levels[1:]))
        assert rates[8] >= 1.5 * rates[1]


def test_criterion_6_fairness_with_background_flow():
    with criterion(6, "4 targeted + 1 background share the link at JFI >= 0.9", 30.0):
        config = experiment_from_keys(
            {
                "capacity_bps": "10000000",
                "one_way_delay_s": "0.05",
                "queue_limit_pkts": "50",
                "loss_prob": "0.0",
                "seed": "0",
                "duration_s": "60.0",
                "levels": "4",
                "repetitions": "1",
            }
        )
        result = run_level(config, 4, 0)
        report = result.fairness
        assert len(report.per_flow_throughput) == 5
        assert report.fairness_index >= 0.9
        fair_share = config.link.capacity / 8.0 / 5.0
        background = report.per_application["background"]
        assert abs(background - fair_share) <= 0.2 * fair_share
        assert report.shares["targeted"] == pytest.approx(0.8, abs=0.05)
        assert report.shares["background"] == pytest.approx(0.2, abs=0.05)


def test_criterion_7_experiment_determinism(tmp_path):
    with criterion(7, "same-seed experiment reruns emit byte-identical CSVs", 30.0):
        base = {
            "capacity_bps": "10000000",
            "one_way_delay_s": "0.05",
            "queue_limit_pkts": "50",
            "loss_prob": "0.02",
            "seed": "11",
            "duration_s": "5.0",
            "levels": "1,2",
            "repetitions": "2",
        }

        def digests(out_dir: Path) -> dict[str, str]:
            config = experiment_from_keys(dict(base, out=str(out_dir)))
            run_experiment(config, write_traces=True)
            return {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out_dir.glob("*.csv"))
            }

        first = digests(tmp_path / "a")
        second = digests(tmp_path / "b")
        assert first.keys() == second.keys()
        assert len(first) >= 2 + 4  # throughput, fairness, one trace file per cell
        assert first == second


def test_criterion_8_codec_and_partition_properties():
    with criterion(8, "frames survive every split point; partitions tile the payload", 10.0):
        frames = [
            Hello(
                transfer_id=bytes(range(16)),
                total_size=987_654_321,
                connection_count=5,
                chunk_index=2,
                chunk_offset=100_000,
                chunk_length=42_000,
                payload_digest=bytes(range(32)),
            ),
            Data(3, 12_345, bytes((i * 7) % 256 for i in range(600))),
            Fin(7, sha256(b"chunk body")),
        ]
        for frame in frames:
            encoded = encode_frame(frame)
            assert decode_frames(encoded) == ([frame], b"")
            if isinstance(frame, Data):  # the decoder reads heads; a payload is its reader's to take
                frame = DataHead(frame.chunk_index, frame.offset_in_chunk, len(frame.payload))
                encoded = encode_frame(frame)
            for split in range(len(encoded) + 1):
                decoder = FrameDecoder()
                got = decoder.feed(encoded[:split]) + decoder.feed(encoded[split:])
                assert got == [frame]
                assert decoder.residual == b""

        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(10_000):
            size = int(rng.integers(0, 1_000_000))
            n = int(rng.integers(1, 33))
            chunks = partition(size, n)
            assert len(chunks) == n
            assert chunks[0].offset == 0
            for a, b in zip(chunks, chunks[1:]):
                assert b.offset == a.offset + a.length  # contiguous, disjoint
            assert sum(c.length for c in chunks) == size  # full coverage
            lengths = [c.length for c in chunks]
            assert max(lengths) - min(lengths) <= 1  # balanced
