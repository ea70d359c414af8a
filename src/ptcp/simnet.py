"""Deterministic packet-level simulation of AIMD flows over one bottleneck.

Topology is a dumbbell collapsed to its only interesting part: every flow's
segments enter a single drop-tail FIFO served at link capacity, then cross
a fixed propagation delay.  Acks return on the reverse path, which is pure
delay: no bandwidth, no loss.  Random forward loss is Bernoulli per
queued segment, drawn from a PCG64 generator seeded in LinkConfig, so a
scenario is a pure function of its configuration.  The generator is
numpy's: ``pcg64_outputs`` reproduces ``numpy.random.PCG64`` bit for bit,
seeding included, with the standard library alone.

A segment is admitted to the bottleneck when it is sent: the service time
is constant, so its departure time is fixed then, and the queue is a deque
of departure times.  Its loss is drawn then too, in FIFO order, and it
costs two heap events: deliver (or loss, counted at its departure) and
ack.  A deliver and an ack that share a timestamp run in the order of the
deliver's send and the ack's delivery.

Congestion control is plain AIMD: cwnd grows by 1/cwnd per new ack (one
segment per RTT), halves on loss with at most one halving per base RTT,
and never drops below one segment.  Loss is detected by a fixed
retransmission timeout of twice the base RTT; there is no fast retransmit
and no delayed acks.  Flows start at cwnd = 2 and have no slow start.

Events sit on a binary heap as (time, insertion sequence, handler, data)
and ``step`` pops the earliest and calls ``handler(network, data)``, so
same-time events run in insertion order on every run.  Handlers are plain
functions, never bound methods, so nothing on the heap refers back to its
Network and a finished simulation is freed without the cyclic collector.

Retransmission timers are the exception to one heap entry per event.  A
timer's key is drawn when its segment is sent, but the timer waits in its
flow's queue, which is already in firing order because a flow's timeout
interval is constant; only the head of that queue is on the heap.  When
the head fires, the timers behind it whose segment was since acked or
resent are dropped unseen, and the next live one goes on the heap under
its original key.  Dead timers would have done nothing, so the order of
every event that acts is the same as with one heap entry per timer.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

from .metrics import FlowTrace


@dataclass(frozen=True)
class LinkConfig:
    capacity: float  # bits/second through the bottleneck
    one_way_delay: float  # seconds, symmetric
    queue_limit: int  # packets, counting the one in service
    loss_probability: float = 0.0  # forward path only
    mss: int = 1500  # bytes per segment on the wire
    seed: int = 0

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {self.capacity}")
        if self.one_way_delay < 0:
            raise ValueError(f"one_way_delay must be >= 0, got {self.one_way_delay}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(f"loss_probability must be in [0,1], got {self.loss_probability}")
        if self.mss < 1:
            raise ValueError(f"mss must be >= 1, got {self.mss}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def service_time(self) -> float:
        """Seconds to push one segment through the bottleneck."""
        return self.mss * 8 / self.capacity

    @property
    def rtt_base(self) -> float:
        """Round trip with empty queues."""
        return 2 * self.one_way_delay


# ---------------------------------------------------------------------------
# Loss generator: numpy's PCG64 (O'Neill, "PCG: A Family of Simple Fast
# Space-Efficient Statistically Good Algorithms for Random Number
# Generation", 2014), seeded as numpy.random.SeedSequence seeds it
# ---------------------------------------------------------------------------

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``: the seed's
    32-bit words hashed into a pool of four, which then yields eight 32-bit
    words, paired little-endian into four 64-bit ones."""
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for value in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(value))
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def pcg64_outputs(seed: int) -> Iterator[int]:
    """The 64-bit outputs of ``numpy.random.PCG64(seed)`` in order: a
    128-bit LCG whose state is folded to 64 bits (XSL) and rotated right by
    its top 6 bits (RR).  ``Generator(PCG64(seed)).random()`` is an
    output's top 53 bits times 2**-53."""
    state_word_hi, state_word_lo, inc_hi, inc_lo = _seed_words(seed)
    inc = (inc_hi << 64 | inc_lo) << 1 & _MASK128 | 1
    state = (inc + (state_word_hi << 64 | state_word_lo)) * _PCG_MULTIPLIER + inc & _MASK128
    while True:
        state = state * _PCG_MULTIPLIER + inc & _MASK128
        folded = (state ^ state >> 64) & _MASK64
        # folded * (2**64 + 1) holds two copies of it side by side, so a
        # right shift and a mask rotate it.
        yield folded * 0x10000000000000001 >> (state >> 122) & _MASK64


@dataclass(frozen=True)
class EventRecord:
    time: float
    kind: str
    flow_id: str
    seq: int


class AimdFlow:
    """One sender/receiver pair: AIMD window, timeout loss detection,
    retransmission with priority over new data, receiver-side dedup.

    ``byte_limit`` caps the new data a greedy source produces; the default
    is an unlimited bulk flow.  ``loss_at_cwnd`` is a test hook: treat
    reaching that window as a congestion signal (halve, drop nothing),
    which produces a clean deterministic sawtooth.
    """

    def __init__(
        self,
        flow_id: str,
        link: LinkConfig,
        *,
        start_time: float = 0.0,
        byte_limit: int | None = None,
        initial_cwnd: float = 2.0,
        loss_at_cwnd: float | None = None,
    ):
        self.flow_id = flow_id
        self.link = link
        self.start_time = start_time
        self.cwnd = float(initial_cwnd)
        self.in_flight = 0
        self.next_seq = 0
        self.loss_at_cwnd = loss_at_cwnd
        self.timeout_interval = 2.0 * link.rtt_base
        self.byte_limit = byte_limit
        if byte_limit is None:
            self._seq_limit = math.inf
        else:
            self._seq_limit = math.ceil(byte_limit / link.mss)
        self._outstanding: dict[int, int] = {}  # seq -> tid of its latest transmission
        self._next_tid = 0
        # Retransmission timers in firing order: (fires_at, order, seq, tid),
        # where ``order`` is the heap insertion sequence drawn at send time.
        self._timers: deque[tuple[float, int, int, int]] = deque()
        self._rtx_queue: deque[int] = deque()
        self._rtx_set: set[int] = set()
        self._last_halving = -math.inf
        self._recovery_until = -1  # losses below this seq were already punished
        self.halvings = 0
        self.timeouts = 0
        self.sent_segments = 0
        # receiver side
        self._received: set[int] = set()
        self._next_expected = 0
        self.delivered_bytes = 0
        self.delivery_log: list[tuple[float, int]] = []

    # -- sender --

    def _new_segment_ready(self) -> bool:
        return self.next_seq < self._seq_limit

    def _on_new_seq(self, seq: int) -> None:
        """Hook for stream-backed subclasses to bind payload bytes to a seq."""

    def segment_payload(self, seq: int) -> int:
        """Application bytes carried by segment ``seq`` (wire cost is always
        one MSS; a final partial segment is padded)."""
        if self.byte_limit is not None and (seq + 1) * self.link.mss > self.byte_limit:
            return self.byte_limit - seq * self.link.mss
        return self.link.mss

    def _rtx_pending(self) -> bool:
        while self._rtx_queue and self._rtx_queue[0] not in self._rtx_set:
            self._rtx_queue.popleft()  # acked late, nothing to resend
        return bool(self._rtx_queue)

    def next_transmission(self) -> tuple[int, int] | None:
        """Pick the next segment to put on the wire, or None when window- or
        data-bound.  Retransmissions go first."""
        if self.in_flight >= self.cwnd:
            return None
        if self._rtx_queue and self._rtx_pending():
            seq = self._rtx_queue.popleft()
            self._rtx_set.discard(seq)
        elif self._new_segment_ready():
            seq = self.next_seq
            self.next_seq += 1
            self._on_new_seq(seq)
        else:
            return None
        tid = self._next_tid
        self._next_tid += 1
        self._outstanding[seq] = tid
        self.in_flight += 1
        self.sent_segments += 1
        return seq, tid

    def on_ack(self, seq: int, now: float) -> None:
        if seq in self._outstanding:
            del self._outstanding[seq]
            self.in_flight -= 1
            self.cwnd += 1.0 / self.cwnd
            if self.loss_at_cwnd is not None and self.cwnd >= self.loss_at_cwnd:
                self.on_loss(now)
        else:
            # Ack for a segment already written off: it arrived after all,
            # so cancel any pending retransmission.
            self._rtx_set.discard(seq)

    def on_timeout(self, seq: int, tid: int, now: float) -> bool:
        """Retransmission timer fired.  True if this detected a real loss;
        a stale timer (segment acked or already retransmitted) is ignored."""
        if self._outstanding.get(seq) != tid:
            return False
        del self._outstanding[seq]
        self.in_flight -= 1
        if seq not in self._rtx_set:
            self._rtx_set.add(seq)
            self._rtx_queue.append(seq)
        self.timeouts += 1
        # One decrease per window of data: a queue-overflow episode drops a
        # run of segments whose timers fire over several RTTs, and punishing
        # each one would collapse the window well below the pipe size.
        if seq >= self._recovery_until:
            self.on_loss(now)
        return True

    def on_loss(self, now: float) -> bool:
        """Multiplicative decrease, at most once per base RTT."""
        if now - self._last_halving < self.link.rtt_base:
            return False
        self.cwnd = max(1.0, self.cwnd / 2.0)
        self._last_halving = now
        self._recovery_until = self.next_seq
        self.halvings += 1
        return True

    # -- receiver --

    def on_segment_arrival(self, seq: int, now: float) -> bool:
        """True if this segment is new; duplicates are still acked but not
        counted as delivered."""
        received = self._received
        # Payload size is read before releasing: releasing a segment may
        # consume its backing bytes in stream-backed subclasses.
        if seq != self._next_expected:
            if seq < self._next_expected or seq in received:
                return False
            payload = self.segment_payload(seq)
            received.add(seq)  # out of order: nothing can be released yet
        else:
            payload = self.segment_payload(seq)
            self._release(seq, now)
            self._next_expected = seq = seq + 1
            while seq in received:
                received.discard(seq)
                self._release(seq, now)
                self._next_expected = seq = seq + 1
        self.delivered_bytes += payload
        self.delivery_log.append((now, payload))
        return True

    def _release(self, seq: int, now: float) -> None:
        """In-order delivery hook for stream-backed subclasses."""


class Network:
    """The bottleneck, the clock, and the event queue."""

    def __init__(self, link: LinkConfig, *, record_events: bool = False):
        self.link = link
        # Read for every segment; LinkConfig.service_time is a computed property.
        self.service_time = link.service_time
        self.one_way_delay = link.one_way_delay
        self.queue_limit = link.queue_limit
        self._draws = pcg64_outputs(link.seed)
        # A segment is lost when numpy's random() < p.  random() is an
        # output's top 53 bits times 2**-53, so that holds exactly when the
        # output is below ceil(p * 2**53) << 11, and 0 means never draw.
        self._loss_below = math.ceil(link.loss_probability * 2**53) << 11
        self.now = 0.0
        self.flows: dict[str, AimdFlow] = {}
        self._heap: list = []
        self._counter = itertools.count()
        self._departures: deque[float] = deque()  # of the segments in the bottleneck
        self.drops = 0
        self.bernoulli_losses = 0
        self.max_queue_len = 0
        self.event_log: list[EventRecord] | None = [] if record_events else None

    def add_flow(self, flow: AimdFlow) -> AimdFlow:
        if flow.flow_id in self.flows:
            raise ValueError(f"duplicate flow_id {flow.flow_id!r}")
        self.flows[flow.flow_id] = flow
        self._schedule(flow.start_time, Network.pump, flow)
        return flow

    def _schedule(self, t: float, handler, data) -> None:
        heapq.heappush(self._heap, (t, next(self._counter), handler, data))

    def _log(self, kind: str, flow: AimdFlow, seq: int) -> None:
        # Callers test ``event_log`` first: a run without recording pays no
        # call per event.
        self.event_log.append(EventRecord(self.now, kind, flow.flow_id, seq))

    def pump(self, flow: AimdFlow) -> None:
        """Transmit as much as the flow's window allows right now, admitting
        each segment to the bottleneck as it is sent."""
        now = self.now
        if now < flow.start_time:
            return
        heap = self._heap
        counter = self._counter
        timers = flow._timers
        fires_at = now + flow.timeout_interval
        departures = self._departures
        while departures and departures[0] <= now:
            departures.popleft()
        while flow.in_flight < flow.cwnd and (tx := flow.next_transmission()) is not None:
            seq, tid = tx
            segment = (flow, seq, tid)
            if self.event_log is not None:
                self._log("send", flow, seq)
            if len(departures) >= self.queue_limit:
                self.drops += 1
                if self.event_log is not None:
                    heapq.heappush(heap, (now, next(counter), Network._on_drop, segment))
            else:
                departure = (departures[-1] if departures else now) + self.service_time
                departures.append(departure)
                if len(departures) > self.max_queue_len:
                    self.max_queue_len = len(departures)
                if self._loss_below and next(self._draws) < self._loss_below:
                    heapq.heappush(heap, (departure, next(counter), Network._on_loss, segment))
                else:
                    t = departure + self.one_way_delay
                    heapq.heappush(heap, (t, next(counter), Network._on_deliver, segment))
            timers.append((fires_at, next(counter), seq, tid))
            if len(timers) == 1:
                heapq.heappush(heap, (fires_at, timers[0][1], Network._on_timeout, flow))

    def step(self) -> bool:
        """Pop the earliest event by (time, insertion sequence) and call its
        handler; False when the queue is empty.  A flow's retransmission
        timers reach the heap one at a time, from its timer queue."""
        if not self._heap:
            return False
        self.now, _, handler, data = heapq.heappop(self._heap)
        handler(self, data)
        return True

    def run_until(self, t: float) -> None:
        heap = self._heap
        while heap and heap[0][0] <= t:
            self.step()
        self.now = max(self.now, t)

    def next_time(self) -> float | None:
        """Time of the earliest pending event, or None when there is none."""
        return self._heap[0][0] if self._heap else None

    def schedule_call(self, t: float, fn) -> None:
        """Run ``fn()`` when the clock reaches ``t``.  Plumbing for stream
        bridges and experiment drivers; calls are not part of the event log."""
        if t < self.now:
            raise ValueError(f"cannot schedule at {t} before now {self.now}")
        self._schedule(t, _call, fn)

    def inject_loss(self, flow_ids=None) -> dict[str, bool]:
        """Force a synchronized loss signal on the given flows (all by
        default).  Returns which flows actually halved."""
        ids = list(self.flows) if flow_ids is None else list(flow_ids)
        return {fid: self.flows[fid].on_loss(self.now) for fid in ids}

    def log_digest(self) -> str:
        if self.event_log is None:
            raise ValueError("event recording was not enabled")
        h = hashlib.sha256()
        for e in self.event_log:
            h.update(f"{e.time:.9f} {e.kind} {e.flow_id} {e.seq}\n".encode())
        return h.hexdigest()

    # -- event handlers: called as handler(network, data) --

    def _on_drop(self, segment: tuple[AimdFlow, int, int]) -> None:
        self._log("drop", segment[0], segment[1])  # pushed only when recording

    def _on_loss(self, segment: tuple[AimdFlow, int, int]) -> None:
        self.bernoulli_losses += 1
        if self.event_log is not None:
            self._log("loss", segment[0], segment[1])

    def _on_deliver(self, segment: tuple[AimdFlow, int, int]) -> None:
        flow, seq, _ = segment
        fresh = flow.on_segment_arrival(seq, self.now)
        if self.event_log is not None:
            self._log("deliver" if fresh else "dup", flow, seq)
        # Per-segment ack on the lossless reverse path: delay, no queue.
        self._schedule(self.now + self.one_way_delay, Network._on_ack, segment)

    def _on_ack(self, segment: tuple[AimdFlow, int, int]) -> None:
        flow, seq, _ = segment
        flow.on_ack(seq, self.now)
        if self.event_log is not None:
            self._log("ack", flow, seq)
        self.pump(flow)

    def _on_timeout(self, flow: AimdFlow) -> None:
        """The head of ``flow``'s timer queue fired.  Put the next live timer
        on the heap first: acting on this one may send, which queues more."""
        timers = flow._timers
        _, _, seq, tid = timers.popleft()
        outstanding = flow._outstanding
        while timers:
            fires_at, order, next_seq, next_tid = timers[0]
            if outstanding.get(next_seq) == next_tid:
                heapq.heappush(self._heap, (fires_at, order, Network._on_timeout, flow))
                break
            timers.popleft()  # acked or resent since: it would do nothing
        if flow.on_timeout(seq, tid, self.now):
            if self.event_log is not None:
                self._log("timeout", flow, seq)
            self.pump(flow)


def _call(network: Network, fn) -> None:
    fn()


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def aggregate_window_reduction(flows: int, flows_hit: int) -> float:
    """Fraction of the aggregate window lost when ``flows_hit`` of
    ``flows`` equal-window flows halve simultaneously."""
    if flows < 1:
        raise ValueError(f"flows must be >= 1, got {flows}")
    if not 0 <= flows_hit <= flows:
        raise ValueError(f"flows_hit must be in [0, {flows}], got {flows_hit}")
    return flows_hit / (2 * flows)


def steady_state_throughput(w_max: float, mss: int, rtt: float) -> float:
    """Mean rate of the AIMD sawtooth oscillating between w_max/2 and
    w_max: 0.75 * w_max * mss / rtt, in bytes/second."""
    if w_max < 2:
        raise ValueError(f"w_max must be >= 2, got {w_max}")
    if rtt <= 0:
        raise ValueError(f"rtt must be > 0, got {rtt}")
    return 0.75 * w_max * mss / rtt


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

TRACE_BUCKET_WIDTH = 0.1  # seconds of delivery summed into one bucket of a trace


@dataclass(frozen=True)
class FlowSpec:
    flow_id: str
    role: str = "targeted"
    start_time: float = 0.0


def run_scenario(
    link: LinkConfig,
    flows: list[FlowSpec],
    duration: float,
) -> list[FlowTrace]:
    """Simulate all flows sharing the bottleneck for ``duration`` seconds
    and return per-flow delivered-bytes traces in ``TRACE_BUCKET_WIDTH``
    buckets.  Output is a pure function of (link, flows, duration)."""
    if not flows:
        raise ValueError("need at least one flow")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    network = Network(link)
    for spec in flows:
        network.add_flow(AimdFlow(spec.flow_id, link, start_time=spec.start_time))
    network.run_until(duration)
    bucket_width = TRACE_BUCKET_WIDTH
    n_buckets = math.ceil(duration / bucket_width)
    traces = []
    for spec in flows:
        # A delivery at t == duration may index one past the last bucket,
        # and counts in the last.  Byte counts are whole numbers, so each
        # bucket's float sum is exact in any order.
        buckets = [0.0] * (n_buckets + 1)
        for t, nbytes in network.flows[spec.flow_id].delivery_log:
            buckets[int(t / bucket_width)] += nbytes
        overflow = buckets.pop()
        buckets[-1] += overflow
        traces.append(FlowTrace(spec.flow_id, spec.role, bucket_width, buckets))
    return traces
