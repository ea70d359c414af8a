"""The protocol cores driven by hand: no transport, no thread, no lock.

The sender core yields a chunk's writes and judges its receipt; the
receiver core takes in frame heads, payload reads and the clock, and says
what comes next.  Here the test plays both drivers over plain bytes."""

import dis
import random
from collections import defaultdict
from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, precondition, rule

from ptcp import striping
from ptcp.striping import FailureKind, ReceiverCore, SenderCore, StreamState
from ptcp.wire import Data, DataHead, Fin, decode_frames


def _frames_of(writes):
    """The frames one chunk's writes carry, each DATA head with its payload."""
    frames, _ = decode_frames(b"".join(bytes(part) for parts in writes for part in parts))
    return [
        (DataHead(f.chunk_index, f.offset_in_chunk, len(f.payload)), f.payload) if isinstance(f, Data) else (f, None)
        for f in frames
    ]


def _take(core, state, frame, payload, now):
    """What a receiver's driver does with one frame read off ``state``'s
    stream: hand it to the core, then fill the slot it names, if any."""
    step = core.frame(state, frame, now)
    if state.slot is None:
        return step
    if payload is None or len(payload) < len(state.slot):  # the stream ended mid-payload
        return core.frame(state, None, now)
    state.slot[:] = payload
    core.filled(state)
    return step


def test_a_whole_transfer_runs_through_both_cores_by_hand():
    payload = random.Random(5).randbytes(300_001)
    sender, receiver = SenderCore(payload, 3), ReceiverCore()
    states = [StreamState() for _ in range(3)]
    steps, delivered, results = [], [], []
    for order, index in enumerate((2, 0, 1)):  # any order the chunks arrive in
        for frame, data in _frames_of(sender.writes(index)):
            steps.append(_take(receiver, states[index], frame, data, now=0.5 * order))
    *before, (end, ending) = steps
    assert set(before) == {(None, None)} and end is None
    monitor, kind, _, carriers = ending
    assert kind is None and carriers == []
    delivered.append(bytes(monitor.buffer))  # the sink
    results.append(receiver.settle(monitor, kind, None, now=2.0))
    for index, state in enumerate(states):  # every receipt goes back and verifies
        [(receipt, _)] = _frames_of([(state.receipt,)])
        sender.receipt(index, receipt)
        receiver.sent(state)
        assert state.monitor is None and state.receipt is None
    assert delivered == [payload]
    [result] = results
    assert result.ok and result.transfer_id == sender.manifest.transfer_id and result.wall_time == 2.0
    assert sorted(s.chunk_index for s in result.per_connection) == [0, 1, 2]
    assert receiver.monitors == {} and list(receiver.finished_ids) == [sender.manifest.transfer_id]


def test_the_cores_call_no_stream_thread_or_lock():
    # Only the drivers move bytes, start workers or take the receiver's lock.
    io_names = {"read_some", "read_into", "write_all", "spawn", "connect", "accept", "abort", "channel"}
    io_names |= {"threading", "Lock", "_lock", "transport", "simbridge", "_frames"}

    def names(code):
        yield from code.co_names
        for const in code.co_consts:
            if hasattr(const, "co_names"):
                yield from names(const)

    cores = (SenderCore, ReceiverCore, StreamState, striping._TransferMonitor)
    methods = [
        attr
        for cls in cores
        for attr in vars(cls).values()
        if getattr(getattr(attr, "__code__", None), "co_filename", None) == striping.__file__
    ]
    assert len(methods) == 17
    assert {name for method in methods for name in names(method.__code__)} & io_names == set()
    assert all(instr.opname != "IMPORT_NAME" for method in methods for instr in dis.get_instructions(method))


class _Peer:
    """A stream as the test's driver sees it: the core's state for it, and
    the frames a sender would write on it, in order."""

    def __init__(self, script):
        self.state = StreamState()
        self.script = script
        self.alive = True


CAP = 1000  # bytes; a transfer drawn larger is refused


class ReceiverCoreMachine(RuleBasedStateMachine):
    """One receiver core fed valid, truncated, duplicated, reordered and
    hostile frame sequences on many streams, with a sink that may raise.
    No call may raise: any error fails the test."""

    peers = Bundle("peers")

    @initialize(
        specs=st.lists(
            st.tuples(st.integers(0, 1200), st.integers(1, 3), st.sampled_from([b"a" * 16, b"b" * 16])),
            min_size=1,
            max_size=3,
        )
    )
    def setup(self, specs):
        self.core = ReceiverCore(buffer_cap=CAP)
        self.senders = [SenderCore(bytes([i]) * size, n, tid) for i, (size, n, tid) in enumerate(specs)]
        self.by_state = {}
        self.completions = defaultdict(list)
        self.now = 0.0

    def _open(self, script):
        peer = _Peer(iter(script))
        self.by_state[peer.state] = peer
        return peer

    def _apply(self, peer, step, sink_raises):
        """Carry out ``step`` as ``Receiver`` does, the transport aside."""
        self.now += 0.001
        end, ending = step
        if end is not None:
            peer.alive = False
        if ending is None:
            return
        monitor, kind, detail, carriers = ending
        assert monitor.finished and monitor.transfer_id not in self.core.monitors
        if kind is None:
            assert bytes(monitor.buffer) == next(
                s.payload for s in self.senders if s.manifest.transfer_id == monitor.transfer_id
                and s.manifest.payload_digest == monitor.payload_digest
            )
            if sink_raises:
                kind, detail = FailureKind.SINK, "sink raised"
        self.completions[monitor.transfer_id].append(self.core.settle(monitor, kind, detail, self.now))
        if kind is not None:
            peer.alive = False
            for state in carriers:  # the driver aborts their streams
                self.by_state[state].alive = False

    @rule(target=peers, sender=st.integers(0, 2), index=st.integers(0, 2))
    def connect(self, sender, index):
        """A stream that will carry chunk ``index`` of a transfer."""
        core = self.senders[sender % len(self.senders)]
        return self._open(_frames_of(core.writes(index % core.manifest.connection_count)))

    @rule(peer=peers, count=st.integers(1, 4), sink_raises=st.booleans(), cut=st.booleans())
    def send_next(self, peer, count, sink_raises, cut):
        """The next ``count`` frames the stream's sender writes, the last
        one's payload maybe cut short, as when the stream ends mid-frame."""
        for n in range(count):
            item = next(peer.script, None) if peer.alive and peer.state.receipt is None else None
            if item is None:
                return
            frame, payload = item
            if cut and n == count - 1 and payload is not None:
                payload = payload[:-1]
            self._apply(peer, _take(self.core, peer.state, frame, payload, self.now), sink_raises)

    @rule(
        peer=peers,
        sender=st.integers(0, 2),
        kind=st.sampled_from(["hello", "stray", "data", "fin"]),
        index=st.integers(0, 3),
        offset=st.integers(0, 700),
        length=st.integers(1, 700),
        sink_raises=st.booleans(),
    )
    def send_hostile(self, peer, sender, kind, index, offset, length, sink_raises):
        """A frame the protocol may not allow here: a HELLO out of turn, a
        DATA head past its chunk, a FIN early or with a wrong digest."""
        if not peer.alive or peer.state.receipt is not None:
            return
        manifest = self.senders[sender % len(self.senders)].manifest
        if kind == "hello":
            frame = replace(manifest.hello(index % manifest.connection_count), chunk_offset=offset)
        elif kind == "stray":
            frame = replace(manifest.hello(0), chunk_index=index)
        elif kind == "data":
            frame = DataHead(index, offset, length)
        else:
            frame = Fin(index, manifest.chunk_digests[index % manifest.connection_count])
        step = _take(self.core, peer.state, frame, b"\xee" * length, self.now)
        self._apply(peer, step, sink_raises)

    @rule(peer=peers, sink_raises=st.booleans())
    def end_stream(self, peer, sink_raises):
        if peer.alive and peer.state.receipt is None:
            self._apply(peer, self.core.frame(peer.state, None, self.now), sink_raises)

    @rule(peer=peers, error=st.sampled_from([TimeoutError, ConnectionResetError]), sink_raises=st.booleans())
    def stream_raises(self, peer, error, sink_raises):
        """A read, or the write of a pending receipt, raised."""
        if peer.alive:
            self._apply(peer, self.core.broke(peer.state, error("stream failed")), sink_raises)

    @rule(peer=peers)
    def receipt_sent(self, peer):
        if peer.alive and peer.state.receipt is not None:
            self.core.sent(peer.state)

    @precondition(lambda self: self.completions)
    @rule(data=st.data())
    def late_hello(self, data):
        """A HELLO for a finished transfer is turned away, and starts nothing."""
        transfer_id = data.draw(st.sampled_from(sorted(self.completions)))
        sender = next(s for s in self.senders if s.manifest.transfer_id == transfer_id)
        peer = self._open([])
        assert self.core.frame(peer.state, sender.manifest.hello(0), self.now) == ("abort", None)
        assert transfer_id not in self.core.monitors

    @invariant()
    def one_completion_per_transfer(self):
        for transfer_id, results in self.completions.items():
            assert len(results) == 1, results
            assert transfer_id not in self.core.monitors

    @invariant()
    def buffers_stay_within_the_cap(self):
        buffers = [m.buffer for m in self.core.monitors.values()] + [self.core.spare]
        assert all(buffer is None or len(buffer) <= CAP for buffer in buffers)

    def teardown(self):
        # Every stream ends; then each transfer has its one completion, or
        # is still open with no stream left that could finish it.
        for peer in list(self.by_state.values()):
            if peer.alive and peer.state.receipt is not None:  # the receipt's write fails
                self._apply(peer, self.core.broke(peer.state, ConnectionResetError("closed")), sink_raises=False)
            elif peer.alive:
                self._apply(peer, self.core.frame(peer.state, None, self.now), sink_raises=False)
        self.one_completion_per_transfer()
        for transfer_id, monitor in self.core.monitors.items():
            assert transfer_id not in self.completions and not monitor.carriers


ReceiverCoreMachine.TestCase.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)
test_receiver_core_state_machine = ReceiverCoreMachine.TestCase
