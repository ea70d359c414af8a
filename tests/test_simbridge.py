"""Tests for the simulated-network stream bridge.

Covers the hub scheduler (task lifecycle, virtual sleep, channels, idle servers,
deadlock detection, misuse, read timers, a finished hub that reference counting
frees and that still runs), the stream semantics (EOF, timeouts,
backpressure, refused connects, aborts, the byte path), and the headline
property: ``simulate_transfer`` runs the transfer code unmodified over the
simulated bottleneck, deterministically.
"""

import gc
import sys
import threading
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcp import simbridge, simnet
from ptcp.simbridge import SimChannel, SimHub, SimTransport, simulate_transfer
from ptcp.simnet import LinkConfig, Network
from ptcp.striping import FailureKind, Receiver, send_transfer, serve
from ptcp.wire import Data, Hello, TransferManifest, encode_frame, sha256

from conftest import FAST_LINK


def make_hub(link: LinkConfig = FAST_LINK, **kwargs) -> SimHub:
    return SimHub(Network(link, **kwargs))


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    # run() ends and joins every task it started, however it stops.
    before = threading.active_count()
    yield
    assert threading.active_count() <= before, [t.name for t in threading.enumerate()]


# ---------------------------------------------------------------------------
# Hub scheduler
# ---------------------------------------------------------------------------


def test_spawn_run_join_result():
    hub = make_hub()
    out = []
    handle = hub.spawn(lambda: out.append("ran"), name="worker")
    hub.run()
    assert out == ["ran"]
    assert handle.finished and not handle.thread.is_alive()
    handle.join()  # finished task: join returns immediately, no error


def test_join_reraises_task_exception():
    hub = make_hub()

    def boom():
        raise ValueError("task failed")

    handle = hub.spawn(boom, name="boom")
    caught = []

    def joiner():
        try:
            handle.join()
        except ValueError as exc:
            caught.append(str(exc))

    hub.spawn(joiner, name="joiner")
    hub.run()
    assert caught == ["task failed"]


def test_run_surfaces_unjoined_task_error():
    hub = make_hub()

    def boom():
        raise RuntimeError("nobody joined me")

    hub.spawn(boom, name="boom")
    with pytest.raises(RuntimeError, match="nobody joined me"):
        hub.run()


def test_run_reentered_from_a_task_fails():
    hub = make_hub()
    hub.spawn(hub.run, name="reenter")
    with pytest.raises(RuntimeError, match="re-entered from inside a task"):
        hub.run()


def test_blocking_outside_a_task_fails():
    hub = make_hub()
    with pytest.raises(RuntimeError, match="blocking operation outside a sim task"):
        hub.sleep(1.0)


def test_deadlock_detection_names_the_task():
    hub = make_hub()
    channel = SimChannel(hub)
    hub.spawn(lambda: channel.get(), name="starved")
    with pytest.raises(RuntimeError, match="deadlock.*starved"):
        hub.run()


def test_idle_receiver_keeps_no_run_going():
    # The receiver's accept loop is a task of its own, spawned outside any
    # other task; once the transfer is done it only waits for a connection.
    hub = make_hub()
    transport = SimTransport(hub)
    box = {}
    receiver = Receiver(transport, sink=lambda tid, data: box.__setitem__("payload", data))
    payload = bytes(range(256)) * 100
    hub.spawn(lambda: box.__setitem__("report", send_transfer(payload, transport, 2)), name="send")
    hub.run()
    result = receiver.serve_one()
    receiver.close()
    assert box["report"].ok
    assert result.ok and result.transfer_id == box["report"].transfer_id
    assert box["payload"] == payload


def test_unclosed_receiver_starts_a_worker_per_stream_and_run_still_returns():
    # The simulated sender keeps no stream, so each of three 3-stream
    # transfers opens 3 streams: the receiver's accept loop starts a worker
    # for each, which ends with its stream, and the sender starts 2 workers.
    # Never closed, the accept loop ends up an idle server, so run() still
    # returns.
    hub = make_hub()
    transport = SimTransport(hub)
    receiver = Receiver(transport)
    results = []

    def sender():
        for i in range(3):
            results.append((send_transfer(bytes([i]) * 30_000, transport, 3), receiver.serve_one()))

    hub.spawn(sender, name="send")
    hub.run()
    assert [(report.ok, result.ok) for report, result in results] == [(True, True)] * 3
    names = [task.name for task in hub._tasks]
    assert names.count("recv-conn") == 3 * 3
    assert sorted(set(names) - {"recv-conn"}) == ["recv-accept", "send", "send-1", "send-2"]
    assert len(names) == 2 + 3 * 3 + 3 * 2


def test_deadlock_beside_an_idle_server_names_only_the_stuck_task():
    hub = make_hub()
    listener = SimTransport(hub).listen()
    channel = SimChannel(hub)
    hub.spawn(listener.accept, name="acceptor")
    hub.spawn(channel.get, name="starved")
    with pytest.raises(RuntimeError, match="no pending events: starved$"):
        hub.run()


def test_callback_error_surfaces_from_run_not_the_parked_task():
    # The sleeper's own thread steps the network when it parks, so the
    # callback raises there; the error must reach run(), not the task.
    hub = make_hub()
    swallowed = []

    def boom():
        raise ValueError("callback failed")

    def sleeper():
        try:
            hub.sleep(1.0)
        except Exception as exc:  # noqa: BLE001 - must never see the callback's error
            swallowed.append(exc)

    hub.network.schedule_call(0.5, boom)
    hub.spawn(sleeper, name="sleeper")
    with pytest.raises(ValueError, match="callback failed"):
        hub.run()
    assert swallowed == []
    assert hub.now() == pytest.approx(0.5)


def test_sleep_orders_by_virtual_time():
    hub = make_hub()
    order = []

    def napper(name, duration):
        hub.sleep(duration)
        order.append(name)

    hub.spawn(lambda: napper("slow", 0.2), name="slow")
    hub.spawn(lambda: napper("fast", 0.1), name="fast")
    hub.run()
    assert order == ["fast", "slow"]
    assert hub.now() == pytest.approx(0.2)


def test_channel_between_tasks():
    hub = make_hub()
    channel = SimChannel(hub)
    got = []

    def producer():
        hub.sleep(0.05)
        channel.put("first")
        channel.put("second")

    def consumer():
        got.append(channel.get())
        got.append(channel.get())

    hub.spawn(consumer, name="consumer")
    hub.spawn(producer, name="producer")
    hub.run()
    assert got == ["first", "second"]


# ---------------------------------------------------------------------------
# Stream semantics
# ---------------------------------------------------------------------------


def pair_up(hub, transport):
    """Connect and accept inside tasks; returns {client, server} streams."""
    ends = {}
    listener = transport.listen()

    def acceptor():
        ends["server"] = listener.accept()

    def connector():
        ends["client"] = transport.connect()

    accept_task = hub.spawn(acceptor, name="acceptor")
    connect_task = hub.spawn(connector, name="connector")
    return ends, accept_task, connect_task


def test_stream_roundtrip_and_eof():
    hub = make_hub()
    transport = SimTransport(hub)
    ends, *_ = pair_up(hub, transport)
    got = []

    def client_side():
        while "client" not in ends:
            hub.sleep(0.001)
        client = ends["client"]
        client.write_all(b"ping")
        client.close()
        # Reverse-path bytes arrive in write order, then the EOF.
        chunks = []
        while (data := client.read_some()) != b"":
            chunks.append(data)
        got.append(b"".join(chunks))

    def server_side():
        while "server" not in ends:
            hub.sleep(0.001)
        server = ends["server"]
        chunks = []
        while (data := server.read_some()) != b"":
            chunks.append(data)
        got.append(b"".join(chunks))
        server.write_all(b"hello ")
        server.write_all(b"world")
        server.close()

    hub.spawn(client_side, name="client")
    hub.spawn(server_side, name="server")
    hub.run()
    assert got == [b"ping", b"hello world"]


def test_read_timeout_uses_virtual_clock():
    hub = make_hub()
    transport = SimTransport(hub)
    ends, *_ = pair_up(hub, transport)

    def server_side():
        while "server" not in ends:
            hub.sleep(0.001)
        t0 = hub.now()
        with pytest.raises(TimeoutError):
            ends["server"].read_some(timeout=0.75)
        assert hub.now() - t0 == pytest.approx(0.75)

    hub.spawn(server_side, name="server")
    hub.run()


def test_write_backpressure_bounds_the_send_buffer(monkeypatch):
    hub = make_hub(LinkConfig(capacity=10_000_000, one_way_delay=0.01, queue_limit=100))
    cap = 32 * 1024
    monkeypatch.setattr(simbridge, "SEND_BUFFER_CAP", cap)
    transport = SimTransport(hub)
    ends, *_ = pair_up(hub, transport)
    payload = bytes(range(256)) * 4096  # 1 MiB
    received = []
    high_water = []

    def client_side():
        while "client" not in ends:
            hub.sleep(0.001)
        client = ends["client"]
        client.write_all(payload)
        high_water.append(client._path._unbound)
        client.close()

    def server_side():
        while "server" not in ends:
            hub.sleep(0.001)
        chunks = []
        while (data := ends["server"].read_some()) != b"":
            chunks.append(data)
        received.append(b"".join(chunks))

    hub.spawn(client_side, name="client")
    hub.spawn(server_side, name="server")
    hub.run()
    assert received == [payload]
    # write_all returned only once the unsent backlog was back under the cap
    assert high_water[0] <= cap


def test_connect_without_listener_is_refused():
    hub = make_hub()
    transport = SimTransport(hub)
    hub.spawn(lambda: transport.connect(), name="connector")
    with pytest.raises(ConnectionRefusedError):
        hub.run()


def test_connect_refused_when_listener_closes_mid_handshake():
    hub = make_hub()
    transport = SimTransport(hub)
    listener = transport.listen()

    def connector():
        with pytest.raises(ConnectionRefusedError):
            transport.connect()

    def closer():
        hub.sleep(FAST_LINK.rtt_base / 2)  # inside the handshake window
        listener.close()

    hub.spawn(connector, name="connector")
    hub.spawn(closer, name="closer")
    hub.run()


def test_listener_close_unparks_acceptor():
    hub = make_hub()
    transport = SimTransport(hub)
    listener = transport.listen()

    def acceptor():
        with pytest.raises(ConnectionError):
            listener.accept()

    def closer():
        hub.sleep(0.1)
        listener.close()

    hub.spawn(acceptor, name="acceptor")
    hub.spawn(closer, name="closer")
    hub.run()


@pytest.mark.parametrize("aborter", ["client", "server"])
def test_abort_truncates_the_peer_stream(aborter):
    peer = "server" if aborter == "client" else "client"
    hub = make_hub()
    transport = SimTransport(hub)
    ends, *_ = pair_up(hub, transport)
    seen = {}

    def aborting_side():
        while aborter not in ends:
            hub.sleep(0.001)
        stream = ends[aborter]
        stream.write_all(b"x" * 100_000)
        seen["aborted_at"] = hub.now()
        stream.abort()
        seen["own_read"] = stream.read_some()  # own read end is dead too

    def peer_side():
        while peer not in ends:
            hub.sleep(0.001)
        total = 0
        while (data := ends[peer].read_some()) != b"":
            total += len(data)
        seen["peer_bytes"] = total
        seen["eof_at"] = hub.now()

    hub.spawn(aborting_side, name=aborter)
    hub.spawn(peer_side, name=peer)
    hub.run()
    assert seen["own_read"] == b""
    if aborter == "client":
        # The server sees a clean EOF with at most the bytes already committed.
        assert seen["peer_bytes"] <= 100_000
    else:
        # The reverse path drops nothing: every byte written before the abort
        # arrives, then the EOF one one-way delay after the abort.
        assert seen["peer_bytes"] == 100_000
        assert seen["eof_at"] == pytest.approx(seen["aborted_at"] + FAST_LINK.one_way_delay)


@pytest.mark.parametrize(
    "aborter, parked", [("client", False), ("server", False), ("server", True)],
    ids=["client", "server", "server-parked-writer"],
)
def test_abort_resets_the_peer_one_way_delay_later(aborter, parked):
    # Before the abort reaches the peer its writes still go out; after it,
    # they fail as on a TCP connection that was reset.  A write parked on a
    # full send buffer (only the connect side's can park) fails as it lands.
    peer = "server" if aborter == "client" else "client"
    hub = make_hub()
    transport = SimTransport(hub)
    ends, *_ = pair_up(hub, transport)
    half = FAST_LINK.one_way_delay / 2
    seen = {}

    def aborting_side():
        while aborter not in ends or peer not in ends:
            hub.sleep(0.001)
        seen["aborted_at"] = hub.now()
        ends[aborter].abort()

    def peer_side():
        while aborter not in ends or peer not in ends:
            hub.sleep(0.001)
        if parked:
            with pytest.raises(ConnectionResetError):
                ends[peer].write_all(bytes(8 * simbridge.SEND_BUFFER_CAP))
            seen["failed_at"] = hub.now()
            return
        hub.sleep(half)
        ends[peer].write_all(b"early")
        hub.sleep(2 * half)
        with pytest.raises(ConnectionResetError):
            ends[peer].write_all(b"late")

    hub.spawn(aborting_side, name=aborter)
    hub.spawn(peer_side, name=peer)
    hub.run()
    if parked:
        assert seen["failed_at"] == pytest.approx(seen["aborted_at"] + FAST_LINK.one_way_delay)


@pytest.mark.parametrize("writer", ["client", "server"])
def test_write_after_close_is_refused(writer):
    hub = make_hub()
    transport = SimTransport(hub)
    ends, *_ = pair_up(hub, transport)

    def writing_side():
        while writer not in ends:
            hub.sleep(0.001)
        ends[writer].close()
        with pytest.raises(ConnectionError, match="closed for writing"):
            ends[writer].write_all(b"x")

    hub.spawn(writing_side, name=writer)
    hub.run()


def exchange(hub, transport, writes, reads):
    """The client writes ``writes[0]`` and closes, then the server writes
    ``writes[1]`` and closes; each side reads until EOF, cycling through
    ``reads`` as ``(max_bytes, min_bytes)``.  Returns what each side read."""
    ends, *_ = pair_up(hub, transport)
    got = {}

    def read_all(stream):
        chunks = []
        i = 0
        while True:
            max_bytes, min_bytes = reads[i % len(reads)]
            i += 1
            data = stream.read_some(max_bytes, min_bytes=min_bytes)
            if data == b"":
                return b"".join(chunks)
            assert len(data) <= max_bytes
            chunks.append(bytes(data))

    def side(name, outgoing, read_first):
        while name not in ends:
            hub.sleep(0.001)
        stream = ends[name]
        if read_first:
            got[name] = read_all(stream)
        for data in outgoing:
            stream.write_all(data)
        stream.close()
        if not read_first:
            got[name] = read_all(stream)

    hub.spawn(lambda: side("client", writes[0], False), name="client")
    hub.spawn(lambda: side("server", writes[1], True), name="server")
    hub.run()
    return got


BUFFER_TYPES = {"bytes": bytes, "bytearray": bytearray, "memoryview": lambda b: memoryview(bytearray(b))}
writes_strategy = st.lists(
    st.tuples(st.integers(0, 7000), st.sampled_from(sorted(BUFFER_TYPES))), max_size=6
)


@settings(max_examples=30, deadline=None)
@given(
    forward=writes_strategy,
    reverse=writes_strategy,
    reads=st.lists(st.tuples(st.integers(1, 9000), st.integers(1, 9000)), min_size=1, max_size=5),
    salt=st.integers(0, 255),
)
def test_stream_bytes_arrive_intact_in_both_directions(forward, reverse, reads, salt):
    def make(spec):
        return [
            BUFFER_TYPES[kind](bytes((salt + i * 7 + j) % 256 for j in range(size)))
            for i, (size, kind) in enumerate(spec)
        ]

    writes = make(forward), make(reverse)
    hub = make_hub()
    got = exchange(hub, SimTransport(hub), writes, reads)
    assert got["server"] == b"".join(bytes(w) for w in writes[0])
    assert got["client"] == b"".join(bytes(w) for w in writes[1])


@pytest.mark.parametrize("writer", ["client", "server"])
def test_buffer_mutated_after_write_does_not_change_what_the_peer_reads(writer):
    # The stream keeps what was written until the peer reads it, so a caller
    # buffer reused after write_all must not show through.
    original = bytes(range(256)) * 20
    buffer = bytearray(original)
    hub = make_hub()
    transport = SimTransport(hub)
    ends, *_ = pair_up(hub, transport)
    peer = "server" if writer == "client" else "client"
    got = {}

    def writing_side():
        while writer not in ends:
            hub.sleep(0.001)
        ends[writer].write_all(buffer)
        buffer[:] = bytes(len(buffer))
        ends[writer].close()

    def reading_side():
        while peer not in ends:
            hub.sleep(0.001)
        chunks = []
        while (data := ends[peer].read_some()) != b"":
            chunks.append(data)
        got["data"] = b"".join(chunks)

    hub.spawn(writing_side, name=writer)
    hub.spawn(reading_side, name=peer)
    hub.run()
    assert got["data"] == original


def test_abort_delivers_exactly_the_bound_bytes_then_eof():
    hub = make_hub()
    transport = SimTransport(hub)
    ends, *_ = pair_up(hub, transport)
    payload = bytes(range(251)) * 400  # a period prime to the MSS, so any shift shows
    parts = [payload[:40_000], payload[40_000:70_000], payload[70_000:]]
    seen = {}

    def client_side():
        while "client" not in ends:
            hub.sleep(0.001)
        client = ends["client"]
        for part in parts:  # all but the first window stays unbound
            client.write_all(part)
        seen["unbound"] = client._path._unbound
        client.abort()

    def server_side():
        while "server" not in ends:
            hub.sleep(0.001)
        chunks = []
        while (data := ends["server"].read_some()) != b"":
            chunks.append(data)
        seen["received"] = b"".join(chunks)

    hub.spawn(client_side, name="client")
    hub.spawn(server_side, name="server")
    hub.run()
    # The abort drops the last two writes whole and the tail of the first.
    assert len(parts[1]) + len(parts[2]) < seen["unbound"] < len(payload)
    assert seen["received"] == payload[: len(payload) - seen["unbound"]]


# ---------------------------------------------------------------------------
# Transfers over the simulated bottleneck
# ---------------------------------------------------------------------------


class _Holder:
    """What a sink filled.  A class defined inside a test would be cyclic
    garbage itself, so this one is defined here."""

    data = None


def test_finished_transfer_is_freed_without_the_cyclic_gc():
    # Nothing a finished run leaves may refer back to its hub: not the ended
    # tasks, their closures and streams, nor callbacks still on the heap.  So
    # reference counting alone frees the hub, its network and what the sink
    # kept, with events still pending.
    link = LinkConfig(capacity=100e6, one_way_delay=0.010, queue_limit=100, loss_probability=0.01, seed=0)
    payload = bytes(range(256)) * 4096  # 1 MiB
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        network = Network(link)
        hub = SimHub(network)
        transport = SimTransport(hub)
        holder = _Holder()

        def sink(tid, data):
            holder.data = data

        hub.spawn(lambda: serve(transport, sink=sink), name="serve")
        hub.spawn(lambda: setattr(holder, "report", send_transfer(payload, transport, 2)), name="send")
        hub.run()
        assert holder.report.ok and holder.data == payload
        assert network.next_time() is not None
        refs = [weakref.ref(hub), weakref.ref(network), weakref.ref(holder)]
        del network, hub, transport, holder
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if was_enabled:
            gc.enable()


def test_simulate_transfer_leaves_the_network_to_reference_counting():
    # The hub and its tasks go with the call, so once the caller drops its
    # network, reference counting frees it, with events still pending, and
    # the payload the sink took is the caller's alone.
    link = LinkConfig(capacity=100e6, one_way_delay=0.010, queue_limit=100, loss_probability=0.01, seed=0)
    payload = bytes(range(256)) * 4096  # 1 MiB
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        network = Network(link)
        report, result, received = simulate_transfer(network, payload, 2)
        assert report.ok and result.ok and received == payload
        assert network.next_time() is not None
        alone = bytearray()
        assert sys.getrefcount(received) == sys.getrefcount(alone)
        ref = weakref.ref(network)
        del network
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def _fail():
    raise ValueError("task failed")


def test_failed_task_is_freed_without_the_cyclic_gc():
    # A task's error keeps the frames it passed through: the task's own, and
    # those of join() and run() that raise it again.  None of them may refer
    # back to the task or its hub, so reference counting alone frees both.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        hub = make_hub()
        failed = hub.spawn(_fail, name="fail")
        hub.spawn(failed.join, name="joiner")  # join() raises it into a second task
        with pytest.raises(ValueError, match="^task failed$"):
            hub.run()
        refs = [weakref.ref(hub), weakref.ref(failed)]
        del hub, failed
        assert [ref() for ref in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


def test_a_finished_hub_runs_another_transfer():
    hub = make_hub()
    transport = SimTransport(hub)
    store = {}
    for payload in (bytes(range(256)) * 400, b"second" * 20_000):
        box = {}  # each run() returns before the next loop binds box and payload again
        hub.spawn(lambda: box.__setitem__("result", serve(transport, sink=store.__setitem__)), name="serve")
        hub.spawn(lambda: box.__setitem__("report", send_transfer(payload, transport, 2)), name="send")
        hub.run()
        assert box["report"].ok and box["result"].ok
        assert store[box["report"].transfer_id] == payload


def test_stepping_a_finished_network_wakes_nothing():
    # Late timers and deliveries of finished runs find no task to wake, not
    # even the timer of a sleeper that run() ended mid-park when a callback
    # failed: the network drains without an error and starts no thread.
    link = LinkConfig(capacity=10_000_000, one_way_delay=0.01, queue_limit=100, loss_probability=0.05, seed=9)
    hub = make_hub(link)
    transport = SimTransport(hub)
    box = {}
    hub.spawn(lambda: box.__setitem__("result", serve(transport)))
    hub.spawn(lambda: box.__setitem__("report", send_transfer(bytes(300_000), transport, 3)))
    hub.run()
    assert box["report"].ok and box["result"].ok

    def boom():
        raise ValueError("callback failed")

    network = hub.network
    network.schedule_call(network.now + 0.5, boom)
    hub.spawn(lambda: hub.sleep(1.0), name="sleeper")
    with pytest.raises(ValueError, match="callback failed"):
        hub.run()
    assert any(event[2] is simnet._call for event in network._heap)  # the sleeper's timer among them
    threads = threading.active_count()
    while network.step():
        assert threading.active_count() == threads
    assert not hub._ready and all(task.finished for task in hub._tasks)


def test_a_transfer_leaves_at_most_one_timer_per_task():
    # Every read parks with an idle timer; a task keeps at most one armed,
    # so the network heap does not fill with timers of reads long done.
    network = Network(FAST_LINK)
    hub = SimHub(network)
    transport = SimTransport(hub)
    payload = bytes(range(256)) * 4096
    box = {}
    hub.spawn(lambda: box.__setitem__("result", serve(transport, sink=lambda tid, data: None)), name="serve")
    hub.spawn(lambda: box.__setitem__("report", send_transfer(payload, transport, 2)), name="send")
    hub.run()
    assert box["report"].ok and box["result"].ok
    # Callbacks left on the heap past the end; the flows' own last events aside.
    timers = [e for e in network._heap if e[0] > network.now and e[2] is simnet._call]
    assert len(timers) <= len(hub._tasks)


def test_simwire_lossy_seed0_fingerprint():
    # The benchmark's simwire_lossy run at seed 0: 16 MiB over 2 connections
    # through a 100 Mbit/s, 10 ms, 100-packet, 1%-loss bottleneck.  Virtual
    # completion time, segments sent and losses depend on segment sizes and
    # binding times only, so a byte-path change that shifts them fails here.
    link = LinkConfig(
        capacity=100e6, one_way_delay=0.010, queue_limit=100, loss_probability=0.01, seed=0
    )
    payload = bytes(range(256)) * 65536
    network = Network(link)
    report, result, received = simulate_transfer(network, payload, 2)
    assert report.ok and result.ok
    assert received == payload
    sent = sum(flow.sent_segments for flow in network.flows.values())
    fingerprint = (repr(report.wall_time), sent, network.bernoulli_losses)
    assert fingerprint == ("7.796399999999838", 11297, 103)


def test_striped_transfer_over_sim_is_intact():
    payload = bytes((i * 37 + 11) % 256 for i in range(300_000))
    network = Network(FAST_LINK)
    report, result, received = simulate_transfer(network, payload, 3)
    assert report.ok
    assert result.ok
    assert sha256(received) == sha256(payload)
    assert result.total_size == len(payload)
    assert len(result.per_connection) == 3
    assert network.drops == 0
    # Virtual wall time is positive and the clocks agree on it.
    assert report.wall_time > 0


def test_loss_slows_the_transfer_but_not_the_payload():
    payload = bytes((i * 13 + 5) % 256 for i in range(200_000))
    clean_link = LinkConfig(
        capacity=100_000_000, one_way_delay=0.01, queue_limit=1_000, seed=3
    )
    lossy_link = LinkConfig(
        capacity=100_000_000,
        one_way_delay=0.01,
        queue_limit=1_000,
        loss_probability=0.05,
        seed=3,
    )
    clean_report, clean_result, _ = simulate_transfer(Network(clean_link), payload, 2)
    lossy_net = Network(lossy_link)
    lossy_report, lossy_result, lossy_received = simulate_transfer(lossy_net, payload, 2)
    assert clean_result.ok and lossy_result.ok
    assert lossy_received == payload
    assert lossy_net.bernoulli_losses > 0
    assert lossy_report.wall_time > clean_report.wall_time


def test_more_connections_move_more_data_under_loss():
    # Loss-limited regime: each flow's window is capped by random loss well
    # below the pipe, so added connections finish the same payload sooner.
    link = LinkConfig(
        capacity=10_000_000,
        one_way_delay=0.025,
        queue_limit=50,
        loss_probability=0.01,
        seed=11,
    )
    payload = bytes(1024) * 8192  # 8 MiB, large enough to span the window

    def transfer_time(connections):
        report, result, received = simulate_transfer(Network(link), payload, connections)
        assert report.ok and result.ok
        assert received == payload
        return report.wall_time

    assert transfer_time(1) >= 1.3 * transfer_time(2)


def test_receiver_wakes_about_once_per_frame(monkeypatch):
    # Each read waits for the bytes its frame needs, so a 64 KiB DATA frame
    # costs at most two reads, and a reader parks only until its frame is in,
    # not once per delivered segment (about 45 per frame).
    reads = []
    parks = []
    real_read_some = simbridge.SimStream.read_some
    real_wait = SimHub._wait_on_locked

    def counting_read_some(self, *args, **kwargs):
        reads.append(self._inbox.readable)
        return real_read_some(self, *args, **kwargs)

    def counting_wait(self, point, *args, **kwargs):
        if any(point is readable for readable in reads):
            parks.append(point)
        return real_wait(self, point, *args, **kwargs)

    monkeypatch.setattr(simbridge.SimStream, "read_some", counting_read_some)
    monkeypatch.setattr(SimHub, "_wait_on_locked", counting_wait)
    payload = bytes(range(256)) * 4096  # 1 MiB: 8 DATA frames on each of 2 streams
    report, result, _ = simulate_transfer(Network(FAST_LINK), payload, 2)
    assert report.ok and result.ok
    data_frames, connections = 16, 2
    assert len(reads) <= 2 * data_frames + 4 * connections
    assert len(parks) <= 2 * data_frames + 4 * connections


def test_payload_bytes_never_pass_through_read_some_on_the_receiver(monkeypatch):
    # The receiver reads frame heads with read_some and each DATA payload with
    # read_into, straight into its buffer, so read_some returns at most the
    # largest frame head per frame.
    returned = []
    real_read_some = simbridge.SimStream.read_some

    def counting_read_some(self, *args, **kwargs):
        data = real_read_some(self, *args, **kwargs)
        if isinstance(self._path, simbridge._DelayLine):  # an accepted stream: the receiver's
            returned.append(len(data))
        return data

    monkeypatch.setattr(simbridge.SimStream, "read_some", counting_read_some)
    payload = bytes(range(256)) * 4096  # 1 MiB: HELLO, 8 DATA frames and FIN on each of 2 streams
    _, result, received = simulate_transfer(Network(FAST_LINK), payload, 2)
    assert result.ok and received == payload
    largest_head = len(encode_frame(Hello(bytes(16), 0, 1, 0, 0, 0, bytes(32))))  # 86 bytes
    frames = 2 * (1 + 8 + 1)
    assert 0 < sum(returned) <= largest_head * frames


def test_same_seed_same_virtual_outcome():
    payload = bytes((7 * i) % 256 for i in range(150_000))
    link = LinkConfig(
        capacity=50_000_000,
        one_way_delay=0.02,
        queue_limit=200,
        loss_probability=0.03,
        seed=42,
    )
    net1, net2 = Network(link, record_events=True), Network(link, record_events=True)
    first_report, first_result, _ = simulate_transfer(net1, payload, 4)
    second_report, second_result, _ = simulate_transfer(net2, payload, 4)
    assert first_report.wall_time == second_report.wall_time
    assert first_result.wall_time == second_result.wall_time
    assert net1.log_digest() == net2.log_digest()

    different, _, _ = simulate_transfer(Network(replace(link, seed=43)), payload, 4)
    assert different.wall_time != first_report.wall_time


def test_interleaving_golden():
    # Recorded sends depend on when the writers feed bytes, so the event log
    # digest pins the order in which the hub runs its tasks, not only the
    # simulator.  A scheduler rewrite that keeps behaviour keeps these.
    payload = bytes((7 * i) % 256 for i in range(150_000))
    link = LinkConfig(
        capacity=50_000_000,
        one_way_delay=0.02,
        queue_limit=200,
        loss_probability=0.03,
        seed=42,
    )
    network = Network(link, record_events=True)
    report, result, received = simulate_transfer(network, payload, 4)
    assert result.ok and received == payload
    assert len(network.event_log) == 339
    assert network.log_digest() == "b928060d3ace535706b48f87b5fe8f2323e7a1c67940080b1c9d48bcdc79f669"
    assert repr(report.wall_time) == "0.4824000000000002"
    assert repr(result.wall_time) == "0.2821600000000002"


def test_stall_mid_frame_times_out_one_idle_timeout_after_the_last_byte():
    # The peer sends HELLO and the first 30,000 bytes of a DATA frame, then
    # goes quiet without closing.  The receiver's read waits for the whole
    # frame, yet it must still give up one idle timeout after the last byte
    # arrived, not one after the read began.
    hub = make_hub(LinkConfig(capacity=10_000_000, one_way_delay=0.01, queue_limit=100))
    transport = SimTransport(hub)
    receiver = Receiver(transport, idle_timeout=5.0)
    payload = bytes(range(256)) * 256
    manifest = TransferManifest.for_payload(payload, 1)
    box = {}

    def peer():
        stream = transport.connect()
        stream.write_all(encode_frame(manifest.hello(0)))
        stream.write_all(encode_frame(Data(0, 0, payload))[:30_000])
        hub.sleep(20.0)
        stream.abort()

    def waiter():
        box["result"] = receiver.serve_one()
        box["at"] = hub.now()
        receiver.close()

    hub.spawn(peer, name="peer")
    hub.spawn(waiter, name="waiter")
    hub.run()
    assert box["result"].failure_kind is FailureKind.STALLED
    assert box["at"] == pytest.approx(5.1372)
