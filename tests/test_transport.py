"""Transport seam: TCP loopback and the simulated link behave alike."""

import gc
import socket
import struct
import sys
import threading
import time
import warnings

import pytest

from ptcp.simbridge import SimHub, SimTransport
from ptcp.simnet import LinkConfig, Network
from ptcp.transport import TcpStream, TcpTransport

from conftest import run_on_sim, wait_until


class _Trickle:
    """A socket whose ``sendmsg`` sends at most the next of ``steps`` bytes."""

    def __init__(self, sock, steps):
        self._sock = sock
        self._steps = iter(steps)

    def setsockopt(self, *args):
        pass

    def settimeout(self, timeout):
        pass

    def sendmsg(self, parts):
        return self._sock.send(b"".join(parts)[: next(self._steps)])


def test_tcp_write_all_resumes_after_a_partial_sendmsg():
    # Sends of 3, 2, 4 and the rest: one cut inside the first part, one at
    # its end, one inside the second part.
    writer, peer = socket.socketpair()
    with writer, peer:
        TcpStream(_Trickle(writer, [3, 2, 4, 100])).write_all(b"abcde", memoryview(b"fghij"), bytearray(b"klm"))
        writer.shutdown(socket.SHUT_WR)
        received = b""
        while data := peer.recv(64):
            received += data
    assert received == b"abcdefghijklm"


def test_spawn_join_propagates_exception():
    transport = TcpTransport("127.0.0.1", 0)

    def boom():
        raise RuntimeError("worker died")

    handle = transport.spawn(boom)
    with pytest.raises(RuntimeError, match="worker died"):
        handle.join(timeout=5.0)


@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_channel_fifo(backend):
    # get() takes items in the order put() gave them, and on an empty
    # channel blocks until another worker puts one.
    def run(transport, sleep):
        ch = transport.channel()
        ch.put(1)
        ch.put(2)
        assert ch.get() == 1
        assert ch.get() == 2

        def put_later():
            sleep(0.05)
            ch.put(3)

        start = transport.now()
        handle = transport.spawn(put_later, name="putter")
        assert ch.get() == 3
        assert transport.now() - start >= 0.05
        handle.join()

    if backend == "sim":
        run_on_sim(lambda transport: run(transport, transport._hub.sleep))
    else:
        run(TcpTransport("127.0.0.1", 0), time.sleep)


def test_tcp_loopback_roundtrip():
    transport = TcpTransport("127.0.0.1", 0)
    listener = transport.listen()
    assert transport.port != 0  # ephemeral port resolved at bind

    def server():
        stream = listener.accept()
        while True:
            piece = stream.read_some(timeout=5.0)
            if piece == b"":
                break
            stream.write_all(piece)
        stream.close()

    handle = transport.spawn(server)
    client = transport.connect()
    client.write_all(b"ping")
    assert client.read_some(timeout=5.0) == b"ping"
    client.close()
    handle.join(timeout=5.0)
    listener.close()


@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_listener_close_wakes_every_acceptor(backend):
    raised = []

    def run(transport, hub=None):
        listener = transport.listen()

        def acceptor():
            with pytest.raises(OSError):  # ConnectionError, an OSError, on the simulator
                listener.accept()
            raised.append(True)

        handles = [transport.spawn(acceptor, name="acceptor") for _ in range(3)]
        (time.sleep if hub is None else hub.sleep)(0.05)  # let every acceptor block in accept()
        listener.close()
        assert wait_until(lambda: len(raised) == 3, 1.0, hub)
        for handle in handles:
            handle.join()  # re-raises an acceptor's failure

    if backend == "sim":
        run_on_sim(lambda transport: run(transport, transport._hub))
    else:
        run(TcpTransport("127.0.0.1", 0))


def _kept_pair(transport, listener):
    """A connected (client, server) pair whose client ``transport`` keeps."""
    client = transport.connect()
    server = listener.accept()
    transport.release(client)
    return client, server


def test_tcp_connect_reuses_a_quiet_released_stream():
    transport = TcpTransport("127.0.0.1", 0)
    listener = transport.listen()
    client, server = _kept_pair(transport, listener)
    try:
        assert transport.connect() is client
        client.write_all(b"still open")
        assert server.read_some(timeout=5.0) == b"still open"
    finally:
        client.abort()
        server.abort()
        listener.close()


@pytest.mark.parametrize("peer", ["closed", "wrote", "reset"])
def test_tcp_connect_drops_a_released_stream_that_is_not_quiet(peer):
    transport = TcpTransport("127.0.0.1", 0)
    listener = transport.listen()
    client, server = _kept_pair(transport, listener)
    if peer == "closed":
        server.abort()
    elif peer == "wrote":
        server.write_all(b"x")
    else:
        server._sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        server._sock.close()  # a zero linger time sends a reset
    time.sleep(0.05)  # let the FIN, byte or reset arrive
    fresh = transport.connect()
    reused = fresh is client
    fresh.abort()
    server.abort()
    if not reused:
        listener.accept().abort()
    listener.close()
    assert not reused
    assert client._sock.fileno() == -1  # dropped, not left open


def test_tcp_transport_close_closes_every_kept_stream():
    transport = TcpTransport("127.0.0.1", 0)
    listener = transport.listen()
    clients = [transport.connect() for _ in range(3)]  # all open before any is released
    servers = [listener.accept() for _ in clients]
    for client in clients:
        transport.release(client)
    transport.close()
    for client, server in zip(clients, servers):
        assert client._sock.fileno() == -1
        assert server.read_some(timeout=5.0) == b""  # the peer sees end of stream
        server.abort()
    listener.close()


def test_tcp_spawn_starts_a_thread_each_time_while_no_stream_is_kept():
    transport = TcpTransport("127.0.0.1", 0)
    ran_on = []
    for _ in range(3):
        transport.spawn(lambda: ran_on.append(threading.current_thread()), name="job").join(timeout=5.0)
    assert len(set(ran_on)) == 3


def test_tcp_worker_parks_only_while_more_streams_are_kept_than_parked():
    transport = TcpTransport("127.0.0.1", 0)
    listener = transport.listen()
    transport.spawn(lambda: None, name="unmatched").join(timeout=5.0)
    assert not transport._parked  # no kept stream, so the worker ended
    _, server = _kept_pair(transport, listener)
    together = threading.Barrier(2)
    try:
        handles = [transport.spawn(lambda: together.wait(timeout=5.0), name="job") for _ in range(2)]
        for handle in handles:
            handle.join(timeout=5.0)
        assert len(transport._parked) == 1  # one kept stream, so one of the two parked
    finally:
        transport.close()
        server.abort()
        listener.close()


def test_tcp_parked_worker_reraises_on_join_then_serves_the_next_spawn():
    # One kept stream lets one finished worker park; it takes each later
    # spawn under that spawn's name, a failed one included.
    transport = TcpTransport("127.0.0.1", 0)
    listener = transport.listen()
    _, server = _kept_pair(transport, listener)
    ran_on = []

    def record():
        ran_on.append((threading.current_thread(), threading.current_thread().name))

    def boom():
        record()
        raise RuntimeError("worker died")

    try:
        transport.spawn(record, name="first").join(timeout=5.0)
        with pytest.raises(RuntimeError, match="worker died"):
            transport.spawn(boom, name="second").join(timeout=5.0)
        transport.spawn(record, name="third").join(timeout=5.0)
        assert len(transport._parked) == 1
        assert len({thread for thread, _ in ran_on}) == 1
        assert [name for _, name in ran_on] == ["first", "second", "third"]
    finally:
        transport.close()
        server.abort()
        listener.close()
    assert not transport._parked


def test_tcp_spawns_from_many_threads_each_run_once():
    # Four spawning threads, more than the cores, with a short switch
    # interval race for the parked workers of one transport with 3 kept
    # streams; a lost hand-off would lose a run or hang a join.
    transport = TcpTransport("127.0.0.1", 0)
    listener = transport.listen()
    clients = [transport.connect() for _ in range(3)]  # all open before any is released
    servers = [listener.accept() for _ in clients]
    for client in clients:
        transport.release(client)
    ran = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def spawner(k):
        for i in range(100):
            transport.spawn(lambda i=i: ran.append((k, i)), name=f"job-{k}").join(timeout=5.0)

    try:
        spawners = [threading.Thread(target=spawner, args=(k,)) for k in range(4)]
        for thread in spawners:
            thread.start()
        for thread in spawners:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert sorted(ran) == [(k, i) for k in range(4) for i in range(100)]
        assert len(transport._parked) <= len(transport._kept) == 3
    finally:
        sys.setswitchinterval(interval)
        transport.close()
        for server in servers:
            server.abort()
        listener.close()


def test_tcp_read_timeout():
    transport = TcpTransport("127.0.0.1", 0)
    listener = transport.listen()
    client = transport.connect()
    server = listener.accept()
    with pytest.raises(TimeoutError):
        client.read_some(timeout=0.05)
    server.abort()
    client.abort()
    listener.close()


def test_now_is_monotonic():
    transport = TcpTransport("127.0.0.1", 0)
    a = transport.now()
    b = transport.now()
    assert b >= a


def test_tcp_listen_failure_closes_its_socket():
    taken = TcpTransport("127.0.0.1", 0)
    listener = taken.listen()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                TcpTransport("127.0.0.1", taken.port).listen()
            except OSError:
                pass
            else:
                pytest.fail("second listener bound a port already in use")
            gc.collect()
    finally:
        listener.close()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == [], [str(w.message) for w in leaks]


# ---------------------------------------------------------------------------
# read_some(min_bytes=) on every backend: one side writes a script of
# (pause, bytes) steps, the other reads, and the reader's clock is measured.
# ---------------------------------------------------------------------------

GAP = 0.05  # seconds between scripted writes
IDLE = 0.3  # the reader's idle timeout; several GAPs, so thread wake-up jitter fits


class _Threaded:
    """TCP loopback: the writer is a thread, the reader runs here."""

    def __init__(self, transport):
        self.transport = transport
        self.now = time.monotonic
        self.sleep = time.sleep

    def run(self, writer, reader):
        listener = self.transport.listen()
        client = self.transport.connect()
        server = listener.accept()
        listener.close()
        handle = self.transport.spawn(lambda: writer(server))
        try:
            return reader(client)
        finally:
            client.abort()  # lets a TCP close() in the writer finish its drain
            handle.join(timeout=10.0)
            server.abort()


class _Simulated:
    """Simulated bottleneck: writer and reader are hub tasks on a virtual clock;
    the writer's bytes take the reverse path, one 10 ms delay."""

    def __init__(self):
        link = LinkConfig(capacity=10_000_000, one_way_delay=0.01, queue_limit=100)
        self.hub = SimHub(Network(link))
        self.transport = SimTransport(self.hub)
        self.now = self.hub.now
        self.sleep = self.hub.sleep

    def run(self, writer, reader):
        listener = self.transport.listen()
        box = {}

        def write_side():
            stream = listener.accept()
            listener.close()
            writer(stream)

        def read_side():
            box["out"] = reader(self.transport.connect())

        self.hub.spawn(write_side, name="writer")
        self.hub.spawn(read_side, name="reader")
        self.hub.run()
        return box["out"]


@pytest.fixture(params=["tcp", "sim"])
def backend(request):
    if request.param == "tcp":
        return _Threaded(TcpTransport("127.0.0.1", 0))
    return _Simulated()


def test_second_listen_while_the_first_is_open_fails(backend):
    # A second listener must not silently take the first one's connections.
    listener = backend.transport.listen()
    try:
        with pytest.raises(OSError):
            backend.transport.listen()
    finally:
        listener.close()
    backend.transport.listen().close()  # free again once the first one is closed


def _script(backend, steps, close=False, written_at=None):
    """Writer doing each step in turn; appends to ``written_at`` the time each
    write began, which no byte of it can arrive before."""

    def writer(stream):
        for pause, data in steps:
            backend.sleep(pause)
            if written_at is not None:
                written_at.append(backend.now())
            stream.write_all(data)
        if close:
            stream.close()

    return writer


def _timed_read(backend, *reads):
    """Reader doing each ``(max_bytes, min_bytes)`` read in turn; returns the
    results, or the exception that ended them, and when it began and ended."""

    def reader(stream):
        start = backend.now()
        out = []
        try:
            for max_bytes, min_bytes in reads:
                out.append(bytes(stream.read_some(max_bytes, IDLE, min_bytes)))
        except TimeoutError as exc:
            out.append(exc)
        return out, start, backend.now()

    return reader


def test_read_some_blocks_until_min_bytes_are_buffered(backend):
    steps = [(GAP, b"x" * 10)] * 4
    out, *_ = backend.run(_script(backend, steps), _timed_read(backend, (100, 35)))
    assert out == [b"x" * 40]  # not the 10 or 20 bytes buffered before


def test_read_some_returns_fewer_bytes_at_end_of_stream(backend):
    steps = [(GAP, b"tail")]
    reader = _timed_read(backend, (100, 50), (100, 50))
    out, *_ = backend.run(_script(backend, steps, close=True), reader)
    assert out == [b"tail", b""]


def test_read_some_idle_clock_restarts_on_each_byte(backend):
    # Eight bytes, one per GAP: the read takes longer than IDLE, yet no gap
    # between two bytes does.
    steps = [(GAP, b"y")] * 8
    out, start, end = backend.run(_script(backend, steps), _timed_read(backend, (100, 8)))
    assert out == [b"y" * 8]
    assert end - start > IDLE


def _timed_read_into(backend, *sizes):
    """Reader filling a fresh buffer of each size in turn with ``read_into``;
    returns the bytes each read got, or the exception that ended them, and
    when it began and ended."""

    def reader(stream):
        start = backend.now()
        out = []
        try:
            for size in sizes:
                buffer = bytearray(size)
                out.append(bytes(buffer[: stream.read_into(buffer, IDLE)]))
        except TimeoutError as exc:
            out.append(exc)
        return out, start, backend.now()

    return reader


def test_read_into_fills_the_view_exactly(backend):
    # Ten bytes spanning two writes land in the middle of a larger buffer,
    # and not a byte around them changes.
    steps = [(GAP, b"abcdefgh")] * 2

    def reader(stream):
        buffer = bytearray(b"-" * 14)
        with memoryview(buffer) as view:
            got = stream.read_into(view[2:12], IDLE)
        return got, bytes(buffer)

    assert backend.run(_script(backend, steps), reader) == (10, b"--abcdefghab--")


def test_read_into_returns_fewer_bytes_only_at_end_of_stream(backend):
    steps = [(GAP, b"tail")]
    out, *_ = backend.run(_script(backend, steps, close=True), _timed_read_into(backend, 10, 10))
    assert out == [b"tail", b""]


def test_read_into_idle_clock_restarts_on_each_byte(backend):
    steps = [(GAP, b"y")] * 8
    out, start, end = backend.run(_script(backend, steps), _timed_read_into(backend, 8))
    assert out == [b"y" * 8]
    assert end - start > IDLE


def test_abort_wakes_a_blocked_read_into(backend):
    readers = []

    def aborter(stream):
        backend.sleep(GAP)
        readers[0].abort()

    def reader(stream):
        readers.append(stream)
        start = backend.now()
        try:
            got = stream.read_into(bytearray(10), IDLE)
        except OSError as exc:  # TCP may find the socket already closed
            got = exc
        return got, backend.now() - start

    got, waited = backend.run(aborter, reader)
    assert got == 0 or (isinstance(got, OSError) and not isinstance(got, TimeoutError))
    assert waited < IDLE


def test_write_after_peer_abort_fails(backend):
    # Whichever end aborts, the other end's reads end and, once the abort
    # has reached it, its writes fail: on TCP the abort's FIN comes first
    # and the reset answers the next write; on the simulator the reset
    # arrives one one-way delay after the abort.
    def aborts(stream):
        stream.abort()

    def peer(stream):
        backend.sleep(GAP)
        assert stream.read_some(100, IDLE) == b""
        with pytest.raises(ConnectionError):
            for _ in range(10):
                stream.write_all(b"x" * 1024)

    backend.run(aborts, peer)  # the accept side aborts
    backend.run(peer, aborts)  # the connect side aborts


def test_read_some_times_out_only_after_idle_seconds_without_a_byte(backend):
    steps = [(GAP, b"z")] * 4
    written_at = []
    writer = _script(backend, steps, written_at=written_at)
    out, _, end = backend.run(writer, _timed_read(backend, (100, 10)))
    assert len(out) == 1 and isinstance(out[0], TimeoutError)
    assert end - written_at[-1] >= IDLE
