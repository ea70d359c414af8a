"""Transport seam: in-memory pipes and TCP loopback behave alike."""

import gc
import warnings

import pytest

from ptcp.transport import MemoryTransport, TcpTransport


def test_memory_pair_roundtrip():
    transport = MemoryTransport()
    listener = transport.listen()
    got = {}

    def server():
        stream = listener.accept()
        data = b""
        while True:
            piece = stream.read_some(timeout=5.0)
            if piece == b"":
                break
            data += piece
        got["data"] = data
        stream.close()

    handle = transport.spawn(server)
    client = transport.connect()
    client.write_all(b"hello " * 1000)
    client.close()
    handle.join(timeout=5.0)
    assert got["data"] == b"hello " * 1000
    listener.close()


def test_memory_read_timeout():
    transport = MemoryTransport()
    listener = transport.listen()
    client = transport.connect()
    server = listener.accept()
    with pytest.raises(TimeoutError):
        server.read_some(timeout=0.05)
    client.close()
    listener.close()


def test_memory_connect_refused_when_unbound():
    transport = MemoryTransport()
    with pytest.raises(ConnectionRefusedError):
        transport.connect()


def test_memory_write_after_peer_close_fails():
    transport = MemoryTransport()
    listener = transport.listen()
    client = transport.connect()
    server = listener.accept()
    server.close()
    with pytest.raises(ConnectionError):
        # Peer torn down entirely; eventually the pipe refuses writes.
        for _ in range(10):
            client.write_all(b"x" * 1024)
    listener.close()


def test_memory_eof_drains_buffered_bytes_first():
    transport = MemoryTransport()
    listener = transport.listen()
    client = transport.connect()
    server = listener.accept()
    client.write_all(b"tail")
    client.close()
    assert server.read_some(timeout=1.0) == b"tail"
    assert server.read_some(timeout=1.0) == b""
    listener.close()


def test_spawn_join_propagates_exception():
    transport = MemoryTransport()

    def boom():
        raise RuntimeError("worker died")

    handle = transport.spawn(boom)
    with pytest.raises(RuntimeError, match="worker died"):
        handle.join(timeout=5.0)


def test_channel_fifo():
    transport = MemoryTransport()
    ch = transport.channel()
    ch.put(1)
    ch.put(2)
    assert ch.get() == 1
    assert ch.get() == 2


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
    transport = MemoryTransport()
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
