"""Suite-wide fixtures and helpers."""

import threading
import time
from functools import partial

import pytest

from ptcp.simbridge import SimHub, SimTransport
from ptcp.simnet import LinkConfig, Network

FAST_LINK = LinkConfig(
    capacity=100_000_000, one_way_delay=0.01, queue_limit=1_000, loss_probability=0.0
)


def wait_until(condition, timeout: float = 2.0, hub: SimHub | None = None) -> bool:
    """Poll ``condition`` every 10 ms until it holds (True) or ``timeout``
    seconds pass (False): seconds of wall time, or of ``hub``'s virtual time
    when called from one of its tasks."""
    now, sleep = (time.monotonic, time.sleep) if hub is None else (hub.now, hub.sleep)
    deadline = now() + timeout
    while not condition():
        if now() > deadline:
            return False
        sleep(0.01)
    return True


def run_on_sim(*tasks) -> list:
    """Run each of ``tasks`` as a task on one fresh ``FAST_LINK`` simulation,
    in the order given, each called with its ``SimTransport``; return their
    results.  An error a task raises is raised here."""
    hub = SimHub(Network(FAST_LINK))
    transport = SimTransport(hub)
    results = [None] * len(tasks)

    def run(i):
        results[i] = tasks[i](transport)

    for i in range(len(tasks)):
        hub.spawn(partial(run, i), name=f"test-{i}")
    hub.run()
    return results


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    # A closed receiver's accept loop ends at once and each worker with its
    # stream, and a failed transfer ends all of its streams, so nothing a
    # test started may outlive it for long.
    before = set(threading.enumerate())
    yield

    def left():
        return [t.name for t in threading.enumerate() if t not in before]

    assert wait_until(lambda: not left()), left()
