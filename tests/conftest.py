"""Suite-wide fixtures."""

import threading
import time

import pytest


def wait_until(condition, timeout: float = 2.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    # A closed receiver's workers end at their next accept(), and a failed
    # transfer ends all of its streams, so nothing a test started may
    # outlive it for long.
    before = set(threading.enumerate())
    yield

    def left():
        return [t.name for t in threading.enumerate() if t not in before]

    assert wait_until(lambda: not left()), left()
