"""The benchmark's tracer wraps ptcp names from outside the package.  A renamed
name would silently drop its layer from the traced figures, and a stream call
inside a wrapped name would count its time twice."""

import importlib.util
from pathlib import Path

import numpy as np

from ptcp.simbridge import simulate_transfer
from ptcp.simnet import LinkConfig, Network

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Wrapped by the tracer but gone from ptcp already.
KNOWN_MISSING = {"ptcp.striping.assemble", "ptcp.harness.run_level_sim"}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_finds_every_name_it_wraps():
    tracing = _tracing()
    patches = tracing.install(tracing.Tracer())
    try:
        assert set(patches.missing) <= KNOWN_MISSING, patches.missing
    finally:
        patches.undo()


def test_traced_lossy_sim_transfer_counts_no_time_twice():
    # On the simulator one thread runs at a time, so no two threads are ever
    # inside traced layer spans at once, unless a span parks its thread: a
    # stream read or write inside one (say, a payload read inside
    # _TransferMonitor.data).  Such overlap fails the benchmark's add-up
    # check on simwire_lossy.
    tracing = _tracing()
    tracer = tracing.Tracer()
    link = LinkConfig(capacity=100e6, one_way_delay=0.010, queue_limit=100, loss_probability=0.01, seed=0)
    payload = np.random.Generator(np.random.PCG64(0)).bytes(1024 * 1024)
    patches = tracing.install(tracer)
    try:
        report, result, received = simulate_transfer(Network(link), payload, 2)
    finally:
        patches.undo()
    assert report.ok and result.ok and received == payload
    assert tracer.flush()[1] == 0.0
