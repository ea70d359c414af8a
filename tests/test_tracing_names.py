"""The benchmark's tracer wraps ptcp names from outside the package; a renamed
name would silently drop its layer from the traced figures."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Wrapped by the tracer but gone from ptcp already.
KNOWN_MISSING = {"ptcp.striping.assemble", "ptcp.harness.run_level_sim"}


def test_tracer_finds_every_name_it_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    patches = tracing.install(tracing.Tracer())
    try:
        assert set(patches.missing) <= KNOWN_MISSING, patches.missing
    finally:
        patches.undo()
