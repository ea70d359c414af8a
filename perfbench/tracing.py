"""Outside-in span tracing for the benchmark.

The tracer wraps the public names each ptcp layer calls (module functions,
class methods, ``hashlib.sha256``) from outside the package, so no source
under ``src/`` changes.  Every wrapped call is a span: name, start, end,
parent span, thread and operation index.  Spans are kept in memory and
written out when the run ends, except for the per-event simulator calls
(``hot`` spans), which would number in the millions per sweep; those keep
only their aggregate counts and times.

Self time is computed on the fly from a per-thread stack: a span's self
time is its duration minus the durations of the spans it directly
encloses.  Alongside, a global counter of threads currently inside a
non-bridge span gives the union of all threads' layer time (``covered``)
and the time two or more threads were inside one at once (``overlap``).
Spans of the ``simbridge`` layer can park their thread while other threads
run, so they are bridge spans: counted, never summed as self time.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time

clock = time.perf_counter
_RAISED = object()  # a wrapped call's result until it returns


class _ThreadState:
    __slots__ = ("index", "stack", "layer_depth", "agg")

    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []  # [child_s, span_id, layer] per open span
        self.layer_depth = 0  # open non-bridge spans on this thread
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s, units]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._cover_lock = threading.Lock()
        self._active = 0
        self._since = 0.0
        self.covered_s = 0.0
        self.overlap_s = 0.0
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread, op)
        self.op = -1

    # -- per-thread state and the coverage counter --

    def _cover(self, delta: int) -> tuple[float, float]:
        """Account the time since the last change, then change the number
        of threads inside a layer span by ``delta``."""
        with self._cover_lock:
            now = clock()
            if self._active:
                self.covered_s += now - self._since
                if self._active >= 2:
                    self.overlap_s += now - self._since
            self._since = now
            self._active += delta
            return self.covered_s, self.overlap_s

    def flush(self) -> tuple[float, float]:
        """``covered_s`` and ``overlap_s`` brought up to now."""
        return self._cover(0)

    # -- spans --

    def _new_state(self) -> _ThreadState:
        state = _ThreadState(len(self._states))
        self._states.append(state)
        self._local.state = state
        return state

    def wrap(self, fn, name: str, *, bridge=False, hot=False, units=None):
        """A traced stand-in for ``fn``; ``units(args, result)`` counts work.

        Enter and exit are written out inline: this runs once per simulator
        event in the traced phase, so every call saved here is tracing
        overhead removed from the figures.
        """
        tracer = self
        local = self._local
        ids = self._ids
        record = self.spans.append
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = tracer._new_state()
            stack = state.stack
            if hot and stack and stack[-1][2] == layer:
                # A per-event call inside a span of its own layer: its time
                # already counts there, so only count the call.
                agg = state.agg.get(name)
                if agg is None:
                    agg = state.agg[name] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                return fn(*args, **kwargs)
            if not bridge:
                if state.layer_depth == 0:
                    tracer._cover(1)
                state.layer_depth += 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, next(ids), layer]  # [child_s, span_id, layer]
            stack.append(frame)
            result = _RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                agg = state.agg.get(name)
                if agg is None:
                    agg = state.agg[name] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if units is not None and result is not _RAISED:
                    agg[3] += units(args, result)
                if not hot:
                    record((frame[1], name, start, end, parent, state.index, tracer.op))
                if not bridge:
                    state.layer_depth -= 1
                    if state.layer_depth == 0:
                        tracer._cover(-1)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def timed(self, name: str, nbytes: int, call):
        """Run ``call()`` as one span of ``name`` that processed ``nbytes``."""
        return self.wrap(call, name, units=lambda args, result: nbytes)()

    def aggregate(self) -> dict[str, list]:
        """Merge every thread's per-name [calls, total_s, self_s, units]."""
        merged: dict[str, list] = {}
        for state in list(self._states):
            for name, (calls, total, self_s, units) in list(state.agg.items()):
                row = merged.setdefault(name, [0, 0.0, 0.0, 0])
                row[0] += calls
                row[1] += total
                row[2] += self_s
                row[3] += units
        return merged

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span_id,name,start_s,end_s,parent_id,thread,op\n")
            for span_id, name, start, end, parent, thread, op in self.spans:
                fh.write(f"{span_id},{name},{start:.9f},{end:.9f},{parent},{thread},{op}\n")


def _nbytes(data) -> int:
    return memoryview(data).nbytes


class _TracedHash:
    """Stand-in for a hashlib sha256 object that times every byte hashed."""

    __slots__ = ("_tracer", "_hash")

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._hash = inner

    def update(self, data) -> None:
        self._tracer.timed("wire.sha256", _nbytes(data), lambda: self._hash.update(data))

    def digest(self) -> bytes:
        return self._hash.digest()

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


_MISSING = object()


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def replace(self, owner, attr: str, make, label: str) -> None:
        original = getattr(owner, attr, _MISSING)
        if original is _MISSING:
            self.missing.append(label)
            return
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, previous = self._saved.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)


def _returned_len(args, result) -> int:
    return len(result)


def _fed_len(args, result) -> int:
    return _nbytes(args[1])


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary the workloads cross; returns the undo log.

    Names are the ones the calling layer looks up at call time: striping
    imported ``encode_frame`` into its own namespace and harness imported the
    metrics and scenario functions into its own, so those are patched there.
    """
    from ptcp import harness, simbridge, simnet, striping, transport, wire

    patches = Patches()

    def span(owner, attr, name, **options):
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        patches.replace(owner, attr, lambda fn: tracer.wrap(fn, name, **options), label)

    original_sha256 = hashlib.sha256

    def traced_sha256(data=b"", **kwargs):
        inner = tracer.timed("wire.sha256", _nbytes(data), lambda: original_sha256(data, **kwargs))
        return _TracedHash(tracer, inner)

    patches.replace(hashlib, "sha256", lambda fn: traced_sha256, "hashlib.sha256")
    span(striping, "encode_frame", "wire.encode_frame", units=lambda a, r: 1)
    span(wire.FrameDecoder, "feed", "wire.decode", units=_fed_len)

    span(striping._TransferMonitor, "data", "striping.monitor_data")
    span(striping._TransferMonitor, "complete", "striping.monitor_complete")
    span(striping, "assemble", "striping.assemble")

    span(transport.TcpTransport, "connect", "transport.connect")
    span(transport.TcpTransport, "spawn", "transport.spawn")
    span(transport.TcpStream, "write_all", "transport.write")
    span(transport.TcpStream, "read_some", "transport.read", units=_returned_len)
    span(transport.TcpStream, "close", "transport.close")
    span(transport.TcpStream, "abort", "transport.abort")

    span(simnet.Network, "step", "simnet.step", hot=True)
    span(simnet.Network, "pump", "simnet.pump", hot=True)
    span(simnet.Network, "run_until", "simnet.run_until")
    span(harness, "run_scenario", "simnet.run_scenario")

    for attr in ("read_some", "write_all", "close", "abort"):
        span(simbridge.SimStream, attr, f"simbridge.stream_{attr}", bridge=True)
    span(simbridge.SimTransport, "connect", "simbridge.connect", bridge=True)
    span(simbridge.SimTransport, "spawn", "simbridge.spawn", bridge=True)
    span(simbridge.SimListener, "accept", "simbridge.accept", bridge=True)

    for attr in ("fairness_report", "steady_window", "throughput_ratio"):
        span(harness, attr, f"metrics.{attr}")

    for attr in ("run_experiment", "run_level", "run_level_sim", "write_outputs"):
        span(harness, attr, f"harness.{attr}")
    return patches
