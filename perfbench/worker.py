"""Run one workload in this process and print its raw figures as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts one worker per workload, so set-up time and peak memory
belong to that workload alone, plus a few ``--setup-only`` workers whose
set-up times give a median.  The ptcp package is imported from ``src/``
of the checkout this file sits in, never from anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REFERENCE_CHUNKS = 15
OWN_CHUNKS = 9


def import_program():
    """Import ptcp from this checkout; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ptcp
    import ptcp.harness
    import ptcp.simbridge
    import ptcp.striping
    import ptcp.transport

    if Path(ptcp.__file__).resolve().parent != src / "ptcp":
        raise ImportError(f"ptcp imported from {ptcp.__file__}, not from {src}")


def machine_record() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "network": "loopback, not a real link",
    }


def run_phase(workload, seconds: float, first_index: int, pace):
    """Closed loop: start the next operation only while its expected
    duration still fits in ``seconds``; at least one operation runs.
    Operations start at least ``workload.spacing_s`` apart; the pace fills
    the gaps with reference chunks.  Returns the results and, for each, the
    reference chunks run around it: in the gaps before and after it, and
    during it (only a sweep runs any there)."""
    results, marks = [], []
    start = time.perf_counter()
    pace.restart()
    began = -workload.spacing_s
    while True:
        pace.keep_up(until=began + workload.spacing_s)
        index = first_index + len(results)
        began = time.perf_counter()
        before = len(pace.seconds)
        results.append(workload.op(index))
        marks.append((before, len(pace.seconds)))
        elapsed = time.perf_counter() - start
        expected = statistics.median(r.seconds for r in results)
        if elapsed + expected > seconds:
            break
    pace.keep_up()
    ends = [0] + [end for _, end in marks]
    starts = [before for before, _ in marks[1:]] + [len(pace.seconds)]
    return results, [pace.seconds[lo:hi] for lo, hi in zip(ends, starts)]


def summarize(results) -> dict:
    latencies = sorted(r.seconds for r in results if r.failed == 0)
    model: dict = {}
    for r in results:
        for key, value in r.model.items():
            model[key] = model.get(key, 0) + value
    return {
        "ops": len(results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "op_seconds": [r.seconds for r in results],
        "latencies_s": latencies,
        "payload_bytes": sum(r.payload_bytes for r in results),
        "busy_s": sum(latencies),
        "model": model,
    }


def scaled(results, around, pace) -> dict:
    """Operation times scaled to the reference host speed (``reference.py``).

    The host speed can change within a run, so an operation long enough to
    have at least ``OWN_CHUNKS`` reference chunks around it (a bulk or
    simulated transfer, a sweep) is scaled by those.  Shorter operations
    are scaled by the whole run's chunks.
    """
    run_factor = pace.factor()
    latencies = sorted(
        r.seconds * (pace.factor(chunks) if len(chunks) >= OWN_CHUNKS else run_factor)
        for r, chunks in zip(results, around)
        if r.failed == 0
    )
    return {
        "scaled_latencies_s": latencies,
        "scaled_busy_s": sum(latencies),
        "reference": {
            "chunks": len(pace.seconds),
            "median_s": statistics.median(pace.seconds),
            "share": pace.spent / (time.perf_counter() - pace.started),
            "factor": run_factor,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    # One CPU for this process and every thread it starts: thread hand-offs
    # are then same-CPU switches, which follow the CPU's speed, rather than
    # wake-ups of the other vCPU, whose latency on a shared host changes
    # from run to run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    start = time.perf_counter()
    import_program()
    import reference
    import workloads

    pace = reference.Pace(0.0 if args.trace else reference.SHARE)
    workload = workloads.build(args.workload, args.seed, OUT_DIR, pace)
    setup_s = time.perf_counter() - start
    # The host speed just after set-up, to scale set-up time like the rest.
    setup_reference_s = reference.median_chunk(SETUP_REFERENCE_CHUNKS)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_reference_s": setup_reference_s,
        "setup_scaled_s": setup_s * (reference.NOMINAL_S / setup_reference_s) ** reference.SENSITIVITY,
    }
    if args.setup_only:
        workload.close()
        print(json.dumps(record))
        return 0

    problems = []
    workload.prepare()
    try:
        if args.trace:
            record.update(traced_run(workload, args, pace))
        else:
            results, around = run_phase(workload, args.seconds, 0, pace)
            record.update(summarize(results))
            record.update(scaled(results, around, pace))
    except workloads.CheckFailed as exc:
        problems.append(str(exc))
    finally:
        workload.close()
    record["problems"] = problems
    record["peak_rss_bytes"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    record["machine"] = machine_record()
    print(json.dumps(record))
    return 0


def traced_run(workload, args, pace) -> dict:
    """A third of the time untraced, then the rest traced.

    The untraced phase is the baseline for the tracing overhead; per-layer
    figures come from the traced phase only.
    """
    import tracing

    budget = args.seconds / 3
    untraced, _ = run_phase(workload, budget, 0, pace)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    ops = []
    try:
        phase_start = time.perf_counter()
        began = -workload.spacing_s
        while True:
            pace.keep_up(until=began + workload.spacing_s)
            began = time.perf_counter()
            tracer.op = index = len(untraced) + len(ops)
            covered0, overlap0 = tracer.flush()
            result = workload.op(index)
            covered1, overlap1 = tracer.flush()
            ops.append((result, covered1 - covered0, overlap1 - overlap0))
            elapsed = time.perf_counter() - phase_start
            expected = statistics.median(r.seconds for r, _, _ in ops)
            if elapsed + expected > args.seconds - budget:
                break
    finally:
        patches.undo()
    tracer.write_spans(OUT_DIR / f"{args.workload}.spans.csv")
    return {
        "untraced": summarize(untraced),
        "traced": summarize([r for r, _, _ in ops]),
        "covered_s": sum(c for _, c, _ in ops),
        "overlap_s": sum(o for _, _, o in ops),
        "span_totals": tracer.aggregate(),
        "spans_recorded": len(tracer.spans),
        "not_found": patches.missing,
    }


if __name__ == "__main__":
    sys.exit(main())
