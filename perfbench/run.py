"""ptcp benchmark: four workloads, end-to-end metrics, per-layer tracing.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own worker process (``worker.py``), after six
set-up-only workers whose set-up times, with the worker's own, give the
median ``setup_s``.  With ``--trace 0`` the last line of output is a JSON
object with every end-to-end metric, its timings scaled to a reference
host speed (``reference.py``); with ``--trace 1`` it has every
per-layer metric, from a traced phase that follows an untraced one.  The
exit code is 0 when every output check passed, 1 when one failed, and 2
when no result could be produced (for example when ``src/ptcp`` is
missing).  Full records go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 6
DEADLINE_S = 170.0  # a run must end within 180 s
# On workloads where one thread runs at a time, layer self times plus the
# simbridge residual must add up to the wall time within this fraction.
ADD_UP_TOLERANCE = 0.02
ADD_UP_CHECKED = ("simwire_lossy", "sweep_default")


def load_contract() -> tuple[tuple[str, ...], dict, dict]:
    """Workload names and metric units, as BENCHMARK.json declares them."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in contract["workloads"])
    end_to_end = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    return workloads, end_to_end, per_layer


class NoResult(Exception):
    """A worker failed to produce figures."""


# glibc raises its mmap threshold each time a large block is freed, so where
# big buffers live, and so peak RSS, drifts with allocation order: simwire
# peaks ranged 191-236 MB across seeds with the adaptive threshold, and held
# at 145 MB within 1 MB with it fixed at its 128 KiB starting value.
WORKER_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def run_worker(args: list[str], timeout: float) -> dict:
    command = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    env = {**os.environ, **WORKER_ENV}
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise NoResult(f"worker {' '.join(args)} did not finish in {timeout:.0f} s") from None
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise NoResult(f"worker {' '.join(args)} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list[float], q: int) -> float:
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def end_to_end(record: dict, setups: list[float]) -> dict:
    """Timings are scaled to the reference host speed (``reference.py``)."""
    latencies = record["scaled_latencies_s"]
    if not latencies:
        raise NoResult("no operation succeeded")
    return {
        "setup_s": statistics.median(setups),
        "goodput_MBps": record["payload_bytes"] / record["scaled_busy_s"] / 1e6,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_MB": record["peak_rss_bytes"] / 1e6,
    }


def per_layer(record: dict) -> dict:
    """Per-layer figures of the traced phase.  Times and counts are per
    operation: one transfer, or one whole sweep on sweep_default."""
    spans = record["span_totals"]
    traced = record["traced"]
    if not traced["latencies_s"]:
        raise NoResult("no traced operation succeeded")
    ops = traced["ops"]
    wall = sum(traced["op_seconds"])
    model = traced["model"]

    def calls(*names):
        return sum(spans[n][0] for n in names if n in spans)

    def self_s(*names):
        return sum(spans[n][2] for n in names if n in spans)

    def units(*names):
        return sum(spans[n][3] for n in names if n in spans)

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = sum(row[2] for name, row in spans.items() if not name.startswith("simbridge."))
    stream_calls = sum(row[0] for name, row in spans.items() if name.startswith("simbridge.stream_"))
    # simbridge spans park their thread while others run, so the layer's cost
    # is what remains of the wall time after every other layer's self time.
    bridge = wall - layer_self if stream_calls else 0.0
    events = calls("simnet.step")
    segments = model.get("sent", 0)
    values = {
        "wire.sha256_s": self_s("wire.sha256") / ops,
        "wire.sha256_bytes_per_payload_byte": ratio(units("wire.sha256"), traced["payload_bytes"]),
        "wire.encode_s": self_s("wire.encode_frame") / ops,
        "wire.encode_frames": calls("wire.encode_frame") / ops,
        "wire.decode_s": self_s("wire.decode") / ops,
        "wire.decode_bytes_per_feed": ratio(units("wire.decode"), calls("wire.decode")),
        "striping.monitor_s": self_s("striping.monitor_data", "striping.monitor_complete") / ops,
        "striping.assemble_s": self_s("striping.assemble") / ops,
        "transport.connect_s": self_s("transport.connect") / ops,
        "transport.close_s": self_s("transport.close", "transport.abort") / ops,
        "transport.spawn_s": self_s("transport.spawn") / ops,
        "transport.write_s": self_s("transport.write") / ops,
        "transport.read_wait_s": self_s("transport.read") / ops,
        "transport.read_bytes_per_call": ratio(units("transport.read"), calls("transport.read")),
        "simnet.step_s": self_s("simnet.step", "simnet.pump", "simnet.run_until") / ops,
        "simnet.scenario_s": self_s("simnet.run_scenario") / ops,
        "simnet.events": events / ops,
        "simnet.segments": segments / ops,
        "simnet.events_per_segment": ratio(events, segments),
        "simnet.drops": model.get("drops", 0) / ops,
        "simnet.bernoulli_losses": model.get("bernoulli_losses", 0) / ops,
        "simnet.timeouts": model.get("timeouts", 0) / ops,
        "simnet.halvings": model.get("halvings", 0) / ops,
        "simnet.retransmit_ratio": ratio(segments, model.get("delivered", 0)),
        "simbridge.overhead_s": bridge / ops,
        "simbridge.stream_calls": stream_calls / ops,
        "metrics.fairness_s": self_s(*(n for n in spans if n.startswith("metrics."))) / ops,
        "harness.overhead_s": self_s(*(n for n in spans if n.startswith("harness."))) / ops,
        "trace.wall_s": wall / ops,
        "trace.overhead_share": statistics.median(traced["op_seconds"])
        / statistics.median(record["untraced"]["op_seconds"])
        - 1,
        # Time no thread spent inside any layer span; on simwire_lossy all of
        # it belongs to simbridge by definition.
        "trace.unattributed_share": 0.0 if stream_calls else (wall - record["covered_s"]) / wall,
        "trace.overlap_share": record["overlap_s"] / wall,
        # Time counted twice (two threads inside layer spans at once) plus
        # the gap between the layer sum and the wall time.  Zero when the
        # stage times partition the wall time exactly.
        "trace.add_up_error_share": (record["overlap_s"] + abs(layer_self + bridge - wall)) / wall,
    }
    return values


def run_workload(name: str, seed: int, seconds: float, trace: int, units: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for _ in range(SETUP_PROBES):
        probe = run_worker(["--workload", name, "--seed", str(seed), "--setup-only"], 30.0)
        setups.append(probe["setup_scaled_s"])
    record = run_worker(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        deadline - time.monotonic(),
    )
    setups.append(record["setup_scaled_s"])
    problems = list(record["problems"])
    if record["problems"]:
        metrics = {}
    elif trace:
        metrics = per_layer(record)
        error = metrics["trace.add_up_error_share"]
        if name in ADD_UP_CHECKED and error > ADD_UP_TOLERANCE:
            problems.append(
                f"layer self times miss the wall time by {error:.2%} (tolerance {ADD_UP_TOLERANCE:.0%})"
            )
    else:
        metrics = end_to_end(record, setups)
    if metrics and metrics.keys() != units.keys():
        raise NoResult(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    record["setup_samples_s"] = setups
    record["metrics"] = metrics
    record["problems"] = problems
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def figures(record: dict, trace: int) -> dict:
    """The operation counts of the measured phase; empty when a check
    stopped the worker before it could sum them."""
    return record.get("traced", {}) if trace else record


def report(name: str, record: dict, trace: int, units: dict) -> None:
    machine = record["machine"]
    phase = figures(record, trace)
    print(f"== {name} seed={record['seed']} trace={trace}")
    print(
        f"   machine: nproc={machine['nproc']} cpu={machine['cpu']!r} python={machine['python']} "
        f"numpy={machine['numpy']} ({machine['network']})"
    )
    for problem in record["problems"]:
        print(f"   CHECK FAILED: {problem}")
    if "ops" not in phase:
        return
    ratio = phase["failed"] / phase["attempted"]
    print(f"   operations: {phase['ops']}, attempted {phase['attempted']}, failed {phase['failed']} "
          f"(failure_ratio {ratio:.4f})")
    model = phase["model"]
    if model.get("sent"):
        print(f"   simulated segments sent: {model['sent']} "
              f"({model['sent'] / phase['busy_s']:.0f} per host second)")
    for metric, value in record["metrics"].items():
        print(f"   {metric:<38} {value:>14.6g} {units[metric]}")
    if record.get("not_found"):
        print(f"   names not found, so not traced: {', '.join(record['not_found'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    workloads, end_to_end_units, per_layer_units = load_contract()
    parser.add_argument("--workload", default="all", choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads if args.workload == "all" else (args.workload,)
    units = per_layer_units if args.trace else end_to_end_units
    try:
        records = {name: run_workload(name, args.seed, args.seconds, args.trace, units) for name in names}
    except NoResult as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for name, record in records.items():
        report(name, record, args.trace, units)

    attempted = max(1, sum(figures(r, args.trace).get("attempted", 0) for r in records.values()))
    failed = sum(figures(r, args.trace).get("failed", 0) for r in records.values())
    metrics = {}
    for name, record in records.items():
        prefix = "" if len(records) == 1 else f"{name}."
        for metric, value in record["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    correct = not any(r["problems"] for r in records.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
