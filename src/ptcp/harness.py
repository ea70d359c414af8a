"""Experiment orchestration: the parallelism sweep and fairness matrix.

For each parallelism level n and repetition, one targeted application
(n connections) competes with single-connection background traffic
through a shared bottleneck.  Simulated runs drive the event loop and are
bit-reproducible per seed (repetition r uses seed ``base_seed + r``).  The
seed drives only random loss, so at ``loss_prob = 0`` one simulation per
level serves every repetition: the rows differ only in ``rep``.  Results
land in ``throughput.csv`` and ``fairness.csv``, with optional per-flow
trace dumps, plus a ``meta.txt`` holding the resolved configuration as a
config file: ``ptcp experiment --config meta.txt`` replays the run.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .metrics import FairnessReport, FlowTrace, UndefinedFairnessError, fairness_report, steady_window, throughput_ratio
from .simnet import FlowSpec, LinkConfig, run_scenario

BACKGROUND_HEAD_START = 1.0  # competitor is established before targeted flows start


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment matrix: sweep levels x repetitions on one link."""

    levels: tuple[int, ...]  # parallelism sweep, ascending
    repetitions: int
    link: LinkConfig
    duration: float  # measurement length per simulated run
    background_count: int
    out_dir: str


@dataclass(frozen=True)
class LevelResult:
    """One cell of the matrix: rates in bits/second plus the full report."""

    n: int
    rep: int
    targeted_bps: float
    background_bps: float
    throughput_ratio: float
    fairness: FairnessReport
    traces: list[FlowTrace]


# ---------------------------------------------------------------------------
# Config files: flat key=value text, resolved through one key table
# ---------------------------------------------------------------------------


def parse_kv(text: str) -> dict[str, str]:
    """Parse flat key=value lines, blanks skipped; '#' starts a comment at the
    start of a line or after whitespace, so a value may hold one."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ValueError(f"duplicate key {key}")
        out[key] = value.strip()
    return out


def _levels(text: str) -> tuple[int, ...]:
    return tuple(sorted(int(part) for part in text.split(",")))


class _Key(NamedTuple):
    default: str
    convert: Callable[[str], Any]  # raises ValueError on malformed text
    field: str  # ExperimentConfig attribute; "link.<name>" for a LinkConfig one
    valid: Callable[[Any], bool] = lambda value: True
    rule: str = ""  # what ``valid`` demands, for the error message
    show: Callable[[Any], str] = str  # meta.txt format; ``convert`` reads it back exactly


_KEYS = {
    "levels": _Key(
        "1,2,4,8,16",
        _levels,
        "levels",
        lambda v: v[0] >= 1 and len(set(v)) == len(v),
        "distinct integers >= 1",
        lambda v: ",".join(map(str, v)),
    ),
    "repetitions": _Key("3", int, "repetitions", lambda v: v >= 1, ">= 1"),
    "out": _Key("results", str, "out_dir"),
    "capacity_bps": _Key("10000000", float, "link.capacity", lambda v: v > 0, "> 0"),
    "one_way_delay_s": _Key("0.05", float, "link.one_way_delay", lambda v: v >= 0, ">= 0"),
    "queue_limit_pkts": _Key("50", int, "link.queue_limit", lambda v: v >= 1, ">= 1"),
    "loss_prob": _Key("0.0", float, "link.loss_probability", lambda v: 0 <= v <= 1, "in [0, 1]"),
    "mss_bytes": _Key("1500", int, "link.mss", lambda v: v >= 1, ">= 1"),
    "seed": _Key("0", int, "link.seed", lambda v: v >= 0, ">= 0"),
    "duration_s": _Key("30.0", float, "duration", lambda v: v > BACKGROUND_HEAD_START, f"> {BACKGROUND_HEAD_START:g}"),
    "background_flows": _Key("1", int, "background_count", lambda v: v >= 1, ">= 1"),
}


def experiment_from_keys(kv: dict[str, str]) -> ExperimentConfig:
    """Resolve flat key=value pairs against the key table; every error
    names the offending key."""
    unknown = sorted(kv.keys() - _KEYS.keys())
    if unknown:
        raise ValueError(f"unknown config key: {unknown[0]}")
    fields: dict[str, Any] = {}
    link: dict[str, Any] = {}
    for key, spec in _KEYS.items():
        raw = kv.get(key, spec.default)
        try:
            value = spec.convert(raw)
        except ValueError:
            raise ValueError(f"invalid value for {key}: {raw!r}") from None
        if not spec.valid(value):
            raise ValueError(f"{key} must be {spec.rule}, got {raw!r}")
        owner, _, name = spec.field.rpartition(".")
        (link if owner else fields)[name] = value
    return ExperimentConfig(link=LinkConfig(**link), **fields)


def parse_experiment(text: str) -> ExperimentConfig:
    return experiment_from_keys(parse_kv(text))


def _meta_text(config: ExperimentConfig) -> str:
    """The resolved configuration as a config file, one sorted key=value
    line per key, after a comment naming the loss generator."""
    lines = sorted(f"{key}={spec.show(attrgetter(spec.field)(config))}\n" for key, spec in _KEYS.items())
    return "".join(["# rng=pcg64\n", *lines])


# ---------------------------------------------------------------------------
# Running one cell of the matrix
# ---------------------------------------------------------------------------


def sim_flow_specs(n: int, background_count: int) -> list[FlowSpec]:
    background = [
        FlowSpec(f"background-{j}", role="background", start_time=0.0)
        for j in range(background_count)
    ]
    targeted = [
        FlowSpec(f"targeted-{i}", role="targeted", start_time=BACKGROUND_HEAD_START)
        for i in range(n)
    ]
    return background + targeted


def run_level(config: ExperimentConfig, n: int, rep: int) -> LevelResult:
    """One cell, simulated: n targeted flows against the background flows."""
    link = replace(config.link, seed=config.link.seed + rep)
    traces = run_scenario(link, sim_flow_specs(n, config.background_count), config.duration)
    # Aggregate rates over the steady window, in bytes/s.
    report = fairness_report(traces, steady_window(traces))
    targeted = report.per_application.get("targeted", 0.0)
    if targeted == 0:
        raise UndefinedFairnessError(f"n={n} rep={rep}: the targeted flows delivered nothing to measure")
    background = report.per_application.get("background", 0.0)
    ratio = throughput_ratio(targeted, link.capacity / 8.0)
    return LevelResult(n, rep, targeted * 8.0, background * 8.0, ratio, report, traces)


# ---------------------------------------------------------------------------
# The full matrix and its output files
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig, *, write_traces: bool = False, log=None) -> list[LevelResult]:
    # Without random loss a simulated cell never draws from its seed, so
    # every repetition of a level would repeat the first one's simulation.
    reuse = config.link.loss_probability == 0
    results = []
    for n in config.levels:
        for rep in range(config.repetitions):
            if rep and reuse:
                first = results[-rep]
                result = replace(first, rep=rep, traces=list(first.traces))
            else:
                result = run_level(config, n, rep)
            results.append(result)
            if log is not None:
                log(
                    f"n={n} rep={rep}: targeted {result.targeted_bps / 1e6:.3f} Mbit/s, "
                    f"background {result.background_bps / 1e6:.3f} Mbit/s, "
                    f"ratio {result.throughput_ratio:.3f}, "
                    f"JFI {result.fairness.fairness_index:.4f}"
                )
    write_outputs(config, results, write_traces=write_traces)
    return results


def _write_csv(path: Path, header: str, rows) -> Path:
    with path.open("w", newline="") as fh:
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def write_outputs(
    config: ExperimentConfig, results: list[LevelResult], *, write_traces: bool = False
) -> list[Path]:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = out / "meta.txt"
    meta.write_text(_meta_text(config))
    throughput = (
        [r.n, r.rep, f"{r.targeted_bps:.3f}", f"{r.background_bps:.3f}", f"{r.throughput_ratio:.6f}"]
        for r in results
    )
    fairness = (
        [r.n, r.rep, f"{r.fairness.fairness_index:.6f}"]
        + [f"{r.fairness.shares.get(role, 0.0):.6f}" for role in ("targeted", "background")]
        for r in results
    )
    written = [
        _write_csv(out / "throughput.csv", "n,rep,targeted_bps,background_bps,throughput_ratio", throughput),
        _write_csv(out / "fairness.csv", "n,rep,jfi_per_flow,targeted_share,background_share", fairness),
        meta,
    ]
    if not write_traces:
        return written
    for r in results:
        rows = (
            [trace.flow_id, trace.role, f"{trace.bucket_width:g}", index, f"{value:.1f}"]
            for trace in r.traces
            for index, value in enumerate(trace.buckets)
        )
        header = "flow_id,role,bucket_width_s,bucket_index,delivered_bytes"
        written.append(_write_csv(out / f"traces_n{r.n}_rep{r.rep}.csv", header, rows))
    return written
