"""Throughput, throughput ratio, and Jain's fairness index over flow traces.

A trace is a time-bucketed record of delivered bytes for one flow.  All
throughput values here are bytes/second; callers that want bits multiply
at the edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

STEADY_DISCARD = 0.2  # ramp-up share of a trace left out of the steady window


class UndefinedFairnessError(Exception):
    """Nothing to measure: a fairness index over an all-zero throughput
    vector, or a sweep cell whose targeted flows delivered nothing."""


@dataclass(frozen=True)
class FlowTrace:
    """Delivered bytes per fixed-width time bucket for one flow."""

    flow_id: str
    role: str  # "targeted" or "background"
    bucket_width: float
    buckets: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "buckets", tuple(map(float, self.buckets)))
        if self.bucket_width <= 0:
            raise ValueError(f"bucket_width must be > 0, got {self.bucket_width}")
        if self.role not in ("targeted", "background"):
            raise ValueError(f"unknown role {self.role!r}")
        if any(b < 0 for b in self.buckets):
            raise ValueError("negative byte count in trace")

    @property
    def extent(self) -> float:
        """Trace duration in seconds."""
        return self.bucket_width * len(self.buckets)

    @property
    def total_bytes(self) -> float:
        return math.fsum(self.buckets)


def throughput(trace: FlowTrace, window: tuple[float, float]) -> float:
    """Mean delivered rate over ``window`` in bytes/second.

    Buckets partially covered by the window contribute pro rata, treating
    each bucket's bytes as uniformly spread over its width.
    """
    start, end = window
    if end <= start:
        raise ValueError(f"empty window ({start}, {end})")
    if start < 0 or end > trace.extent + 1e-9:
        raise ValueError(f"window ({start}, {end}) outside trace extent {trace.extent}")
    width = trace.bucket_width
    total = 0.0
    first = int(start / width)
    last = min(math.ceil(end / width), len(trace.buckets))
    for i in range(first, last):
        lo = max(start, i * width)
        hi = min(end, (i + 1) * width)
        if hi > lo:
            total += trace.buckets[i] * (hi - lo) / width
    return total / (end - start)


def throughput_ratio(achieved: float, link_capacity: float) -> float:
    """Achieved rate as a fraction of link capacity (both bytes/second).

    Reported raw: windowing artifacts may push it slightly above 1 and
    that is left visible.
    """
    if link_capacity <= 0:
        raise ValueError(f"link_capacity must be > 0, got {link_capacity}")
    return achieved / link_capacity


def jain_fairness(xs) -> float:
    """(sum x)^2 / (N * sum x^2) over per-flow throughputs."""
    values = [float(x) for x in xs]
    if not values:
        raise ValueError("need at least one throughput value")
    if any(x < 0 for x in values):
        raise ValueError("negative throughput value")
    square_sum = math.fsum(x * x for x in values)
    if square_sum == 0.0:
        raise UndefinedFairnessError("all flows have zero throughput")
    total = math.fsum(values)
    return (total * total) / (len(values) * square_sum)


@dataclass
class FairnessReport:
    per_flow_throughput: list[float]
    fairness_index: float
    per_application: dict[str, float]  # role -> aggregate bytes/second
    shares: dict[str, float] = field(default_factory=dict)  # role -> fraction of total


def steady_window(traces) -> tuple[float, float]:
    """Measurement window skipping the ramp-up: drop the first
    ``STEADY_DISCARD`` fraction of the shortest trace."""
    extent = min(t.extent for t in traces)
    return (STEADY_DISCARD * extent, extent)


def fairness_report(traces, window: tuple[float, float] | None = None) -> FairnessReport:
    """Per-flow and per-application fairness over the steady-state window."""
    traces = list(traces)
    if len(traces) < 2:
        raise ValueError("fairness needs at least two flows")
    if window is None:
        window = steady_window(traces)
    per_flow = [throughput(t, window) for t in traces]
    per_app: dict[str, float] = {}
    for trace, rate in zip(traces, per_flow):
        per_app[trace.role] = per_app.get(trace.role, 0.0) + rate
    total = sum(per_app.values())
    return FairnessReport(
        per_flow_throughput=per_flow,
        fairness_index=jain_fairness(per_flow),
        per_application=per_app,
        shares={role: (rate / total if total > 0 else 0.0) for role, rate in per_app.items()},
    )
