"""Metric formulas against hand-evaluated values and random-vector properties."""

import random

import numpy as np
import pytest

from ptcp.metrics import (
    FlowTrace,
    UndefinedFairnessError,
    fairness_report,
    jain_fairness,
    steady_window,
    throughput,
    throughput_ratio,
)


def uniform_trace(flow_id, rate_bps, duration, bucket_width=0.5, role="targeted"):
    n = int(round(duration / bucket_width))
    return FlowTrace(flow_id, role, bucket_width, [rate_bps * bucket_width] * n)


def test_throughput_million_bytes_over_ten_seconds():
    trace = FlowTrace("f", "targeted", 1.0, [100_000] * 10)
    assert throughput(trace, (0.0, 10.0)) == pytest.approx(100_000.0)


def test_throughput_all_zero():
    trace = FlowTrace("f", "targeted", 1.0, [0] * 10)
    assert throughput(trace, (0.0, 10.0)) == 0.0


def test_throughput_half_window_of_uniform_trace():
    r = 12_345.0
    trace = uniform_trace("f", r, 20.0)
    assert throughput(trace, (5.0, 15.0)) == pytest.approx(r)


def test_throughput_prorates_partial_buckets():
    # One bucket of 1000 bytes over [0,1); window [0.25, 0.75) sees half.
    trace = FlowTrace("f", "targeted", 1.0, [1000.0])
    assert throughput(trace, (0.25, 0.75)) == pytest.approx(500.0 / 0.5)


def test_throughput_empty_window_rejected():
    trace = uniform_trace("f", 1.0, 10.0)
    with pytest.raises(ValueError, match="empty window"):
        throughput(trace, (5.0, 5.0))


def test_throughput_window_outside_extent_rejected():
    trace = uniform_trace("f", 1.0, 10.0)
    with pytest.raises(ValueError, match="outside trace extent"):
        throughput(trace, (5.0, 11.0))


def test_throughput_additivity():
    rng = random.Random(404)
    a = FlowTrace("a", "targeted", 0.5, [rng.uniform(0, 1000) for _ in range(40)])
    b = FlowTrace("b", "background", 0.5, [rng.uniform(0, 1000) for _ in range(40)])
    merged = FlowTrace("m", "targeted", 0.5, [x + y for x, y in zip(a.buckets, b.buckets)])
    window = (3.0, 17.0)
    assert throughput(merged, window) == pytest.approx(
        throughput(a, window) + throughput(b, window), rel=1e-9
    )


def test_throughput_ratio_examples():
    assert throughput_ratio(625_000.0, 1_250_000.0) == pytest.approx(0.5)
    assert throughput_ratio(0.0, 1_250_000.0) == 0.0
    with pytest.raises(ValueError):
        throughput_ratio(1.0, 0.0)
    with pytest.raises(ValueError):
        throughput_ratio(1.0, -5.0)


def test_throughput_ratio_not_clamped():
    assert throughput_ratio(1_300_000.0, 1_250_000.0) > 1.0


def test_jain_all_equal():
    assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)


def test_jain_single_nonzero():
    assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)


def test_jain_one_two_three():
    assert jain_fairness([1, 2, 3]) == pytest.approx(36 / 42, abs=1e-12)


def test_jain_rejects_bad_input():
    with pytest.raises(UndefinedFairnessError):
        jain_fairness([0.0, 0.0])
    with pytest.raises(ValueError):
        jain_fairness([1.0, -0.5])
    with pytest.raises(ValueError):
        jain_fairness([])


def test_jain_scale_invariance_exact_for_binary_scales():
    rng = random.Random(77)
    for _ in range(200):
        xs = np.array([rng.uniform(0, 1e6) for _ in range(rng.randint(1, 12))])
        base = jain_fairness(xs)
        for k in (-20, -3, 1, 7, 30):
            assert jain_fairness(xs * 2.0**k) == base  # power-of-two scaling is lossless


def test_jain_scale_invariance_general():
    rng = random.Random(78)
    for _ in range(200):
        xs = np.array([rng.uniform(0, 1e6) for _ in range(rng.randint(1, 12))])
        c = rng.uniform(1e-6, 1e6)
        assert jain_fairness(c * xs) == pytest.approx(jain_fairness(xs), rel=1e-12)


def test_jain_bounds_and_equality_condition():
    rng = random.Random(79)
    for _ in range(500):
        n = rng.randint(1, 16)
        xs = [rng.uniform(0, 100) for _ in range(n)]
        if sum(xs) == 0:
            xs[0] = 1.0
        f = jain_fairness(xs)
        assert 1.0 / n - 1e-12 <= f <= 1.0 + 1e-12
        if max(xs) - min(xs) < 1e-15 and min(xs) > 0:
            assert abs(f - 1.0) < 1e-12


def test_fairness_report_equal_rates():
    r = 50_000.0
    traces = [uniform_trace(f"t{i}", r, 30.0) for i in range(4)]
    traces.append(uniform_trace("bg", r, 30.0, role="background"))
    report = fairness_report(traces)
    assert len(report.per_flow_throughput) == 5
    assert report.fairness_index == pytest.approx(1.0)
    assert report.per_application["targeted"] == pytest.approx(4 * r)
    assert report.per_application["background"] == pytest.approx(r)
    assert report.shares["targeted"] == pytest.approx(0.8)
    assert report.shares["background"] == pytest.approx(0.2)


def test_fairness_report_three_to_one():
    r = 10_000.0
    traces = [
        uniform_trace("t0", 3 * r, 30.0),
        uniform_trace("bg", r, 30.0, role="background"),
    ]
    report = fairness_report(traces)
    assert report.fairness_index == pytest.approx(16 / 20)


def test_fairness_report_single_vs_single_equal():
    traces = [
        uniform_trace("t0", 1000.0, 10.0),
        uniform_trace("bg", 1000.0, 10.0, role="background"),
    ]
    report = fairness_report(traces)
    assert report.fairness_index == pytest.approx(1.0)


def test_fairness_report_needs_two_flows():
    with pytest.raises(ValueError, match="two flows"):
        fairness_report([uniform_trace("t0", 1.0, 10.0)])


def test_steady_window_discards_first_fifth():
    traces = [uniform_trace("t0", 1.0, 50.0)]
    assert steady_window(traces) == (10.0, 50.0)


def test_trace_validation():
    with pytest.raises(ValueError):
        FlowTrace("f", "targeted", 0.0, [1.0])
    with pytest.raises(ValueError):
        FlowTrace("f", "targeted", 1.0, [-1.0])
    with pytest.raises(ValueError):
        FlowTrace("f", "passenger", 1.0, [1.0])
