"""
Measuring fairness between applications
=======================================

Four parallel connections of one application share a 10 Mbit/s link with
a single background flow.  Per-flow, everyone gets an equal fifth -- that
is what Jain's index scores.  Per-application, the striped transfer takes
four fifths of the link: parallelism wins bandwidth by showing up with
more flows, not by beating any one of them.
"""

from ptcp.metrics import fairness_report, jain_fairness, steady_window
from ptcp.simnet import FlowSpec, LinkConfig, run_scenario

# Jain's index on raw numbers first: equal shares score 1, and one flow
# hogging everything drives N flows toward 1/N.
print(f"equal shares [5, 5, 5, 5]      -> {jain_fairness([5, 5, 5, 5]):.3f}")
print(f"one hog      [20, 0.1, 0.1]    -> {jain_fairness([20, 0.1, 0.1]):.3f}")
print(f"3:1 split    [3, 1]            -> {jain_fairness([3, 1]):.3f}")

# Now the full scenario: background first, four targeted flows a second
# later, one minute of simulated time.
link = LinkConfig(capacity=10_000_000, one_way_delay=0.05, queue_limit=50, seed=0)
flows = [FlowSpec("background-0", role="background", start_time=0.0)] + [
    FlowSpec(f"targeted-{i}", role="targeted", start_time=1.0) for i in range(4)
]
traces = run_scenario(link, flows, duration=60.0)

# Discard the ramp-up, then report both granularities.
window = steady_window(traces)
report = fairness_report(traces, window)
utilization = sum(report.per_application.values()) / (link.capacity / 8.0)
print(f"\nsteady window {window[0]:.0f}..{window[1]:.0f} s, link utilization {utilization:.1%}")
print(f"per-flow Jain index over {len(report.per_flow_throughput)} flows: {report.fairness_index:.4f}")
for trace, rate in zip(traces, report.per_flow_throughput):
    print(f"  {trace.flow_id:>12}: {rate * 8 / 1e6:.3f} Mbit/s")
print("per-application shares:")
for role, share in sorted(report.shares.items()):
    print(f"  {role:>12}: {share:.1%}")
