"""
Does adding connections add throughput?
=======================================

On a lossy link a single flow's window is capped by how often random loss
knocks it down, leaving bandwidth unused.  Striping the transfer over n
flows multiplies the aggregate window, so throughput climbs with n until
the pipe itself becomes the limit.  This sweep measures that trend on a
50 Mbit/s link with 1% loss.
"""

from ptcp.harness import experiment_from_keys, run_level

config = experiment_from_keys(
    {
        "capacity_bps": "50000000",
        "one_way_delay_s": "0.05",
        "queue_limit_pkts": "50",
        "loss_prob": "0.01",
        "seed": "7",
        "duration_s": "30.0",
        "levels": "1,2,4,8,16",
        "repetitions": "1",
    }
)
print("n connections vs aggregate throughput (30 s simulated, seed 7):\n")
print(f"{'n':>3} {'targeted Mbit/s':>16} {'vs n=1':>7} {'link share':>11} {'JFI':>6}")

baseline = None
for n in config.levels:
    result = run_level(config, n, 0)
    baseline = baseline or result.targeted_bps
    print(
        f"{n:>3} {result.targeted_bps / 1e6:>16.3f} "
        f"{result.targeted_bps / baseline:>6.2f}x "
        f"{result.throughput_ratio:>10.1%} "
        f"{result.fairness.fairness_index:>6.3f}"
    )

print(
    "\nThe background flow keeps its fair per-flow share throughout; the"
    "\ntargeted application gains by fielding more flows, and the curve"
    "\nflattens as the link approaches saturation."
)
