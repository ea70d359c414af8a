"""
Flows through a shared bottleneck
=================================

The simulated link is a dumbbell: every flow's segments funnel through
one drop-tail queue; acks ride back on a lossless delay-only path.  Flows
grow their window by one segment per RTT and halve on loss, so a single
flow saturating the link traces the classic sawtooth.
"""

from ptcp.simnet import AimdFlow, LinkConfig, Network, steady_state_throughput

# 10 Mbit/s, 100 ms base RTT, queue of 50 packets.  The queue drains in
# 50 * 1.2 ms = 60 ms, safely under the base RTT, so retransmit timers
# only fire for genuine drops.
link = LinkConfig(capacity=10_000_000, one_way_delay=0.05, queue_limit=50)
print(f"service time {link.service_time * 1000:.2f} ms/segment, base RTT {link.rtt_base * 1000:.0f} ms")

network = Network(link)
flow = network.add_flow(AimdFlow("solo", link))
network.run_until(60.0)

rate = flow.delivered_bytes / 60.0
print(f"\nsolo flow: {rate * 8 / 1e6:.2f} Mbit/s of {link.capacity / 1e6:.0f} Mbit/s")
print(f"  window halvings: {flow.halvings}, drops at the queue: {network.drops}")
print(f"  peak queue length: {network.max_queue_len} of {link.queue_limit}")

# A deterministic sawtooth isolates the textbook picture: cap the window
# at 20 segments on a fat link and the mean settles at 0.75*w_max*MSS/RTT,
# the midpoint of a ride between w_max/2 and w_max.
fat = LinkConfig(capacity=100_000_000, one_way_delay=0.05, queue_limit=1_000)
saw_net = Network(fat)
saw = saw_net.add_flow(AimdFlow("sawtooth", fat, loss_at_cwnd=20))
saw_net.run_until(20.0)
measured = saw.delivered_bytes / 20.0
oracle = steady_state_throughput(20, fat.mss, fat.rtt_base)
print(f"\ndeterministic sawtooth at w_max=20: measured {measured:,.0f} B/s, "
      f"closed form {oracle:,.0f} B/s")

# Two identical flows split the same pipe evenly.
pair_net = Network(link)
a = pair_net.add_flow(AimdFlow("a", link))
b = pair_net.add_flow(AimdFlow("b", link))
pair_net.run_until(60.0)
total = a.delivered_bytes + b.delivered_bytes
print("\ntwo flows sharing the link:")
for f in (a, b):
    print(f"  {f.flow_id}: {f.delivered_bytes / 60.0 * 8 / 1e6:.2f} Mbit/s "
          f"({f.delivered_bytes / total:.1%} of the aggregate)")
