"""Simulator mechanics, AIMD behavior, closed forms, and scenario runs."""

import gc
import hashlib
import math
import weakref

import pytest

from ptcp.harness import parse_experiment, sim_flow_specs
from ptcp.metrics import steady_window, throughput
from ptcp.simnet import (
    TRACE_BUCKET_WIDTH,
    AimdFlow,
    FlowSpec,
    LinkConfig,
    Network,
    aggregate_window_reduction,
    run_scenario,
    steady_state_throughput,
)

FAT_LINK = LinkConfig(
    capacity=1e9, one_way_delay=0.05, queue_limit=1_000_000, loss_probability=0.0
)


def make_flow(link=FAT_LINK, **kwargs):
    return AimdFlow("f0", link, **kwargs)


# -- event loop --


@pytest.mark.parametrize(
    ("field", "value"),
    [("capacity", 0), ("one_way_delay", -0.001), ("queue_limit", 0), ("loss_probability", 1.5), ("mss", 0)],
)
def test_link_config_rejects_a_field_out_of_range(field, value):
    fields = dict(capacity=1e7, one_way_delay=0.05, queue_limit=50)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        LinkConfig(**{**fields, field: value})


def test_add_flow_rejects_a_duplicate_id():
    network = Network(FAT_LINK)
    network.add_flow(make_flow())
    with pytest.raises(ValueError, match="duplicate flow_id 'f0'"):
        network.add_flow(make_flow())


def test_schedule_call_rejects_a_time_in_the_past():
    network = Network(FAT_LINK)
    network.schedule_call(1.0, lambda: None)
    network.step()
    with pytest.raises(ValueError, match="before now 1.0"):
        network.schedule_call(0.5, lambda: None)


def test_step_on_empty_network():
    network = Network(FAT_LINK)
    assert network.step() is False


def test_single_packet_delivery_time():
    link = LinkConfig(capacity=1e7, one_way_delay=0.05, queue_limit=10)
    network = Network(link)
    network.add_flow(AimdFlow("f0", link, byte_limit=link.mss))
    network.run_until(1.0)
    flow = network.flows["f0"]
    assert len(flow.delivery_log) == 1
    t, nbytes = flow.delivery_log[0]
    assert t == pytest.approx(link.service_time + link.one_way_delay)
    assert nbytes == link.mss


def test_same_time_events_replay_identically():
    link = LinkConfig(capacity=1e7, one_way_delay=0.05, queue_limit=30, seed=3)

    def event_log():
        network = Network(link, record_events=True)
        for i in range(3):
            network.add_flow(AimdFlow(f"f{i}", link, byte_limit=30_000))
        network.run_until(5.0)
        return network.event_log

    assert event_log() == event_log()


def test_next_time_reports_the_earliest_pending_event():
    network = Network(FAT_LINK)
    assert network.next_time() is None
    network.schedule_call(2.5, lambda: None)
    network.schedule_call(1.5, lambda: None)
    assert network.next_time() == 1.5
    network.step()
    assert network.next_time() == 2.5
    network.step()
    assert network.next_time() is None


def test_dead_timers_stay_off_the_heap():
    # Lossless and uncongested: every segment is acked long before its
    # timer would fire.  Each segment costs two events (deliver, ack); with
    # one heap entry per timer it would cost three.
    link = LinkConfig(capacity=1e7, one_way_delay=0.05, queue_limit=50)
    network = Network(link)
    flow = network.add_flow(AimdFlow("f0", link, byte_limit=200 * link.mss))
    steps = 0
    while network.step():
        steps += 1
    assert flow.sent_segments == 200 and flow.timeouts == 0
    assert 1 + 2 * 200 < steps < 1 + 2 * 200 + 200 // 4


def test_run_until_counts_through_network_step(monkeypatch):
    # Traced benchmark runs count simulator events by wrapping Network.step
    # on the class, so run_until must dispatch every event through it.
    link = LinkConfig(capacity=1e7, one_way_delay=0.05, queue_limit=20, loss_probability=0.02, seed=5)
    specs = [FlowSpec("f0"), FlowSpec("f1", start_time=0.3)]
    duration = 2.0
    network = Network(link)
    for spec in specs:
        network.add_flow(AimdFlow(spec.flow_id, link, start_time=spec.start_time))
    manual = 0
    while (t := network.next_time()) is not None and t <= duration:
        network.step()
        manual += 1

    calls = 0
    step = Network.step

    def counting_step(self):
        nonlocal calls
        calls += 1
        return step(self)

    monkeypatch.setattr(Network, "step", counting_step)
    run_scenario(link, specs, duration)
    assert calls == manual > 0


# -- additive increase --


def test_full_window_acked_grows_by_about_one():
    flow = make_flow(initial_cwnd=10.0)
    sent = []
    while (tx := flow.next_transmission()) is not None:
        sent.append(tx[0])
    assert len(sent) == 10
    for seq in sent:
        flow.on_ack(seq, 0.1)
    assert flow.cwnd == pytest.approx(11.0, abs=0.1)
    assert flow.in_flight == 0


def test_single_ack_from_cwnd_one():
    flow = make_flow(initial_cwnd=1.0)
    seq, _ = flow.next_transmission()
    flow.on_ack(seq, 0.1)
    assert flow.cwnd == 2.0


def test_linear_growth_without_loss():
    network = Network(FAT_LINK)
    flow = network.add_flow(AimdFlow("f0", FAT_LINK))
    network.run_until(5.0)
    c1 = flow.cwnd
    network.run_until(10.0)
    c2 = flow.cwnd
    slope = (c2 - c1) / 5.0  # expected: one segment per base RTT (10/s)
    assert slope == pytest.approx(1.0 / FAT_LINK.rtt_base, rel=0.15)


# -- multiplicative decrease --


def test_halving():
    flow = make_flow(initial_cwnd=20.0)
    assert flow.on_loss(1.0)
    assert flow.cwnd == 10.0


def test_halving_floor_at_one():
    flow = make_flow(initial_cwnd=1.0)
    assert flow.on_loss(1.0)
    assert flow.cwnd == 1.0


def test_two_losses_within_one_rtt_halve_once():
    flow = make_flow(initial_cwnd=16.0)
    assert flow.on_loss(1.0)
    assert not flow.on_loss(1.0 + FAT_LINK.rtt_base * 0.5)
    assert flow.cwnd == 8.0
    assert flow.on_loss(1.0 + FAT_LINK.rtt_base)
    assert flow.cwnd == 4.0


def test_timeout_detects_loss_and_queues_retransmit():
    flow = make_flow(initial_cwnd=4.0)
    seq, tid = flow.next_transmission()
    assert flow.on_timeout(seq, tid, flow.timeout_interval)
    assert flow.in_flight == 0
    assert flow.cwnd == 2.0
    # the retransmission goes out before any new sequence number
    seq2, tid2 = flow.next_transmission()
    assert seq2 == seq
    assert tid2 != tid
    # the original timer is now stale
    assert not flow.on_timeout(seq, tid, 2 * flow.timeout_interval)


def test_late_ack_cancels_retransmission():
    flow = make_flow(initial_cwnd=4.0)
    seq, tid = flow.next_transmission()
    flow.on_timeout(seq, tid, flow.timeout_interval)
    flow.on_ack(seq, flow.timeout_interval + 0.01)  # data arrived after all
    assert flow.next_transmission()[0] == seq + 1


def test_receiver_dedups_but_acks():
    flow = make_flow()
    assert flow.on_segment_arrival(0, 0.1)
    assert not flow.on_segment_arrival(0, 0.2)
    assert flow.delivered_bytes == FAT_LINK.mss


def test_partial_final_segment_payload():
    flow = make_flow(byte_limit=2500)
    assert flow.segment_payload(0) == 1500
    assert flow.segment_payload(1) == 1000


# -- closed forms --


def test_aggregate_window_reduction_values():
    assert aggregate_window_reduction(5, 2) == pytest.approx(0.2)
    assert aggregate_window_reduction(1, 1) == 0.5
    assert aggregate_window_reduction(7, 0) == 0.0


def test_aggregate_window_reduction_validation():
    with pytest.raises(ValueError):
        aggregate_window_reduction(0, 0)
    with pytest.raises(ValueError):
        aggregate_window_reduction(3, 4)
    with pytest.raises(ValueError):
        aggregate_window_reduction(3, -1)


def test_steady_state_throughput_values():
    assert steady_state_throughput(20, 1500, 0.1) == pytest.approx(225_000.0)
    assert steady_state_throughput(2, 1500, 0.1) == pytest.approx(1.5 * 1500 / 0.1)
    with pytest.raises(ValueError):
        steady_state_throughput(1.5, 1500, 0.1)
    with pytest.raises(ValueError, match="rtt must be > 0"):
        steady_state_throughput(20, 1500, 0.0)


def test_sawtooth_simulation_matches_formula():
    # Deterministic loss whenever the window reaches w_max, big queue and
    # fast link so the base RTT dominates.
    w_max, rtt = 20.0, 0.1
    link = LinkConfig(capacity=1e8, one_way_delay=rtt / 2, queue_limit=1000)
    network = Network(link)
    flow = network.add_flow(AimdFlow("f0", link, loss_at_cwnd=w_max))
    duration = 200 * rtt
    network.run_until(duration)
    rate = flow.delivered_bytes / duration
    assert rate == pytest.approx(steady_state_throughput(w_max, link.mss, rtt), rel=0.05)
    assert flow.halvings >= 10


def _loss_limited_flows(p, n):
    """n flows under Bernoulli loss p on a 1 Gbit/s, 100 ms RTT link whose
    queue never fills, each started at its predicted window sqrt(1.5/p)
    (there is no slow start).  Returns the per-flow mean delivery rate
    over [12, 60] s and Mathis et al.'s MSS/RTT * sqrt(1.5/p) at the
    loss-event rate, halvings per segment sent."""
    link = LinkConfig(
        capacity=1e9, one_way_delay=0.05, queue_limit=100_000, loss_probability=p, seed=1
    )
    network = Network(link)
    flows = [
        network.add_flow(AimdFlow(f"f{i}", link, initial_cwnd=math.sqrt(1.5 / p)))
        for i in range(n)
    ]
    network.run_until(12.0)
    before = sum(flow.delivered_bytes for flow in flows)
    network.run_until(60.0)
    rate = (sum(flow.delivered_bytes for flow in flows) - before) / n / 48.0
    loss_events = sum(flow.halvings for flow in flows) / sum(flow.sent_segments for flow in flows)
    return rate, link.mss / link.rtt_base * math.sqrt(1.5 / loss_events)


@pytest.mark.parametrize("p", [1e-3, 1e-2, 3e-2])
def test_mathis_grid(p):
    """Each flow runs at Mathis et al. (CCR 1997), MSS/RTT * sqrt(1.5/p),
    within 15%, and 4 flows each run within 10% of one flow alone.

    p in the formula is the loss-event rate, not the Bernoulli rate: losses
    within one window count as one halving here, and a timeout halves the
    window rather than resetting it, so Padhye's timeout model fits worse.
    The simulator reads about 1.05-1.09x Mathis.  The residual is the
    loss process: sqrt(1.5) ~ 1.22 is the constant of a deterministic
    sawtooth with exactly 1/p segments between losses, and random loss
    gives a larger one (Mathis et al. quote about 1.31).  A cycle's length
    in RTTs grows like the square root of the segments it carries, which
    is concave, so gaps that vary around a mean of 1/p segments carry the
    same data in less time than equal gaps do."""
    rates = {}
    for n in (1, 4):
        rate, mathis = _loss_limited_flows(p, n)
        assert rate == pytest.approx(mathis, rel=0.15), (n, rate / mathis)
        rates[n] = rate
    assert rates[4] == pytest.approx(rates[1], rel=0.10)


# -- scenarios --


def test_saturation_single_flow_lossless():
    # Queue drain (50 * 1.2 ms) stays under the base RTT so timeouts only
    # fire for genuine drops.
    link = LinkConfig(capacity=1e7, one_way_delay=0.05, queue_limit=50)
    traces = run_scenario(link, [FlowSpec("f0")], 60.0)
    rate = throughput(traces[0], steady_window(traces))
    assert rate == pytest.approx(link.capacity / 8, rel=0.05)


def test_symmetry_two_identical_flows():
    link = LinkConfig(capacity=1e7, one_way_delay=0.05, queue_limit=50)
    traces = run_scenario(link, [FlowSpec("f0"), FlowSpec("f1")], 60.0)
    window = steady_window(traces)
    fair_share = link.capacity / 8 / 2
    for trace in traces:
        assert throughput(trace, window) == pytest.approx(fair_share, rel=0.10)


def test_scenario_determinism():
    link = LinkConfig(capacity=1e7, one_way_delay=0.05, queue_limit=50, loss_probability=0.01, seed=11)
    flows = [FlowSpec("f0"), FlowSpec("bg", role="background", start_time=0.5)]
    a = run_scenario(link, flows, 20.0)
    b = run_scenario(link, flows, 20.0)
    for ta, tb in zip(a, b):
        assert (ta.buckets == tb.buckets).all()


def test_scenario_seed_changes_outcome():
    base = dict(capacity=1e7, one_way_delay=0.05, queue_limit=50, loss_probability=0.05)
    a = run_scenario(LinkConfig(seed=1, **base), [FlowSpec("f0")], 20.0)
    b = run_scenario(LinkConfig(seed=2, **base), [FlowSpec("f0")], 20.0)
    assert (a[0].buckets != b[0].buckets).any()


def test_scenario_validation():
    with pytest.raises(ValueError):
        run_scenario(FAT_LINK, [], 10.0)
    with pytest.raises(ValueError):
        run_scenario(FAT_LINK, [FlowSpec("f0")], 0.0)


def test_flow_start_offset():
    link = LinkConfig(capacity=1e7, one_way_delay=0.05, queue_limit=50)
    traces = run_scenario(link, [FlowSpec("late", start_time=1.0)], 5.0)
    buckets = traces[0].buckets
    assert buckets[: int(1.0 / TRACE_BUCKET_WIDTH)].sum() == 0
    assert buckets.sum() > 0


# -- invariants --


def test_lossy_byte_limited_flows_complete_exactly():
    link = LinkConfig(
        capacity=1e7, one_way_delay=0.05, queue_limit=50, loss_probability=0.05, seed=5
    )
    network = Network(link)
    flows = [network.add_flow(AimdFlow(f"f{i}", link, byte_limit=150_000)) for i in range(2)]
    network.run_until(120.0)
    assert network.next_time() is None
    for flow in flows:
        assert flow.delivered_bytes == 150_000
        assert flow.delivered_bytes <= link.mss * flow.sent_segments
        assert flow.timeouts > 0  # the link really was lossy


def test_queue_law():
    # Queue drain time (20 pkts * 1.2 ms) stays well under the 200 ms
    # retransmission timeout, so overflow is reached by window growth.
    link = LinkConfig(capacity=1e7, one_way_delay=0.05, queue_limit=20)
    network = Network(link)
    network.add_flow(AimdFlow("f0", link))
    network.add_flow(AimdFlow("f1", link))
    network.run_until(30.0)
    assert network.max_queue_len <= link.queue_limit
    assert network.drops > 0
    assert network.max_queue_len == link.queue_limit  # drop-tail fires only when full


def test_reverse_path_carries_no_losses():
    link = LinkConfig(capacity=1e7, one_way_delay=0.05, queue_limit=30, loss_probability=0.1, seed=9)
    network = Network(link, record_events=True)
    network.add_flow(AimdFlow("f0", link, byte_limit=300_000))
    network.add_flow(AimdFlow("f1", link, byte_limit=200_000))
    while network.step():
        pass
    assert network.bernoulli_losses > 0
    kinds = [e.kind for e in network.event_log]
    # Every segment that reached its receiver was acked: no ack was lost.
    assert kinds.count("ack") == kinds.count("deliver") + kinds.count("dup")


def test_event_log_digest_replay():
    link = LinkConfig(capacity=1e7, one_way_delay=0.05, queue_limit=50, loss_probability=0.02, seed=21)

    def digest(seed):
        cfg = LinkConfig(
            capacity=link.capacity,
            one_way_delay=link.one_way_delay,
            queue_limit=link.queue_limit,
            loss_probability=link.loss_probability,
            seed=seed,
        )
        network = Network(cfg, record_events=True)
        network.add_flow(AimdFlow("f0", cfg))
        network.add_flow(AimdFlow("f1", cfg))
        network.run_until(10.0)
        return network.log_digest()

    assert digest(21) == digest(21)
    assert digest(21) != digest(22)


def test_event_log_digest_golden():
    # Pins the simulator's event sequence: a refactor that keeps behaviour
    # keeps this digest.
    link = LinkConfig(capacity=1e7, one_way_delay=0.05, queue_limit=50, loss_probability=0.02, seed=21)
    network = Network(link, record_events=True)
    network.add_flow(AimdFlow("f0", link))
    network.add_flow(AimdFlow("f1", link))
    network.run_until(10.0)
    assert len(network.event_log) == 6159
    assert network.log_digest() == "f744e990a5d130ade4d9061d29d82cfa5dbcc19f14f7937ef5171a261fbc54d1"


def _tie_prone_outcome_digest(capacity, queue_limit, loss_probability):
    link = LinkConfig(
        capacity=capacity,
        one_way_delay=0.012,
        queue_limit=queue_limit,
        loss_probability=loss_probability,
        seed=4,
    )
    network = Network(link, record_events=True)
    for i, start in enumerate((0.0, 0.0, 0.5)):
        network.add_flow(AimdFlow(f"f{i}", link, start_time=start))
    network.run_until(2.0)
    h = hashlib.sha256()
    for flow in network.flows.values():
        h.update(repr((flow.flow_id, flow.delivery_log, flow.sent_segments)).encode())
        h.update(repr((flow.halvings, flow.timeouts)).encode())
    h.update(repr((network.drops, network.bernoulli_losses, network.max_queue_len)).encode())
    # Records that share a timestamp are compared as a multiset: their
    # order within the timestamp is not part of the simulator's contract.
    for e in sorted(network.event_log, key=lambda e: (e.time, e.kind, e.flow_id, e.seq)):
        h.update(f"{e.time!r} {e.kind} {e.flow_id} {e.seq}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "capacity, queue_limit, loss_probability, digest",
    [
        (12e6, 5, 0.0, "0be778a72abfb4189bea3aa4fbb592d4b154bbe16c8b4f5fcd807dfd0c478bc2"),
        (12e6, 5, 0.02, "fc5873edaecb3f55fc47312b3b35d50ee55fc2497815d1a3472dafb646b7f15d"),
        (12e6, 200, 0.0, "da3fe545e1b07bd666b2e49ce8ab2cdabdac3efd344379540f5501428f3f387d"),
        (12e6, 200, 0.02, "6cb1e8bd32f6f6e12cd3f2ba65d21a3f2d5056aa097e14ba8cdac5036bd6fbcf"),
        (24e6, 5, 0.0, "7448ce20064ffc68941488028777100c347eb4963da8e97754716c7aa3cac200"),
        (24e6, 5, 0.02, "726741a8c713e6cd7b252fa1e3b83fa9c9689b22b2d55c9d83cc7193471dd3fa"),
        (24e6, 200, 0.0, "88e23fdf0f55faa5b4b8ea279ed093d1e0fdb694285a838bbc1e5ba4f43d90be"),
        # With loss the queue never holds 5 segments at 24 Mbit/s, so both
        # queue limits run alike.
        (24e6, 200, 0.02, "726741a8c713e6cd7b252fa1e3b83fa9c9689b22b2d55c9d83cc7193471dd3fa"),
    ],
)
def test_tie_prone_outcomes_golden(capacity, queue_limit, loss_probability, digest):
    # The one-way delay is exactly 12 or 24 service times, so deliveries,
    # acks and departures often share a timestamp.  The third flow starts
    # late and the run stops with segments still queued, so counters are
    # compared at a cut-off, not only at quiescence.
    assert _tie_prone_outcome_digest(capacity, queue_limit, loss_probability) == digest


def test_finished_network_is_freed_without_the_cyclic_gc():
    # Nothing on the heap may refer back to its Network (a bound method
    # would), so a finished simulation is freed by reference counting
    # alone, with events still pending.
    link = LinkConfig(capacity=1e7, one_way_delay=0.05, queue_limit=20, loss_probability=0.01, seed=3)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        network = Network(link)
        network.add_flow(AimdFlow("f0", link))
        network.add_flow(AimdFlow("f1", link))
        network.run_until(5.0)
        assert network.next_time() is not None
        ref = weakref.ref(network)
        del network
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_log_digest_requires_recording():
    network = Network(FAT_LINK)
    with pytest.raises(ValueError):
        network.log_digest()


def test_in_flight_never_exceeds_window_at_send():
    class CheckedFlow(AimdFlow):
        def next_transmission(self):
            tx = super().next_transmission()
            if tx is not None:
                assert self.in_flight <= math.ceil(self.cwnd)
            return tx

    link = LinkConfig(capacity=1e7, one_way_delay=0.05, queue_limit=30, loss_probability=0.03, seed=13)
    network = Network(link)
    network.add_flow(CheckedFlow("f0", link))
    network.add_flow(CheckedFlow("f1", link))
    network.run_until(20.0)
    for flow in network.flows.values():
        assert flow.cwnd >= 1.0


def test_synchronized_loss_matches_reduction_formula():
    # Grow k equal-window flows without loss, then force loss on m of them.
    k, m = 5, 2
    network = Network(FAT_LINK)
    for i in range(k):
        network.add_flow(AimdFlow(f"f{i}", FAT_LINK))
    network.run_until(3.0)
    pre = sum(flow.cwnd for flow in network.flows.values())
    network.inject_loss([f"f{i}" for i in range(m)])
    post = sum(flow.cwnd for flow in network.flows.values())
    expected = 1.0 - aggregate_window_reduction(k, m)
    assert abs(post - expected * pre) <= 1.0  # within one segment

    # Single flow: exact halving.
    network1 = Network(FAT_LINK)
    network1.add_flow(AimdFlow("solo", FAT_LINK))
    network1.run_until(3.0)
    pre1 = network1.flows["solo"].cwnd
    network1.inject_loss()
    assert network1.flows["solo"].cwnd == pre1 / 2


def test_parse_scenario_defaults():
    """An empty config gives the default simulated scenario: the link,
    the duration, and one targeted plus one background flow at the
    smallest level."""
    config = parse_experiment("")
    assert config.link.capacity == 10_000_000
    assert config.link.one_way_delay == 0.05
    assert config.link.queue_limit == 50
    assert config.link.mss == 1500
    assert config.duration == 30.0
    specs = sim_flow_specs(config.levels[0], config.background_count)
    roles = [spec.role for spec in specs]
    assert (roles.count("targeted"), roles.count("background")) == (1, 1)
