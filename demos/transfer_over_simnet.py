"""
Real transfer code on a simulated wire
======================================

The same send/receive code that drives sockets here runs over the
simulated bottleneck: a token scheduler lets blocking tasks and the event
loop take turns, so every read, write, and timeout happens in virtual
time.  ``simulate_transfer`` runs both ends on one ``Network``.  Loss
slows the transfer down -- and the payload still arrives intact, byte for
byte.
"""

from ptcp.simbridge import simulate_transfer
from ptcp.simnet import LinkConfig, Network
from ptcp.wire import sha256

payload = bytes((i * 37 + 11) % 256 for i in range(300_000))

for loss in (0.0, 0.02, 0.05):
    link = LinkConfig(capacity=20_000_000, one_way_delay=0.02, queue_limit=200, loss_probability=loss, seed=5)
    network = Network(link)
    report, result, received = simulate_transfer(network, payload, 3)
    ok = result.ok and sha256(received) == sha256(payload)
    print(
        f"loss {loss:.0%}: {report.wall_time:.2f} virtual seconds, "
        f"{network.bernoulli_losses} segments lost, intact={ok}"
    )
    assert ok

print(
    "\nEvery run is reproducible: the clock is the event queue, and the"
    "\nonly randomness is the seeded loss draw on the forward path."
)
