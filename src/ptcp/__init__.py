"""Parallel TCP striping with a deterministic bottleneck simulator.

One application transfer is split across N concurrent connections, each
carrying a contiguous, sequence-numbered chunk; the receiver writes each
frame in place into one payload buffer and verifies each chunk's digest and
the hash-list root over them.  A discrete-event dumbbell simulation with
AIMD flows, throughput/fairness metrics, and an experiment harness measure
how parallelism trades against single-connection traffic on a shared
bottleneck.
"""

from .metrics import (
    FairnessReport,
    FlowTrace,
    fairness_report,
    jain_fairness,
    steady_window,
    throughput,
    throughput_ratio,
)
from .simnet import (
    AimdFlow,
    FlowSpec,
    LinkConfig,
    Network,
    aggregate_window_reduction,
    run_scenario,
    steady_state_throughput,
)
from .striping import (
    FailureKind,
    ReceivedTransfer,
    Receiver,
    TransferReport,
    send_transfer,
    serve,
)
from .wire import TransferManifest, partition, sha256

__all__ = [
    "AimdFlow",
    "FailureKind",
    "FairnessReport",
    "FlowSpec",
    "FlowTrace",
    "LinkConfig",
    "Network",
    "ReceivedTransfer",
    "Receiver",
    "TransferManifest",
    "TransferReport",
    "aggregate_window_reduction",
    "fairness_report",
    "jain_fairness",
    "partition",
    "run_scenario",
    "send_transfer",
    "serve",
    "sha256",
    "steady_state_throughput",
    "steady_window",
    "throughput",
    "throughput_ratio",
]

__version__ = "0.1.0"
