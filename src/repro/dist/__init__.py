"""True decentralized deployment of the DMRA agent layer.

Promotes the UE/BS/SP agents of :mod:`repro.core.agents` to node
bodies — objects called in turn on the caller's thread, or forked OS
processes — exchanging serialized wire messages over a pluggable
transport, with fault injection and per-message accounting.  This is
the one round loop over the agents: the staleness ablation runs on it
as a fault plan that delays every broadcast.  See
``docs/decentralized.md``.
"""

from repro.dist.faults import (
    FAULT_SCENARIOS,
    CrashEvent,
    FaultPlan,
    FaultyChannel,
    scenario_plan,
)
from repro.dist.supervisor import DistributedDMRAAllocator
from repro.dist.transport import TRANSPORTS, make_transport

__all__ = [
    "FAULT_SCENARIOS",
    "TRANSPORTS",
    "CrashEvent",
    "DistributedDMRAAllocator",
    "FaultPlan",
    "FaultyChannel",
    "make_transport",
    "scenario_plan",
]
