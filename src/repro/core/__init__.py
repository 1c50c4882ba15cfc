"""Core: assignments, the matching engine, and the DMRA scheme."""

from repro.core.agents import BSAgent, SPAgent, UEAgent
from repro.core.allocator import Allocator
from repro.core.assignment import Assignment
from repro.core.dmra import DMRAAllocator, DMRAPolicy
from repro.core.messages import (
    AssociationGrant,
    CloudFallbackNotice,
    ResourceBroadcast,
    ServiceRequest,
)
from repro.core.matching import (
    IterativeMatchingEngine,
    MatchingContext,
    MatchingPolicy,
)
from repro.core.preferences import dmra_bs_rank_key, dmra_ue_score
from repro.core.soa import (
    KERNELS,
    SoAMatchingEngine,
    make_matching_engine,
)
from repro.core.steering import (
    CongestionSteeredAllocator,
    CongestionSteeredPolicy,
)

__all__ = [
    "Allocator",
    "Assignment",
    "AssociationGrant",
    "BSAgent",
    "CloudFallbackNotice",
    "CongestionSteeredAllocator",
    "CongestionSteeredPolicy",
    "DMRAAllocator",
    "DMRAPolicy",
    "IterativeMatchingEngine",
    "KERNELS",
    "MatchingContext",
    "MatchingPolicy",
    "ResourceBroadcast",
    "SPAgent",
    "ServiceRequest",
    "SoAMatchingEngine",
    "UEAgent",
    "dmra_bs_rank_key",
    "dmra_ue_score",
    "make_matching_engine",
]
