"""Scenario construction in chunks and the region's tiling.

Two pieces that the static builder and the stream share:

* :mod:`repro.scale.streaming` — build a scenario's skeleton first,
  then its UE demands as columns (the static path,
  :func:`repro.sim.scenario.build_scenario`) or chunk by chunk (the
  stream's tapes), bit-identical either way;
* :mod:`repro.scale.partition` — tile the region into a near-square
  grid and give every UE position exactly one tile (the stream's
  shards).

The static allocation itself is one monolithic Alg. 1 run; see
docs/scaling.md for what bounds its memory and why it is not sharded.
"""

from repro.scale.partition import assign_shards, plan_tiles
from repro.scale.streaming import ScenarioFrame, build_scenario_frame

__all__ = [
    "ScenarioFrame",
    "assign_shards",
    "build_scenario_frame",
    "plan_tiles",
]
