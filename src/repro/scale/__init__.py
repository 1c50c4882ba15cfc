"""Scenario construction in chunks.

:mod:`repro.scale.streaming` builds a scenario's skeleton first, then
its UE demands as columns (the static path,
:func:`repro.sim.scenario.build_scenario`) or chunk by chunk (the
stream's tapes), bit-identical either way.

Neither the static allocation nor the stream is tiled: each is one
monolithic Alg. 1 run over every BS.  docs/scaling.md and
docs/streaming.md measure why.
"""

from repro.scale.streaming import ScenarioFrame, build_scenario_frame

__all__ = ["ScenarioFrame", "build_scenario_frame"]
