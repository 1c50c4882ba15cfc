"""Integration: the production path loads NumPy and repro, nothing else.

SciPy serves only the small-instance ILP / LP relaxation and the paired
t-test, networkx only the association-graph view; both are imported by
the functions that call them.  This test starts a fresh interpreter
whose import system refuses both libraries, imports every public
subpackage, and runs the paths that must not need them: a paper
allocation on both kernels, a Lagrangian certificate, a stream replay
and an in-process agent-plane run.  ``lp_bound`` must then fail with
``ModuleNotFoundError`` at the call, which shows the dependency sits
there and nowhere earlier.
"""

import json
import subprocess
import sys

CHILD = r'''
import importlib
import importlib.abc
import json
import sys

OPTIONAL = ("scipy", "networkx")
refused = []


class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in OPTIONAL:
            refused.append(name)
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, Refuse())

for name in (
    "repro", "repro.cli", "repro.stream", "repro.bound", "repro.dist",
    "repro.analysis", "repro.experiments", "repro.obs",
):
    importlib.import_module(name)

from repro import DMRAAllocator, ScenarioConfig, build_scenario, run_allocation
from repro.bound import certify_gap, lp_bound
from repro.dist import DistributedDMRAAllocator
from repro.dynamics.arrivals import ExponentialHolding, PoissonArrivals
from repro.stream import StreamConfig, run_stream

scenario = build_scenario(ScenarioConfig.paper(), 300, 3)
network, radio_map, pricing = (
    scenario.network, scenario.radio_map, scenario.pricing,
)
report = {}
for kernel in ("object", "soa"):
    outcome = run_allocation(
        scenario, DMRAAllocator(pricing=pricing, kernel=kernel)
    )
    report[kernel] = outcome.metrics.total_profit
certificate = certify_gap(
    network, radio_map, pricing, incumbent_profit=report["soa"]
)
report["upper_bound"] = certificate.upper_bound
stream = run_stream(
    ScenarioConfig.paper(),
    StreamConfig(
        horizon_s=30.0,
        arrivals=PoissonArrivals(rate_per_s=2.0),
        holding=ExponentialHolding(mean_s=20.0),
    ),
    seed=1,
)
report["stream_events"] = stream.events_processed
dist = run_allocation(
    scenario, DistributedDMRAAllocator(transport="inproc", pricing=pricing)
)
report["dist"] = dist.metrics.total_profit
report["refused_before_lp"] = list(refused)
try:
    lp_bound(network, radio_map, pricing)
except ModuleNotFoundError as exc:
    report["lp_bound_error"] = exc.name
report["loaded"] = sorted(
    {name.partition(".")[0] for name in sys.modules} & set(OPTIONAL)
)
print(json.dumps(report))
'''


def test_production_path_needs_neither_scipy_nor_networkx():
    result = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-3000:]
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["refused_before_lp"] == []
    assert report["loaded"] == []
    assert report["lp_bound_error"] == "scipy"
    assert report["object"] == report["soa"] == report["dist"] > 0
    assert report["upper_bound"] >= report["soa"]
    assert report["stream_events"] > 0
