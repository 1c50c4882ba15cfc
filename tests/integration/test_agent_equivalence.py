"""Integration: the message-passing DMRA equals the direct engine.

This is the decentralization proof of the reproduction: an agent system
where BSs see only mailbox contents and UEs see only broadcasts produces
*bit-identical* associations to the shared-state matching loop, on paper
scenarios across placements, loads, and rho values.  The agents run on
``repro.dist``'s in-process transport; ``TestDistributedEquivalence``
covers the forked ones.
"""

import pytest

from repro.core.dmra import DMRAAllocator
from repro.dist import TRANSPORTS, DistributedDMRAAllocator
from repro.sim.config import ScenarioConfig
from repro.sim.runner import run_allocation
from repro.sim.scenario import build_scenario


def assert_equivalent(scenario, rho=10.0):
    direct = DMRAAllocator(pricing=scenario.pricing, rho=rho).allocate(
        scenario.network, scenario.radio_map
    )
    agents = DistributedDMRAAllocator(
        transport="inproc", pricing=scenario.pricing, rho=rho
    ).allocate(scenario.network, scenario.radio_map)
    agents.validate(scenario.network, scenario.radio_map)
    assert sorted(direct.association_pairs()) == sorted(
        agents.association_pairs()
    )
    assert direct.cloud_ue_ids == agents.cloud_ue_ids
    assert direct.rounds == agents.rounds
    return agents


class TestEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_underloaded(self, seed):
        scenario = build_scenario(ScenarioConfig.paper(), 150, seed)
        assert_equivalent(scenario)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_overloaded(self, seed):
        scenario = build_scenario(ScenarioConfig.paper(), 1200, seed)
        assert_equivalent(scenario)

    @pytest.mark.parametrize("placement", ["random", "clustered"])
    def test_other_placements(self, placement):
        scenario = build_scenario(
            ScenarioConfig.paper(placement=placement), 400, 7
        )
        assert_equivalent(scenario)

    @pytest.mark.parametrize("rho", [0.0, 50.0, 500.0])
    def test_rho_values(self, rho):
        scenario = build_scenario(ScenarioConfig.paper(), 600, 5)
        assert_equivalent(scenario, rho=rho)

    @pytest.mark.parametrize("iota", [1.0, 1.1, 2.0])
    def test_iota_values(self, iota):
        scenario = build_scenario(
            ScenarioConfig.paper(cross_sp_markup=iota), 500, 2
        )
        assert_equivalent(scenario)

    def test_partial_hosting(self):
        scenario = build_scenario(
            ScenarioConfig.paper(hosted_fraction=0.5), 300, 9
        )
        assert_equivalent(scenario)


class TestMessageOverhead:
    def test_relay_counts_are_conserved(self):
        """Every edge-served UE got >= 1 request and exactly 1 grant
        relayed by its SP; every cloud UE produced one forward."""
        scenario = build_scenario(ScenarioConfig.paper(), 1200, 3)
        allocator = DistributedDMRAAllocator(
            transport="inproc", pricing=scenario.pricing
        )
        assignment = allocator.allocate(
            scenario.network, scenario.radio_map
        )
        sp_stats = allocator.last_report["sp"].values()
        total_grants = sum(sp["grants_relayed"] for sp in sp_stats)
        total_forwards = sum(sp["cloud_forwards"] for sp in sp_stats)
        total_requests = sum(sp["requests_relayed"] for sp in sp_stats)
        assert total_grants == assignment.edge_served_count
        assert total_forwards == assignment.cloud_count
        assert total_requests >= assignment.edge_served_count

    def test_outcome_metrics_match_direct(self):
        scenario = build_scenario(ScenarioConfig.paper(), 800, 4)
        direct = run_allocation(
            scenario, DMRAAllocator(pricing=scenario.pricing)
        ).metrics
        agents = run_allocation(
            scenario,
            DistributedDMRAAllocator(
                transport="inproc", pricing=scenario.pricing
            ),
        ).metrics
        assert direct.total_profit == pytest.approx(agents.total_profit)
        assert direct.edge_served == agents.edge_served
        assert direct.forwarded_traffic_bps == pytest.approx(
            agents.forwarded_traffic_bps
        )


class TestDistributedEquivalence:
    """The multi-process deployment (repro.dist) under a reliable
    transport is bit-identical to the direct engine — same association
    pairs, same cloud set, same convergence-round count — for every
    transport, including the forked mp and tcp paths."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_bit_identical_across_transports(self, transport):
        scenario = build_scenario(ScenarioConfig.paper(), 80, 7)
        direct = DMRAAllocator(pricing=scenario.pricing).allocate(
            scenario.network, scenario.radio_map
        )
        allocator = DistributedDMRAAllocator(
            transport=transport, pricing=scenario.pricing
        )
        dist = allocator.allocate(scenario.network, scenario.radio_map)
        dist.validate(scenario.network, scenario.radio_map)
        assert sorted(direct.association_pairs()) == sorted(
            dist.association_pairs()
        )
        assert direct.cloud_ue_ids == dist.cloud_ue_ids
        assert direct.rounds == dist.rounds
        report = allocator.last_report
        assert report["orphans"] == 0
        assert all(n == 0 for n in report["faults"].values())
        # Message accounting is populated for every wire kind in play.
        assert report["messages"]["bcast"] > 0
        assert report["messages"]["req"] > 0
        assert report["messages"]["grant"] > 0
        assert report["bytes"]["req"] > report["messages"]["req"]

    def test_matches_in_process_agents_overloaded(self):
        """Overload (cloud fallbacks in play): the in-process agents and
        the forked mp deployment give the same assignment and the same
        per-kind message and byte counts — the synchronous transport
        changes where nodes run, not what they send.  The counts are
        pinned to those of the threaded transport it replaced."""
        scenario = build_scenario(ScenarioConfig.paper(), 1100, 3)
        runs = []
        for transport in ("inproc", "mp"):
            allocator = DistributedDMRAAllocator(
                transport=transport, pricing=scenario.pricing
            )
            assignment = allocator.allocate(
                scenario.network, scenario.radio_map
            )
            runs.append((assignment, allocator.last_report))
        (inproc, inproc_report), (forked, forked_report) = runs
        assert inproc.cloud_ue_ids
        assert sorted(inproc.association_pairs()) == sorted(
            forked.association_pairs()
        )
        assert inproc.cloud_ue_ids == forked.cloud_ue_ids
        assert inproc.rounds == forked.rounds
        assert inproc_report["messages"] == forked_report["messages"] == {
            "bcast": 454, "grant": 1918, "req": 10914, "release": 1068,
            "cloud": 141,
        }
        assert inproc_report["bytes"] == forked_report["bytes"]

    def test_inproc_run_starts_no_thread(self, monkeypatch):
        """The in-process transport calls every node on the caller's
        thread: a whole run, traced and under a fault plan, with
        ``Thread.start`` disabled."""
        import threading

        from repro.dist import scenario_plan
        from repro.obs import Recorder, telemetry_session

        def no_thread(self):
            raise AssertionError(f"thread {self.name!r} started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        scenario = build_scenario(ScenarioConfig.paper(), 80, 7)
        with telemetry_session(Recorder()):
            dist = DistributedDMRAAllocator(
                transport="inproc",
                pricing=scenario.pricing,
                fault_plan=scenario_plan("stale", seed=3),
            ).allocate(scenario.network, scenario.radio_map)
        dist.validate(scenario.network, scenario.radio_map)

    def test_ue_host_partitioning_is_invisible(self):
        """Sharding UEs across a different host count must not change
        the outcome — hosts are deployment detail, not algorithm."""
        scenario = build_scenario(ScenarioConfig.paper(), 80, 7)
        results = [
            DistributedDMRAAllocator(
                transport="inproc", pricing=scenario.pricing, ue_hosts=hosts
            ).allocate(scenario.network, scenario.radio_map)
            for hosts in (1, 4)
        ]
        assert sorted(results[0].association_pairs()) == sorted(
            results[1].association_pairs()
        )
        assert results[0].cloud_ue_ids == results[1].cloud_ue_ids
        assert results[0].rounds == results[1].rounds
