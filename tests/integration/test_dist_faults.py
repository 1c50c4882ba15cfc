"""Integration: fault injection in the multi-process deployment.

The resilience half of the distribution claim: under each named fault
scenario (message drops, delays, stale broadcasts, a BS crash with
recovery) the deployment still **terminates**, produces a **valid**
assignment, loses a **bounded** amount of profit relative to the
fault-free run, and emits complete message/round accounting — both in
``last_report`` and as labeled families in the derived trace metrics
document.
"""

import pytest

from repro.dist import DistributedDMRAAllocator, FaultPlan, scenario_plan
from repro.obs import (
    Recorder,
    metrics_from_trace,
    telemetry_session,
    trace_from_recorder,
)
from repro.sim.config import ScenarioConfig
from repro.sim.runner import run_allocation
from repro.sim.scenario import build_scenario

UE_COUNT = 40
SEED = 7
FAULT_SEED = 3


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(ScenarioConfig.paper(), UE_COUNT, SEED)


@pytest.fixture(scope="module")
def reliable_outcome(scenario):
    allocator = DistributedDMRAAllocator(
        transport="inproc", pricing=scenario.pricing
    )
    return run_allocation(scenario, allocator)


def run_faulty(scenario, name, **kwargs):
    allocator = DistributedDMRAAllocator(
        transport="inproc",
        pricing=scenario.pricing,
        fault_plan=scenario_plan(name, seed=FAULT_SEED),
        max_rounds=80,
        **kwargs,
    )
    outcome = run_allocation(scenario, allocator)
    return allocator, outcome


class TestFaultScenarios:
    @pytest.mark.parametrize("name", ["drop", "delay", "stale", "crash"])
    def test_terminates_validly_with_bounded_degradation(
        self, scenario, reliable_outcome, name
    ):
        allocator, outcome = run_faulty(scenario, name)
        # Terminated well before the max_rounds backstop, with a valid
        # (run_allocation re-checks constraints) assignment.
        report = allocator.last_report
        assert report["total_rounds"] < 80
        assert report["orphans"] == 0
        # Bounded profit degradation vs the fault-free deployment.
        assert outcome.metrics.total_profit >= (
            0.9 * reliable_outcome.metrics.total_profit
        )
        # Accounting is complete: every kind counted, bytes > messages.
        for kind in ("bcast", "req", "grant"):
            assert report["messages"][kind] > 0
            assert report["bytes"][kind] > report["messages"][kind]

    def test_drop_scenario_actually_drops_and_retries(self, scenario):
        allocator, _ = run_faulty(scenario, "drop")
        report = allocator.last_report
        assert report["faults"]["dropped"] > 0
        # The SP relay layer re-transmits requests whose grants were
        # lost; at 25% drop some retransmission is certain.
        retransmits = sum(
            sp["retransmits"] for sp in report["sp"].values()
        )
        assert retransmits > 0

    def test_delay_scenario_releases_every_held_frame(self, scenario):
        allocator, _ = run_faulty(scenario, "delay")
        faults = allocator.last_report["faults"]
        assert faults["delayed"] > 0
        assert faults["released"] == faults["delayed"]
        assert faults["dropped"] == 0

    def test_stale_scenario_delays_broadcasts_only(self, scenario):
        allocator, _ = run_faulty(scenario, "stale")
        report = allocator.last_report
        assert report["faults"]["delayed"] > 0
        # Requests and grants ride untouched, so no retransmissions.
        assert sum(sp["retransmits"] for sp in report["sp"].values()) == 0

    def test_crash_scenario_recovers_via_epoch_bump(self, scenario):
        allocator, outcome = run_faulty(scenario, "crash")
        report = allocator.last_report
        assert report["faults"]["crashes"] == 1
        # Recovery is complete: no UE is stranded on the wiped ledger.
        assert report["orphans"] == 0
        plan = allocator.fault_plan
        assert report["total_rounds"] >= plan.last_crash_clear_round

    def test_fault_metrics_reach_the_trace_document(self, scenario):
        """The accounting is not just in-memory: a traced faulty run
        derives labeled dist_* metric families."""
        recorder = Recorder(meta={"kind": "dist-fault-test"})
        with telemetry_session(recorder):
            allocator, _ = run_faulty(scenario, "drop")
        document = metrics_from_trace(trace_from_recorder(recorder))
        for family in (
            "dmra_dist_messages_total",
            "dmra_dist_bytes_total",
            "dmra_dist_sp_requests_total",
            "dmra_dist_sp_grants_total",
            "dmra_dist_faults_total",
            "dmra_dist_rounds",
            "dmra_dist_total_rounds",
        ):
            assert document.has_family(family), family
        messages = document.family("dmra_dist_messages_total")
        report = allocator.last_report
        for kind, n in report["messages"].items():
            assert messages.sample(kind=kind) == n
        faults = document.family("dmra_dist_faults_total")
        assert faults.sample(event="dropped") == report["faults"]["dropped"]

    def test_mp_transport_replays_the_same_faulty_run(self, scenario):
        """Fault determinism is transport-independent: the same plan on
        forked processes produces the identical assignment and fault
        tallies as on threads."""
        inproc, inproc_outcome = run_faulty(scenario, "drop")
        mp_alloc = DistributedDMRAAllocator(
            transport="mp",
            pricing=scenario.pricing,
            fault_plan=scenario_plan("drop", seed=FAULT_SEED),
            max_rounds=80,
        )
        mp_outcome = run_allocation(scenario, mp_alloc)
        assert sorted(inproc_outcome.assignment.association_pairs()) == sorted(
            mp_outcome.assignment.association_pairs()
        )
        assert inproc.last_report["faults"] == mp_alloc.last_report["faults"]
        assert inproc.last_report["messages"] == mp_alloc.last_report["messages"]

    def test_crash_of_a_loaded_bs_reassigns_or_clouds_everyone(self, scenario):
        """Crashing a specific, loaded BS: every UE it served ends up
        either re-granted somewhere or at the cloud — never stranded."""
        reliable = DistributedDMRAAllocator(
            transport="inproc", pricing=scenario.pricing
        )
        baseline = reliable.allocate(scenario.network, scenario.radio_map)
        loaded_bs = max(
            (g.bs_id for g in baseline.grants),
            key=[g.bs_id for g in baseline.grants].count,
        )
        allocator = DistributedDMRAAllocator(
            transport="inproc",
            pricing=scenario.pricing,
            fault_plan=scenario_plan(
                "crash", seed=FAULT_SEED, crash_bs_id=loaded_bs
            ),
            max_rounds=80,
        )
        outcome = run_allocation(scenario, allocator)
        served = {g.ue_id for g in outcome.assignment.grants}
        assert served | set(outcome.assignment.cloud_ue_ids) == set(
            ue.ue_id for ue in scenario.network.user_equipments
        )
        assert allocator.last_report["orphans"] == 0


class TestFaultPlanEdgeCases:
    def test_zero_probability_plan_equals_reliable_run(
        self, scenario, reliable_outcome
    ):
        """A fault plan that injects nothing must still converge to the
        reliable result, despite always_broadcast switching on."""
        allocator = DistributedDMRAAllocator(
            transport="inproc",
            pricing=scenario.pricing,
            fault_plan=FaultPlan(seed=0),
            max_rounds=80,
        )
        outcome = run_allocation(scenario, allocator)
        assert sorted(outcome.assignment.association_pairs()) == sorted(
            reliable_outcome.assignment.association_pairs()
        )
        assert (
            outcome.assignment.cloud_ue_ids
            == reliable_outcome.assignment.cloud_ue_ids
        )

    def test_heavy_drop_still_terminates(self, scenario):
        """Far past the named scenarios: 60% drop inside the horizon.
        Termination is guaranteed because faults stop at the horizon."""
        allocator = DistributedDMRAAllocator(
            transport="inproc",
            pricing=scenario.pricing,
            fault_plan=FaultPlan(seed=1, drop_prob=0.6, horizon_rounds=8),
            max_rounds=120,
        )
        outcome = run_allocation(scenario, allocator)
        assert allocator.last_report["total_rounds"] < 120
        assert allocator.last_report["orphans"] == 0
        served = {g.ue_id for g in outcome.assignment.grants}
        assert served | set(outcome.assignment.cloud_ue_ids) == set(
            ue.ue_id for ue in scenario.network.user_equipments
        )


class TestReleaseProtocol:
    """Explicit releases keep BS ledgers and UE associations consistent:
    no stranded bookings under loss, no wire traffic without loss."""

    def test_reliable_run_sends_no_release_frames(self, scenario):
        allocator = DistributedDMRAAllocator(
            transport="inproc", pricing=scenario.pricing
        )
        run_allocation(scenario, allocator)
        report = allocator.last_report
        assert report["messages"].get("release", 0) == 0
        assert report.get("releases", 0) == 0
        assert report["stranded"] == 0

    def test_heavy_drop_leaves_no_stranded_bookings(self, scenario):
        """Regression: before the release protocol, 60% drop stranded a
        booking (a grant lost in flight while its UE walked elsewhere)
        that survived to assembly.  Releases must free it."""
        allocator = DistributedDMRAAllocator(
            transport="inproc",
            pricing=scenario.pricing,
            fault_plan=FaultPlan(seed=1, drop_prob=0.6, horizon_rounds=8),
            max_rounds=120,
        )
        outcome = run_allocation(scenario, allocator)
        report = allocator.last_report
        assert report["stranded"] == 0
        assert report["orphans"] == 0
        # The protocol actually ran: release frames were on the wire.
        assert report["messages"].get("release", 0) > 0
        # Ledger/association agreement means the profit accounting is
        # backed by real reservations.
        assert outcome.metrics.total_profit > 0

    def test_named_scenarios_have_no_stranded_bookings(self, scenario):
        for name in ("drop", "delay", "stale", "crash"):
            allocator, _ = run_faulty(scenario, name)
            assert allocator.last_report["stranded"] == 0, name


class TestNodeFailure:
    """A node whose own code raises fails the run at once and loudly:
    on the in-process transport the error surfaces on the caller's
    thread, and a forked node reports it to the supervisor in a
    ``fail`` frame, not as a barrier timeout ``recv_timeout`` later."""

    @pytest.fixture()
    def failing_decide(self, monkeypatch):
        """Every BS raises in round 3's decide phase; the first to be
        ticked there is ``bs:0``."""
        from repro.dist.nodes import BSNodeHandler

        on_tick = BSNodeHandler.on_tick
        failed = []

        def failing_on_tick(self, phase, round_no, messages, send):
            if phase == "decide" and round_no == 3:
                failed.append(self.agent.bs_id)
                raise RuntimeError(f"injected decide failure at bs:{failed[0]}")
            on_tick(self, phase, round_no, messages, send)

        monkeypatch.setattr(BSNodeHandler, "on_tick", failing_on_tick)
        return failed

    def test_allocate_raises_the_node_error_at_once(self, failing_decide):
        import time

        scenario = build_scenario(ScenarioConfig.paper(), 300, SEED)
        allocator = DistributedDMRAAllocator(
            transport="inproc", pricing=scenario.pricing
        )
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="injected decide failure"):
            allocator.allocate(scenario.network, scenario.radio_map)
        assert time.perf_counter() - start < allocator.recv_timeout / 6
        assert failing_decide == [0]
        assert allocator.last_report == {}

    def test_forked_node_error_stops_the_run_at_once(self, failing_decide):
        """On ``mp`` every BS is a process with its own copy of the
        fixture, so all of them raise; the supervisor names the first
        in its await order with that node's error, and reaps every
        process before the error leaves ``allocate``."""
        import multiprocessing
        import time

        from repro.errors import AllocationError

        scenario = build_scenario(ScenarioConfig.paper(), 300, SEED)
        allocator = DistributedDMRAAllocator(
            transport="mp", pricing=scenario.pricing, recv_timeout=10.0
        )
        start = time.perf_counter()
        with pytest.raises(
            AllocationError,
            match=r"node 'bs:0' failed: .*injected decide failure at bs:0",
        ):
            allocator.allocate(scenario.network, scenario.radio_map)
        assert time.perf_counter() - start < allocator.recv_timeout / 6
        assert multiprocessing.active_children() == []
        assert allocator.last_report == {}

    def test_failed_agents_cli_skips_the_final_flush(
        self, tmp_path, failing_decide, monkeypatch
    ):
        """``dmra agents`` with a live plane: the error propagates (the
        process exits non-zero) and the endpoint stops without its
        final flush, so ``--flush`` never holds a partial run's totals
        as if they were final."""
        import threading

        from repro.cli import main
        from repro.obs import LiveServer

        flush = LiveServer.flush_to_disk
        late_flushes = []

        def watched_flush(self):
            # The final flush runs on the command's thread; the periodic
            # flusher runs on a worker thread.
            if failing_decide and threading.current_thread() is (
                threading.main_thread()
            ):
                late_flushes.append(self)
            flush(self)

        monkeypatch.setattr(LiveServer, "flush_to_disk", watched_flush)
        with pytest.raises(RuntimeError, match="injected decide failure"):
            main([
                "agents", "--ues", "300", "--seed", str(SEED),
                "--listen", "127.0.0.1:0",
                "--flush", str(tmp_path / "live.json"),
                "--flush-interval", "60",
            ])
        assert failing_decide == [0]
        assert not late_flushes
