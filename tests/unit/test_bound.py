"""Unit tests for the optimality-gap certification subsystem
(:mod:`repro.bound`).

The ordering being verified throughout (and in the integration sandwich
test) is::

    lagrangian >= lp >= ilp optimum >= any feasible profit

The Lagrangian dual of the per-BS capacity constraints is an upper
bound on the LP value at *any* truncation (weak duality); at its
optimum it equals the LP value because the remaining per-UE subproblem
is integral.  The LP relaxation in turn dominates the ILP optimum,
which dominates every feasible assignment.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import make_tiny_network
from repro.baselines.optimal import OptimalILPAllocator
from repro.bound import (
    GapCertificate,
    certify_gap,
    compile_bound_problem,
    lagrangian_bound,
    lp_bound,
)
from repro.econ.accounting import compute_profit, marginal_profit
from repro.econ.pricing import PaperPricing
from repro.errors import ConfigurationError
from repro.obs import metrics_from_certificates
from repro.radio.channel import build_radio_map
from repro.radio.sinr import LinkBudget
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario

PRICING = PaperPricing(base_price=1.0, cross_sp_markup=2.0, distance_weight=0.01)


def tiny_problem():
    network = make_tiny_network()
    radio_map = build_radio_map(network, LinkBudget())
    return network, radio_map


def rows_of(problem):
    """Each UE row's pair indices, in slot order."""
    rows = problem.pair_rows()
    return [np.flatnonzero(rows == row) for row in range(problem.n_ue)]


class TestBoundProblem:
    def test_slot_layout_is_consistent(self, small_scenario):
        network, radio_map = small_scenario.network, small_scenario.radio_map
        problem = compile_bound_problem(
            network, radio_map, small_scenario.pricing
        )
        assert problem.n_ue == len(network.user_equipments)
        assert problem.slot_ptr[0] == 0
        assert problem.slot_ptr[-1] == problem.n_pairs
        assert problem.pair_profit.shape == (problem.n_pairs,)
        assert sorted(problem.slot_rows.tolist()) == list(range(problem.n_ue))
        widths = np.diff(problem.slot_ptr)
        assert problem.n_slots > 1 and (widths > 0).all()
        assert (widths[1:] <= widths[:-1]).all()
        # Rows by descending candidate count, ties in row order.
        counts = np.array([
            sum(link.feasible for link in radio_map.links_of_ue(int(ue_id)))
            for ue_id in problem.ue_ids
        ])
        expected = sorted(range(problem.n_ue), key=lambda row: -counts[row])
        assert problem.slot_rows.tolist() == expected
        for k, width in enumerate(widths):
            assert width == np.count_nonzero(counts > k)

    def test_each_row_lists_its_feasible_links_once_in_map_order(
        self, small_scenario
    ):
        network, radio_map = small_scenario.network, small_scenario.radio_map
        problem = compile_bound_problem(
            network, radio_map, small_scenario.pricing
        )
        position = {row: j for j, row in enumerate(problem.slot_rows)}
        for row, pairs in enumerate(rows_of(problem)):
            ue_id = int(problem.ue_ids[row])
            feasible = [
                link for link in radio_map.links_of_ue(ue_id) if link.feasible
            ]
            assert problem.bs_ids[problem.pair_bs[pairs]].tolist() == [
                link.bs_id for link in feasible
            ]
            assert problem.pair_rrb[pairs].tolist() == [
                float(link.rrbs_required) for link in feasible
            ]
            # The row's k-th candidate sits in slot k, at the row's place.
            assert pairs.tolist() == [
                int(problem.slot_ptr[k]) + position[row]
                for k in range(len(pairs))
            ]

    def test_pair_profit_matches_scalar_accounting(self, small_scenario):
        """The vectorized profit column is the scalar marginal_profit."""
        network = small_scenario.network
        pricing = small_scenario.pricing
        problem = compile_bound_problem(
            network, small_scenario.radio_map, pricing
        )
        rows = problem.pair_rows()
        for k in range(problem.n_pairs):
            ue_id = int(problem.ue_ids[rows[k]])
            bs_id = int(problem.bs_ids[problem.pair_bs[k]])
            expected = marginal_profit(network, ue_id, bs_id, pricing)
            assert problem.pair_profit[k] == expected
            ue = network.user_equipment(ue_id)
            assert problem.pair_cru[k] == ue.cru_demand
            service = problem.service_ids.index(ue.service_id)
            assert problem.pair_flat[k] == (
                problem.pair_bs[k] * len(problem.service_ids) + service
            )

    def test_capacity_vectors_cover_every_bs(self):
        network, radio_map = tiny_problem()
        problem = compile_bound_problem(network, radio_map, PRICING)
        assert problem.cap_rrb.shape == (problem.n_bs,)
        assert (problem.cap_rrb >= 0).all()
        assert problem.cap_cru.shape == (
            problem.n_bs * len(problem.service_ids),
        )

    def test_estimated_bytes_positive(self):
        network, radio_map = tiny_problem()
        problem = compile_bound_problem(network, radio_map, PRICING)
        assert problem.estimated_bytes() > 0

    def test_compile_drops_its_pair_sized_temporaries(self):
        """Compiling the 400-BS / 20k-UE grid peaks at most 2.25 times
        the problem's own bytes above entry: each pair-sized temporary
        is dropped once used, where keeping them to the end took ~2.9x."""
        config = ScenarioConfig.paper(region_side_m=6000.0, bs_per_sp=80)
        scenario = build_scenario(config, 20_000, 3)
        tracemalloc.start()
        try:
            problem = compile_bound_problem(
                scenario.network, scenario.radio_map, scenario.pricing
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert problem.n_pairs == 162_872
        assert peak <= 2.25 * problem.estimated_bytes()


class TestLagrangianBound:
    @pytest.fixture
    def problem(self, small_scenario):
        return compile_bound_problem(
            small_scenario.network,
            small_scenario.radio_map,
            small_scenario.pricing,
        )

    def test_dominates_lp_value(self, small_scenario, problem):
        outcome = lagrangian_bound(problem, max_iterations=200)
        lp = lp_bound(
            small_scenario.network,
            small_scenario.radio_map,
            small_scenario.pricing,
        )
        assert outcome.upper_bound >= lp - 1e-6 * max(1.0, abs(lp))

    def test_initial_bound_is_capacity_blind_sum(self, problem):
        """At zero multipliers the dual is the sum of each UE's best
        positive profit, ignoring capacity — the loosest valid bound."""
        outcome = lagrangian_bound(problem, max_iterations=0)
        blind = 0.0
        for pairs in rows_of(problem):
            if pairs.size:
                blind += max(0.0, float(problem.pair_profit[pairs].max()))
        assert outcome.initial_bound == pytest.approx(blind)
        assert outcome.upper_bound <= outcome.initial_bound + 1e-12

    def test_iterations_respect_budget(self, problem):
        outcome = lagrangian_bound(problem, max_iterations=3)
        assert outcome.iterations <= 3

    def test_chunked_solve_matches_unchunked(self, problem):
        """``chunk_ues`` only regroups the dual's sum: float noise."""
        assert problem.n_ue > 50
        whole = lagrangian_bound(problem, max_iterations=50, target=0.0)
        for chunk_ues in (1, 7, 50):
            chunked = lagrangian_bound(
                problem, max_iterations=50, target=0.0, chunk_ues=chunk_ues
            )
            assert chunked.iterations == whole.iterations
            assert chunked.upper_bound == pytest.approx(
                whole.upper_bound, rel=1e-12
            )
            assert chunked.initial_bound == pytest.approx(
                whole.initial_bound, rel=1e-12
            )

    @pytest.mark.parametrize("chunk_ues", [0, -1])
    def test_non_positive_chunk_rejected(self, problem, chunk_ues):
        with pytest.raises(ConfigurationError, match="chunk_ues"):
            lagrangian_bound(problem, chunk_ues=chunk_ues)


class TestLPBound:
    def test_dominates_ilp_optimum(self, small_scenario):
        network = small_scenario.network
        radio_map = small_scenario.radio_map
        pricing = small_scenario.pricing
        ilp = OptimalILPAllocator(pricing=pricing).allocate(
            network, radio_map
        )
        ilp_profit = compute_profit(
            network, ilp.grants, pricing
        ).total_profit
        lp = lp_bound(network, radio_map, pricing)
        assert lp >= ilp_profit - 1e-6 * max(1.0, abs(ilp_profit))

    def test_relaxed_allocator_refuses_allocate(self):
        network, radio_map = tiny_problem()
        allocator = OptimalILPAllocator(pricing=PRICING, relaxed=True)
        with pytest.raises(ConfigurationError):
            allocator.allocate(network, radio_map)
        assert allocator.objective_bound(network, radio_map) >= 0.0

    def test_guard_message_reports_count_and_alternative(self):
        network, radio_map = tiny_problem()
        allocator = OptimalILPAllocator(pricing=PRICING, max_variables=1)
        with pytest.raises(ConfigurationError) as excinfo:
            allocator.allocate(network, radio_map)
        message = str(excinfo.value)
        assert "repro.bound" in message
        # The actual candidate-variable count, not just the cap.
        assert any(token.isdigit() and int(token) > 1
                   for token in message.replace(",", " ").split())


class TestCertifyGap:
    def test_unknown_method_rejected(self):
        network, radio_map = tiny_problem()
        with pytest.raises(ConfigurationError):
            certify_gap(network, radio_map, PRICING, method="milp")

    @pytest.mark.parametrize("chunk_ues", [0, -1])
    def test_non_positive_chunk_cannot_forge_a_certificate(
        self, small_scenario, chunk_ues
    ):
        """A chunk size below 1 once summed no UE: bound 0, gap 0."""
        with pytest.raises(ConfigurationError, match="chunk_ues"):
            certify_gap(
                small_scenario.network,
                small_scenario.radio_map,
                small_scenario.pricing,
                incumbent_profit=1.0,
                chunk_ues=chunk_ues,
            )

    def test_lp_and_lagrangian_certificates_agree_on_tiny(self):
        network, radio_map = tiny_problem()
        lp_cert = certify_gap(network, radio_map, PRICING, method="lp")
        lag_cert = certify_gap(
            network, radio_map, PRICING, method="lagrangian",
            max_iterations=300,
        )
        assert lag_cert.upper_bound >= lp_cert.upper_bound - 1e-6
        assert lp_cert.iterations == 1
        assert lp_cert.wall_time_s >= 0.0

    def test_gap_fraction_clamps(self):
        assert GapCertificate(
            method="lp", upper_bound=0.0, incumbent_profit=0.0,
            iterations=1, wall_time_s=0.0, converged=True,
        ).gap_fraction == 0.0
        # Incumbent above the bound (numerical noise): clamp at zero.
        assert GapCertificate(
            method="lp", upper_bound=10.0, incumbent_profit=11.0,
            iterations=1, wall_time_s=0.0, converged=True,
        ).gap_fraction == 0.0
        assert GapCertificate(
            method="lp", upper_bound=10.0, incumbent_profit=9.0,
            iterations=1, wall_time_s=0.0, converged=True,
        ).gap_fraction == pytest.approx(0.1)

    def test_as_dict_round_trip_keys(self):
        network, radio_map = tiny_problem()
        cert = certify_gap(
            network, radio_map, PRICING,
            incumbent_profit=1.0, method="lagrangian",
        )
        payload = cert.as_dict()
        assert set(payload) == {
            "method", "upper_bound", "incumbent_profit", "gap_fraction",
            "iterations", "wall_time_s", "converged",
        }


class TestCertificateMetrics:
    def certificate(self, method="lagrangian", upper=10.0, profit=9.0):
        return GapCertificate(
            method=method, upper_bound=upper, incumbent_profit=profit,
            iterations=5, wall_time_s=0.01, converged=True,
        )

    def test_families_and_labels(self):
        document = metrics_from_certificates(
            [self.certificate("lp"), self.certificate("lagrangian")],
            baseline_profits={"auction": 8.0},
        )
        for family in (
            "dmra_bound_upper",
            "dmra_gap_fraction",
            "dmra_bound_iterations",
            "dmra_bound_converged",
            "dmra_incumbent_profit",
            "dmra_baseline_profit",
        ):
            assert document.has_family(family), family
        gaps = document.family("dmra_gap_fraction")
        assert gaps.sample(method="lp") == pytest.approx(0.1)
        assert document.family("dmra_baseline_profit").sample(
            allocator="auction"
        ) == pytest.approx(8.0)

    def test_wall_time_family_is_diff_ignored(self):
        from repro.obs import DiffTolerances

        document = metrics_from_certificates([self.certificate()])
        assert document.has_family("dmra_wall_bound_seconds")
        assert DiffTolerances().ignored("dmra_wall_bound_seconds")

    def test_empty_certificate_list_rejected(self):
        with pytest.raises(ConfigurationError):
            metrics_from_certificates([])


class TestNumpyHygiene:
    def test_problem_arrays_are_numpy(self):
        network, radio_map = tiny_problem()
        problem = compile_bound_problem(network, radio_map, PRICING)
        for name in ("slot_ptr", "slot_rows", "pair_profit", "pair_cru",
                     "pair_rrb", "cap_cru", "cap_rrb"):
            assert isinstance(getattr(problem, name), np.ndarray), name
