"""Unit tests for the SoA matching kernel plumbing.

Covers the pieces the parity property suite does not: kernel selection
(:func:`repro.core.soa.make_matching_engine`), the NaN regression guard
across all three engine implementations, incremental (pre-loaded
ledger) runs, the segmented-argmin primitive itself against a
straight Python loop, and fixed cases for the eviction and the
packed rank key (two BSs evicting in one round; a key range past
int64 that must fall back to lexsort).
"""

import numpy as np
import pytest
from conftest import make_tiny_network
from oracles.matching import ReferenceMatchingEngine

from repro.baselines.dcsp import DCSPPolicy
from repro.compute.cru import LedgerPool
from repro.core.dmra import DMRAPolicy
from repro.core.matching import IterativeMatchingEngine, RoundStats
from repro.core.soa import (
    KERNELS,
    SoAMatchingEngine,
    _rank_order,
    _segmented_argmin,
    gather_candidates,
    make_matching_engine,
)
from repro.econ.pricing import FlatPricing, PaperPricing
from repro.errors import AllocationError, ConfigurationError, UnknownEntityError
from repro.model.geometry import Point
from repro.radio.channel import RadioMap, build_radio_map
from repro.radio.sinr import LinkBudget


def _tiny():
    network = make_tiny_network(
        ue_specs=[
            dict(ue_id=0),
            dict(ue_id=1, sp_id=1, service_id=1),
            dict(ue_id=2, cru_demand=6),
        ]
    )
    return network, build_radio_map(network, LinkBudget())


class TestKernelSelection:
    def test_object_kernel_returns_reference_engine(self):
        engine = make_matching_engine(
            DMRAPolicy(pricing=PaperPricing()), kernel="object"
        )
        assert isinstance(engine, IterativeMatchingEngine)

    def test_soa_kernel_returns_soa_engine(self):
        engine = make_matching_engine(
            DMRAPolicy(pricing=PaperPricing()), kernel="soa"
        )
        assert isinstance(engine, SoAMatchingEngine)

    def test_auto_selects_soa_for_plain_dmra_policy(self):
        engine = make_matching_engine(
            DMRAPolicy(pricing=PaperPricing()), kernel="auto"
        )
        assert isinstance(engine, SoAMatchingEngine)

    def test_auto_falls_back_for_non_dmra_policy(self):
        engine = make_matching_engine(DCSPPolicy(), kernel="auto")
        assert isinstance(engine, IterativeMatchingEngine)

    def test_auto_falls_back_for_dmra_subclass(self):
        class TweakedDMRA(DMRAPolicy):
            """Overridden hooks cannot be compiled by the SoA kernel."""

        engine = make_matching_engine(
            TweakedDMRA(pricing=PaperPricing()), kernel="auto"
        )
        assert isinstance(engine, IterativeMatchingEngine)

    def test_soa_kernel_rejects_non_dmra_policy(self):
        with pytest.raises(ConfigurationError, match="DMRAPolicy"):
            make_matching_engine(DCSPPolicy(), kernel="soa")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown matching kernel"):
            make_matching_engine(
                DMRAPolicy(pricing=PaperPricing()), kernel="simd"
            )

    def test_kernels_tuple_is_the_cli_contract(self):
        assert KERNELS == ("object", "soa", "auto")

    def test_nonpositive_max_rounds_rejected(self):
        with pytest.raises(AllocationError, match="max_rounds"):
            SoAMatchingEngine(DMRAPolicy(pricing=PaperPricing()), max_rounds=0)

    def test_max_rounds_bound_enforced(self):
        network, radio_map = _tiny()
        engine = SoAMatchingEngine(
            DMRAPolicy(pricing=PaperPricing()), max_rounds=1
        )
        with pytest.raises(AllocationError, match="did not terminate"):
            engine.run(network, radio_map)


class TestSegmentedArgmin:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_python_loop_with_ties_and_infs(self, seed):
        rng = np.random.default_rng(seed)
        n_segments = int(rng.integers(1, 40))
        counts = rng.integers(1, 12, size=n_segments)
        scores = rng.choice(
            [0.0, 1.0, 2.5, np.inf], size=int(counts.sum())
        ).astype(float)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        got = _segmented_argmin(scores, starts, counts)
        bounds = np.append(starts, scores.size)
        for s in range(n_segments):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            best = lo
            for j in range(lo + 1, hi):
                if scores[j] < scores[best]:
                    best = j
            assert got[s] == best  # first occurrence of the minimum

    def test_all_inf_segment_picks_its_first_index(self):
        scores = np.array([np.inf, np.inf, 3.0, np.inf], dtype=float)
        starts = np.array([0, 2], dtype=np.int64)
        counts = np.array([2, 2], dtype=np.int64)
        assert _segmented_argmin(scores, starts, counts).tolist() == [0, 2]


class _NaNPricing:
    def price_per_cru(self, distance_m: float, same_sp: bool) -> float:
        return float("nan")


@pytest.mark.parametrize(
    "engine_cls",
    [IterativeMatchingEngine, ReferenceMatchingEngine, SoAMatchingEngine],
)
def test_nan_score_raises_naming_policy_and_pair(engine_cls):
    """Regression: a NaN preference must fail loudly in every engine,
    naming the policy and the (UE, BS) pair — silent ``min()`` results
    depended on candidate order before."""
    network = make_tiny_network(ue_specs=[dict(ue_id=7)])
    radio_map = build_radio_map(network, LinkBudget())
    engine = engine_cls(DMRAPolicy(pricing=_NaNPricing()))
    with pytest.raises(AllocationError, match="'dmra'.*NaN.*UE 7.*BS") :
        engine.run(network, radio_map)


def _two_crowded_bss(cru_demand: int, cru_capacity: int):
    """Four identical UEs by each of the two BSs (services 0, 1, 0, 1).

    Round 1 grants two per BS; in round 2 each BS's two picks tie on
    (cross-SP, f_u, footprint), their RRBs (2 + 2) overrun the 3 left,
    and the higher ``ue_id`` is evicted at both BSs at once.
    """
    ue_specs = [
        dict(
            ue_id=4 * side + k, sp_id=side, service_id=k % 2,
            position=Point(50.0 + 300.0 * side, 0.0),
            cru_demand=cru_demand, rate_demand_bps=8e6,
        )
        for side in (0, 1)
        for k in range(4)
    ]
    bs_specs = [
        dict(
            bs_id=b, sp_id=b, position=Point(400.0 * b, 0.0),
            cru_capacity={0: cru_capacity, 1: cru_capacity},
            rrb_capacity=7,
        )
        for b in (0, 1)
    ]
    network = make_tiny_network(ue_specs=ue_specs, bs_specs=bs_specs)
    return network, build_radio_map(network, LinkBudget())


class TestEvictionAndRankKey:
    """The closed-form eviction and both rank-key sorts, against the
    object engine grant for grant."""

    @staticmethod
    def _both(network, radio_map, same_sp_priority):
        runs = []
        for engine_cls in (IterativeMatchingEngine, SoAMatchingEngine):
            stats: list[RoundStats] = []
            policy = DMRAPolicy(
                pricing=PaperPricing(), same_sp_priority=same_sp_priority
            )
            assignment = engine_cls(policy).run(
                network, radio_map, observer=stats.append
            )
            runs.append((assignment, [s.evictions for s in stats]))
        (obj, obj_evictions), (soa, soa_evictions) = runs
        assert soa.grants == obj.grants  # order included
        assert soa.cloud_ue_ids == obj.cloud_ue_ids
        assert soa.rounds == obj.rounds
        assert soa_evictions == obj_evictions
        return soa, soa_evictions

    @pytest.mark.parametrize("same_sp_priority", [True, False])
    def test_two_bss_over_budget_in_one_round(self, same_sp_priority):
        network, radio_map = _two_crowded_bss(4, 20)
        soa, evictions = self._both(network, radio_map, same_sp_priority)
        assert evictions[:2] == [0, 2]  # one per BS in round 2
        assert [g.ue_id for g in soa.grants] == [0, 1, 2, 4, 5, 6]

    @pytest.mark.parametrize("same_sp_priority", [True, False])
    def test_key_range_past_int64_falls_back_to_lexsort(
        self, same_sp_priority, monkeypatch
    ):
        """Footprints near 3e17 push the packed key past int64: each
        round's sorts go through np.lexsort instead, same answer."""
        calls = []
        lexsort = np.lexsort

        def counting_lexsort(keys):
            calls.append(len(keys))
            return lexsort(keys)

        monkeypatch.setattr(np, "lexsort", counting_lexsort)
        network, radio_map = _two_crowded_bss(3 * 10**17, 10**18)
        calls.clear()
        soa, evictions = self._both(network, radio_map, same_sp_priority)
        assert evictions[:2] == [0, 2]
        keys = 5 if same_sp_priority else 4
        # Selection sorts each round; eviction sorts in round 2.
        assert calls.count(keys) == soa.rounds + 1

    def test_packed_order_equals_lexsort(self):
        rng = np.random.default_rng(0)
        lead = rng.integers(0, 7, 300)
        keys = [
            (rng.integers(0, 2, 300), 2),
            (rng.integers(0, 9, 300), 9),
            (rng.permutation(300), 300),
        ]
        expected = np.lexsort(
            tuple(col for col, _ in reversed(keys)) + (lead,)
        )
        assert _rank_order(lead, 7, keys).tolist() == expected.tolist()
        huge = [(col, bound * 2**30) for col, bound in keys]
        assert _rank_order(lead, 7, huge).tolist() == expected.tolist()


class TestIncrementalMode:
    """Pre-loaded ledgers + a UE subset: the SoA kernel must honour
    existing grants (born-retired pairs) and leave the shared pool in
    the object engine's exact final state."""

    def _run_two_batches(self, engine_cls):
        network, radio_map = _tiny()
        policy = DMRAPolicy(pricing=PaperPricing())
        pool = LedgerPool(network.base_stations)
        engine = engine_cls(policy)
        first = engine.run(network, radio_map, ledgers=pool, ue_ids=[0, 1])
        second = engine.run(network, radio_map, ledgers=pool, ue_ids=[2])
        state = tuple(
            (g.bs_id, g.ue_id, g.service_id, g.crus, g.rrbs)
            for g in pool.all_grants()
        )
        return first, second, state

    def test_two_batch_run_matches_object_engine(self):
        obj_first, obj_second, obj_state = self._run_two_batches(
            IterativeMatchingEngine
        )
        soa_first, soa_second, soa_state = self._run_two_batches(
            SoAMatchingEngine
        )
        assert soa_first.grants == obj_first.grants
        assert soa_second.grants == obj_second.grants
        assert soa_first.cloud_ue_ids == obj_first.cloud_ue_ids
        assert soa_second.cloud_ue_ids == obj_second.cloud_ue_ids
        assert soa_state == obj_state

    def test_second_batch_reports_only_new_grants(self):
        _, second, state = self._run_two_batches(SoAMatchingEngine)
        assert all(g.ue_id == 2 for g in second.grants)
        assert len(state) == 3  # all three UEs fit the tiny network

    def test_observer_hook_fires_per_round(self):
        network, radio_map = _tiny()
        seen: list[RoundStats] = []
        SoAMatchingEngine(DMRAPolicy(pricing=PaperPricing())).run(
            network, radio_map, observer=seen.append
        )
        assert [s.round_number for s in seen] == list(
            range(1, len(seen) + 1)
        )
        assert sum(s.accepted for s in seen) == 3


class TestGatherCandidates:
    """The CSR gather shared by the kernel and the bound compile."""

    def test_matches_per_ue_slices_on_a_shuffled_map(self, small_scenario):
        network, built = small_scenario.network, small_scenario.radio_map
        links = list(built)
        np.random.default_rng(3).shuffle(links)
        for radio_map in (built, RadioMap.from_links(links, network)):
            targets = [ue.ue_id for ue in network.user_equipments][::3]
            gathered = gather_candidates(network, radio_map, set(targets))
            expected = [
                position
                for ue_id in sorted(targets)
                for position in range(*radio_map.ue_slice(ue_id))
            ]
            assert gathered.ue_ids.tolist() == sorted(targets)
            assert gathered.links.tolist() == expected
            assert gathered.pair_bs.tolist() == [
                network.col_of_bs(bs_id)
                for bs_id in radio_map.bs_ids[expected].tolist()
            ]
            rows_of = [network.row_of_ue(u) for u in sorted(targets)]
            assert gathered.rows.tolist() == rows_of

    def test_scrambled_map_matches_object_engine(self, loaded_scenario):
        """UE groups out of order, and links out of BS order within each
        group: the gather and the kernel's within-row sort restore the
        object engine's candidate order."""
        network = loaded_scenario.network
        rng = np.random.default_rng(5)
        groups: dict[int, list] = {}
        for link in loaded_scenario.radio_map:
            groups.setdefault(link.ue_id, []).append(link)
        order = list(groups.values())
        rng.shuffle(order)
        links = []
        for group in order:
            rng.shuffle(group)
            links.extend(group)
        radio_map = RadioMap.from_links(links, network)
        policy = DMRAPolicy(pricing=loaded_scenario.pricing)
        soa = SoAMatchingEngine(policy).run(network, radio_map)
        reference = IterativeMatchingEngine(policy).run(network, radio_map)
        assert soa == reference
        assert soa.cloud_count > 0

    def test_unknown_ue_ids_raise(self):
        network, radio_map = _tiny()
        engine = SoAMatchingEngine(DMRAPolicy(pricing=PaperPricing()))
        with pytest.raises(UnknownEntityError, match="unknown UE id 7"):
            engine.run(network, radio_map, ue_ids=[9, 0, 7])


@pytest.mark.parametrize(
    "pricing",
    [PaperPricing(), FlatPricing(same_sp_price=4.0, cross_sp_price=9.0)],
)
def test_price_term_fast_paths_match_scalar_pricing(pricing):
    """The vectorized Eq. 9--10 fast paths must equal price_per_cru
    bit for bit — the SoA statics feed the same argmin the object
    engine's cached scalars feed."""
    from repro.core.soa import _price_term_array

    rng = np.random.default_rng(5)
    distances = rng.uniform(0.0, 500.0, size=64)
    same_sp = rng.integers(0, 2, size=64).astype(bool)
    got = _price_term_array(pricing, distances, same_sp)
    expected = [
        pricing.price_per_cru(float(d), bool(s))
        for d, s in zip(distances, same_sp)
    ]
    assert got.tolist() == expected
