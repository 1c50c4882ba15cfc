"""Unit tests for the SoA matching kernel plumbing.

Covers the pieces the parity property suite does not: kernel selection
(:func:`repro.core.soa.make_matching_engine`), the pluggable segmented-
argmin backend registry, the NaN regression guard across all three
engine implementations, incremental (pre-loaded ledger) runs, and the
segmented-argmin primitive itself against a straight Python loop.
"""

import importlib.util

import numpy as np
import pytest
from conftest import make_tiny_network

from repro.baselines.dcsp import DCSPPolicy
from repro.compute.cru import LedgerPool
from repro.core.dmra import DMRAPolicy
from repro.core.matching import IterativeMatchingEngine, RoundStats
from repro.core.matching_reference import ReferenceMatchingEngine
from repro.core.soa import (
    KERNELS,
    SoAMatchingEngine,
    _segmented_argmin_numpy,
    available_matching_backends,
    gather_candidates,
    make_matching_engine,
    register_matching_backend,
)
from repro.econ.pricing import FlatPricing, PaperPricing
from repro.errors import AllocationError, ConfigurationError, UnknownEntityError
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


class TestBackendRegistry:
    def test_numpy_and_numba_are_registered(self):
        names = available_matching_backends()
        assert "numpy" in names
        assert "numba" in names

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown matching backend"):
            SoAMatchingEngine(
                DMRAPolicy(pricing=PaperPricing()), backend="cuda"
            )

    @pytest.mark.skipif(
        importlib.util.find_spec("numba") is not None,
        reason="numba installed; the missing-dependency path is moot",
    )
    def test_numba_backend_fails_fast_when_numba_is_missing(self):
        with pytest.raises(ConfigurationError, match="numba"):
            SoAMatchingEngine(
                DMRAPolicy(pricing=PaperPricing()), backend="numba"
            )

    def test_registered_backend_is_used_and_preserves_parity(self):
        calls = []

        def counting_backend():
            def argmin(scores, starts):
                calls.append(scores.size)
                return _segmented_argmin_numpy(scores, starts)

            return argmin

        register_matching_backend("counting", counting_backend)
        try:
            network, radio_map = _tiny()
            baseline = SoAMatchingEngine(
                DMRAPolicy(pricing=PaperPricing())
            ).run(network, radio_map)
            plugged = SoAMatchingEngine(
                DMRAPolicy(pricing=PaperPricing()), backend="counting"
            ).run(network, radio_map)
            assert calls, "registered backend never invoked"
            assert plugged.grants == baseline.grants
            assert plugged.cloud_ue_ids == baseline.cloud_ue_ids
            assert plugged.rounds == baseline.rounds
        finally:
            from repro.core import soa

            soa._MATCHING_BACKENDS.pop("counting", None)


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
        got = _segmented_argmin_numpy(scores, starts)
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
        assert _segmented_argmin_numpy(scores, starts).tolist() == [0, 2]


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
        for radio_map in (built, RadioMap.from_links(links)):
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
        radio_map = RadioMap.from_links(links)
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


class TestNumbaBackendParity:
    """Skip-guarded parity for the JIT backend: runs only where the
    optional numba package is installed (the dedicated CI job installs
    it; the default environment skips).  The contract is exact
    agreement with the numpy backend — first index of each segment's
    minimum, +inf scores and ties included."""

    def _backend(self):
        pytest.importorskip("numba")
        from repro.core.soa import _numba_backend_factory

        return _numba_backend_factory()

    def test_segmented_argmin_matches_numpy_backend(self):
        segmented_argmin = self._backend()
        rng = np.random.default_rng(11)
        for _case in range(20):
            segments = rng.integers(1, 9, size=rng.integers(1, 12))
            starts = np.concatenate(([0], np.cumsum(segments)[:-1]))
            scores = rng.uniform(0.0, 100.0, size=int(segments.sum()))
            # Salt in ties and +inf (retired candidates) — the edge
            # cases a naive reduction gets wrong.
            scores[rng.random(scores.size) < 0.2] = np.inf
            scores[rng.random(scores.size) < 0.2] = 42.0
            got = segmented_argmin(scores, starts)
            expected = _segmented_argmin_numpy(scores, starts)
            assert got.tolist() == expected.tolist()

    def test_engine_parity_on_paper_scenario(self):
        pytest.importorskip("numba")
        from repro.sim.config import ScenarioConfig
        from repro.sim.scenario import build_scenario

        scenario = build_scenario(ScenarioConfig.paper(), 150, 4)
        policy = DMRAPolicy(pricing=scenario.pricing)
        numba_run = SoAMatchingEngine(policy, backend="numba").run(
            scenario.network, scenario.radio_map
        )
        numpy_run = SoAMatchingEngine(policy, backend="numpy").run(
            scenario.network, scenario.radio_map
        )
        assert numba_run.grants == numpy_run.grants
        assert numba_run.cloud_ue_ids == numpy_run.cloud_ue_ids
        assert numba_run.rounds == numpy_run.rounds
