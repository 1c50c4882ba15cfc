"""The slot-major Lagrangian inner solve against its CSR oracle, by property.

``repro.bound.lagrangian._inner_solve`` walks the candidate pairs slot
by slot; ``tests/oracles/lagrangian.py`` keeps the per-UE-row
``np.maximum.reduceat`` solve it replaced.  Both must return the same
dual value and the same CRU / RRB usage, bit for bit, for every problem,
multiplier vector and ``chunk_ues`` -- and so must a whole subgradient
run driven by either.

Hypothesis draws small paper scenarios (0 to 60 UEs), optionally with
``distance_weight=0`` so that a UE's candidates of one SP tie exactly,
and a radio map with some UEs' links dropped (rows with no candidate)
and some links made infeasible.  Multipliers come from a coarse grid,
which makes ties between reduced profits common: ``nu`` on every BS,
``lam`` zero, sparse or dense.
"""

import dataclasses
from functools import lru_cache
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import lagrangian as oracle

import repro.bound.lagrangian as lagrangian
from repro.bound import compile_bound_problem, lagrangian_bound
from repro.bound.lagrangian import _inner_solve, _Workspace
from repro.econ.pricing import PaperPricing
from repro.radio.channel import RadioMap
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario

ORACLE = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Multiplier values: a coarse grid, so reduced profits often tie.
GRID = np.array([0.0, 0.5, 1.0, 2.0, 4.0])

problems = st.fixed_dictionaries(
    {
        "ue_count": st.one_of(st.sampled_from([0, 1]), st.integers(2, 60)),
        "seed": st.integers(0, 10_000),
        "placement": st.sampled_from(["regular", "random"]),
        "flat_distance": st.booleans(),
        "dropped": st.sampled_from([0.0, 0.2]),
        "infeasible": st.sampled_from([0.0, 0.1]),
    }
)


@lru_cache(maxsize=64)
def _problem(ue_count, seed, placement, flat_distance, dropped, infeasible):
    scenario = build_scenario(
        ScenarioConfig.paper(placement=placement), ue_count, seed
    )
    pricing = PaperPricing(distance_weight=0.0) if flat_distance else (
        scenario.pricing
    )
    rng = np.random.default_rng(seed)
    gone = {
        ue.ue_id for ue in scenario.network.user_equipments
        if rng.random() < dropped
    }
    links = [
        dataclasses.replace(link, rrbs_required=0)
        if rng.random() < infeasible else link
        for link in scenario.radio_map
        if link.ue_id not in gone
    ]
    radio_map = RadioMap.from_links(links)
    return compile_bound_problem(scenario.network, radio_map, pricing)


def problem_of(params):
    return _problem(
        params["ue_count"],
        params["seed"],
        params["placement"],
        params["flat_distance"],
        params["dropped"],
        params["infeasible"],
    )


def chunk_of(kind, problem, odd):
    if kind == "one":
        return 1
    if kind == "odd":
        return 2 * odd + 1
    return max(problem.n_ue, 1) + odd


def multipliers(problem, seed, lam_kind):
    rng = np.random.default_rng(seed)
    nu = rng.choice(GRID, size=problem.cap_rrb.size)
    lam = rng.choice(GRID, size=problem.cap_cru.size)
    if lam_kind == "zero":
        lam[:] = 0.0
    elif lam_kind == "sparse":
        lam[rng.random(lam.size) >= 0.05] = 0.0
    return lam, nu


def assert_same_solve(problem, lam, nu, chunk_ues):
    got = _inner_solve(problem, lam, nu, chunk_ues, _Workspace(problem))
    want = oracle.inner_solve(oracle.csr_view(problem), lam, nu, chunk_ues)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])


@ORACLE
@given(
    params=problems,
    multiplier_seed=st.integers(0, 2**32 - 1),
    lam_kind=st.sampled_from(["zero", "sparse", "dense"]),
    chunk_kind=st.sampled_from(["one", "odd", "all"]),
    odd=st.integers(0, 20),
)
def test_inner_solve_equals_csr_oracle(
    params, multiplier_seed, lam_kind, chunk_kind, odd
):
    problem = problem_of(params)
    lam, nu = multipliers(problem, multiplier_seed, lam_kind)
    chunk_ues = chunk_of(chunk_kind, problem, odd)
    assert_same_solve(problem, lam, nu, chunk_ues)
    # At zero multipliers every row's best is its best raw profit.
    assert_same_solve(problem, np.zeros_like(lam), np.zeros_like(nu), chunk_ues)


@ORACLE
@given(
    params=problems,
    target_fraction=st.sampled_from([None, 0.5, 0.9, 0.99]),
    chunk_kind=st.sampled_from(["one", "odd", "all"]),
    odd=st.integers(0, 20),
)
def test_subgradient_run_equals_oracle_driven_run(
    params, target_fraction, chunk_kind, odd
):
    problem = problem_of(params)
    chunk_ues = chunk_of(chunk_kind, problem, odd)
    target = None
    if target_fraction is not None:
        blind = lagrangian_bound(problem, max_iterations=0)
        target = target_fraction * blind.upper_bound
    run = dict(max_iterations=40, target=target, chunk_ues=chunk_ues)

    got = lagrangian_bound(problem, **run)
    csr = oracle.csr_view(problem)
    with mock.patch.object(
        lagrangian,
        "_inner_solve",
        lambda _problem, lam, nu, chunk, _work: oracle.inner_solve(
            csr, lam, nu, chunk
        ),
    ):
        want = lagrangian_bound(problem, **run)
    assert got == want
