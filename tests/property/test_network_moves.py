"""Property tests: moving UEs patches exactly the moved rows.

``MECNetwork.with_moved_ues`` re-queries only the moved UEs against the
BS spatial grid and splices their rows into the coverage and candidate
CSR; ``RadioMap.with_updated_ues`` re-evaluates only their links.  The
contract is a fresh build: a network constructed from the moved
positions, and a radio map built on it, must answer every query the
same, bit for bit.  Movers land anywhere in the region, on a grid cell
edge, or at exactly the coverage radius of a BS (a pair whose computed
distance equals the radius is in coverage).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.coverage import assert_pairs_are_dense_filter, dense_filter

from repro.model.geometry import Point
from repro.model.network import MECNetwork
from repro.radio import channel
from repro.radio.channel import build_radio_map
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario

MOVES = settings(max_examples=40, deadline=None)

CSR_FIELDS = tuple(
    f"_{kind}_{part}"
    for kind in ("cov", "cand")
    for part in ("indptr", "cols", "dists")
)


def _at_radius(bs: Point, radius: float, axis: int, sign: float) -> Point:
    """A point on one axis through ``bs`` whose computed distance to it
    is exactly ``radius`` (nudged by ulps where the sum rounds)."""
    coords = [bs.x, bs.y]
    value = coords[axis] + sign * radius
    for _ in range(8):
        if abs(value - coords[axis]) == radius:
            break
        step = np.inf if abs(value - coords[axis]) < radius else -np.inf
        value = float(np.nextafter(value, step * sign))
    coords[axis] = value
    return Point(*coords)


@st.composite
def _target(draw, network: MECNetwork):
    region = network.region
    cell = network._grid._cell_size
    kind = draw(st.sampled_from(["anywhere", "cell_edge", "radius"]))
    if kind == "radius":
        bs = draw(st.sampled_from(network.base_stations)).position
        return _at_radius(
            bs,
            network.coverage_radius_m,
            draw(st.sampled_from([0, 1])),
            draw(st.sampled_from([-1.0, 1.0])),
        )
    x = draw(st.floats(region.x_min, region.x_max))
    y = draw(st.floats(region.y_min, region.y_max))
    if kind == "cell_edge":
        edge = cell * draw(st.integers(0, int(region.x_max // cell) + 1))
        # On the edge, or one ulp to either side of it.
        side = draw(st.sampled_from([None, -np.inf, np.inf]))
        if side is not None:
            edge = float(np.nextafter(edge, side))
        which = draw(st.sampled_from(["x", "y", "both"]))
        x = edge if which in ("x", "both") else x
        y = edge if which in ("y", "both") else y
    return Point(x, y)


def _fresh(network: MECNetwork, moved: MECNetwork) -> MECNetwork:
    """The network built from scratch at the moved positions."""
    return MECNetwork(
        providers=network.providers,
        base_stations=network.base_stations,
        user_equipments=moved.user_equipments,
        services=network.services,
        region=network.region,
        coverage_radius_m=network.coverage_radius_m,
    )


@MOVES
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    ue_count=st.integers(min_value=1, max_value=60),
    placement=st.sampled_from(["regular", "random"]),
    movers=st.sampled_from(["none", "one", "some", "all"]),
    data=st.data(),
)
def test_move_equals_a_fresh_network(seed, ue_count, placement, movers, data):
    config = ScenarioConfig.paper(placement=placement)
    scenario = build_scenario(config, ue_count, seed)
    network = scenario.network
    ue_ids = network.columns().ue_ids.tolist()
    count = {
        "none": 0,
        "one": 1,
        "some": data.draw(st.integers(1, ue_count)),
        "all": ue_count,
    }[movers]
    chosen = data.draw(st.permutations(ue_ids))[:count]
    targets = {ue_id: data.draw(_target(network)) for ue_id in chosen}

    moved = network.with_moved_ues(targets)
    fresh = _fresh(network, moved)
    for ue in fresh.user_equipments:
        want = targets.get(ue.ue_id, network.user_equipment(ue.ue_id).position)
        assert ue.position == want

    for name in CSR_FIELDS:
        got, want = getattr(moved, name), getattr(fresh, name)
        assert got.dtype == want.dtype, name
        assert got.tolist() == want.tolist(), name
    for got, want in zip(moved.candidate_pairs(), fresh.candidate_pairs()):
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    assert_pairs_are_dense_filter(moved)
    distances, _, _ = dense_filter(fresh)
    n_ue, n_bs = distances.shape
    rows = np.repeat(np.arange(n_ue), n_bs)
    cols = np.tile(np.arange(n_bs), n_ue)
    assert moved.pair_distances_m(rows, cols).tolist() == (
        distances.ravel().tolist()
    )
    bs_ids = [bs.bs_id for bs in network.base_stations]
    for row, ue_id in enumerate(ue_ids):
        assert moved.covering_base_stations(ue_id) == (
            fresh.covering_base_stations(ue_id)
        )
        assert moved.candidate_base_stations(ue_id) == (
            fresh.candidate_base_stations(ue_id)
        )
        for col, bs_id in enumerate(bs_ids):
            assert moved.distance_m(ue_id, bs_id) == distances[row, col]

    budget, rate_model = config.link_budget(), config.rate_model_fn()
    with pytest.MonkeyPatch.context() as patch:
        # Every move takes the patch route, even when all UEs moved.
        patch.setattr(channel, "REBUILD_FRACTION", 1.0)
        updated = scenario.radio_map.with_updated_ues(
            moved, budget, targets.keys(), rate_model=rate_model,
        )
    rebuilt = build_radio_map(fresh, budget, rate_model=rate_model)
    assert list(updated) == list(rebuilt)
    for ue_id in ue_ids:
        assert updated.links_of_ue(ue_id) == rebuilt.links_of_ue(ue_id)
