"""Property tests: every radio map has the one pair layout.

A map is a CSR over its network's UE rows and BS columns: row ``r``'s
links carry row ``r``'s UE id, and its columns ascend strictly and are
among the network's candidate columns of that row.  ``build_radio_map``
and ``with_updated_ues`` keep the network's own candidate CSR arrays;
``from_links`` places scrambled or duplicated links on the network's
rows once, keeping each UE's last run and, within it, each BS's last
link.  Hypothesis draws small paper scenarios, optionally with
relabelled ids (whose columns are then out of ``bs_id`` order), and
each way of making a map.  Every lookup (``link``, ``has_link``,
``ue_slice``, ``gather_candidates``) must agree with the scalar build
in ``tests/oracles/radio_map.py``, and a network over other rows or
columns must raise the contract error.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.radio_map import build_radio_map_reference

from repro.core.soa import gather_candidates
from repro.errors import ConfigurationError, UnknownEntityError
from repro.model.geometry import Point
from repro.model.network import MECNetwork
from repro.radio.channel import REBUILD_FRACTION, RadioMap, build_radio_map
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario

LAYOUT = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

MAKERS = ("built", "few_moved", "many_moved", "scrambled", "duplicated")


def _relabelled(network: MECNetwork) -> MECNetwork:
    """Sparse ids whose order differs from the entity order."""
    return dataclasses.replace(
        network,
        user_equipments=[
            dataclasses.replace(ue, ue_id=3 * ue.ue_id + 5)
            for ue in reversed(network.user_equipments)
        ],
        base_stations=[
            dataclasses.replace(bs, bs_id=2 * bs.bs_id + 11)
            for bs in reversed(network.base_stations)
        ],
    )


def _moved(network: MECNetwork, count: int, rng: random.Random):
    """``network`` with ``count`` UEs moved anywhere in the region."""
    region = network.region
    ue_ids = rng.sample([ue.ue_id for ue in network.user_equipments], count)
    return network.with_moved_ues({
        ue_id: Point(
            rng.uniform(region.x_min, region.x_max),
            rng.uniform(region.y_min, region.y_max),
        )
        for ue_id in ue_ids
    }), ue_ids


def _last_runs(links) -> dict[int, dict[int, object]]:
    """Per UE, the links of its last run, the last one per BS."""
    runs: dict[int, dict[int, object]] = {}
    previous = None
    for link in links:
        if link.ue_id != previous:
            runs[link.ue_id] = {}
        runs[link.ue_id][link.bs_id] = link
        previous = link.ue_id
    return runs


def _make(maker: str, network, config, rng: random.Random):
    """``(network, radio_map, expected)``: the map made by ``maker``,
    the network it is over, and its links per UE and BS."""
    budget, rate_model = config.link_budget(), config.rate_model_fn()
    radio_map = build_radio_map(network, budget, rate_model=rate_model)
    if maker.endswith("moved") and network.ue_count:
        # Up to the rebuild crossover the rows are spliced; past it the
        # map is rebuilt.
        crossover = int(REBUILD_FRACTION * network.ue_count)
        count = (
            rng.randint(1, max(1, min(3, crossover))) if maker == "few_moved"
            else rng.randint(crossover + 1, network.ue_count)
        )
        network, ue_ids = _moved(network, count, rng)
        radio_map = radio_map.with_updated_ues(
            network, budget, ue_ids, rate_model=rate_model
        )
    reference = list(build_radio_map_reference(network, budget, rate_model))
    if maker in ("scrambled", "duplicated"):
        links = list(reference)
        if maker == "scrambled":
            rng.shuffle(links)
        for _ in range(rng.randint(1, 4) if links else 0):
            link = rng.choice(links)
            again = dataclasses.replace(
                link, rrbs_required=link.rrbs_required + rng.randint(1, 3)
            )
            links.insert(rng.randint(0, len(links)), again)
        radio_map = RadioMap.from_links(links, network)
        return network, radio_map, _last_runs(links)
    return network, radio_map, _last_runs(reference)


def _assert_close(got, want) -> None:
    assert (got.ue_id, got.bs_id) == (want.ue_id, want.bs_id)
    assert got.rrbs_required == want.rrbs_required
    for field in ("distance_m", "sinr_linear", "per_rrb_rate_bps"):
        a, b = getattr(got, field), getattr(want, field)
        assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-30), field


@LAYOUT
@given(
    ue_count=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=1000),
    crowded=st.booleans(),
    relabel=st.booleans(),
    maker=st.sampled_from(MAKERS),
    data=st.data(),
)
def test_every_map_has_the_one_layout(
    ue_count, seed, crowded, relabel, maker, data
):
    config = ScenarioConfig.paper()
    if crowded:
        # Each BS hosts half the services: candidates are a strict
        # subset of the covering BSs.
        config = config.with_(bs_per_sp=2, hosted_fraction=0.5)
    network = build_scenario(config, ue_count, seed).network
    if relabel:
        network = _relabelled(network)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    network, radio_map, expected = _make(maker, network, config, rng)

    indptr, cols = radio_map.csr(network)
    if maker in ("built", "few_moved", "many_moved"):
        assert indptr is network._cand_indptr
        assert cols is network._cand_cols
    ue_ids = [ue.ue_id for ue in network.user_equipments]
    bs_ids = [bs.bs_id for bs in network.base_stations]
    assert len(indptr) == len(ue_ids) + 1 and indptr[-1] == len(radio_map)
    for row, ue_id in enumerate(ue_ids):
        start, stop = int(indptr[row]), int(indptr[row + 1])
        run = cols[start:stop].tolist()
        assert radio_map.ue_ids[start:stop].tolist() == [ue_id] * len(run)
        assert radio_map.bs_ids[start:stop].tolist() == [bs_ids[c] for c in run]
        assert all(a < b for a, b in zip(run, run[1:]))
        lo, hi = network._cand_indptr[row:row + 2].tolist()
        assert set(run) <= set(network._cand_cols[lo:hi].tolist())

        # Lookups agree with the scalar build, link for link.
        links = expected.get(ue_id, {})
        assert radio_map.ue_slice(ue_id) == (start, stop)
        assert [m.bs_id for m in radio_map.links_of_ue(ue_id)] == sorted(
            links, key=bs_ids.index
        )
        for bs_id in bs_ids:
            assert radio_map.has_link(ue_id, bs_id) == (bs_id in links)
            if bs_id in links:
                _assert_close(radio_map.link(ue_id, bs_id), links[bs_id])
                assert radio_map.rrbs_required(ue_id, bs_id) == (
                    links[bs_id].rrbs_required
                )
            else:
                with pytest.raises(UnknownEntityError):
                    radio_map.link(ue_id, bs_id)
    assert sum(map(len, expected.values())) == len(radio_map)

    # The gather slices each target's run out of the CSR.
    targets = [u for u in ue_ids if data.draw(st.booleans())]
    for wanted in (None, targets):
        gathered = gather_candidates(network, radio_map, wanted)
        order = sorted(ue_ids if wanted is None else targets)
        assert gathered.ue_ids.tolist() == order
        spans = [radio_map.ue_slice(u) for u in order]
        assert gathered.links.tolist() == [
            p for start, stop in spans for p in range(start, stop)
        ]
        assert gathered.pair_bs.tolist() == cols[gathered.links].tolist()
        assert gathered.row_of_pair.tolist() == [
            r for r, (start, stop) in enumerate(spans)
            for _ in range(start, stop)
        ]

    # A network over other rows or columns is refused, never remapped.
    others = [dataclasses.replace(
        network, base_stations=network.base_stations[::-1]
    )]
    if len(ue_ids) > 1:
        others.append(dataclasses.replace(
            network, user_equipments=network.user_equipments[::-1]
        ))
    for other in others:
        with pytest.raises(ConfigurationError, match="other UE rows"):
            radio_map.csr(other)
        with pytest.raises(ConfigurationError, match="other UE rows"):
            gather_candidates(other, radio_map)

    # Every (row, column) pair of the network, found by its row's run.
    rows = np.repeat(np.arange(len(ue_ids)), len(bs_ids))
    columns = np.tile(np.arange(len(bs_ids)), len(ue_ids))
    where = {
        (row, int(cols[p])): p
        for row in range(len(ue_ids))
        for p in range(indptr[row], indptr[row + 1])
    }
    assert radio_map.positions(network, rows, columns).tolist() == [
        where.get(pair, -1) for pair in zip(rows.tolist(), columns.tolist())
    ]
