"""Property test: batch networks carry the dense-filter pairs.

``BatchNetworkBuilder.network_for`` stamps out one network per UE batch
on a fixed deployment.  It shares the template's BS side, the BS grid
and the grid's candidate table included, and runs only the batch's own
coverage query; a move of a batch network re-queries the same grid.
Whatever the batch, every such network's coverage and candidate CSR
must be exactly the dense filter (``oracles.coverage``), and the table
must be built once for the whole stream of batches.  Batches hold one
UE, UEs in far-apart cells, UEs outside every cell the table lists,
or random subsets, on deployments with full or partial hosting (where
the candidate pairs are a strict subset of the coverage pairs).
"""

from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.coverage import assert_pairs_are_dense_filter

from repro.model import geometry
from repro.model.batchnet import BatchNetworkBuilder
from repro.model.geometry import Point
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario

BATCHES = settings(max_examples=30, deadline=None)


def _far_point(draw, region, radius) -> Point:
    """A point at least two radii outside the region, so outside every
    cell a BS is filed in."""
    distance = draw(st.floats(2.0 * radius, 1e6))
    side = draw(st.sampled_from(["left", "right", "below", "above"]))
    along = draw(st.floats(region.x_min, region.x_max))
    return {
        "left": Point(region.x_min - distance, along),
        "right": Point(region.x_max + distance, along),
        "below": Point(along, region.y_min - distance),
        "above": Point(along, region.y_max + distance),
    }[side]


@BATCHES
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    hosted_fraction=st.sampled_from([1.0, 0.5, 0.34]),
    kinds=st.lists(
        st.sampled_from(["one", "far_apart", "outside", "subset"]),
        min_size=1, max_size=4,
    ),
    data=st.data(),
)
def test_batch_networks_are_the_dense_filter(
    seed, hosted_fraction, kinds, data
):
    config = ScenarioConfig.paper(
        placement="random", hosted_fraction=hosted_fraction
    )
    network = build_scenario(config, 40, seed).network
    region, radius = network.region, network.coverage_radius_m
    ues = list(network.user_equipments)
    corners = [
        Point(region.x_min, region.y_min), Point(region.x_max, region.y_max),
        Point(region.x_min, region.y_max), Point(region.x_max, region.y_min),
    ]

    with mock.patch.object(
        geometry, "_cell_table", wraps=geometry._cell_table
    ) as builds:
        builder = BatchNetworkBuilder(
            providers=network.providers,
            base_stations=network.base_stations,
            services=network.services,
            region=region,
            coverage_radius_m=radius,
        )
        for kind in kinds:
            if kind == "one":
                batch = [data.draw(st.sampled_from(ues))]
            elif kind == "far_apart":
                batch = [
                    replace(ue, position=corner)
                    for ue, corner in zip(ues[:4], corners)
                ]
            elif kind == "outside":
                batch = [
                    replace(ues[0], position=_far_point(data.draw, region, radius)),
                    *ues[1:3],
                ]
            else:
                batch = sorted(
                    data.draw(st.sets(st.sampled_from(ues), min_size=1)),
                    key=lambda ue: ue.ue_id,
                )
            batch_net = builder.network_for(batch)
            mover = data.draw(st.sampled_from(batch))
            moved = batch_net.with_moved_ues(
                {mover.ue_id: data.draw(st.sampled_from(
                    [_far_point(data.draw, region, radius), *corners,
                     ues[-1].position]
                ))}
            )
            for net in (batch_net, moved):
                assert net._grid is builder.template._grid
                assert_pairs_are_dense_filter(net)
                # The candidate arrays are the coverage ones exactly when
                # every coverage pair is a candidate.
                shared = net._cand_cols is net._cov_cols
                assert shared == (len(net._cand_cols) == len(net._cov_cols))
                pair_bytes = 16 * (len(net._cov_cols) + (
                    0 if shared else len(net._cand_cols)
                ))
                indptr_bytes = 8 * (net.ue_count + 1) * (1 if shared else 2)
                assert net.estimated_geometry_bytes() == (
                    pair_bytes + indptr_bytes
                )
    # One table for the deployment: the zero-UE template queries
    # nothing, the first batch builds it, every later query reads it.
    assert builds.call_count == 1
