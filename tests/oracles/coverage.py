"""The dense coverage filter ``MECNetwork``'s spatial-grid pairs replaced.

The network finds its coverage pairs with a ``SpatialGrid`` query and
keeps them, and the candidate pairs among them, as CSR arrays.  The
straightforward form is the full UE x BS distance matrix filtered by
``distance <= coverage_radius_m``, and for candidates also by the
hosting mask ``z_{i,j}`` of each UE's service: :func:`dense_filter`.
"""

from __future__ import annotations

import numpy as np

from repro.model.geometry import pairwise_distances_m
from repro.model.network import MECNetwork

__all__ = ["assert_pairs_are_dense_filter", "dense_filter"]


def dense_filter(
    network: MECNetwork,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(distances, covered, candidate)``: the ``(n_ue, n_bs)`` distance
    matrix, the coverage mask and the candidate mask (``B_u`` rows)."""
    bs_side = network.bs_columns()
    distances = pairwise_distances_m(network.ue_columns().xy, bs_side.bs_xy)
    covered = distances <= network.coverage_radius_m
    hosting = bs_side.bs_cru_capacity.T > 0
    candidate = covered & hosting[network.columns().ue_service]
    return distances, covered, candidate


def assert_pairs_are_dense_filter(network: MECNetwork) -> None:
    """The network's coverage and candidate CSR equal the dense filter:
    the same pairs in row-major order, with the same float64 distances."""
    distances, covered, candidate = dense_filter(network)
    for kind, mask in (("_cov", covered), ("_cand", candidate)):
        rows, cols = np.nonzero(mask)
        counts = np.cumsum(mask.sum(axis=1)).tolist()
        assert getattr(network, kind + "_indptr").tolist() == [0, *counts]
        assert getattr(network, kind + "_cols").tolist() == cols.tolist()
        assert getattr(network, kind + "_dists").tolist() == (
            distances[rows, cols].tolist()
        )
