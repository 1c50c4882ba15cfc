"""Graph-theoretic view of an association (networkx).

Builds the bipartite UE--BS graph of a realized assignment and derives
structure metrics the flat tables hide: per-BS load distribution, the
SP mixing matrix (who serves whose subscribers), and load balance.
networkx is imported by :func:`association_graph`, the one function
that builds a graph, so importing :mod:`repro.analysis` does not need it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.core.assignment import Assignment
from repro.errors import ConfigurationError
from repro.model.network import MECNetwork

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["association_graph", "GraphReport", "graph_report"]


def association_graph(
    network: MECNetwork, assignment: Assignment
) -> nx.Graph:
    """The bipartite association graph.

    Nodes: ``("ue", id)`` and ``("bs", id)`` with ``sp`` attributes;
    edges: one per grant, attributed with the granted CRUs and RRBs.
    BSs appear even when idle, so degree-0 BSs are visible; cloud-bound
    UEs appear as isolated UE nodes.
    """
    import networkx as nx

    graph = nx.Graph()
    for bs in network.base_stations:
        graph.add_node(("bs", bs.bs_id), kind="bs", sp=bs.sp_id)
    for ue in network.user_equipments:
        graph.add_node(("ue", ue.ue_id), kind="ue", sp=ue.sp_id)
    for grant in assignment.grants:
        graph.add_edge(
            ("ue", grant.ue_id),
            ("bs", grant.bs_id),
            crus=grant.crus,
            rrbs=grant.rrbs,
        )
    return graph


@dataclass(frozen=True)
class GraphReport:
    """Structural summary of one association graph."""

    bs_loads: Mapping[int, int]  # bs_id -> served UE count
    max_bs_load: int
    min_bs_load: int
    idle_bs_count: int
    isolated_ue_count: int  # cloud-bound
    sp_mixing: Mapping[tuple[int, int], int]  # (ue_sp, bs_sp) -> edges
    same_sp_edge_fraction: float

    @property
    def load_imbalance(self) -> float:
        """Max BS load over mean positive load (1.0 = perfectly even)."""
        positive = [v for v in self.bs_loads.values() if v > 0]
        if not positive:
            return 1.0
        return self.max_bs_load / (sum(positive) / len(positive))


def graph_report(network: MECNetwork, assignment: Assignment) -> GraphReport:
    """Compute the :class:`GraphReport` for one assignment."""
    if network.bs_count == 0:
        raise ConfigurationError("network has no base stations")
    graph = association_graph(network, assignment)
    bs_loads = {
        bs.bs_id: graph.degree(("bs", bs.bs_id))
        for bs in network.base_stations
    }
    mixing: dict[tuple[int, int], int] = {}
    same_sp_edges = 0
    for ue_node, bs_node in graph.edges():
        if ue_node[0] != "ue":
            ue_node, bs_node = bs_node, ue_node
        key = (graph.nodes[ue_node]["sp"], graph.nodes[bs_node]["sp"])
        mixing[key] = mixing.get(key, 0) + 1
        if key[0] == key[1]:
            same_sp_edges += 1
    edge_count = graph.number_of_edges()
    isolated_ues = sum(
        1
        for ue in network.user_equipments
        if graph.degree(("ue", ue.ue_id)) == 0
    )
    return GraphReport(
        bs_loads=bs_loads,
        max_bs_load=max(bs_loads.values()),
        min_bs_load=min(bs_loads.values()),
        idle_bs_count=sum(1 for v in bs_loads.values() if v == 0),
        isolated_ue_count=isolated_ues,
        sp_mixing=mixing,
        same_sp_edge_fraction=(
            same_sp_edges / edge_count if edge_count else 0.0
        ),
    )
