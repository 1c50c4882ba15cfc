"""The per-pair scalar radio-map builder.

:func:`repro.radio.channel.build_radio_map` evaluates Eqs. 2--4 and
Eq. 18 as whole-array operations over every candidate pair.
:func:`build_radio_map_reference` is the original loop it replaced: one
``LinkMetrics`` per (UE, candidate BS) pair, in network order.  The
parity suites pin the vectorized map against it link for link (exact
integer demands and candidate sets, float fields to <=1e-9 relative).
Constant per-call attribute lookups (path-loss model, interference
model, noise power) are hoisted out of the pair loop; the arithmetic is
the seed's.
"""

from __future__ import annotations

from repro.model.network import MECNetwork
from repro.radio.channel import LinkMetrics, RadioMap, RateModel
from repro.radio.ofdma import per_rrb_rate_bps, rrbs_required
from repro.radio.sinr import LinkBudget
from repro.radio.units import db_to_linear, dbm_to_mw

__all__ = ["assert_link_parity", "build_radio_map_reference"]


def build_radio_map_reference(
    network: MECNetwork,
    budget: LinkBudget,
    rate_model: RateModel | None = None,
) -> RadioMap:
    """The radio map of ``network``, built one scalar link at a time."""
    if rate_model is None:
        rate_model = per_rrb_rate_bps
    loss_db = budget.pathloss.loss_db
    interference_mw = budget.interference.interference_mw
    noise_mw = budget.noise_mw
    bandwidth = budget.rrb_bandwidth_hz
    links: list[LinkMetrics] = []
    for ue in network.user_equipments:
        tx_power = ue.tx_power_dbm
        tx_mw = dbm_to_mw(tx_power)
        for bs_id in network.candidate_base_stations(ue.ue_id):
            distance = network.distance_m(ue.ue_id, bs_id)
            signal = tx_mw / db_to_linear(loss_db(distance))
            sinr = signal / (
                noise_mw + interference_mw(distance, (), tx_power)
            )
            rate = rate_model(bandwidth, sinr)
            if rate > 0:
                demand = rrbs_required(ue.rate_demand_bps, rate)
            else:
                demand = network.base_station(bs_id).rrb_capacity + 1
            links.append(
                LinkMetrics(
                    ue_id=ue.ue_id,
                    bs_id=bs_id,
                    distance_m=distance,
                    sinr_linear=sinr,
                    per_rrb_rate_bps=rate,
                    rrbs_required=demand,
                )
            )
    return RadioMap.from_links(links, network)


def assert_link_parity(
    vectorized: RadioMap, reference: RadioMap, rel_tol: float = 1e-9
) -> None:
    """Link for link: the same candidate set and integer RRB demands,
    and every float field within ``rel_tol`` relative."""
    assert len(vectorized) == len(reference), "link counts differ"
    ref_links = {(m.ue_id, m.bs_id): m for m in reference}
    vec_links = {(m.ue_id, m.bs_id): m for m in vectorized}
    assert vec_links.keys() == ref_links.keys(), "candidate sets differ"
    for key, ref in ref_links.items():
        vec = vec_links[key]
        assert vec.rrbs_required == ref.rrbs_required, f"rrbs differ at {key}"
        for field in ("distance_m", "sinr_linear", "per_rrb_rate_bps"):
            a, b = getattr(vec, field), getattr(ref, field)
            tolerance = rel_tol * max(abs(a), abs(b), 1e-30)
            assert abs(a - b) <= tolerance, f"{field} differs at {key}"
