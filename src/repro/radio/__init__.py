"""Radio substrate: path loss, SINR, OFDMA RRB math, and the radio map."""

from repro.radio.channel import (
    LinkMetrics,
    RadioMap,
    build_radio_map,
    register_array_rate_model,
)
from repro.radio.interference import (
    ConstantInterference,
    InterferenceModel,
    LoadInterference,
    NoInterference,
    interference_mw_array,
)
from repro.radio.mcs import (
    MCS_TABLE,
    McsEntry,
    mcs_for_sinr,
    mcs_rate_bps,
    mcs_rate_bps_array,
)
from repro.radio.ofdma import (
    per_rrb_rate_bps,
    per_rrb_rate_bps_array,
    rrb_budget,
    rrbs_required,
    rrbs_required_array,
)
from repro.radio.pathloss import (
    FreeSpacePathLoss,
    PaperPathLoss,
    PathLossModel,
    ShadowedPathLoss,
    loss_db_array,
)
from repro.radio.sinr import (
    LinkBudget,
    noise_power_mw,
    received_power_mw,
    thermal_noise_dbm,
)
from repro.radio.units import (
    db_to_linear,
    dbm_to_mw,
    khz,
    linear_to_db,
    mbps,
    mhz,
    mw_to_dbm,
)

__all__ = [
    "ConstantInterference",
    "FreeSpacePathLoss",
    "InterferenceModel",
    "LinkBudget",
    "LinkMetrics",
    "LoadInterference",
    "MCS_TABLE",
    "McsEntry",
    "NoInterference",
    "PaperPathLoss",
    "PathLossModel",
    "RadioMap",
    "ShadowedPathLoss",
    "build_radio_map",
    "register_array_rate_model",
    "interference_mw_array",
    "loss_db_array",
    "mcs_rate_bps_array",
    "per_rrb_rate_bps_array",
    "rrbs_required_array",
    "db_to_linear",
    "dbm_to_mw",
    "khz",
    "linear_to_db",
    "mbps",
    "mcs_for_sinr",
    "mcs_rate_bps",
    "mhz",
    "mw_to_dbm",
    "noise_power_mw",
    "thermal_noise_dbm",
    "per_rrb_rate_bps",
    "received_power_mw",
    "rrb_budget",
    "rrbs_required",
]
