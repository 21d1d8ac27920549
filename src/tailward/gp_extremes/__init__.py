"""Supremum tails of self-similar Gaussian processes with random trends."""

from ..tail_model import negate_model
from .bm_oracle import bm_exact_oracle, eta_power_low_model
from .estimators import (
    McEstimate,
    econst_estimate,
    pickands_estimate,
    sup_exceedance_mc,
)
from .fbm import (
    fbm_path,
    paths_to_csv,
    read_paths_binary,
    write_paths_binary,
)
from .trend import (
    TrendConstants,
    TrendModel,
    TrendTailValue,
    bm_sup_ratio_moment,
    pickands_exact,
    random_trend_tail,
    trend_constants,
    trend_tail,
    trend_tail_asymptotic,
)

__all__ = [
    "bm_exact_oracle",
    "eta_power_low_model",
    "negate_model",
    "McEstimate",
    "econst_estimate",
    "pickands_estimate",
    "sup_exceedance_mc",
    "fbm_path",
    "paths_to_csv",
    "read_paths_binary",
    "write_paths_binary",
    "TrendConstants",
    "TrendModel",
    "TrendTailValue",
    "bm_sup_ratio_moment",
    "pickands_exact",
    "random_trend_tail",
    "trend_constants",
    "trend_tail",
    "trend_tail_asymptotic",
]
