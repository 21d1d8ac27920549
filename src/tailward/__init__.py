"""tailward: closed-form tail asymptotics with built-in numerical referees.

The library computes survival-function asymptotics for sums and products
of independent random variables and for suprema of self-similar Gaussian
processes with random power trends, and ships the quadrature / Monte Carlo
oracles that verify every closed form it emits.
"""

from . import errors
from .asymptotic_engine import (
    product_mixed_tail,
    product_power_tail,
    product_tail,
    sum_mixed_tail,
    sum_tail,
)
from .laplace_kernel import (
    LaplaceProblem,
    LaplaceResult,
    laplace_general,
    tail_integral_asymptotic,
    tail_integral_numeric,
)
from .montecarlo import (
    TailEstimate,
    conditional_sf,
    estimate_sf,
    wilson_interval,
)
from .oracle import ratio_table, sf_product_exact, sf_sum_exact
from .quadrature import log_quad
from .tail_model import (
    AsymptoticTail,
    DistributionModel,
    EdgePower,
    PowerTail,
    WeibullType,
    make_model,
    moment,
    parse_model_spec,
    power_order,
    power_substitute,
    sf_eval,
    tail_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "product_mixed_tail",
    "product_power_tail",
    "product_tail",
    "sum_mixed_tail",
    "sum_tail",
    "LaplaceProblem",
    "LaplaceResult",
    "laplace_general",
    "tail_integral_asymptotic",
    "tail_integral_numeric",
    "TailEstimate",
    "conditional_sf",
    "estimate_sf",
    "wilson_interval",
    "ratio_table",
    "sf_product_exact",
    "sf_sum_exact",
    "log_quad",
    "AsymptoticTail",
    "DistributionModel",
    "EdgePower",
    "PowerTail",
    "WeibullType",
    "make_model",
    "moment",
    "parse_model_spec",
    "power_order",
    "power_substitute",
    "sf_eval",
    "tail_to_dict",
    "__version__",
]
