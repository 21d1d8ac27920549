"""The public surface: its names, and its library entries on any double.

A name added to or removed from ``tailward.__all__`` or
``tailward.gp_extremes.__all__``, or an option added to or removed from a
command of ``tailward.cli``, shows as a diff in the tables below.  Each
swept entry returns log values that are finite or -inf, or raises a
``TailwardError`` that carries its exit code; a NaN, a +inf, another
exception or a ``RuntimeWarning`` fails.
"""

import argparse
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tailward
from tailward import cli, gp_extremes
from tailward.errors import TailwardError
from tailward.gp_extremes import TrendModel, trend_tail_asymptotic
from tailward.laplace_kernel import tail_integral_asymptotic, tail_integral_numeric

PUBLIC = [
    "AsymptoticTail", "DistributionModel", "EdgePower", "LaplaceProblem", "LaplaceResult",
    "PowerTail", "TailEstimate", "WeibullType", "__version__", "conditional_sf", "errors",
    "estimate_sf", "laplace_general", "log_quad", "make_model", "moment", "parse_model_spec",
    "power_order", "power_substitute", "product_mixed_tail", "product_power_tail",
    "product_tail", "ratio_table", "sf_eval", "sf_product_exact", "sf_sum_exact",
    "sum_mixed_tail", "sum_tail", "tail_integral_asymptotic", "tail_integral_numeric",
    "tail_to_dict", "wilson_interval",
]
GP_PUBLIC = [
    "McEstimate", "TrendConstants", "TrendModel", "TrendTailValue",
    "bm_exact_oracle", "bm_sup_ratio_moment", "econst_estimate", "eta_power_low_model",
    "fbm_path", "negate_model", "paths_to_csv", "pickands_estimate", "pickands_exact",
    "random_trend_tail", "read_paths_binary", "sup_exceedance_mc", "trend_constants",
    "trend_tail", "trend_tail_asymptotic", "write_paths_binary",
]


# Each command's option strings, and its positionals by name; one spelling
# per input.
CLI_OPTIONS = {
    "tail": ["--out", "--x", "--y", "op"],
    "verify": ["--fixture", "--grid", "--out", "--seed", "--tol", "--x", "--y", "target"],
    "gp constants": ["--c", "--model", "--out"],
    "gp tail": ["--model", "--out"],
    "gp verify": ["--fixture", "--out", "--seed"],
    "gp fbm": ["--H", "--T", "--format", "--out", "--paths", "--seed", "--steps"],
    "gp pickands": ["--T", "--alpha", "--out", "--paths", "--seed", "--steps"],
    "gp econst": ["--H", "--T", "--alpha", "--beta", "--out", "--paths", "--seed", "--steps"],
}


@pytest.mark.parametrize("module,names", [(tailward, PUBLIC), (gp_extremes, GP_PUBLIC)])
def test_public_names_are_pinned_and_resolve(module, names):
    assert sorted(module.__all__) == names
    for name in names:
        assert hasattr(module, name), name


def _commands(parser, path=()):
    """{command path: sorted option strings and positionals} of each leaf command."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(path): sorted(
            name for a in parser._actions if not isinstance(a, argparse._HelpAction)
            for name in a.option_strings or [a.dest])}
    return {key: names for a in subs for word, sub in a.choices.items()
            for key, names in _commands(sub, path + (word,)).items()}


def test_command_line_options_are_pinned():
    assert _commands(cli.build_parser()) == CLI_OPTIONS


def _answers_or_refuses(call):
    try:
        logs = call()
    except TailwardError as exc:
        assert exc.exit_code in (2, 3, 4)
        return
    for v in logs:
        assert math.isfinite(v) or v == -math.inf, v


# Half the draws are positive (subnormals to +inf), where the entries
# compute; the rest are any double, NaN included.
_X = st.one_of(st.floats(min_value=0.0, exclude_min=True), st.floats())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(u=_X, alpha=_X, beta=_X, mu=_X, K=_X)
@example(u=1.0, alpha=1e300, beta=0.0, mu=1e300, K=1.0)  # once NaN
def test_tail_integral_asymptotic_answers_or_refuses(u, alpha, beta, mu, K):
    _answers_or_refuses(lambda: [tail_integral_asymptotic(u, alpha, beta, mu, K)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(u=_X, alpha=_X, beta=_X, mu=_X, K=_X, delta=_X)
@example(u=5e-324, alpha=5e-324, beta=-1.0, mu=1.0, K=1.0, delta=1.0)  # once OverflowError
@example(u=1.5, alpha=2.0, beta=1.0, mu=1.7e308, K=0.5, delta=3.0)  # once RuntimeWarning
def test_tail_integral_numeric_answers_or_refuses(u, alpha, beta, mu, K, delta):
    _answers_or_refuses(lambda: [tail_integral_numeric(u, alpha, beta, mu, K, delta)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(H=st.floats(0.0, 1.0), beta=_X, alpha_loc=st.one_of(st.floats(0.0, 2.0), _X), d=_X,
       pickands=st.one_of(st.none(), _X), c=_X, u=_X)
@example(H=0.5, beta=1.0, alpha_loc=1.0, d=1.0, pickands=None, c=1.0, u=math.inf)  # once NaN
@example(H=0.5, beta=1.0, alpha_loc=1.0, d=1.0, pickands=None, c=1.0, u=math.nan)  # once NaN
@example(H=0.5, beta=3.0, alpha_loc=1.0, d=1.0, pickands=5e-324, c=5e-324,
         u=5e-324)  # once ValueError
def test_trend_tail_asymptotic_answers_or_refuses(H, beta, alpha_loc, d, pickands, c, u):
    def call():
        model = TrendModel(H, beta, alpha_loc, (1.0, d), pickands=pickands)
        value = trend_tail_asymptotic(model, c, u)
        return [value.log_f, value.log_g]

    _answers_or_refuses(call)


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Each registry family with support in [0, inf), its parameters drawn over
# the finite doubles the family's spec allows.
_HALF_LINE_LAWS = st.one_of(
    st.builds(lambda K, a: ("weibull", {"K": K, "alpha": a}), _POSITIVE, _POSITIVE),
    st.builds(lambda C, a: ("pareto", {"C": C, "alpha": a}), _POSITIVE, _POSITIVE),
    st.builds(lambda s, mu: ("edge", {"sigma": s, "mu": mu}),
              st.floats(min_value=1.0, allow_infinity=False), _POSITIVE),
    st.builds(lambda m, s: ("lognormal", {"m": m, "s": s}), _FINITE, _POSITIVE),
    st.builds(lambda c: ("constant", {"c": c}), st.floats(min_value=0.0, allow_infinity=False)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(law=_HALF_LINE_LAWS, alpha=_X)
@example(law=("weibull", {"K": 1.0, "alpha": 1.0}), alpha=200.0)  # once OverflowError
@example(law=("lognormal", {"m": 0.0, "s": 1.0}), alpha=40.0)  # once OverflowError
@example(law=("constant", {"c": 0.0}), alpha=2.0)  # the zero law: every moment is 0
def test_moment_answers_or_refuses(law, alpha):
    def call():
        model = tailward.make_model({"family": law[0], "params": law[1]})
        value = tailward.moment(model, alpha)
        assert value > 0.0 or model.support[1] == 0.0, value
        return [value]

    _answers_or_refuses(call)
