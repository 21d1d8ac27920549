"""One way in for a caller's numbers: ``errors.as_number`` and ``errors.as_integer``.

Every law parameter, trend field, slope, level and integration limit is read
by ``as_number``; every count and seed by ``as_integer``.  A law string is
``family`` or ``family(p1, ..., pn)`` with the family's parameters in order.
"""

import ast
import inspect
import json
import math
import textwrap

import numpy as np
import pytest

import tailward as tw
from tailward import errors, laplace_kernel, montecarlo, oracle, quadrature, tail_model
from tailward import gp_extremes as gp
from tailward.errors import SpecError, as_integer, as_number
from tailward.gp_extremes import bm_oracle, estimators, fbm, trend

_NAN = math.nan


@pytest.mark.parametrize("value,finite,number", [
    (2, True, 2.0), (-1.5, True, -1.5), (np.float64(0.25), True, 0.25), (np.int64(3), True, 3.0),
    (math.inf, False, math.inf), (-math.inf, False, -math.inf),
])
def test_as_number_reads_a_real_number(value, finite, number):
    got = as_number("x", value, finite)
    assert type(got) is float and got == number


@pytest.mark.parametrize("value,finite,message", [
    (True, True, "x must be a number, got true"),
    (np.True_, False, "x must be a number, got np.True_"),
    ("1", True, 'x must be a number, got "1"'),
    (None, False, "x must be a number, got null"),
    (b"1", True, "x must be a number, got b'1'"),
    (1j, True, "x must be a number, got 1j"),
    ([1.0], False, "x must be a number, got [1.0]"),
    (_NAN, True, "x must be finite, got nan"),
    (_NAN, False, "x must be a number, got nan"),
    (math.inf, True, "x must be finite, got inf"),
    (-math.inf, True, "x must be finite, got -inf"),
    (10 ** 400, False, "x is beyond the doubles, got 1000"),
])
def test_as_number_refuses_all_else_naming_the_field(value, finite, message):
    with pytest.raises(SpecError) as info:
        as_number("x", value, finite)
    assert str(info.value).startswith(message) and info.value.exit_code == 2


@pytest.mark.parametrize("value,message", [
    (True, "got true"), (np.True_, "got np.True_"), (1.0, "got 1.0"), (64.0, "got 64.0"),
    ("1", 'got "1"'), (None, "got null"),
])
def test_as_integer_refuses_a_boolean_a_float_or_a_string(value, message):
    assert as_integer("n", np.int64(7)) == 7 and type(as_integer("n", np.int64(7))) is int
    with pytest.raises(SpecError, match=f"^n must be an integer, {message}$"):
        as_integer("n", value)


# --- law strings --------------------------------------------------------------

@pytest.mark.parametrize("spec,family,params", [
    ("weibull(1,2)", "weibull", {"K": 1.0, "alpha": 2.0}),
    ("  edge ( 0 , 1 )  ", "edge", {"sigma": 0.0, "mu": 1.0}),
    ("pareto(1e300,.5)", "pareto", {"C": 1e300, "alpha": 0.5}),
    ("normal", "normal", {}),
    ("normal()", "normal", {}),
    ("constant(-2)", "constant", {"c": -2.0}),
])
def test_a_law_string_names_its_parameters_by_position(spec, family, params):
    assert tw.parse_model_spec(spec) == (family, params)


@pytest.mark.parametrize("spec,message", [
    # Once accepted: an unclosed or an extra paren, an empty slot read as
    # absent, a keyword after the positionals overriding them, and a
    # positional after a keyword read as the next parameter.
    ("weibull(1,2", "cannot parse model spec"),
    ("weibull:1,2)", "cannot parse model spec"),
    ("weibull(1,2))", "cannot parse model spec"),
    ("weibull(1,,2)", r"weibull takes 2 parameters \['K', 'alpha'\], got 3"),
    ("weibull(1,2,K=3)", "weibull takes 2 parameters"),
    ("weibull(K=1,1)", "bad number 'K=1'"),
    # The colon and keyword spellings are gone: one spelling per law.
    ("weibull:K=1,alpha=2", "cannot parse model spec"),
    ("weibull:1,2", "cannot parse model spec"),
    ("weibull(K=1,alpha=2)", "bad number 'K=1'"),
    ("weibull(1,)", "bad number ''"),
    ("weibull", r"weibull takes 2 parameters \['K', 'alpha'\], got 0"),
    ("weibull()", "got 0"),
    ("pareto(1)", "got 1"),
    ("normal(0)", r"normal takes 0 parameters \[\], got 1"),
    ("weibull(true,2)", "bad number 'true'"),
])
def test_a_malformed_law_string_is_a_spec_error(spec, message):
    with pytest.raises(SpecError, match=message):
        tw.make_model(spec)


def test_a_dict_spec_reads_json_values_by_the_same_rule():
    # {"C": true, "alpha": "2"} once built pareto(1, 2).
    for params, message in (({"C": True, "alpha": 2}, "pareto parameter C must be a number, "
                                                      "got true"),
                            ({"C": 1, "alpha": "2"}, 'pareto parameter alpha must be a number, '
                                                     'got "2"')):
        with pytest.raises(SpecError, match=message):
            tw.make_model({"family": "pareto", "params": params})


# --- the sweep: every number reader refuses NaN, True and "1" before any work --

def _readers():
    w, p = tw.make_model("weibull(1,2)"), tw.make_model("pareto(1,2)")
    eta = gp.eta_power_low_model(0.0, 1.0, 1.0)
    return {
        "make_model string": lambda v: tw.make_model(f"weibull({json.dumps(v)},2)"),
        "make_model dict": lambda v: tw.make_model(
            {"family": "weibull", "params": {"K": v, "alpha": 2}}),
        "TrendModel": lambda v: gp.TrendModel.fbm(0.5, v),
        "TrendModel.from_json": lambda v: gp.TrendModel.from_json({"preset": "bm", "beta": v}),
        "sup_exceedance_mc eta": lambda v: gp.sup_exceedance_mc([1.0], 5.0, 64, 16, 0, eta=v),
        "estimate_sf grid": lambda v: tw.estimate_sf(w, p, "sum", [v], 1000, seed=0),
        "conditional_sf grid": lambda v: tw.conditional_sf(w, p, "sum", [1.0, v], 1000, seed=0),
        "sup_exceedance_mc grid": lambda v: gp.sup_exceedance_mc([v], 5.0, 64, 16, 0),
        "ratio_table grid": lambda v: tw.ratio_table(w, p, "sum", p.tail, [v]),
        "sf_sum_exact": lambda v: tw.sf_sum_exact(w, p, v),
        "sf_product_exact": lambda v: tw.sf_product_exact(w, p, v),
        "bm_exact_oracle": lambda v: gp.bm_exact_oracle(eta, None, v),
        "log_quad_result a": lambda v: quadrature.log_quad_result(np.negative, v, 1.0),
        "log_quad_result b": lambda v: quadrature.log_quad_result(np.negative, 0.0, v),
        "tail_integral_numeric delta": lambda v: tw.tail_integral_numeric(
            15.0, 2.0, 0.0, 1.0, 1.0, delta=v),
    }


@pytest.mark.parametrize("value", [_NAN, True, "1"], ids=["nan", "true", "str"])
@pytest.mark.parametrize("entry", list(_readers()))
def test_every_number_reader_refuses_before_any_quadrature_or_draw(monkeypatch, entry, value):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the input was read")

    call = _readers()[entry]
    monkeypatch.setattr(quadrature, "_eval_panels", no_work)
    monkeypatch.setattr(montecarlo, "block_rng", no_work)
    with pytest.raises(SpecError) as info:
        call(value)
    assert info.value.exit_code == 2


@pytest.mark.parametrize("x,y", [("weibull(1,2)", "pareto(1,2)"), ("normal", "edge(0,1)"),
                                 ("lognormal(0,1)", "constant(2)")])
def test_an_infinite_level_has_its_answer(x, y):
    # Both limits of an infinite level once came from inf - inf = NaN: the
    # quadrature gave -2.8e-15 for P(normal + edge(0,1) > -inf).
    x, y = tw.make_model(x), tw.make_model(y)
    assert tw.sf_sum_exact(x, y, math.inf) == -math.inf
    assert math.copysign(1.0, tw.sf_sum_exact(x, y, -math.inf)) == 1.0 == math.exp(
        tw.sf_sum_exact(x, y, -math.inf))
    if y.support[0] > 0:
        assert tw.sf_product_exact(x, y, math.inf) == -math.inf


# The readers that once converted or checked a caller's number themselves;
# sup_exceedance_mc's is the statement that reads its slope.
_OWN_READERS = [tail_model.parse_model_spec, tail_model.make_model, trend._json_number,
                trend.TrendModel.__post_init__, estimators.sup_exceedance_mc,
                montecarlo._levels, oracle.ratio_table]
# The level or limit of each entry that gained the rule, by parameter name.
_LEVEL_READERS = [(oracle._sf_exact, "u"), (bm_oracle.bm_exact_oracle, "u"),
                  (quadrature.log_quad_result, "a"), (quadrature.log_quad_result, "b"),
                  (laplace_kernel.tail_integral_numeric, "delta")]


def _tree(fn):
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    if fn is estimators.sup_exceedance_mc:
        return next(node for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["slope"])
    return tree


def _calls(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def _name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else ""


@pytest.mark.parametrize("fn", _OWN_READERS, ids=lambda f: f.__qualname__)
def test_only_errors_turns_a_callers_number_into_a_float(fn):
    tree = _tree(fn)
    names = {_name(c) for c in _calls(tree)}
    assert names & {"as_number", "parse_model_spec"}
    assert not names & {"float", "isfinite", "isnan", "asarray"}
    assert "numbers" not in {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("fn,param", _LEVEL_READERS, ids=lambda v: getattr(v, "__name__", v))
def test_each_level_or_limit_is_read_by_as_number(fn, param):
    calls = _calls(_tree(fn))
    reads = [c for c in calls if _name(c) == "as_number"]
    assert any(isinstance(c.args[1], ast.Name) and c.args[1].id == param for c in reads)
    assert all(not (isinstance(a, ast.Name) and a.id == param)
               for c in calls if _name(c) == "float" for a in c.args)


def test_the_readers_live_in_errors():
    assert as_number.__module__ == as_integer.__module__ == errors.__name__
    # A law string's slot text is the one text read by float(), in _parse_float.
    assert "float" in {_name(c) for c in _calls(_tree(tail_model._parse_float))}


# --- counts and seeds -----------------------------------------------------------

def _counts():
    w, p = tw.make_model("weibull(1,2)"), tw.make_model("pareto(1,2)")
    rng = np.random.default_rng(0)
    return {
        "estimate_sf n": (lambda: tw.estimate_sf(w, p, "sum", [1.0], 1000.5, seed=0), "n"),
        "conditional_sf n": (lambda: tw.conditional_sf(w, p, "sum", [1.0], True, seed=0), "n"),
        "sup_exceedance_mc n_steps": (lambda: gp.sup_exceedance_mc([1.0], 5.0, 64.0, 16, 0),
                                      "n_steps"),
        "pickands_estimate n_paths": (lambda: gp.pickands_estimate(1.0, 5.0, 4.0, 64), "n_paths"),
        "fbm_path n_steps": (lambda: fbm.fbm_path(0.3, 64.0, 1.0, rng), "n_steps"),
        "estimate_sf seed": (lambda: tw.estimate_sf(w, p, "sum", [1.0], 1000, seed=1.5), "seed"),
        "estimate_sf seed True": (lambda: tw.estimate_sf(w, p, "sum", [1.0], 1000, seed=True),
                                  "seed"),
        "estimate_sf workers": (lambda: tw.estimate_sf(w, p, "sum", [1.0], 1000, seed=0,
                                                       workers=1.5), "workers"),
    }


@pytest.mark.parametrize("entry", list(_counts()))
def test_a_count_or_seed_that_is_not_an_integer_is_a_spec_error(entry):
    # Each once raised a bare TypeError, or ran (seed=True as seed 1,
    # workers=1.5 as given).
    call, name = _counts()[entry]
    with pytest.raises(SpecError, match=f"^{name} must be an integer, got "):
        call()
