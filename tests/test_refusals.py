"""One row per refusal that no other tier-1 test reaches in its own process.

A line trace of tier-1 showed each of these raise sites unexecuted: some
were reached only in a subprocess (the grid bounds), only by the benchmark
(the product oracle at u <= 0) or by no test at all.
"""

import pytest

import tailward as tw
from tailward import cli, tail_model
from tailward import gp_extremes as gp
from tailward.errors import DomainError, SpecError

_W, _P = tw.make_model("weibull(1,2)"), tw.make_model("pareto(1,2)")


@pytest.mark.parametrize("call,error,message", [
    (lambda: tail_model._conditioning(_W, _P, "max"), SpecError, "unknown op 'max'"),
    (lambda: tw.ratio_table(_W, _P, "max", _P.tail, [4.0]), DomainError,
     "unknown oracle op 'max'"),
    (lambda: tw.sf_product_exact(_W, _P, 0.0), DomainError,
     r"product oracle needs u > 0, got u=0.0"),
    (lambda: tw.sf_product_exact(_W, _P, -1.0), DomainError, "product oracle needs u > 0"),
    (lambda: tw.wilson_interval(0, 0), SpecError, "need a positive sample count, got 0"),
    (lambda: tw.conditional_sf(_W, _P, "sum", [4.0], 999, seed=0), SpecError,
     "need n >= 1000 samples, got 999"),
    (lambda: cli._parse_grid("4:2:1"), SpecError, "^bad grid '4:2:1'$"),
    (lambda: cli._parse_grid("1:2:0"), SpecError, "^bad grid '1:2:0'$"),
    (lambda: cli._parse_grid("0:1e300:1"), SpecError,
     f"^bad grid '0:1e300:1': more than {cli._MAX_GRID_POINTS} points$"),
    (lambda: gp.negate_model(tw.make_model("constant(1)")), SpecError,
     "negate_model needs a density; constant has none"),
    (lambda: tw.power_substitute(_P.tail, 0.0), SpecError, "argument power must be positive"),
    (lambda: tw.power_substitute(tw.WeibullType(1.0, 0.0, 1.0, 2.0, 1.0), 2.0), SpecError,
     "argument rescaling of a shifted tail leaves the family"),
    (lambda: tw.power_substitute(tw.EdgePower(1.0, 0.0, 1.0), 2.0), SpecError,
     "argument rescaling is defined for unbounded tails only"),
    (lambda: gp.econst_estimate("fbm", 1.0, 0.3, 5.0, 16, 64, H=0.3), SpecError,
     "beta must exceed the Hurst parameter"),
])
def test_a_refusal_no_other_test_reaches(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_a_path_dump_with_bad_magic_is_refused(tmp_path):
    dump = tmp_path / "paths.bin"
    dump.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(SpecError, match=r"not a path dump \(magic b'NOPE'\)"):
        gp.read_paths_binary(dump)


def test_a_model_file_that_is_not_utf8_exits_two(capsys, tmp_path):
    # It once ended in a UnicodeDecodeError traceback and exit 1.
    model = tmp_path / "model.json"
    model.write_bytes(b"\xff\xfe{")
    assert cli.main(["gp", "tail", "--model", str(model)]) == cli.EXIT_SPEC
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("specification error: bad trend model JSON: 'utf-8'")


@pytest.mark.parametrize("argv,message", [
    (("verify", "sum", "--y", "pareto(1,2)", "--grid", "4"),
     "ad-hoc verify needs --x, --y and --grid"),
    (("gp", "tail", "--model", "{not json"), "bad trend model JSON: "),
])
def test_a_cli_refusal_no_other_test_reaches(capsys, argv, message):
    assert cli.main(list(argv)) == cli.EXIT_SPEC
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"specification error: {message}")
