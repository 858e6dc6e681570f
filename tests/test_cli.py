"""Command-line interface: spec grammar, outputs, determinism, exit codes."""

import json
import math
import pathlib
import random
import re
import sys
from collections import Counter

import pytest

from meridian4 import cli, invariants, surface, verification
from meridian4.cli import main, parse_family_spec, SpecError
from meridian4.families import ConstantGauss, ParallelA
from meridian4.invariants import eight_invariants
from meridian4.minkowski import from_lightlike
from meridian4.profile import (G_TOL, Directrix, ProfileCurve, g_from_f,
                               profile_point, sample_grid)
from meridian4.surface import PointCase, point_data
from meridian4.verification import (_ORACLE_FIELDS, SAMPLE_SEED, CheckRecord,
                                    VerificationReport, sample_general_points)


def read(path):
    return path.read_bytes()


# --- spec text grammar --------------------------------------------------------

def test_parse_constant_gauss():
    spec, phi = parse_family_spec("constant-gauss K=1 alpha=1 beta=0")
    assert spec == ConstantGauss(K=1.0, alpha=1.0, beta=0.0)
    assert phi == "1"


def test_parse_parallel_a_with_phi():
    spec, phi = parse_family_spec("parallel-a c=1 d=1 a=0 sign=+ phi=sec(v)")
    assert spec == ParallelA(c=1.0, d=1.0, a=0.0, sign=1)
    assert phi == "sec(v)"


def test_parse_errors_name_the_problem():
    with pytest.raises(SpecError, match="K must be nonzero"):
        parse_family_spec("constant-gauss K=0 alpha=1 beta=0")
    with pytest.raises(SpecError, match="unknown family"):
        parse_family_spec("torus R=2 r=1")
    with pytest.raises(SpecError, match="key=value"):
        parse_family_spec("chen b=1 c=1 oops")
    with pytest.raises(SpecError, match="branch"):
        parse_family_spec("chen b=1 c=1 branch=q")


@pytest.mark.parametrize("text, key", [
    ("constant-mean a=0.5 b=2 c=1 eps=+ branch=+", "'c'"),   # C, not c
    ("direct f=u+1 g=3", "'g'"),                              # g0, not g
    ("constant-gauss K=1 alpha=1 beta=0 gamma=2", "'gamma'"),
    ("parallel-a c=1 d=1 sign=+ a=0 b=1", "'b'"),
    # the four families whose directrix has constant curvature b take no phi
    ("constant-mean a=0.5 b=2 C=0 eps=+ branch=+ phi=cos(v)", "'phi'"),
    ("constant-k a=1 b=-1 c=0.5 branch=+ phi=2", "'phi'"),
    ("chen b=1 c=1 branch=+ phi=1", "'phi'"),
    ("parallel-b a=1 c=1 b=-2 phi=sec(v)", "'phi'"),
])
def test_parse_rejects_a_key_the_family_does_not_take(text, key):
    with pytest.raises(SpecError, match=f"unknown parameter {key}"):
        parse_family_spec(text)


@pytest.mark.parametrize("command, spec, key", [
    ("family", "parallel-a c=1 d=1 c=2", "c"),
    ("invariants", "direct f=u+1 phi=1 phi=2+cos(v)", "phi")])
def test_a_repeated_spec_key_is_exit_1(tmp_path, capsys, command, spec, key):
    # the later value would otherwise replace the earlier one unseen
    out = tmp_path / "x.csv"
    code = main([command, "--spec", spec, "--u", "0:1", "--v", "0:1",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: parameter {key!r} is given more than once"]
    assert not out.exists()


# --- family command -----------------------------------------------------------

def test_family_csv_and_json(tmp_path):
    out = tmp_path / "fam.csv"
    code = main(["family", "--spec", "constant-gauss K=1 alpha=1 beta=0",
                 "--u", "0.1:1.4:0.01", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "u,f,f_prime,f_double_prime,g"
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == pytest.approx(0.1)
    assert first[1] == pytest.approx(math.cos(0.1), abs=1e-9)
    echo = json.loads((tmp_path / "fam.json").read_text())
    assert echo["spec"]["family"] == "ConstantGauss"
    assert echo["realized_range"] == pytest.approx([0.1, 1.4])


def test_family_parallel_a_g_value(tmp_path):
    out = tmp_path / "pa.csv"
    code = main(["family", "--spec", "parallel-a c=1 d=1 a=0 sign=+",
                 "--u", "0:3:0.5", "--out", str(out)])
    assert code == 0
    last = out.read_text().splitlines()[-1].split(",")
    assert float(last[0]) == pytest.approx(3.0)
    assert float(last[4]) == pytest.approx(-16.0 / 3.0, abs=1e-6)


def test_family_exit_1_on_bad_spec(tmp_path, capsys):
    code = main(["family", "--spec", "constant-gauss K=0 alpha=1 beta=0",
                 "--u", "0:1:0.1", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "K must be nonzero" in capsys.readouterr().err


def test_family_exit_2_on_truncation(tmp_path):
    out = tmp_path / "cm.csv"
    code = main(["family", "--spec", "constant-mean a=0.5 b=2 C=0 eps=+ branch=+",
                 "--f0", "0.6", "--u", "0:10:0.1", "--v", "0:0.3",
                 "--out", str(out)])
    assert code == 2
    echo = json.loads((tmp_path / "cm.json").read_text())
    assert echo["truncated"] is True
    assert echo["realized_range"][1] < 10.0


@pytest.mark.parametrize("command", ["invariants", "mesh", "verify"])
def test_directrix_runaway_is_exit_2(tmp_path, command):
    # The b = 2 directrix runs away near v = 0.34, short of the requested 6.28.
    out = tmp_path / "out"
    code = main([command, "--spec", "constant-mean a=0.5 b=2 C=0 eps=+ branch=+",
                 "--f0", "0.6", "--u", "0:0.5", "--v", "0:6.28", "--grid", "2x4",
                 "--out", str(out)])
    assert code == 2
    if command == "invariants":
        rows = out.read_text().splitlines()[1:]
        assert max(float(r.split(",")[1]) for r in rows) < 0.35
    if command == "verify":
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["realized_v_range"][0] == 0.0
        assert report["realized_v_range"][1] < 0.35


def test_closed_form_range_end_is_not_reported_as_truncation(tmp_path):
    # 0.321 + (0.856 - 0.321) rounds one ulp below 0.856; the profile is
    # valid on the whole range, so nothing may be reported as trimmed.
    out = tmp_path / "cg.csv"
    code = main(["family", "--spec", "constant-gauss K=1 alpha=1 beta=0",
                 "--u", "0.321:0.856:0.05", "--out", str(out)])
    assert code == 0
    echo = json.loads((tmp_path / "cg.json").read_text())
    assert echo["truncated"] is False
    assert echo["realized_range"] == [0.321, 0.856]
    assert main(["invariants", "--spec", "parallel-a c=1 d=1 a=0 sign=+",
                 "--u", "0.321:0.856", "--v", "0:6.28", "--grid", "2x2",
                 "--out", str(tmp_path / "inv.csv")]) == 0


@pytest.mark.parametrize("spec, u_range, zero", [
    ("constant-gauss K=1 alpha=1 beta=1", "0.1:2", math.pi / 4),
    ("constant-gauss K=-1 alpha=2 beta=-1", "0:3", math.atanh(0.5)),
])
def test_interior_f_prime_zero_ends_the_range(tmp_path, capsys, spec, u_range, zero):
    # f' vanishes inside the requested range while f stays positive: the
    # range ends where |f'| meets the floor, no grid point past the zero is
    # tabulated, and the run is reported as truncated.
    out = tmp_path / "inv.csv"
    code = main(["invariants", "--spec", spec, "--u", u_range, "--v", "0:1",
                 "--grid", "5x2", "--out", str(out)])
    assert code == 2
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    end = max(float(r[0]) for r in rows)
    assert end < zero and zero - end <= 1e-8
    assert all(r[-1] == "general" for r in rows)
    # g diverges like log(u* - u) at the zero, so family and mesh, which
    # tabulate g at the end, stop with a typed error instead of grinding
    for command in ("family", "mesh"):
        code = main([command, "--spec", spec, "--u", u_range, "--v", "0:1",
                     "--out", str(tmp_path / command)]
                    + (["--grid", "5x2"] if command == "mesh" else []))
        assert code == 1
        assert "not resolvable" in capsys.readouterr().err


@pytest.mark.parametrize("spec, u_ranges, end", [
    ("constant-gauss K=1 alpha=1 beta=0", ("0.1:2", "0.1:3"), math.pi / 2),
    ("parallel-a c=-1 d=1", ("0:2", "0:5"), 1.0),
])
def test_closed_form_end_does_not_depend_on_requested_end(tmp_path, spec, u_ranges, end):
    # f reaches 0 at `end`: the realized range stops there whatever --u asks
    ends = []
    for i, u_range in enumerate(u_ranges):
        out = tmp_path / f"f{i}.csv"
        assert main(["family", "--spec", spec, "--u", u_range, "--out", str(out)]) == 2
        echo = json.loads((tmp_path / f"f{i}.json").read_text())
        assert echo["truncated"] is True
        ends.append(echo["realized_range"][1])
        last = [float(x) for x in out.read_text().splitlines()[-1].split(",")]
        assert last[0] == pytest.approx(ends[-1], abs=1e-12)
        assert last[1] > 0.0 and math.isfinite(last[4])
    assert ends[0] == ends[1]
    assert abs(ends[0] - end) <= 1e-8


# --- invariants command -------------------------------------------------------

def test_invariants_header_and_determinism(tmp_path):
    args = ["invariants", "--spec", "parallel-a c=1 d=1 a=0 sign=+",
            "--u", "0:3", "--v", "0:6.283185307179586", "--grid", "4x4"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert read(out1) == read(out2)
    lines = out1.read_text().splitlines()
    assert lines[0] == ("u,v,gamma1,gamma2,nu1,nu2,lambda,mu,beta1,beta2,"
                        "K,k,varkappa,H_norm,epsilon,case")
    # record at (0, 0) matches the reference invariant tuple
    row = lines[1].split(",")
    assert float(row[2]) == pytest.approx(0.35355339059327373, abs=1e-9)
    assert float(row[3]) == pytest.approx(-0.35355339059327373, abs=1e-9)
    assert [float(x) for x in row[4:8]] == pytest.approx([0.5] * 4, abs=1e-9)
    assert [float(x) for x in row[8:10]] == pytest.approx([0.0, 0.0], abs=1e-9)
    assert row[-1] == "general"


def test_invariants_flat_rows_have_empty_cells(tmp_path):
    out = tmp_path / "flat.csv"
    code = main(["invariants", "--spec", "direct f=sqrt(u+1) phi=sec(v)",
                 "--u", "0:2", "--v", "0.1:0.5", "--grid", "3x3",
                 "--out", str(out)])
    assert code == 0
    for line in out.read_text().splitlines()[1:]:
        cells = line.split(",")
        assert cells[-1] == "hyperplanar-flat"
        assert all(c == "" for c in cells[2:-1])


def test_invariants_tol_decides_each_case_once(tmp_path):
    # kappa of phi = 2 + cos v is about -3 (v - pi)^2: below the default
    # tolerance next to v = pi, above 1e-12
    argv = ["invariants", "--spec", "constant-gauss K=1 alpha=1 beta=0 phi=2+cos(v)",
            "--u", "0.1:0.5", "--v", "3.14160265358979:3.2", "--grid", "2x2"]
    for tol, case in ((["--tol", "1e-12"], "general"), ([], "hyperplanar-flat")):
        out = tmp_path / "t.csv"
        assert main(argv + tol + ["--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        near_pi = [r for r in rows if r[1] == "3.14160265358979"]
        assert len(near_pi) == 2
        for r in near_pi:
            assert r[-1] == case
            assert all(r[2:-1]) if case == "general" else not any(r[2:-1])


def test_invariants_exit_1_on_vanishing_f_prime(tmp_path, capsys):
    # f = u^2 + 1 has f'(0) = 0, where the normalization -2 f' g' = 1 fails.
    code = main(["invariants", "--spec", "direct f=u^2+1 phi=1",
                 "--u", "0:1", "--v", "0:1", "--grid", "3x3",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: f'(0.0)")


@pytest.mark.parametrize("command, extra", [
    ("invariants", []), ("mesh", ["--fields", "K"]), ("mesh", [])])
def test_grid_exit_1_where_f_is_not_positive(tmp_path, capsys, command, extra):
    # f = u + u^2 vanishes at u = 0: f > 0 is a profile invariant
    code = main([command, "--spec", "direct f=u+u^2 phi=2", "--u", "0:1",
                 "--v", "0:1", "--grid", "2x2", *extra,
                 "--out", str(tmp_path / "z.out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: f(0.0) = 0.0 is not positive"]


@pytest.mark.parametrize("command, option, text", [
    ("family", "--u", "0:1:nan"), ("invariants", "--v", "0:1:nan"),
    ("invariants", "--u", "0:inf:0.5"), ("invariants", "--u", "nan:1"),
    ("mesh", "--v", "-inf:1"), ("verify", "--u", "0:1:inf")])
def test_non_finite_range_is_exit_1(tmp_path, capsys, command, option, text):
    ranges = {"--u": "0:1", "--v": "0:1", option: text}
    code = main([command, "--spec", "parallel-a c=1 d=1",
                 *(f"{opt}={r}" for opt, r in ranges.items()),
                 "--out", str(tmp_path / "x.out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {option} has a non-finite part in {text!r}"]


@pytest.mark.parametrize("command, spec, key, raw", [
    ("family", "constant-gauss K=1 alpha=inf beta=0", "alpha", "inf"),
    ("family", "constant-gauss K=nan alpha=1 beta=0", "K", "nan"),
    ("family", "parallel-a c=1 d=-inf", "d", "-inf"),
    ("invariants", "direct f=u+1 phi=1 g0=inf", "g0", "inf"),
    ("verify", "constant-mean a=0.5 b=2 C=nan eps=+ branch=+", "C", "nan")])
def test_non_finite_spec_parameter_is_exit_1(tmp_path, capsys, command, spec,
                                             key, raw):
    code = main([command, "--spec", spec, "--f0", "0.6", "--u", "0:0.5",
                 "--v", "0:1", "--out", str(tmp_path / "x.out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: parameter {key!r} is not finite: {raw!r}"]


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_invariants_tol_must_be_finite_and_non_negative(tmp_path, capsys, tol):
    code = main(["invariants", "--spec", "direct f=u+1 phi=1", "--u", "0:1",
                 "--v", "0:1", "--grid", "2x2", "--tol", tol,
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --tol must be finite")


DEEP = "expression nests deeper than 100 levels"


@pytest.mark.parametrize("f, message", [
    ("-" * 5000 + "(-u-2)", DEEP),
    ("(" * 5000 + "u+2" + ")" * 5000, "invalid expression: too many nested parentheses"),
    ("u+" * 5000 + "1", DEEP),
    ("2^" * 5000 + "u", DEEP),
    ("-" * 150 + "(-u-2)", DEEP)],
    ids=["5000-minus", "5000-parens", "5000-sum", "5000-power", "150-minus"])
def test_deeply_nested_expression_is_exit_1(tmp_path, capsys, f, message):
    code = main(["invariants", "--spec", f"direct f={f} phi=1", "--u", "0:1",
                 "--v", "0:1", "--grid", "2x2", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command, spec, u, v, where", [
    ("mesh", "direct f=exp(u) phi=1e10", "690:700", "0:1",
     "the profile record at u = 690.0"),
    ("invariants", "direct f=exp(u) phi=1e10", "690:700", "0:1",
     "the profile record at u = 690.0"),
    ("invariants", "direct f=u+1 phi=exp(v)", "0:1", "360:361",
     "the directrix record at v = 360.0"),
    ("mesh", "direct f=u+1 phi=exp(v)", "0:1", "360:361",
     "the directrix record at v = 360.0")])
def test_overflowing_point_record_is_exit_1(tmp_path, capsys, command, spec,
                                            u, v, where):
    code = main([command, "--spec", spec, "--u", u, "--v", v, "--grid", "2x2",
                 "--out", str(tmp_path / "x.out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {where} is not finite"]


@pytest.mark.parametrize("command, message", [
    ("invariants", "the point record at (u, v) = (300.0, 0.0) is not finite"),
    ("mesh", "the point record at (u, v) = (300.0, 0.0) is not finite"),
    # the sampler passes over points that raise, finds none, and names the
    # first error it passed over
    ("verify", "could only find 0/9 general sample points of 1800 drawn, passed "
               "over: 0 flat, 0 marginally trapped, 0 inside the 1e-4 discriminant "
               "margin, 1800 raised; the first point passed over raised: the point "
               "record at (u, v) = (345.59533576383734, 0.7553748589108994) is not "
               "finite")])
def test_overflowing_discriminant_is_exit_1(tmp_path, capsys, command, message):
    # the records of f = exp(u) are finite at u = 300, but (f f'' + f'^2)^2
    # overflows
    code = main([command, "--spec", "direct f=exp(u) phi=1", "--u", "300:354",
                 "--v", "0:1", "--grid", "3x3", "--out", str(tmp_path / "x.out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command, spec, extra, message", [
    # f^2 = 1e-320 is subnormal at u = 0, so k = -kappa_m^2 kappa^2 / f^2
    # overflows there
    ("invariants", "f=1e-160+1e-9*u+u^2 phi=1", [],
     "the invariants at (u, v) = (0.0, 0.0) are not finite"),
    ("mesh", "f=1e-160+u+u^2 phi=2+cos(v)", ["--fields", "k"],
     "the invariants at (u, v) = (0.0, 0.0) are not finite"),
    # f^2, the divisor of k, underflows to 0 at u = 0
    ("invariants", "f=1e-300+1e-9*u+u^2 phi=1", [],
     "a factor of the invariants at u = 0.0 is not finite")],
    ids=["invariants-k", "mesh-k", "invariants-f-squared"])
def test_non_finite_invariant_record_is_exit_1(tmp_path, capsys, command, spec,
                                               extra, message):
    out = tmp_path / "z.out"
    code = main([command, "--spec", f"direct {spec}", "--u", "0:1", "--v", "0:1",
                 "--grid", "2x2", *extra, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("spec, f0, u, message", [
    # the closed form's arithmetic fails where the profile starts admissibly
    ("parallel-a c=1e200 d=1e210", None, "0:1",
     "the closed form of ParallelA is not representable from u = 0.0: "
     "(34, 'Numerical result out of range')"),
    ("chen b=1e-300 c=1e-300 branch=-", "1e-300", "0.1:1.1",
     "the closed form of Chen is not representable from u = 0.1: float division by zero"),
    # |f'| <= A r < FPRIME_FLOOR everywhere
    ("constant-gauss K=1e-300 alpha=1 beta=1", None, "0:1",
     "|f'| <= A r = 1.4142135623730952e-150 < 1e-09 everywhere"),
    ("constant-gauss K=1e-300 alpha=1e-300 beta=1e-300", None, "-1:0",
     "|f'| <= A r = 0.0 < 1e-09 everywhere"),
    # f or f' starts beyond the runaway bound
    ("chen b=1e-300 c=1e5 branch=+", "0.5", "100000:100001",
     "y(f0) = 25000.0 at f0 = 0.5: f or f' starts beyond 1000.0"),
    ("chen b=-1 c=-2 branch=+", "1e300", "1e-200:1",
     "y(f0) = -1e+300 at f0 = 1e+300: f or f' starts beyond 1000.0"),
    ("constant-k a=-1e150 b=1e-300 c=1e-150 branch=-", "0.5", "0.1:1.1",
     "y(f0) = inf at f0 = 0.5: f or f' starts beyond 1000.0"),
    ("constant-k a=-1e150 b=1e5 c=1e-300 branch=+", "1e300", "100000:100001",
     "y(f0) = -inf at f0 = 1e+300: f or f' starts beyond 1000.0"),
    # at u = 1e5 theta cannot resolve the zero of f', and g's log gets a
    # negative ratio where it is read
    ("constant-gauss K=1 alpha=-1e150 beta=1e5", None, "100000:100001",
     "g(100000.0357564167) is not representable: math domain error")])
def test_closed_form_arithmetic_failure_is_exit_1(tmp_path, capsys, spec, f0, u, message):
    argv = ["family", "--spec", spec, "--u", u, "--out", str(tmp_path / "x.csv")]
    code = main(argv + ([] if f0 is None else ["--f0", f0]))
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command, spec, u, v, flag", [
    ("family", "constant-gauss K=1 alpha=1 beta=0", "0.1:0.5:5e-324", "0:1", "u"),
    ("invariants", "direct f=u+1 phi=1", "0:1:5e-324", "0:1", "u"),
    ("mesh", "direct f=u+1 phi=1", "0:1", "0:1:5e-324", "v")])
def test_step_without_a_finite_sample_count_is_exit_1(tmp_path, capsys, command,
                                                      spec, u, v, flag):
    code = main([command, "--spec", spec, "--u", u, "--v", v,
                 "--out", str(tmp_path / "x.out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --{flag} step 5e-324 gives a sample count that is not finite"]


@pytest.mark.parametrize("command, argv, message", [
    ("family", ["--u", "0:1:1e-300"],
     "--u step 1e-300 gives 1e+300 samples, more than the 10000000 a command writes"),
    ("invariants", ["--u", "0:1", "--v", "0:1:1e-9"],
     "--v step 1e-09 gives 1e+09 samples, more than the 10000000 a command writes"),
    ("invariants", ["--u", "0:1", "--v", "0:1", "--grid", "100000x100000"],
     "a 100000x100000 grid has more rows than the 10000000 a command writes"),
    ("mesh", ["--u", "0:1", "--v", "0:1", "--grid", "10001x1000"],
     "a 10001x1000 grid has more vertices than the 10000000 a command writes")])
def test_more_than_ten_million_rows_is_exit_1(tmp_path, capsys, command, argv, message):
    # the rows are refused before any is built: a step of 1e-300 would ask
    # for a list of 1e300 grid points
    out = tmp_path / "x.out"
    code = main([command, "--spec", "parallel-a c=1 d=1", *argv, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_the_row_limit_is_ten_million():
    assert cli._sample_count((0.0, 1.0), 1.0 / 9999999, 50, "u") == cli.MAX_ROWS
    with pytest.raises(SpecError, match="gives 10000001 samples"):
        cli._sample_count((0.0, 1.0), 1e-7, 50, "u")
    cli._check_grid(cli.MAX_ROWS, 1, "rows")
    with pytest.raises(SpecError, match="a 10000001x1 grid"):
        cli._check_grid(cli.MAX_ROWS + 1, 1, "rows")


@pytest.mark.parametrize("command, spec, message", [
    ("family", "constant-gauss K=1 alpha=1 beta=0",
     "ConstantGauss is in closed form and takes no f0"),
    ("mesh", "parallel-a c=1 d=1", "ParallelA is in closed form and takes no f0"),
    ("invariants", "direct f=u+1 phi=1", "a direct spec takes no --f0")])
def test_f0_is_rejected_where_nothing_reads_it(tmp_path, capsys, command, spec,
                                               message):
    code = main([command, "--spec", spec, "--f0", "nan", "--u", "0.1:0.2:0.1",
                 "--v", "0:1", "--out", str(tmp_path / "x.out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command, u, v, grid, message", [
    ("invariants", "0:3:0.5", "0:6:1", "2x2", "--u step 0.5 is not read with --grid"),
    ("mesh", "0:3", "0:6:1", "2x2", "--v step 1.0 is not read with --grid"),
    ("verify", "0:3:0.5", "0:6", "2x2",
     "--u step 0.5 is not read by verify, which samples --grid points or 50"),
    ("verify", "0:3", "0:6:0.5", None,
     "--v step 0.5 is not read by verify, which samples --grid points or 50"),
    ("family", "0:3", "0:6:1", None, "--v step 1.0 is not read by family")])
def test_step_is_rejected_where_nothing_reads_it(tmp_path, capsys, command, u, v,
                                                 grid, message):
    code = main([command, "--spec", "parallel-a c=1 d=1", "--u", u, "--v", v,
                 *(["--grid", grid] if grid else []), "--out", str(tmp_path / "x.out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("direct, family, u_range", [
    ("direct f=cos(u) phi=2+cos(v)",
     "constant-gauss K=1 alpha=1 beta=0 phi=2+cos(v)", "0.1:1.4"),
    # g0 = parallel-a's g(0) = -2/3
    (f"direct f=sqrt(u+1) phi=1 g0={-2.0 / 3.0!r}", "parallel-a c=1 d=1", "0:3")])
def test_direct_spec_matches_the_family_it_spells_out(tmp_path, direct, family,
                                                       u_range):
    # one surface built two ways: the direct profile's g comes from its own
    # Dormand-Prince pass, the family's from its closed form
    rows, vertices = [], []
    for i, spec in enumerate((direct, family)):
        args = ["--spec", spec, "--u", u_range, "--v", "0:6", "--grid", "16x8"]
        assert main(["invariants", *args, "--out", str(tmp_path / f"{i}.csv")]) == 0
        assert main(["mesh", *args, "--out", str(tmp_path / f"{i}.json")]) == 0
        rows.append((tmp_path / f"{i}.csv").read_text().splitlines())
        vertices.append(json.loads((tmp_path / f"{i}.json").read_text())["vertices"])
    assert rows[0][0] == rows[1][0] and len(rows[0]) == len(rows[1]) == 129
    for line, twin in zip(rows[0][1:], rows[1][1:]):
        *cells, case = line.split(",")
        *twins, twin_case = twin.split(",")
        assert case == twin_case
        for a, b in zip(map(float, cells), map(float, twins)):
            assert abs(a - b) <= 4 * math.ulp(max(abs(a), abs(b)))
    assert len(vertices[0]) == len(vertices[1]) == 128
    for p, q in zip(*vertices):
        assert all(abs(a - b) <= G_TOL for a, b in zip(p, q))


@pytest.mark.parametrize("command, spec, u_range, n", [
    ("invariants", "constant-gauss K=1 alpha=1 beta=1 phi=2+cos(v)", (-0.4, 2.0), 8),
    ("mesh", "parallel-a c=-1 d=1", (-0.3, 2.0), 52)])
def test_last_grid_point_is_the_truncated_end(tmp_path, command, spec, u_range, n):
    # the range ends at the last admissible float; lo + (hi - lo) (n-1)/(n-1)
    # rounds one ulp past it for these n, where the last row would raise
    gen = cli.build_surface(*parse_family_spec(spec), None, u_range, (0.0, 1.0))
    assert gen.truncated and sample_grid(gen.u_range, n)[-1] == gen.u_range[1]
    code = main([command, "--spec", spec, "--u", f"{u_range[0]}:{u_range[1]}",
                 "--v", "0:1", "--grid", f"{n}x2", "--out", str(tmp_path / "x.out")])
    assert code == 2


# --- verify command -----------------------------------------------------------

def test_verify_keeps_its_points_a_stencil_radius_from_the_edges(tmp_path):
    # a stencil of radius 2h = 0.02 is wider than the sample margin 5e-3
    out = tmp_path / "r.json"
    code = main(["verify", "--spec", "parallel-a c=1 d=1", "--u", "0:1",
                 "--v", "0:1", "--oracle-step", "0.01", "--out", str(out)])
    assert code == 0
    assert all(c["pass"] for c in json.loads(out.read_text())["checks"])
    s = cli.build_surface(*parse_family_spec("parallel-a c=1 d=1"), None,
                          (0.0, 1.0), (0.0, 1.0)).surface
    pts = sample_general_points(s, 50, random.Random(SAMPLE_SEED), 0.01)
    assert all(0.02 <= x <= 0.98 for pt in pts for x in pt)


def test_verify_oracle_step_zero_is_exit_1(tmp_path, capsys):
    code = main(["verify", "--spec", "parallel-a c=1 d=1", "--u", "0:1",
                 "--v", "0:1", "--oracle-step", "0"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: oracle step h = 0.0 is not positive"]


@pytest.mark.parametrize("h", ["1e-320", "1e-300"])
def test_verify_oracle_step_too_small_is_exit_1(capsys, h):
    # at 1e-320 the stencil's 1/(2h) overflows; at 1e-300 u + h == u
    code = main(["verify", "--spec", "constant-gauss K=1 alpha=1 beta=0",
                 "--u", "0.1:0.5", "--v", "0:1", "--grid", "2x2", "--oracle-step", h])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: oracle step h = {h} is too small at "
        "(0.4343245220947688, 0.7553748589108994)"]


def test_verify_says_the_points_were_flat_when_none_raised(capsys):
    # every point is flat (f'' = 0): passed over, but none raised an error
    code = main(["verify", "--spec", "direct f=1+0.5*u phi=1", "--u", "0:1",
                 "--v", "0:1", "--grid", "3x3"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: could only find 0/9 general sample points of 1800 drawn, passed "
        "over: 1800 flat, 0 marginally trapped, 0 inside the 1e-4 discriminant "
        "margin, 0 raised"]


def test_verify_passes_on_parallel_a(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--spec", "parallel-a c=1 d=1 a=0 sign=+",
                 "--u", "0:3", "--v", "0:6.28", "--grid", "5x5",
                 "--out", str(out)])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["realized_range"] == pytest.approx([0.0, 3.0])


def test_verify_failed_report_outranks_truncation(monkeypatch):
    # The directrix ends near v = 0.34 (exit 2), but a failed report is exit 1.
    failed = VerificationReport([CheckRecord("forced", 1, 1.0, 0.5, False)])
    monkeypatch.setattr(verification, "verify_generated", lambda *args: failed)
    code = main(["verify", "--spec", "constant-mean a=0.5 b=2 C=0 eps=+ branch=+",
                 "--f0", "0.6", "--u", "0:0.5", "--v", "0:6.28", "--grid", "2x2"])
    assert code == 1


def test_verify_constant_mean_negative_b(tmp_path, capsys):
    # b < 0 at eps = +1: the arcsin term of y takes |b|, so the profile
    # satisfies its defining relation and the surface verifies
    out = tmp_path / "report.json"
    code = main(["verify", "--spec", "constant-mean a=0.5 b=-2 C=0 eps=+ branch=+",
                 "--f0", "0.6", "--u", "0:0.5", "--v", "0:0.3", "--grid", "3x3",
                 "--out", str(out)])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert json.loads(out.read_text())["pass"] is True


def test_verify_reports_when_the_range_ends_marginally_trapped(tmp_path):
    # The profile ends where the surface becomes marginally trapped; the
    # target check skips that sample instead of dying on it, and the report
    # is written. Its exit code is that of the report: 2 for a truncated
    # range when every check passes, 1 when one fails.
    out = tmp_path / "report.json"
    code = main(["verify", "--spec", "constant-mean a=0.5 b=2 C=0 eps=+ branch=-",
                 "--f0", "0.6", "--u", "0:0.5", "--v", "0:0.3", "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == (2 if report["pass"] else 1)
    assert report["realized_range"][1] < 0.5
    target = next(c for c in report["checks"] if c["check"] == "||H||==0.5")
    assert target["pass"] and target["grid"] == 49


def test_one_point_data_per_grid_point(tmp_path, monkeypatch):
    # one record per (u, v), from one profile jet per row and one directrix
    # jet per column (the surface keeps both); eight_invariants builds none
    # of its own, and computes the u-only factors once per row
    records, jets, terms, built = [], Counter(), [], []
    real_combine, real_build = surface.combine, cli.build_surface
    real_terms = invariants._u_terms

    def combine(p, c, *tol):
        records.append((p.u, c.v))
        return real_combine(p, c, *tol)

    def u_terms(p):
        terms.append(p.u)
        return real_terms(p)

    def build(*args):
        gen = real_build(*args)
        jets.clear()          # count the grid's jets, not generation's
        built.append(gen)
        return gen

    def counting(name, method):
        def counted(self, t):
            jets[name] += 1
            return method(self, t)
        return counted
    for module in (surface, cli):   # wherever it is bound
        monkeypatch.setattr(module, "combine", combine)
    monkeypatch.setattr(cli, "build_surface", build)
    monkeypatch.setattr(invariants, "_u_terms", u_terms)
    monkeypatch.setattr(ProfileCurve, "f_jet", counting("f", ProfileCurve.f_jet))
    monkeypatch.setattr(Directrix, "phi_jet", counting("phi", Directrix.phi_jet))
    base = ["--spec", "parallel-a c=1 d=1 a=0 sign=+", "--u", "0:3",
            "--v", "0:6.28", "--grid", "3x2"]
    assert main(["invariants", *base, "--out", str(tmp_path / "i.csv")]) == 0
    assert len(records) == len(set(records)) == 6
    assert jets == {"f": 3, "phi": 2}
    assert terms == [0.0, 1.5, 3.0]
    records.clear()
    terms.clear()
    assert main(["mesh", *base, "--fields", "K,k,H_norm,lambda,beta1,beta2",
                 "--out", str(tmp_path / "m.json")]) == 0
    assert len(records) == len(set(records)) == 6
    assert jets == {"f": 3, "phi": 2}
    assert terms == [0.0, 1.5, 3.0]
    # a profile record made off the grid has not computed them
    assert profile_point(built[-1].surface.profile, 0.75)._terms is None


GRID_CASES = {
    "ode-profile": ("constant-mean a=0.5 b=2 C=0 eps=+ branch=+", "0.6",
                    "0:0.5", "0:0.3", 4, 3),
    "mixed-epsilon": ("constant-gauss K=1 alpha=1 beta=0 phi=2+cos(v)", None,
                      "0.1:1.4", "0:6.28", 6, 7),
    # rows at eps = +1 and eps = -1, and a flat column at v = pi
    "u-only-cells": ("direct f=1+sin(u) phi=2+cos(v)", None, "0.1:1.4",
                     "0:6.283185307179586", 6, 5),
    "1xN": ("parallel-a c=1 d=1 a=0 sign=+", None, "0:3", "0:6.28", 1, 5),
    "Nx1": ("parallel-a c=1 d=1 a=0 sign=+", None, "0:3", "0:6.28", 5, 1),
}


def point_by_point(spec_text, f0, u, v, nu, nv):
    """The invariants CSV text and the mesh vertices and fields of the grid,
    computed one point at a time: point_data and eight_invariants at each
    (u, v), the embedding from the values of fresh jets."""
    spec, phi = parse_family_spec(spec_text)
    u_range, v_range = (tuple(float(x) for x in r.split(":")) for r in (u, v))
    gen = cli.build_surface(spec, phi, None if f0 is None else float(f0),
                            u_range, v_range)
    s = gen.surface
    lines = ["u,v," + ",".join(cli.INVARIANT_COLUMNS) + ",case"]
    vertices, fields = [], {f: [] for f in cli.MESH_FIELDS}
    for uu in sample_grid(gen.u_range, nu):
        for vv in sample_grid(s.directrix.domain, nv):
            d = point_data(s, uu, vv)
            rec = None
            if d.case is PointCase.GENERAL:
                rec = eight_invariants(d)
            cells = [repr(getattr(rec, cli._record_attr(c))) if rec else ""
                     for c in cli.INVARIANT_COLUMNS]
            lines.append(",".join([repr(uu), repr(vv), *cells, d.case.value]))
            f, p = s.profile.f_jet(uu).f, s.directrix.phi_jet(vv).f
            z = from_lightlike(f * p * math.cos(vv), f * p * math.sin(vv),
                               f * p**2 / 2.0 + g_from_f(s.profile, uu), f)
            vertices.append([z.c1, z.c2, z.c3, z.c4])
            for name in fields:
                fields[name].append(
                    getattr(rec, cli._record_attr(name)) if rec else None)
    return "\n".join(lines) + "\n", vertices, fields


def test_u_only_cells_are_the_profile_records(tmp_path):
    spec, f0, u, v, nu, nv = GRID_CASES["u-only-cells"]
    out = tmp_path / "i.csv"
    assert main(["invariants", "--spec", spec, "--u", u, "--v", v,
                 "--grid", f"{nu}x{nv}", "--out", str(out)]) == 0
    header, *lines = out.read_text().splitlines()
    at = {name: i for i, name in enumerate(header.split(","))}
    rows = {}
    for line in lines:
        cells = line.split(",")
        rows.setdefault(cells[0], []).append(cells)
    assert len(rows) == nu
    general = [c for row in rows.values() for c in row if c[-1] == "general"]
    assert {c[at["epsilon"]] for c in general} == {"1", "-1"}
    assert {c[-1] for row in rows.values() for c in row} == {
        "general", "hyperplanar-flat"}
    u_range, v_range = (tuple(float(x) for x in r.split(":")) for r in (u, v))
    profile = cli.build_surface(*parse_family_spec(spec), f0, u_range,
                                v_range).surface.profile
    for ru, row in rows.items():
        p = profile_point(profile, float(ru))
        want = [repr(p.gamma1), repr(-p.gamma1), repr(p.K), "0.0"]
        for cells in row:
            if cells[-1] == "general":
                assert [cells[at[n]] for n in ("gamma1", "gamma2", "K",
                                               "varkappa")] == want


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_outputs_match_point_by_point(tmp_path, case):
    spec, f0, u, v, nu, nv = GRID_CASES[case]
    csv_text, vertices, fields = point_by_point(spec, f0, u, v, nu, nv)
    base = ["--spec", spec, "--u", u, "--v", v, "--grid", f"{nu}x{nv}"]
    if f0 is not None:
        base += ["--f0", f0]
    inv, mesh = tmp_path / "i.csv", tmp_path / "m.json"
    assert main(["invariants", *base, "--out", str(inv)]) == 0
    assert inv.read_text() == csv_text
    assert main(["mesh", *base, "--fields", ",".join(cli.MESH_FIELDS),
                 "--out", str(mesh)]) == 0
    out = json.loads(mesh.read_text())
    assert json.dumps(out["vertices"]) == json.dumps(vertices)
    assert json.dumps(out["fields"]) == json.dumps(fields)


@pytest.mark.parametrize("command, flag, value", [
    ("family", "--format", "csv"), ("family", "--grid", "2x2"),
    ("verify", "--tol", "1e-9"),
    ("mesh", "--oracle-step", "1e-4"), ("invariants", "--fields", "K"),
    ("verify", "--projection", "none")])
def test_flags_exist_only_where_they_are_read(tmp_path, command, flag, value):
    argv = [command, "--spec", "parallel-a c=1 d=1 a=0 sign=+", "--u", "0:1",
            "--v", "0:1", "--out", str(tmp_path / "x"), flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


# --- parser -------------------------------------------------------------------

# each command's required options
_REQUIRED = {"family": ["--spec", "parallel-a c=1 d=1", "--u", "0:1"]}
_REQUIRED.update((c, _REQUIRED["family"] + ["--v", "0:1"])
                 for c in ("invariants", "verify", "mesh"))


def _exit(parse, argv, capsys):
    """(stdout, stderr, exit code) of parse(argv), which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return out, err, exc.value.code


# each command's usage line, as a usage error prints it above its error line
_USAGE = {
    "family": "usage: meridian4 family --spec SPEC [--f0 F0] --u U [--v V] --out OUT",
    "invariants": "usage: meridian4 invariants --spec SPEC [--f0 F0] --u U --v V "
                  "--out OUT [--grid GRID] [--tol TOL]",
    "verify": "usage: meridian4 verify --spec SPEC [--f0 F0] --u U --v V [--out OUT] "
              "[--grid GRID] [--oracle-step ORACLE_STEP]",
    "mesh": "usage: meridian4 mesh --spec SPEC [--f0 F0] --u U --v V --out OUT "
            "[--grid GRID] [--fields FIELDS] [--projection PROJECTION]",
    None: "usage: meridian4 {family,invariants,verify,mesh} ...",
}
_CHOOSE = "choose from family, invariants, verify, mesh"


def _usage_error(command, message):
    prog = "meridian4" if command is None else f"meridian4 {command}"
    return "", f"{_USAGE[command]}\n{prog}: error: {message}\n", 1


def _help(command):
    return f"{_USAGE[command]}\n\n{cli.__doc__}", "", 0


@pytest.mark.parametrize("argv, expected", [
    pytest.param(["--help"], _help(None), id="--help"),
    pytest.param([], _usage_error(None, f"missing command; {_CHOOSE}"), id="empty"),
    pytest.param(["bogus"], _usage_error(None, f"unknown command 'bogus'; {_CHOOSE}"),
                 id="bogus"),
] + [pytest.param(argv, expected, id=f"{c} {what}")
     for c, required in _REQUIRED.items() for what, argv, expected in (
    ("--help", [c, "--help"], _help(c)),
    ("--bogus", [c, *required, "--bogus", "1"], _usage_error(c, "unknown flag '--bogus'")),
    ("no --spec", [c, *required[2:]],
     _usage_error(c, "missing --spec" + ("" if c == "verify" else ", --out"))))])
def test_each_usage_error_and_help_exits_with_its_message(capsys, argv, expected):
    assert _exit(main, argv, capsys) == expected


@pytest.mark.parametrize("command, argv, message", [
    ("family", ["--u", "--spec", "parallel-a c=1 d=1"], "flag --u needs a value"),
    ("family", ["--spec", "parallel-a c=1 d=1", "--u", "0:1", "--out"],
     "flag --out needs a value"),
    ("verify", ["--spec", "x", "--u", "0:1", "--v", "0:1", "--spec", "y"],
     "flag --spec is given more than once"),
    ("mesh", ["--u=0:1", "--u", "0:1"], "flag --u is given more than once"),
    ("family", ["--f0", "one"], "flag --f0 needs a number, got 'one'"),
    ("invariants", ["--tol=abc"], "flag --tol needs a number, got 'abc'"),
    ("verify", ["--oracle-step", ""], "flag --oracle-step needs a number, got ''"),
    # a prefix of a flag is not that flag
    ("verify", ["--orac", "1e-4"], "unknown flag '--orac'"),
    ("family", ["--spec", "chen", "b=1"], "expected a flag, found 'b=1'")])
def test_a_usage_error_is_one_error_line_and_exit_1(capsys, command, argv, message):
    assert _exit(main, [command, *argv], capsys) == _usage_error(command, message)


def test_help_goes_before_what_follows_it(capsys):
    assert _exit(main, ["-h"], capsys) == _exit(main, ["--help", "bogus"], capsys)
    assert _exit(main, ["mesh", "--u", "0:1", "-h", "--bogus"], capsys) == \
        _help("mesh")


def test_the_readme_flag_table_names_each_command_s_flags():
    # each row of README's "extra flags" table against the parser's table
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme[readme.index("| subcommand   | extra flags |"):].split("\n\n")[0]
    common, rows = set(cli._COMMON), {}
    for line in table.splitlines()[2:]:
        command, text = line.strip("|").split("|", 1)
        rows[command.strip(" `")] = set(re.findall(r"--[a-z][a-z0-9-]*", text)) - common
    assert rows == {c: set(flags) - common for c, flags in cli._FLAGS.items()}


def test_main_without_argv_reads_sys_argv(tmp_path, monkeypatch, capsys):
    argv = ["family", *_REQUIRED["family"], "--out", str(tmp_path / "a.csv")]
    monkeypatch.setattr(sys, "argv", ["meridian4", *argv[:-1], str(tmp_path / "b.csv")])
    assert main() == main(argv) == 0
    assert read(tmp_path / "a.csv") == read(tmp_path / "b.csv")
    monkeypatch.setattr(sys, "argv", ["meridian4", "verify", "--help"])
    assert _exit(main, None, capsys) == _exit(main, ["verify", "--help"], capsys)


@pytest.mark.parametrize("command, u, v", [
    ("family", "-1:1", None), ("invariants", "0:1", "-0.5:0.5"),
    ("mesh", "-.5:1", "0:1")])
def test_a_value_may_start_with_a_minus(tmp_path, command, u, v):
    # a value may start with "-", and reads as the same value joined by "="
    outs = []
    for joined in (False, True):
        argv = [command, "--spec", "parallel-a c=1 d=2"]
        for flag, value in (("--u", u), ("--v", v)):
            if value is not None:
                argv += [f"{flag}={value}"] if joined else [flag, value]
        outs.append(tmp_path / f"{joined}.out")
        assert main([*argv, "--out", str(outs[-1])]) == 0
    assert read(outs[0]) == read(outs[1])


def test_a_negative_number_reaches_the_programs_own_check(tmp_path, capsys):
    argv = ["family", "--spec", "constant-mean a=0.5 b=2 C=0 eps=+ branch=+",
            "--u", "0:0.15", "--f0", "-1e-3", "--out", str(tmp_path / "f.csv")]
    assert main(argv) == 1
    assert "f0 > 0" in capsys.readouterr().err
    # a flag followed by a flag is given no value
    out, err, code = _exit(main, ["family", "--u", *_REQUIRED["family"][:2]], capsys)
    assert code == 1 and err.endswith("error: flag --u needs a value\n")


@pytest.mark.parametrize("f0", ["nan", "inf", "-inf", "0"])
@pytest.mark.parametrize("spec", ["constant-mean a=0.5 b=2 C=0 eps=+ branch=+",
                                  "chen b=1 c=1 branch=+"])
def test_an_ode_family_refuses_f0_that_is_not_finite_and_positive(tmp_path, capsys,
                                                                  spec, f0):
    # NaN and inf pass no `f0 <= 0` test: only a range check refuses them
    code = main(["family", "--spec", spec, f"--f0={f0}", "--u", "0:1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: ODE variants need a finite starting value f0 > 0, "
                   f"got {float(f0)!r}"]


@pytest.mark.parametrize("f0", ["nan", "-inf"])
def test_f0_given_apart_from_its_flag_reaches_the_families_check(tmp_path, capsys, f0):
    code = main(["family", "--spec", "chen b=1 c=1 branch=+", "--f0", f0, "--u", "0:1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: ODE variants need a finite starting value f0 > 0, got {float(f0)!r}"]


@pytest.mark.parametrize("command", ["family", "invariants", "mesh"])
def test_a_command_without_out_is_exit_1(capsys, command):
    # 2 is reserved for a truncated generation, so a usage error exits 1
    out, err, code = _exit(main, [command, *_REQUIRED[command]], capsys)
    assert code == 1 and err.endswith("error: missing --out\n")


# --- mesh command -------------------------------------------------------------

def test_mesh_schema_and_reference_vertex(tmp_path):
    out = tmp_path / "mesh.json"
    code = main(["mesh", "--spec", "parallel-a c=1 d=1 a=0 sign=+",
                 "--u", "0:3", "--v", "0:6.283185307179586", "--grid", "5x5",
                 "--fields", "K,H_norm", "--out", str(out)])
    assert code == 0
    mesh = json.loads(out.read_text())
    assert mesh["grid"] == [5, 5]
    assert mesh["projection"] == "none"
    assert len(mesh["vertices"]) == 25
    assert len(mesh["fields"]["K"]) == 25
    assert len(mesh["fields"]["H_norm"]) == 25
    assert mesh["vertices"][0] == pytest.approx(
        [1.0, 0.0, -0.8249579113843053, 0.5892556509887896], abs=1e-9)
    # K depends only on u: constant along each row of 5 v-samples
    K = mesh["fields"]["K"]
    for i in range(5):
        block = K[5 * i:5 * i + 5]
        assert block == pytest.approx([block[0]] * 5, abs=1e-12)


def test_mesh_projection_drops_e4(tmp_path):
    out = tmp_path / "mesh3.json"
    code = main(["mesh", "--spec", "parallel-a c=1 d=1 a=0 sign=+",
                 "--u", "0:3", "--v", "0:6.28", "--grid", "3x3",
                 "--projection", "drop-e4", "--out", str(out)])
    assert code == 0
    mesh = json.loads(out.read_text())
    assert mesh["projection"] == "drop-e4"
    assert all(len(vtx) == 3 for vtx in mesh["vertices"])


def test_mesh_unknown_field_is_exit_1(tmp_path, capsys):
    code = main(["mesh", "--spec", "parallel-a c=1 d=1 a=0 sign=+",
                 "--u", "0:3", "--v", "0:6.28", "--grid", "3x3",
                 "--fields", "bogus", "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_mesh_unknown_projection_is_exit_1(tmp_path, capsys):
    # refused by the command, as an unknown field is: one error line, no usage
    code = main(["mesh", "--spec", "parallel-a c=1 d=1 a=0 sign=+",
                 "--u", "0:3", "--v", "0:6.28", "--grid", "3x3",
                 "--projection", "drop-e3", "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert capsys.readouterr().err == ("error: unknown mesh projection 'drop-e3'; "
                                       "choose from ('none', 'drop-e4')\n")
    assert not (tmp_path / "m.json").exists()


def test_mesh_refuses_a_repeated_field(tmp_path, capsys):
    out = tmp_path / "m.json"
    code = main(["mesh", "--spec", "parallel-a c=1 d=1", "--u", "0:1",
                 "--v", "0:1", "--grid", "2x2", "--fields", "K,K,H_norm",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: mesh field 'K' is given more than once\n"
    assert not out.exists()


def test_mesh_fields_are_null_where_the_record_is_undefined(tmp_path):
    # phi = sec(v) has kappa = 0: every point is flat, so no field is defined
    out = tmp_path / "flat.json"
    code = main(["mesh", "--spec", "direct f=sqrt(u+1) phi=sec(v)",
                 "--u", "0:2", "--v", "0.1:0.5", "--grid", "3x3",
                 "--fields", "K,k,H_norm", "--out", str(out)])
    assert code == 0
    fields = json.loads(out.read_text())["fields"]
    assert all(fields[f] == [None] * 9 for f in ("K", "k", "H_norm"))


@pytest.mark.parametrize("axis, ranges", [
    ("u", ("0:0.004", "0:1")), ("v", ("0:1", "0.5:0.509"))])
def test_verify_refuses_a_domain_narrower_than_the_sample_margin(
        tmp_path, capsys, axis, ranges):
    code = main(["verify", "--spec", "parallel-a c=1 d=1", "--u", ranges[0],
                 "--v", ranges[1], "--grid", "2x2", "--out", str(tmp_path / "r.json")])
    assert code == 1
    lo, hi = (float(x) for x in ranges[axis == "v"].split(":"))
    assert capsys.readouterr().err.splitlines() == [
        f"error: the {axis} domain [{lo}, {hi}] of width {hi - lo:g} is narrower "
        "than twice the sample margin 0.005"]
    assert not (tmp_path / "r.json").exists()


def test_reproduction_command_at_negative_eps(tmp_path):
    # <H,H> < 0 on this surface: every oracle row keeps its plain name, and
    # the identity suite keeps the two rows that relate independent formulas
    spec = "constant-mean a=0.5 b=2 C=0 eps=- branch=+"
    out = tmp_path / "m.json"
    assert main(["verify", "--spec", spec, "--f0", "0.6", "--u", "0:0.3",
                 "--v", "0:0.3", "--grid", "3x3", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    names = [c["check"] for c in checks]
    assert [n for n in names if n.startswith("oracle")] == [
        f"oracle:{f}" for f in _ORACLE_FIELDS]
    s = cli.build_surface(*parse_family_spec(spec), 0.6, (0.0, 0.3), (0.0, 0.3)).surface
    pts = sample_general_points(s, 9, random.Random(SAMPLE_SEED),
                                invariants.DEFAULT_ORACLE_STEP)
    assert {eight_invariants(point_data(s, u, v)).epsilon for u, v in pts} == {-1}
    # the identity rows stand between the oracle rows and frame-gram
    rows = checks[len(_ORACLE_FIELDS):names.index("frame-gram")]
    assert [r["check"] for r in rows] == ["k+4*nu1*nu2*mu^2", "K-eps*(nu1*nu2-lam^2+mu^2)"]
    assert all(r["pass"] for r in rows)
