"""Command-line interface: spec grammar, outputs, determinism, exit codes."""

import json
import math

import pytest

from meridian4.cli import main, parse_family_spec, SpecError
from meridian4.families import ConstantGauss, ParallelA


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


def test_invariants_exit_1_on_vanishing_f_prime(tmp_path, capsys):
    # f = u^2 + 1 has f'(0) = 0, where the normalization -2 f' g' = 1 fails.
    code = main(["invariants", "--spec", "direct f=u^2+1 phi=1",
                 "--u", "0:1", "--v", "0:1", "--grid", "3x3",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: f'(0.0)")


# --- verify command -----------------------------------------------------------

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
    assert exc.value.code == 2


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
