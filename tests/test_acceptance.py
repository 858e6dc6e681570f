"""End-to-end acceptance checks, one test per criterion.

Each test covers one headline guarantee of the package: reproduction of the
five classified families at pinned tolerances, equivalence of the closed
forms with the finite-difference oracle, the algebraic identity suite, the
frame derivative table, degenerate-point detection, and the CLI contract.
"""

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from meridian4.cli import MESH_FIELDS, main
from meridian4.errors import MarginallyTrappedError
from meridian4.expressions import compile_expression
from meridian4.families import (Chen, ConstantGauss, ConstantK, ConstantMean,
                                ParallelA, ParallelB, constant_kappa_directrix,
                                generate)
from meridian4.invariants import (DEFAULT_ORACLE_STEP, StencilPass,
                                  eight_invariants, oracle_frame_derivatives,
                                  oracle_invariants)
from meridian4.jets import jcos, jsqrt
from meridian4.minkowski import minkowski_dot
from meridian4.profile import Directrix, ProfileCurve, profile_point
from meridian4.surface import MeridianSurface, PointCase, frames, point_data
from meridian4.verification import sample_general_points

TWO_PI = 2.0 * math.pi
DATA = Path(__file__).parent / "data"


def unit_phi():
    return Directrix(compile_expression("1", "v"), (0.0, TWO_PI))


def const_phi(p):
    return Directrix(compile_expression(repr(p), "v"), (0.0, TWO_PI))


def u_samples(u_range, n=50):
    u0, u1 = u_range
    pad = 1e-6 * (u1 - u0)
    return [u0 + pad + (u1 - u0 - 2 * pad) * i / (n - 1) for i in range(n)]


def report(name):
    print(f"PASS {name}")


def invariants_at(s, u, v):
    return eight_invariants(point_data(s, u, v))


def components(v):
    return (v.c1, v.c2, v.c3, v.c4)


# --- 1: constant Gauss curvature ---------------------------------------------

def test_criterion_01_constant_gauss_reproduction():
    # safe u-ranges keep f > 0 and f' != 0 for each coefficient choice
    ranges = {
        (1.0, 1.0, 0.0): (0.1, 1.4), (1.0, 0.0, 1.0): (0.1, 1.4),
        (1.0, 1.0, 1.0): (0.9, 1.4),
        (4.0, 1.0, 0.0): (0.05, 0.7), (4.0, 0.0, 1.0): (0.05, 0.7),
        (4.0, 1.0, 1.0): (0.45, 0.7),
    }
    for K in (1.0, -1.0, 4.0, -0.25):
        for (alpha, beta) in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
            u_range = ranges.get((K, alpha, beta), (0.1, 1.4))
            gen = generate(ConstantGauss(K=K, alpha=alpha, beta=beta), None,
                           u_range, unit_phi())
            for u in u_samples(gen.u_range):
                assert abs(profile_point(gen.surface.profile, u).K - K) <= 1e-9, \
                    (K, alpha, beta, u)
    report("criterion 1: constant Gauss curvature families, |K - target| <= 1e-9")


# --- 2: constant mean curvature ----------------------------------------------

def test_criterion_02_constant_mean_reproduction():
    cases = [
        (ConstantMean(a=0.5, b=2.0, C=0.0, epsilon=1, branch=1), 0.6,
         constant_kappa_directrix(2.0, (0.0, 0.3))),
        (ConstantMean(a=0.5, b=1.0, C=0.0, epsilon=-1, branch=1), 0.6,
         constant_kappa_directrix(1.0, (0.0, 0.5))),
    ]
    for spec, f0, directrix in cases:
        gen = generate(spec, f0, (0.0, 3.0), directrix)
        v0, v1 = gen.surface.directrix.domain
        vm = 0.5 * (v0 + v1)
        for u in u_samples(gen.u_range):
            assert abs(invariants_at(gen.surface, u, vm).H_norm
                       - spec.a) <= 1e-6, (spec, u)
            assert spec.residual(profile_point(gen.surface.profile, u)) <= 1e-6
    report("criterion 2: constant mean curvature families, "
           "| ||H|| - a | <= 1e-6 and defining residual <= 1e-6")


# --- 3: constant invariant k --------------------------------------------------

def test_criterion_03_constant_k_reproduction():
    for branch in (1, -1):
        spec = ConstantK(a=1.0, b=-1.0, c=0.5, branch=branch)
        gen = generate(spec, 0.5, (0.0, 1.5), unit_phi())
        for u in u_samples(gen.u_range):
            assert abs(invariants_at(gen.surface, u, math.pi).k
                       + spec.a**2) <= 1e-6, (branch, u)
    report("criterion 3: constant-k families, |k + a^2| <= 1e-6")


# --- 4: Chen surfaces ---------------------------------------------------------

def test_criterion_04_chen_reproduction():
    directrices = {1.0: constant_kappa_directrix(1.0, (0.0, 0.5)),
                   2.0: constant_kappa_directrix(2.0, (0.0, 0.3))}
    for (b, c) in ((1.0, 1.0), (2.0, 0.5)):
        for branch in (1, -1):
            gen = generate(Chen(b=b, c=c, exponent_branch=branch), 1.5,
                           (0.0, 1.5), directrices[b])
            v0, v1 = gen.surface.directrix.domain
            vm = 0.5 * (v0 + v1)
            for u in u_samples(gen.u_range):
                lam = invariants_at(gen.surface, u, vm).lam
                assert abs(lam) <= 1e-6, (b, c, branch, u)
    report("criterion 4: Chen families, |lambda| <= 1e-6")


# --- 5: parallel normal bundle ------------------------------------------------

def test_criterion_05_parallel_normal_bundle_reproduction():
    runs = []
    gen_a = generate(ParallelA(c=1.0, d=1.0, a=0.0, sign=1), None,
                     (0.0, 3.0), unit_phi())
    runs.append((gen_a, 1.0))
    gen_b1 = generate(ParallelB(a=1.0, c=1.0, b=-2.0), 1.0, (0.0, 1.0),
                      const_phi(0.5))
    runs.append((gen_b1, 1.0))
    gen_b2 = generate(ParallelB(a=2.0, c=-0.5, b=-1.0), 1.0, (0.0, 1.0),
                      unit_phi())
    runs.append((gen_b2, 1.0))
    for gen, v in runs:
        for u in u_samples(gen.u_range):
            r = invariants_at(gen.surface, u, v)
            assert abs(r.beta1) <= 1e-6 and abs(r.beta2) <= 1e-6, (gen.spec, u)
    report("criterion 5: parallel normal bundle families, "
           "|beta1|, |beta2| <= 1e-6")


# --- 6 & 7: oracle equivalence + identity suite -------------------------------

ORACLE_FIELDS = ("gamma1", "gamma2", "nu1", "nu2", "lam", "mu",
                 "beta1", "beta2", "K", "k", "varkappa",
                 "H_n1", "H_n2", "H_norm")


def _oracle_surfaces():
    return [
        MeridianSurface(ProfileCurve(lambda u: jsqrt(u + 1.0), (0.0, 3.0)),
                        unit_phi()),
        MeridianSurface(ProfileCurve(jcos, (0.6, 1.0)), unit_phi()),
        MeridianSurface(ProfileCurve(lambda u: jsqrt(2.0 * u + 0.5),
                                     (0.0, 3.0)), unit_phi()),
        MeridianSurface(ProfileCurve(lambda u: jsqrt(u + 1.0), (0.0, 3.0)),
                        Directrix(compile_expression("2+0.5*sin(v)", "v"),
                                  (0.0, TWO_PI))),
        MeridianSurface(ProfileCurve(jcos, (0.6, 1.0)), const_phi(0.8)),
    ]


def _oracle_sample():
    rng = np.random.default_rng(1)
    sample = []
    for s in _oracle_surfaces():
        pts = sample_general_points(s, 20, rng, DEFAULT_ORACLE_STEP)
        sample.extend((s, u, v) for (u, v) in pts)
    assert len(sample) == 100
    return sample


def test_criterion_06_oracle_equivalence():
    for s, u, v in _oracle_sample():
        closed = invariants_at(s, u, v)
        numeric = oracle_invariants(StencilPass(s, u, v, 1e-4))
        for name in ORACLE_FIELDS:
            err = abs(getattr(closed, name) - getattr(numeric, name))
            assert err <= 1e-6, (name, u, v, err)
    # halving-order: the oracle's error is O(h^2), so going from h = 1e-3
    # to h = 1e-4 should shrink it by about 100x.
    s = _oracle_surfaces()[1]
    u, v = 0.8, 1.0

    def total_err(h):
        closed = invariants_at(s, u, v)
        numeric = oracle_invariants(StencilPass(s, u, v, h))
        return sum(abs(getattr(closed, n) - getattr(numeric, n))
                   for n in ("gamma1", "nu1", "lam", "mu", "beta1", "beta2"))

    ratio = total_err(1e-3) / total_err(1e-4)
    assert 50.0 <= ratio <= 200.0, ratio
    report("criterion 6: oracle equivalence <= 1e-6 on 100 points, "
           f"halving-order ratio {ratio:.1f} in [50, 200]")


def test_criterion_07_identity_suite():
    for s, u, v in _oracle_sample():
        d = point_data(s, u, v)
        r = eight_invariants(d)
        assert abs(r.gamma1 + r.gamma2) <= 1e-9
        assert abs(r.nu1 - r.nu2) <= 1e-9
        assert abs(r.varkappa) <= 1e-9
        assert abs(r.k + 4.0 * r.nu1 * r.nu2 * r.mu**2) <= 1e-9
        assert abs(r.K - r.epsilon * (r.nu1 * r.nu2 - r.lam**2
                                      + r.mu**2)) <= 1e-9
        # frame Gram must be diag(1, 1, eps, -eps)
        nf = frames(d)
        frame = (nf.x, nf.y, nf.b, nf.l)
        target = np.diag([1.0, 1.0, float(nf.epsilon), -float(nf.epsilon)])
        gram = np.array([[minkowski_dot(a, b) for b in frame] for a in frame])
        assert float(np.max(np.abs(gram - target))) <= 1e-9
    report("criterion 7: identity suite and frame Gram <= 1e-9 on 100 points")


# --- 8: derivative formulas ---------------------------------------------------

def test_criterion_08_derivative_formula_suite():
    rng = np.random.default_rng(3)
    surfaces = [_oracle_surfaces()[0], _oracle_surfaces()[2]]
    for s in surfaces:
        for (u, v) in sample_general_points(s, 15, rng, DEFAULT_ORACLE_STEP):
            stencil = StencilPass(s, u, v, 1e-4)
            tf = stencil.centre
            d, n1, n2 = tf.d, tf.n1, tf.n2
            p, kappa = d.p, d.c.kappa
            fof = p.fp / p.f
            derivs = oracle_frame_derivatives(stencil)
            expected = {
                "XX": -p.kappa_m * n2,
                "XY": 0.0 * n1,
                "YX": fof * tf.Y,
                "YY": -fof * tf.X + (kappa / p.f) * n1 - fof * n2,
                "Xn1": 0.0 * n1,
            }
            for name, want in expected.items():
                got = derivs[name]
                for a, b in zip(components(got), components(want)):
                    assert abs(a - b) <= 1e-6, (name, u, v)
            sf = {(w, n): minkowski_dot(derivs[w], normal)
                  for w in ("XX", "XY", "YY") for n, normal in (("n1", n1), ("n2", n2))}
            # <n2, n2> = -1 flips the sign of every n2 inner product
            assert abs(sf[("XX", "n1")]) <= 1e-6
            assert abs(sf[("XX", "n2")] - p.kappa_m) <= 1e-6
            assert abs(sf[("XY", "n1")]) <= 1e-6
            assert abs(sf[("XY", "n2")]) <= 1e-6
            assert abs(sf[("YY", "n1")] - kappa / p.f) <= 1e-6
            assert abs(sf[("YY", "n2")] - fof) <= 1e-6
    report("criterion 8: frame derivative table reproduced by the oracle "
           "to <= 1e-6")


# --- 9: degenerate-case detection ---------------------------------------------

def test_criterion_09_case_detection():
    sec_surface = MeridianSurface(
        ProfileCurve(lambda u: jsqrt(u + 1.0), (0.0, 3.0)),
        Directrix(compile_expression("sec(v)", "v"), (-1.0, 1.0)))
    assert point_data(sec_surface, 1.0, 0.2).case is PointCase.HYPERPLANAR_FLAT

    linear = MeridianSurface(
        ProfileCurve(compile_expression("1 + 0.5*u"), (0.0, 2.0)), unit_phi())
    assert point_data(linear, 1.0, 1.0).case is \
        PointCase.DEVELOPABLE_RULED_FLAT

    # f = cos u, phi = 1: disc(u) = sin^2 u - cos^2 2u has a simple zero at
    # pi/6; bisect it to 1e-12.
    trapped = MeridianSurface(ProfileCurve(jcos, (0.05, 1.0)), unit_phi())

    def disc(u):
        return point_data(trapped, u, 1.0).disc

    lo, hi = 0.4, 0.7
    assert disc(lo) < 0.0 < disc(hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if disc(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    u_star = 0.5 * (lo + hi)
    assert abs(u_star - math.pi / 6.0) <= 1e-9
    assert point_data(trapped, u_star, 1.0, tol=1e-8).case is \
        PointCase.MARGINALLY_TRAPPED
    with pytest.raises(MarginallyTrappedError):
        invariants_at(trapped, u_star, 1.0)
    report("criterion 9: hyperplanar-flat, developable-ruled and "
           "marginally-trapped points detected")


# --- 10: CLI determinism, golden file, exit codes -----------------------------

GOLDEN_ARGS = ["invariants", "--spec", "parallel-a c=1 d=1 a=0 sign=+",
               "--u", "0:3", "--v", "0:6.283185307179586", "--grid", "10x10"]


def test_criterion_10_cli_golden_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "invariants.csv"
    assert main(GOLDEN_ARGS + ["--out", str(out)]) == 0
    golden = (DATA / "golden_invariants.csv").read_bytes()
    assert out.read_bytes() == golden

    # exit 1: spec parse error with a diagnostic naming the problem
    code = main(["family", "--spec", "constant-gauss K=0 alpha=1 beta=0",
                 "--u", "0:1:0.1", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "K must be nonzero" in capsys.readouterr().err

    # exit 2: truncated generation, realized range recorded in the JSON echo
    code = main(["family", "--spec",
                 "constant-mean a=0.5 b=2 C=0 eps=+ branch=+",
                 "--f0", "0.6", "--u", "0:10:0.1", "--v", "0:0.3",
                 "--out", str(tmp_path / "cm.csv")])
    assert code == 2
    echo = json.loads((tmp_path / "cm.json").read_text())
    assert echo["realized_range"][1] < 10.0
    report("criterion 10: CLI golden file byte-identical; exit codes 0/1/2")


MIXED_ARGS = ["--spec", "constant-gauss K=1 alpha=1 beta=0 phi=2+cos(v)",
              "--u", "0.1:1.4", "--v", "0:6.283185307179586", "--grid", "12x11"]


def test_criterion_10_mixed_epsilon_golden_files(tmp_path):
    # The parallel-a golden file has eps = +1 and kappa_dot = 0 only. This
    # grid has general rows at both signs of <H,H>, flat rows and
    # kappa_dot != 0, so it pins the bits of lambda's sign at eps = -1 and
    # of the kappa_dot cross term in beta1 and beta2.
    inv, mesh = tmp_path / "i.csv", tmp_path / "m.json"
    assert main(["invariants", *MIXED_ARGS, "--out", str(inv)]) == 0
    assert main(["mesh", *MIXED_ARGS, "--fields", ",".join(MESH_FIELDS),
                 "--out", str(mesh)]) == 0
    assert inv.read_bytes() == (DATA / "golden_invariants_mixed.csv").read_bytes()
    assert mesh.read_bytes() == (DATA / "golden_mesh_mixed.json").read_bytes()
    header, *lines = inv.read_text().splitlines()
    at = {name: i for i, name in enumerate(header.split(","))}
    rows = [line.split(",") for line in lines]
    assert Counter(r[at["epsilon"]] or r[-1] for r in rows) == {
        "-1": 90, "1": 30, "hyperplanar-flat": 12}
    # beta1 = -beta2 where kappa_dot = 0: on the v = 0 column, and to
    # rounding on 11 rows of the v = 2 pi column
    assert sum(float(r[at["beta1"]]) != -float(r[at["beta2"]])
               for r in rows if r[-1] == "general") == 97
    report("criterion 10: mixed-epsilon invariants and mesh byte-identical")


GOLDEN_VERIFY = {
    # verify_cmc's seed-0 command: eps = +1 at every sample point
    "golden_verify_cmc.json": [
        "--spec", "constant-mean a=0.5 b=2 C=0 eps=+ branch=+", "--f0", "0.6",
        "--u", "0.0:0.15", "--v", "0.0:0.3", "--grid", "5x4"],
    # eps = -1 at every sample point, and kappa_dot != 0
    "golden_verify_eps_minus.json": [
        "--spec", "constant-gauss K=-1 alpha=1 beta=0.5 phi=2+cos(v)",
        "--u", "0:1", "--v", "0:6.283185307179586", "--grid", "5x4"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY))
def test_criterion_10_verify_reports_byte_identical(name, tmp_path):
    # The report's errors are differences of oracle and closed-form values
    # at full precision, so any change to the bits of the frames, the
    # stencil differences or the Richardson rows shows here.
    out = tmp_path / "verify.json"
    assert main(["verify", *GOLDEN_VERIFY[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()
    report(f"criterion 10: verify report {name} byte-identical")


# --- verify on the surfaces of criteria 1 and 4 ---------------------------------
# Both exit 1 on oracle rows alone, next to a marginally trapped line or a
# realized end, where the Richardson-extrapolated central differences at the
# default step do not reach ORACLE_TOL. An oracle that estimates its own
# resolution is what should flip these; the tolerance and the sampler stay.

@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="oracle:beta1 and oracle:beta2 fail by 3.821e-3, at a "
                          "point 9e-4 from the marginally trapped line u = pi/6")
def test_verify_passes_on_the_criterion_01_surface():
    assert main(["verify", "--spec", "constant-gauss K=1 alpha=1 beta=0",
                 "--u", "0.1:1.4", "--v", "0:6.283185307179586"]) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="oracle:K fails by 1.027e-5 and oracle:nu1, nu2, lam, H_n2 "
                          "and H_norm by up to 1.352e-6, next to the realized end "
                          "u = 1.2756")
def test_verify_passes_on_the_criterion_04_surface():
    assert main(["verify", "--spec", "chen b=2 c=0.5 branch=-", "--f0", "1.5",
                 "--u", "0:1.5", "--v", "0:0.3"]) == 0
