"""The closed forms under the two maps that fix the lightlike axis.

The surfaces lie on the rotational hypersurface with lightlike axis, z = f phi
cos v e1 + f phi sin v e2 + (f phi^2/2 + g) xi1 + f xi2. The boost xi1 -> t xi1,
xi2 -> xi2/t is an isometry of R^4_1 that takes (f, phi) to (f/t, t phi) and
g to t g: every invariant is unchanged. The homothety z -> lambda z takes f to
lambda f(u/lambda) over lambda times the u range, with the same phi: an
invariant of length weight w scales by lambda^(-w). For t and lambda powers of
2 every scaling is exact in binary floating point, so both relations hold bit
for bit, except where a power goes through libm pow (each such test says where).
"""

import math

import pytest

from meridian4.expressions import compile_expression
from meridian4.families import ConstantGauss, ParallelA, generate
from meridian4.invariants import InvariantRecord, eight_invariants
from meridian4.profile import (Directrix, ProfileCurve, g_from_f, profile_point,
                               sample_grid)
from meridian4.surface import GENERAL, MeridianSurface, point_data

U_RANGE, V_RANGE, N = (0.0, 1.0), (0.0, 6.0), 30
# each profile's sign of <H,H> on the grid: f' > 0 at both signs, f' < 0 at -1
PROFILES = {"sqrt(u+1)": 1, "exp(u)": -1, "1/(u+1)": -1}
DIRECTRICES = ["2+cos(v)", "2+sin(v)"]
SCALES = [2.0, 0.5, 4.0]

# the length weight w of each field: it scales by lambda^(-w) under the
# homothety (varkappa = 0 and the sign epsilon do not scale)
WEIGHT = dict.fromkeys(InvariantRecord._fields, 1)
WEIGHT.update(K=2, k=4, varkappa=0, epsilon=0)


def _surface(f, phi, u_range):
    return MeridianSurface(ProfileCurve(f, u_range), Directrix(phi, V_RANGE))


def _grid(s, scale=1.0):
    """{(u, v): (case, record)} over the N x N grid of U_RANGE and V_RANGE,
    each u read at scale * u on s; every point is general."""
    out = {}
    for u in sample_grid(U_RANGE, N):
        for v in sample_grid(V_RANGE, N):
            d = point_data(s, scale * u, v)
            out[u, v] = d.case, eight_invariants(d)
    return out


@pytest.fixture(scope="module", params=[(f, phi) for f in PROFILES for phi in DIRECTRICES],
                ids=lambda p: f"{p[0]} {p[1]}")
def base(request):
    f_text, phi_text = request.param
    f, phi = compile_expression(f_text, "u"), compile_expression(phi_text, "v")
    return f_text, f, phi, _grid(_surface(f, phi, U_RANGE))


def test_every_cell_is_general_at_the_profile_s_sign_of_h_h(base):
    f_text, _, _, grid = base
    assert {case for case, _ in grid.values()} == {GENERAL}
    assert {r.epsilon for _, r in grid.values()} == {PROFILES[f_text]}


@pytest.mark.parametrize("t", SCALES)
def test_the_boost_keeps_every_record(base, t):
    _, f, phi, grid = base
    boosted = _surface(lambda x: f(x) / t, lambda x: t * phi(x), U_RANGE)
    assert _grid(boosted) == grid


@pytest.mark.parametrize("lam", SCALES)
def test_the_homothety_scales_each_field_by_its_weight(base, lam):
    f_text, f, phi, grid = base
    scaled = _surface(lambda x: lam * f(x / lam), phi,
                      (lam * U_RANGE[0], lam * U_RANGE[1]))
    want = {key: (case, InvariantRecord(
        *(value * lam ** -WEIGHT[name] if WEIGHT[name] else value
          for name, value in zip(r._fields, r))))
        for key, (case, r) in grid.items()}
    got = _grid(scaled, lam)
    if f_text != "1/(u+1)" or lam != 0.5:
        assert got == want
        return
    # here lam and k come out up to 4.6e-16 apart, relative; every case and
    # every other field is still bit for bit. The closed forms square f, f'
    # f'' and kappa as products, but two powers stay: -kappa_m**2 in k, whose
    # product form moves golden_invariants.csv, and f'**4 in lam, whose form
    # f'^2 * f'^2 moves golden_verify_cmc.json
    assert [case for case, _ in got.values()] == [case for case, _ in want.values()]
    for (_, r), (_, w) in zip(got.values(), want.values()):
        for name, a, b in zip(r._fields, r, w):
            assert a == b if name not in ("lam", "k") else \
                math.isclose(a, b, rel_tol=1e-15), name


# --- the boost on the closed-form families --------------------------------------
#
# A family that takes any directrix carries the boost in its parameters: f/t
# is ConstantGauss (K, alpha/t, beta/t) and ParallelA (c/t^2, d/t^2, t a),
# whose g is then t g, and phi -> t phi scales the directrix's curvature by
# 1/t. Each (name, parameters, u range) stays clear of the f' floor, whose
# crossing does not scale.

CLOSED_FORMS = [
    ("gauss K>0", lambda t: ConstantGauss(1.0, 1.0 / t, -0.5 / t), (0.1, 1.0)),
    ("gauss K<0 tanh", lambda t: ConstantGauss(-1.0, 1.0 / t, 0.5 / t), (0.0, 1.0)),
    ("gauss K<0 atan", lambda t: ConstantGauss(-2.0, 0.5 / t, 1.0 / t), (0.0, 1.0)),
    ("gauss K<0 exp", lambda t: ConstantGauss(-1.0, 1.0 / t, 1.0 / t), (0.0, 1.0)),
    ("parallel-a", lambda t: ParallelA(1.0 / (t * t), 1.0 / (t * t), 0.5 * t), (0.0, 0.8)),
]
FAMILY_N = 12
DISC_FIELDS = ("nu1", "nu2", "lam", "mu", "beta1", "beta2", "H_norm")


def _family(spec_at, t, u_range, phi):
    """(family rows, {(u, v): (case, record, kappa)}) of the member spec_at(t)
    over the directrix t phi on a FAMILY_N x FAMILY_N grid: each row is
    (u, f, f', f'', g), as the family command writes it."""
    gen = generate(spec_at(t), None, u_range, Directrix(lambda x: t * phi(x), V_RANGE))
    assert gen.u_range == u_range and not gen.truncated
    s = gen.surface
    rows, grid = [], {}
    for u in sample_grid(u_range, FAMILY_N):
        p = profile_point(s.profile, u)
        rows.append((u, p.f, p.fp, p.fpp, g_from_f(s.profile, u)))
        for v in sample_grid(V_RANGE, FAMILY_N):
            d = point_data(s, u, v)
            grid[u, v] = d.case, eight_invariants(d), d.c.kappa
    return rows, grid


@pytest.mark.parametrize("t", SCALES)
@pytest.mark.parametrize("name, spec_at, u_range", CLOSED_FORMS,
                         ids=[c[0] for c in CLOSED_FORMS])
def test_the_boost_moves_a_closed_form_family_by_its_parameters(name, spec_at, u_range, t):
    phi = compile_expression("2+cos(v)", "v")
    rows, grid = _family(spec_at, 1.0, u_range, phi)
    got_rows, got_grid = _family(spec_at, t, u_range, phi)
    assert got_rows == [(u, f / t, fp / t, fpp / t, t * g) for u, f, fp, fpp, g in rows]
    want = {key: (case, r, kappa / t) for key, (case, r, kappa) in grid.items()}
    if name != "gauss K<0 tanh" or t == 2.0:
        assert got_grid == want
        return
    # here the fields read from sqrt(|disc|) come out up to 3 ulps apart;
    # every case, kappa and other field is still bit for bit. combine's
    # disc = kappa**2 fp**2 - q**2 squares q through libm pow, which is not
    # correctly rounded everywhere: on the row u = 4/11, pow(q / t^2, 2)
    # misses pow(q, 2) / t^4 by an ulp
    assert [(c, k) for c, _, k in got_grid.values()] == [(c, k) for c, _, k in want.values()]
    for (_, r, _), (_, w, _) in zip(got_grid.values(), want.values()):
        for field, a, b in zip(r._fields, r, w):
            assert a == b if field not in DISC_FIELDS else \
                abs(a - b) <= 3 * math.ulp(b), field
