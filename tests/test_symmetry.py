"""The closed forms under the two maps that fix the lightlike axis.

The surfaces lie on the rotational hypersurface with lightlike axis, z = f phi
cos v e1 + f phi sin v e2 + (f phi^2/2 + g) xi1 + f xi2. The boost xi1 -> t xi1,
xi2 -> xi2/t is an isometry of R^4_1 that takes (f, phi) to (f/t, t phi): every
invariant is unchanged. The homothety z -> lambda z takes f to lambda f(u/lambda)
over lambda times the u range, with the same phi: an invariant of length
weight w scales by lambda^(-w). For t and lambda powers of 2 every scaling is
exact in binary floating point, so both relations hold bit for bit.
"""

import math

import pytest

from meridian4.expressions import compile_expression
from meridian4.invariants import InvariantRecord, eight_invariants
from meridian4.profile import Directrix, ProfileCurve, sample_grid
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
