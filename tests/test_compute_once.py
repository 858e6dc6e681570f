"""Each public per-point function evaluates the profile and directrix jets
once per point it needs: the centre for the closed forms and frames, the
centre plus four stencil points for the oracle."""

import pytest

from meridian4 import invariants, surface
from meridian4.jets import jcos, jsqrt
from meridian4.profile import Directrix, ProfileCurve
from meridian4.surface import MeridianSurface


class Counted:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def counted_surface():
    f = Counted(lambda u: jsqrt(u + 1.0))
    phi = Counted(lambda v: 2.0 + jcos(v))   # kappa varies with v
    s = MeridianSurface(ProfileCurve(f, (0.0, 3.0), g_origin=-2.0 / 3.0),
                        Directrix(phi, (0.0, 6.0)))
    return s, f, phi


@pytest.mark.parametrize("fn, most", [
    (invariants.eight_invariants, 1),
    (invariants.mean_curvature, 1),
    (surface.normal_frame, 1),
    (surface.tangent_frame, 1),
    (invariants.oracle_invariants, 5),
    (invariants.oracle_frame_derivatives, 5),
])
def test_jets_evaluated_once_per_point(fn, most):
    s, f, phi = counted_surface()
    fn(s, 1.2, 2.0)
    assert 1 <= f.calls <= most
    assert 1 <= phi.calls <= most
