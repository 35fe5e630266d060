"""Property suite over the wave regime: every solve certifies its Newton root or is refused.

The draws cover R0 in (1.05, 5), d3 up to 1.99*d2, delta = 0 in a share of
them, and speeds c in (1.01*c*, 4*c*), each on wave_window's grid. A solve
either certifies its Newton root with one unprojected step of the integral
map, or is refused with a ValueError (for example a grid too coarse for one of
the operators). A Newton failure (NotConverged, SingularJacobian) is neither,
and fails the draw. The examples are derandomized, so every run draws the same
configurations.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from sirwaves import ModelParams, solve_fixed_point, wave_window


@st.composite
def regime_points(draw):
    d2 = draw(st.floats(0.5, 2.0))
    gamma = draw(st.floats(0.2, 1.0))
    delta = draw(st.one_of(st.just(0.0), st.floats(0.1, 1.0)))
    r0 = draw(st.floats(1.05, 5.0, exclude_min=True, exclude_max=True))
    p = ModelParams(
        d1=draw(st.floats(0.5, 2.0)),
        d2=d2,
        d3=draw(st.floats(0.05, 1.99)) * d2,
        beta=r0 * (gamma + delta),
        gamma=gamma,
        delta=delta,
        s_minus_inf=draw(st.floats(0.5, 3.0)),
    )
    c_star = 2.0 * np.sqrt(d2 * (p.beta - gamma - delta))
    return p, draw(st.floats(1.01, 4.0, exclude_min=True, exclude_max=True)) * c_star


@settings(derandomize=True, database=None, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(regime_points())
def test_every_regime_solve_certifies_or_refuses(point):
    p, c = point
    try:
        rep = solve_fixed_point(p, c, wave_window(p, c))
    except ValueError:
        return
    assert rep.converged and rep.iterations == 1
    assert rep.newton_residuals[-1] <= 1e-10 and rep.agreement <= 1e-8
