"""Cross-regime checks: nothing may quietly depend on the symmetric canonical set.

Three contrasting parameter sets: strongly asymmetric diffusion, zero removal
rate (conserved population) with a non-unit susceptible level, and a slow
removed-field diffusion near the d3 < 2*d2 boundary regime.
"""

import numpy as np
import pytest

from sirwaves import (
    Grid,
    ModelParams,
    SimConfig,
    align_profiles,
    map_inverses,
    minimal_speed,
    profile_diagnostics,
    run,
    solve_bvp_newton,
    solve_fixed_point,
    wave_window,
)

CASES = [
    ("asymmetric_diffusion",
     ModelParams(d1=2.0, d2=0.7, d3=1.0, beta=3.0, gamma=0.8, delta=0.4, s_minus_inf=1.0), 2.8),
    ("conserved_population",
     ModelParams(d1=0.5, d2=1.5, d3=2.5, beta=1.5, gamma=1.0, delta=0.0, s_minus_inf=3.0), 2.2),
    ("slow_removed_diffusion",
     ModelParams(d1=1.0, d2=1.0, d3=0.2, beta=4.0, gamma=1.0, delta=1.0, s_minus_inf=0.5), 3.2),
]


@pytest.mark.parametrize("name,p,c", CASES, ids=[c[0] for c in CASES])
def test_fixed_point_and_diagnostics_across_regimes(name, p, c):
    tol = 1e-9
    grid = wave_window(p, c)
    rep = solve_fixed_point(p, c, grid, tol=tol)
    assert rep.converged
    d = profile_diagnostics(rep.profile, grid, p, c)
    noise = 10.0 * tol  # monotonicity holds down to the stopping tolerance
    assert d.s_max_wrong_increment <= noise
    assert d.r_max_wrong_increment <= noise
    assert d.i_min >= -noise
    assert d.i_max <= d.s_drop
    assert d.left_decay_rel_err < 0.02
    assert d.integral_identity_spread < 0.005
    assert d.r_end_rel_err < 0.01
    assert d.j_min_increment >= -1e-8
    assert d.j_bound_overshoot <= 1e-8
    # the conserved-population case has R(inf) equal to the full drop
    if p.delta == 0.0:
        assert d.r_end == pytest.approx(d.s_drop, rel=2e-3)


@pytest.mark.parametrize("name,p,c", CASES, ids=[c[0] for c in CASES])
def test_solver_agreement_across_regimes(name, p, c):
    grid = wave_window(p, c)
    rep = solve_fixed_point(p, c, grid, tol=1e-9)
    newton, _ = solve_bvp_newton(p, c, grid, rep.profile, rep.gamma_set.bounds, map_inverses(rep.specs, p, grid.dx))
    _, diff = align_profiles(rep.profile, newton, grid)
    assert diff < 1e-5


def test_spreading_speed_asymmetric_regime():
    name, p, c = CASES[0]
    c_star = minimal_speed(p).c_star
    cfg = SimConfig(params=p, grid=Grid.symmetric(100.0, 0.25), t_end=30.0, n_outputs=150)
    res = run(cfg)
    assert res.trace.speed_fit == pytest.approx(c_star, rel=0.1)


def test_verification_suite_beyond_canonical_parameters():
    from sirwaves import run_suite, suite_passed

    name, p, c = CASES[0]
    results = run_suite(p, c, level="quick")
    assert suite_passed(results), [
        (r.name, r.worst_margin) for r in results if r.status == "fail"
    ]


def test_fixed_point_profile_advects_at_its_design_speed():
    # seed the simulator with the solved wave: it must propagate at the speed
    # it was built for, tying the profile solver and the time stepper together
    from sirwaves.pde_sim import _simulate

    p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
    c = 2.5
    rep = solve_fixed_point(p, c, Grid.symmetric(60.0, 0.05), tol=1e-8)
    pg = rep.grid

    # the solved wave invades leftward (untouched state at the left end), so
    # mirror it to track a standard right-moving front; with the mirrored
    # query the interp 'left' fill continues the untouched side (sim-right)
    sim = Grid(-80.0, 120.0, 2001)
    x = sim.x
    s0 = np.interp(-x, pg.x, rep.profile[0], left=p.s_minus_inf, right=rep.s_inf)
    i0 = np.interp(-x, pg.x, rep.profile[1], left=0.0, right=0.0)
    r0 = np.interp(-x, pg.x, rep.profile[2], left=0.0, right=rep.profile[2, -1])

    # the stepping loop of every simulation, from the solved wave instead of a pulse
    cfg = SimConfig(params=p, grid=sim, t_end=20.0, n_outputs=100)
    res = _simulate(cfg, np.array([s0, i0, r0]), stop_at_boundary=False)
    assert res.trace.threshold == 1e-4
    assert res.trace.speed_fit == pytest.approx(c, rel=0.02)
    assert res.trace.speed_stderr < 0.01
