import dataclasses
import functools

import numpy as np
import pytest

import sirwaves.wave_profile
from sirwaves import (
    Grid,
    ModelParams,
    align_profiles,
    apply_F,
    characteristic_f,
    choose_alphas,
    discrete_decay_rate,
    eval_bounds,
    lambda0,
    make_bound_set,
    make_gamma_set,
    map_inverses,
    profile_diagnostics,
    select_Ms,
    select_epsilons,
    solve_bvp_newton,
    solve_fixed_point,
    verify_sub_inequalities,
    wave_window,
)

P0 = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
C = 2.5


@pytest.fixture(scope="module")
def solved():
    """One converged P0 solve shared by the slower checks (L=60, dx=0.05)."""
    return solve_fixed_point(P0, C, Grid.symmetric(60.0, 0.05), tol=1e-8)


# ---------- envelope constants ----------

def test_select_epsilons_p0():
    e1, e2, e3 = select_epsilons(P0, C)
    assert (e1, e2, e3) == pytest.approx((0.25, 0.125, 0.0625))
    assert characteristic_f(0.5 + e2, C, P0) == pytest.approx(0.171875)
    assert C - P0.d3 * (0.5 + e3) > 0


def test_select_ms_p0():
    eps = select_epsilons(P0, C)
    m1, m2, m3 = select_Ms(P0, C, eps)
    # threshold of the first inequality is sqrt(beta/(eps1*(c-d1*eps1)))
    thr = np.sqrt(P0.beta / (eps[0] * (C - P0.d1 * eps[0])))
    assert thr == pytest.approx(1.8856, abs=1e-4)
    assert m1 == pytest.approx(1.1 * thr, rel=1e-6)
    assert m1 == pytest.approx(2.074, abs=1e-3)
    # crossover ordering required of the middle amplitude
    assert -np.log(m2) / eps[1] < -np.log(m1) / eps[0]


def test_select_ms_against_scalar_oracle():
    # brute scan over a fine M grid agrees with the bisection threshold
    eps = select_epsilons(P0, C)
    m1, m2, m3 = select_Ms(P0, C, eps)
    e1, l0 = eps[0], 0.5
    grid_m = np.linspace(1.0, 4.0, 400_001)
    vals = grid_m * e1 * (C - P0.d1 * e1) - P0.beta * grid_m ** (-(l0 - e1) / e1)
    scan = grid_m[np.argmax(vals >= 0)]
    assert m1 / 1.1 == pytest.approx(scan, abs=1e-5)


def test_bound_set_inequalities_reverified(solved):
    b = solved.gamma_set.bounds
    assert 0 < b.eps3 < b.eps2 < b.eps1 < b.lambda0
    assert b.m1 >= 1 and b.m2 >= 1 and b.m3 >= 1
    assert b.x2 < b.x1 <= 0


# ---------- envelope evaluation ----------

def test_eval_bounds_crossover_and_values():
    g = Grid.symmetric(20.0, 0.01)
    b = make_bound_set(P0, C)
    sup, sub = eval_bounds(b, g)
    assert sup.shape == sub.shape == (3, g.n)
    # infected lower envelope vanishes exactly at its crossover
    assert b.i_minus(np.array([b.x2]))[0] == pytest.approx(0.0, abs=1e-15)
    assert np.all(sub[1][g.x >= b.x2] == 0.0)
    # removed upper envelope at the origin: gamma/(c*lam0 - d3*lam0^2) = 0.5 for P0
    k = np.argmin(np.abs(g.x))
    assert sup[2][k] == pytest.approx(0.5)
    # far left the infected envelopes pinch together
    ratio = sub[1][0] / sup[1][0]
    assert ratio == pytest.approx(1.0, abs=b.m2 * np.exp(b.eps2 * g.x_min) + 1e-12)
    # ordering everywhere
    assert np.all(sub <= sup + 1e-15)


def test_sub_inequalities_hold(solved):
    g = Grid.symmetric(60.0, 0.05)
    rep = verify_sub_inequalities(solved.gamma_set.bounds, P0, C, g)
    assert rep.s_margin >= -1e-10
    assert rep.i_margin >= -1e-10
    assert rep.r_margin >= -1e-10


def test_sub_inequalities_detect_undershoot():
    # halving the susceptible amplitude below its threshold must be reported
    g = Grid.symmetric(60.0, 0.05)
    b = make_bound_set(P0, C)
    import dataclasses

    bad = dataclasses.replace(b, m1=0.5 * b.m1, x1=-np.log(0.5 * b.m1) / b.eps1)
    rep = verify_sub_inequalities(bad, P0, C, g)
    assert rep.s_margin < 0


# ---------- the integral map ----------

def test_disease_free_state_is_fixed_point():
    g = Grid.symmetric(30.0, 0.1)
    specs = choose_alphas(P0, C)
    u = np.array([np.full(g.n, P0.s_minus_inf), np.zeros(g.n), np.zeros(g.n)])
    out = apply_F(u, P0, map_inverses(specs, P0, g.dx))
    assert out.shape == (3, g.n)
    assert np.allclose(out[0], P0.s_minus_inf, rtol=1e-13)
    assert np.allclose(out[1], 0.0, atol=1e-15)
    assert np.allclose(out[2], 0.0, atol=1e-15)


def test_map_preserves_gamma_set():
    g = Grid.symmetric(60.0, 0.05)
    gset = make_gamma_set(P0, C, g)
    specs = choose_alphas(P0, C)
    inverses = map_inverses(specs, P0, g.dx)
    rng = np.random.default_rng(0x5EED)
    sub, sup = gset.sub_array, gset.super_array
    worst = np.inf
    for _ in range(100):
        theta = rng.uniform(size=sub.shape)
        img = apply_F(sub + theta * (sup - sub), P0, inverses)
        worst = min(worst, gset.membership_margin(img))
        assert np.all(img >= -1e-15)  # positivity of the map
    assert worst >= -1e-6


def test_map_output_nonnegative_for_nonnegative_input():
    g = Grid.symmetric(30.0, 0.1)
    specs = choose_alphas(P0, C)
    rng = np.random.default_rng(21)
    arr = rng.uniform(0, 2, size=(3, g.n))
    out = apply_F(arr, P0, map_inverses(specs, P0, g.dx))
    assert np.all(out >= -1e-15)


# ---------- fixed point ----------

def test_fixed_point_converges(solved):
    assert solved.converged
    assert solved.residual <= 1e-8
    assert solved.clamp_fraction <= 0.01
    assert solved.ode_residual <= 1e-7


def test_fixed_point_monotonicity(solved):
    s, _, r = solved.profile
    assert np.max(np.diff(s)) <= 1e-10
    assert np.min(np.diff(r)) >= -1e-10


def test_fixed_point_profile_in_sandwich(solved):
    gset = solved.gamma_set
    assert gset.membership_margin(solved.profile) >= -1e-9


def test_fixed_point_s_inf_strictly_below_left_level(solved):
    assert solved.s_inf < P0.s_minus_inf - 0.1


def test_discrete_decay_rate_close_to_continuum():
    l0 = lambda0(C, P0).lambda0
    for dx in (0.1, 0.05, 0.025):
        lhat = discrete_decay_rate(P0, C, dx)
        assert abs(lhat - l0) < 0.05 * dx**2
    # fourth-order shrink between the two spacings
    d1 = abs(discrete_decay_rate(P0, C, 0.1) - l0)
    d2 = abs(discrete_decay_rate(P0, C, 0.05) - l0)
    assert d2 < 0.3 * d1


def test_alpha_floor_scaling_does_not_move_fixed_point(solved, monkeypatch):
    monkeypatch.setattr(sirwaves.wave_profile, "choose_alphas", functools.partial(choose_alphas, floor_scale=4.0))
    rep4 = solve_fixed_point(P0, C, Grid.symmetric(60.0, 0.05), tol=1e-8)
    assert rep4.converged
    diff = np.max(np.abs(rep4.profile - solved.profile))
    assert diff < 1e-6


def test_window_guard_warning():
    rep = solve_fixed_point(P0, C, Grid.symmetric(30.0, 0.1), tol=1e-6)
    assert any("left window" in w for w in rep.warnings)


def test_wave_residual_matches_componentwise_reference():
    # one residual serves Newton (as is) and the fixed point (its sup norm);
    # it keeps the arithmetic of the per-component loop, so the sup norm is
    # bitwise that of the fixed-point sign convention
    from sirwaves.model import incidence
    from sirwaves.wave_profile import _wave_residual

    p = ModelParams(d1=0.7, d2=1.0, d3=1.3, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
    dx, c = 0.05, 2.5
    u = np.random.default_rng(6).uniform(0.0, 1.0, size=(3, 201))
    s, i, r = u
    inc = incidence(s, i, r, p.beta)
    worst = 0.0
    for k, (d, f) in enumerate(((p.d1, -inc), (p.d2, inc - (p.gamma + p.delta) * i), (p.d3, p.gamma * i))):
        y = u[k]
        res = -d * (y[2:] - 2.0 * y[1:-1] + y[:-2]) / dx**2 + c * (y[2:] - y[:-2]) / (2.0 * dx) - f[1:-1]
        assert np.array_equal(_wave_residual(u, p, c, dx)[k], -res)
        worst = max(worst, float(np.max(np.abs(res))))
    assert float(np.max(np.abs(_wave_residual(u, p, c, dx)))) == worst


# ---------- Newton cross-check ----------

def test_newton_from_fixed_point_converges_fast(solved):
    g = solved.grid
    newton = solve_bvp_newton(P0, C, g, solved.profile, bounds=solved.gamma_set.bounds)
    # residual of the Newton profile under the same discretization
    from sirwaves.wave_profile import _wave_residual

    assert np.max(np.abs(_wave_residual(newton, P0, C, g.dx))) <= 1e-9


def test_newton_agrees_with_picard(solved):
    g = solved.grid
    newton = solve_bvp_newton(P0, C, g, solved.profile, bounds=solved.gamma_set.bounds)
    shift, diff = align_profiles(solved.profile, newton, g)
    assert abs(shift) < 0.01
    assert diff < 1e-5


def test_translation_representative():
    # shifting the window returns the same wave up to an alignment error < dx
    from scipy.interpolate import CubicSpline
    from sirwaves.linear_analysis import golden_section

    rep1 = solve_fixed_point(P0, C, Grid.symmetric(60.0, 0.05), tol=1e-9)
    grid2 = Grid(-55.0, 65.0, 2401)  # same spacing, window moved by +5
    rep2 = solve_fixed_point(P0, C, grid2, tol=1e-9)
    x1 = rep1.grid.x
    common = x1[(x1 >= -40) & (x1 <= 40)]
    spline = CubicSpline(grid2.x, rep2.profile[1])
    target = rep1.profile[1][(x1 >= -40) & (x1 <= 40)]
    shift, diff = golden_section(
        lambda s: float(np.max(np.abs(spline(common + s) - target))), -1.0, 1.0, tol=1e-12
    )
    assert abs(shift) < rep1.grid.dx
    assert diff < 1e-6


# ---------- Newton finish of the fixed point ----------

# The ten parameter and grid sets of the profile ladder: c/c*, dx and the
# window half-width max(60, ceil(26/lambda0/10)*10) at each rung.
LADDER = [
    ({}, 1.005, 0.05, 60.0),
    ({}, 1.05, 0.05, 60.0),
    ({}, 1.25, 0.05, 60.0),
    ({}, 1.5, 0.05, 70.0),
    ({}, 2.0, 0.05, 100.0),
    ({}, 1.25, 0.1, 60.0),
    ({}, 1.25, 0.025, 60.0),
    ({"d3": 1.9}, 1.25, 0.05, 60.0),
    ({"beta": 1.25}, 1.25, 0.05, 110.0),
    ({"d1": 0.5}, 1.25, 0.05, 60.0),
]


@pytest.mark.parametrize("changes,ratio,dx,half", LADDER)
def test_ladder_solves_finish_by_newton(changes, ratio, dx, half):
    from sirwaves.wave_profile import CONFIRM_BUDGET

    p = dataclasses.replace(P0, **changes)
    c = ratio * 2.0 * np.sqrt(p.d2 * (p.beta - p.gamma - p.delta))
    rep = solve_fixed_point(p, c, Grid.symmetric(half, dx), tol=1e-8)
    assert rep.converged
    assert (rep.finish, rep.finish_reason) == ("newton", "")
    assert rep.stage_iterations["resumed"] == 0
    assert 1 <= rep.stage_iterations["confirm"] <= CONFIRM_BUDGET
    assert rep.iterations == rep.stage_iterations["picard"] + rep.stage_iterations["confirm"]
    assert rep.newton is not None


def test_wave_window_sizes_from_both_decay_rates():
    from sirwaves.wave_profile import MAX_WINDOW_POINTS

    assert wave_window(P0, C) == Grid.symmetric(60.0, 0.05)
    assert wave_window(P0, 4.0, 0.1) == Grid.symmetric(100.0, 0.1)  # left tail: lambda0 = 0.27
    assert wave_window(dataclasses.replace(P0, delta=0.0), 3.0619) == Grid(-60.0, 110.0, 3401)  # slow outflow
    assert wave_window(dataclasses.replace(P0, beta=1.05), 2.0).n == 41201 <= MAX_WINDOW_POINTS
    with pytest.raises(ValueError, match="103201 points"):
        wave_window(dataclasses.replace(P0, beta=1.01), 1.0)  # refused before any solve


def test_near_c_star_converges_fast():
    rep = solve_fixed_point(P0, 2.001, Grid.symmetric(60.0, 0.05), tol=1e-8)
    assert rep.converged and rep.finish == "newton"
    assert rep.stage_iterations["resumed"] == 0
    assert rep.iterations < 1000  # the plain iteration stops unconverged at 5000


def test_fallback_is_the_plain_iteration(monkeypatch):
    # on the short window the Newton root is a translate of the map's fixed
    # point, the confirmation drifts, and the iteration resumes where it handed over
    from sirwaves import wave_profile

    grid = Grid.symmetric(30.0, 0.1)
    rep = solve_fixed_point(P0, C, grid, tol=1e-6)
    assert rep.finish == "picard" and "confirmation" in rep.finish_reason
    assert rep.stage_iterations["confirm"] == wave_profile.CONFIRM_BUDGET and rep.newton is None
    monkeypatch.setattr(wave_profile, "LOOSE_TOL", 0.0)  # no handover: the plain iteration
    plain = solve_fixed_point(P0, C, grid, tol=1e-6)
    assert plain.finish == "picard" and plain.stage_iterations["confirm"] == 0
    assert np.array_equal(rep.profile, plain.profile)
    assert (rep.residual, rep.ode_residual, rep.converged) == (plain.residual, plain.ode_residual, plain.converged)
    assert rep.iterations == plain.iterations + wave_profile.CONFIRM_BUDGET


def test_loose_tolerance_skips_newton():
    rep = solve_fixed_point(P0, C, Grid.symmetric(60.0, 0.05), tol=1e-4)
    assert rep.finish == "picard" and "not below the Newton handover" in rep.finish_reason
    assert rep.stage_iterations == {"picard": 128, "confirm": 0, "resumed": 0}  # the plain iteration's count


# ---------- diagnostics ----------

def test_profile_diagnostics(solved):
    d = profile_diagnostics(solved.profile, solved.grid, P0, C)
    assert d.s_max_wrong_increment <= 1e-10
    assert d.r_max_wrong_increment <= 1e-10
    assert d.i_min >= -1e-12
    assert d.i_max <= d.s_drop
    assert d.left_decay_rel_err < 0.02
    assert d.right_decay_rate < 0.0
    assert d.integral_identity_spread < 0.005
    assert d.r_end_rel_err < 0.01
    assert d.r_reconstruction_max_err < 1e-4
    # window-edge tail closure injects up to ~1e-8 into the J increments
    assert d.j_min_increment >= -1e-8
    assert d.j_bound_overshoot <= 1e-8
    assert d.i_le_j_margin >= -1e-12
    assert abs(d.i_prime_left) < 1e-6 and abs(d.i_prime_right) < 1e-6
