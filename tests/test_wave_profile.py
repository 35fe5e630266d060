import dataclasses

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
from sirwaves.resolvent import ResolventSpec

P0 = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
C = 2.5


@pytest.fixture(scope="module")
def solved():
    """One converged P0 solve shared by the slower checks (L=60, dx=0.05)."""
    return solve_fixed_point(P0, C, Grid.symmetric(60.0, 0.05), tol=1e-8)


def newton_from(rep, p, init):
    """solve_bvp_newton on the discrete problem of a solved report, started from init."""
    return solve_bvp_newton(p, rep.c, rep.grid, init, rep.gamma_set.bounds, map_inverses(rep.specs, p, rep.grid.dx))


def four_alpha_specs(p, c):
    """The operator specs with every shift constant quadrupled; the fixed point must not move."""
    return tuple(ResolventSpec.build(s.index, s.d, s.c, 4.0 * s.alpha) for s in choose_alphas(p, c))


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


def _smallest_m_all_halvings(ineq, lo=1.0, hi_cap=1e12):
    # the amplitude rule with every one of its 200 halvings taken
    if ineq(lo) >= 0:
        return lo
    hi = max(2.0, 2.0 * lo)
    while ineq(hi) < 0:
        hi *= 2.0
        assert hi <= hi_cap
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if ineq(mid) >= 0:
            b = mid
        else:
            a = mid
    return b


@pytest.mark.parametrize("p,c", [(P0, 2.05), (P0, 2.5), (P0, 4.0), (dataclasses.replace(P0, d1=0.5), 2.5)])
def test_bisection_stop_keeps_the_amplitudes(p, c, monkeypatch):
    # once the bracket is two adjacent floats no halving moves its upper end,
    # so stopping there returns the amplitudes of all 200 halvings, bit for bit
    eps = select_epsilons(p, c)
    early = select_Ms(p, c, eps)
    monkeypatch.setattr(sirwaves.wave_profile, "_smallest_m", _smallest_m_all_halvings)
    assert select_Ms(p, c, eps) == early


def test_select_ms_raises_a_typed_error_for_d3_at_or_above_2_d2():
    # beyond d3 < 2*d2 the removed envelope has no positive scale near c*
    from sirwaves import EnvelopeConditionFailed

    for d3 in (2.5, 4.0):
        with pytest.raises(EnvelopeConditionFailed, match="d3 < 2\\*d2") as info:
            select_Ms(dataclasses.replace(P0, d3=d3), 2.0001, (0.25, 0.125, 0.0625))
        assert isinstance(info.value, ValueError)


def test_bound_set_inequalities_reverified(solved):
    b = solved.gamma_set.bounds
    assert 0 < b.eps3 < b.eps2 < b.eps1 < b.lambda0
    assert b.m1 >= 1 and b.m2 >= 1 and b.m3 >= 1
    assert b.x2 < b.x1 <= 0


# ---------- envelope evaluation ----------

def test_eval_bounds_crossover_and_values():
    g = Grid.symmetric(20.0, 0.01)
    b = make_bound_set(P0, C)
    sup, sub = b.envelopes(g.x)
    assert sup.shape == sub.shape == (3, g.n)
    # infected lower envelope vanishes exactly at its crossover
    assert b.envelopes([b.x2])[1][1, 0] == pytest.approx(0.0, abs=1e-15)
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


def _corner_margins(gset, p, inverses):
    """Margins of each species' image at its own two corners of the envelope box, through apply_F."""
    (s_lo, i_lo, r_lo), (s_hi, i_hi, r_hi) = gset.sub_array, gset.super_array
    corners = (
        ((s_lo, i_hi, r_lo), (s_hi, i_lo, r_hi)),
        ((s_lo, i_lo, r_hi), (s_hi, i_hi, r_lo)),
        ((s_lo, i_lo, r_lo), (s_hi, i_hi, r_hi)),
    )
    margins = []
    for k, (low, high) in enumerate(corners):
        margins.append(np.min(apply_F(np.array(low), p, inverses)[k] - gset.sub_array[k]))
        margins.append(np.min(gset.super_array[k] - apply_F(np.array(high), p, inverses)[k]))
    return margins


@pytest.mark.parametrize("p, c", [
    (P0, 2.5),
    (P0, 2.05),
    (dataclasses.replace(P0, d1=0.7, d3=1.3), 2.5),
])
def test_image_margin_bounds_every_member(p, c):
    # F is monotone in each species and D^{-1} is positive, so no member of the
    # set maps closer to an envelope than the worst corner does
    g = wave_window(p, c)
    gset = make_gamma_set(p, c, g)
    inverses = map_inverses(choose_alphas(p, c), p, g.dx)
    exact, species, side = gset.image_margin(p, inverses)
    assert species in ("S", "I", "R") and side in ("lower", "upper")
    # the bound is attained: it is the worst of the six corner images
    assert exact == min(_corner_margins(gset, p, inverses))
    rng = np.random.default_rng(19)
    sub, sup = gset.sub_array, gset.super_array
    for _ in range(20):
        theta = rng.uniform(size=sub.shape)
        assert gset.membership_margin(apply_F(sub + theta * (sup - sub), p, inverses)) >= exact


def test_image_margin_is_attained_where_the_infected_envelope_binds():
    # here the worst image is I's, at a roundoff-sized margin; the six corner
    # images of apply_F must reproduce it bit for bit
    p = dataclasses.replace(P0, d1=0.5, beta=4.0, s_minus_inf=2.0)
    c = 3.6373
    g = wave_window(p, c)
    gset = make_gamma_set(p, c, g)
    inverses = map_inverses(choose_alphas(p, c), p, g.dx)
    exact, species, side = gset.image_margin(p, inverses)
    assert (species, side) == ("I", "lower")
    assert exact == min(_corner_margins(gset, p, inverses))


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
    assert solved.gamma_margin == solved.gamma_set.membership_margin(solved.profile)
    assert solved.ode_residual <= 1e-7


def test_fixed_point_monotonicity(solved):
    s, _, r = solved.profile
    assert np.max(np.diff(s)) <= 1e-10
    assert np.min(np.diff(r)) >= -1e-10


def test_fixed_point_profile_in_sandwich(solved):
    gset = solved.gamma_set
    assert gset.membership_margin(solved.profile) >= -1e-9


def test_membership_margin_sees_a_point_above_the_upper_envelope(solved):
    gset = solved.gamma_set
    above = gset.sub_array.copy()
    above[1, 1200] = gset.super_array[1, 1200] + 1e-3
    assert gset.membership_margin(above) == pytest.approx(-1e-3, rel=1e-9)


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
    monkeypatch.setattr(sirwaves.wave_profile, "choose_alphas", four_alpha_specs)
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
    from sirwaves.model import incidence, reaction_terms, wave_operator
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
    # the in-place stencil is model.wave_operator's, operation for operation
    d = np.array([[p.d1], [p.d2], [p.d3]])
    reference = wave_operator(u, d, c, dx) + np.array(reaction_terms(*u, p))[:, 1:-1]
    assert np.array_equal(_wave_residual(u, p, c, dx), reference)


# ---------- Newton cross-check ----------

def test_newton_from_fixed_point_converges_fast(solved):
    g = solved.grid
    newton, residuals = newton_from(solved, P0, solved.profile)
    assert residuals[-1] <= 1e-12 and len(residuals) <= 10
    # residual of the Newton profile under the same discretization
    from sirwaves.wave_profile import _wave_residual

    assert np.max(np.abs(_wave_residual(newton, P0, C, g.dx))) <= 1e-9


def test_newton_agrees_with_picard(solved):
    g = solved.grid
    newton, _ = newton_from(solved, P0, solved.profile)
    shift, diff = align_profiles(solved.profile, newton, g)
    assert abs(shift) < 0.01
    assert diff < 1e-5


def test_alignment_spline_is_bitwise_the_per_row_splines(solved):
    # one spline over the three rows gives the shift and mismatch of three
    # separate splines, bit for bit
    from scipy.interpolate import CubicSpline
    from sirwaves.linear_analysis import golden_section

    g = solved.grid
    newton, _ = newton_from(solved, P0, solved.profile)
    newton = np.roll(newton, 3, axis=1)  # a visible shift to find
    x = g.x
    inner = (x >= g.x_min + 2.0) & (x <= g.x_max - 2.0)
    splines = [CubicSpline(x, row) for row in newton]
    joint = CubicSpline(x, newton, axis=1)
    assert all(np.array_equal(joint.c[:, :, k], sp.c) for k, sp in enumerate(splines))

    def mismatch(shift):
        return max(float(np.max(np.abs(sp(x[inner] + shift) - row[inner]))) for sp, row in zip(splines, solved.profile))

    shift, diff = align_profiles(solved.profile, newton, g)
    assert (shift, diff) == golden_section(mismatch, -2.0, 2.0, tol=1e-14)
    assert shift == pytest.approx(3 * g.dx, abs=1e-3)


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


# ---------- Newton solve and certifying step of the fixed point ----------

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


def _ladder_case(changes, ratio, dx, half):
    p = dataclasses.replace(P0, **changes)
    c = ratio * 2.0 * np.sqrt(p.d2 * (p.beta - p.gamma - p.delta))
    return p, c, Grid.symmetric(half, dx)


@pytest.mark.parametrize("changes,ratio,dx,half", LADDER)
def test_ladder_solves_finish_by_newton(changes, ratio, dx, half):
    p, c, grid = _ladder_case(changes, ratio, dx, half)
    rep = solve_fixed_point(p, c, grid, tol=1e-8)
    assert rep.converged and rep.iterations == 1 and rep.warnings == ()
    assert rep.newton_steps == len(rep.newton_residuals) - 1 >= 1
    assert rep.newton_residuals[-1] <= 1e-12


# The rows of the regime table: P0 near c*, far above it, a slow R0, no
# removal by death and asymmetric diffusion, each on wave_window's grid.
REGIME_ROWS = [
    ({}, 2.001),
    ({}, 4.0),
    ({}, 8.0),
    ({"beta": 1.05}, 1.25 * 2.0 * np.sqrt(0.05)),
    ({"delta": 0.0}, 3.0619),
    ({"d1": 0.7, "d3": 1.3}, 2.5),
]


@pytest.mark.parametrize("changes,c", REGIME_ROWS)
def test_regime_rows_finish_by_newton(changes, c):
    p = dataclasses.replace(P0, **changes)
    rep = solve_fixed_point(p, c, wave_window(p, c), tol=1e-8)
    assert rep.converged and rep.iterations == 1
    assert rep.newton_residuals[-1] <= 1e-12
    assert rep.newton_steps <= 12  # 6-10 from the bounded start


def test_bounded_start_skips_the_residual_plateau():
    # the uncapped midpoint has I near 1e19 at the right edge; capped at
    # S(-inf) the start residual is in the hundreds and plain Newton goes
    # straight down from it
    rep = solve_fixed_point(P0, 2.1, wave_window(P0, 2.1), tol=1e-8)
    assert rep.converged
    assert rep.newton_residuals[0] < 1e3
    assert rep.newton_steps <= 8


# Near c*, where the solve takes the most steps: a seeded draw at 1.008*c*,
# P0 at 1.0002*c*, P0 without deaths at 1.01*c*, and d1 = 0.5, beta = 4,
# S(-inf) = 2 at 1.05*c*.
NEAR_C_STAR_ROWS = [
    (ModelParams(d1=0.728988840517677, d2=0.6391128645564984, d3=0.7971541570013758, beta=6.272782537107987,
                 gamma=0.5608863334055678, delta=0.827954377242825, s_minus_inf=2.0728489452052514),
     3.5620312688245312),
    (P0, 2.0004),
    (dataclasses.replace(P0, delta=0.0), 1.01 * 2.0 * np.sqrt(1.5)),
    (ModelParams(d1=0.5, d2=1.0, d3=1.0, beta=4.0, gamma=0.5, delta=0.5, s_minus_inf=2.0), 3.6373),
]


@pytest.mark.parametrize("p,c", NEAR_C_STAR_ROWS)
def test_near_c_star_rows_certify_within_ten_steps(p, c):
    rep = solve_fixed_point(p, c, wave_window(p, c), tol=1e-8)
    assert rep.converged and rep.iterations == 1
    assert rep.newton_residuals[-1] <= 1e-12
    assert rep.newton_steps <= 10


def test_settling_step_reuses_the_last_factors(monkeypatch):
    # every step factors a fresh Jacobian except the settling one, taken
    # from a residual already under the settle tolerance
    from sirwaves.wave_profile import NEWTON_TOL

    calls = []
    original = sirwaves.wave_profile.dgbtrf

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sirwaves.wave_profile, "dgbtrf", counted)
    grid = wave_window(P0, C)
    assert 4.0 * np.finfo(float).eps * P0.d1 / grid.dx**2 * P0.s_minus_inf < NEWTON_TOL  # settles at NEWTON_TOL
    rep = solve_fixed_point(P0, C, grid, tol=1e-8)
    assert rep.converged
    assert max(rep.newton_residuals[-2:]) <= NEWTON_TOL < rep.newton_residuals[-3]
    assert len(calls) == rep.newton_steps - 1


def test_newton_root_is_settled_beyond_its_residual():
    # the residual hardly sees the wave's translation: a root whose residual
    # first fell under 1e-12 could still move by 3e-11 on the next step
    p = dataclasses.replace(P0, beta=1.05)
    c = 1.25 * 2.0 * np.sqrt(0.05)
    rep = solve_fixed_point(p, c, wave_window(p, c), tol=1e-8)
    again, residuals = newton_from(rep, p, rep.newton)
    assert len(residuals) == 2  # one step, started and ended under NEWTON_TOL
    assert np.max(np.abs(again - rep.newton)) <= 1e-12


def test_newton_settles_at_its_roundoff_floor():
    # with d3 = 3.6 and S(-inf) = 2.6 at dx = 0.05 the residual's roundoff
    # floor is above NEWTON_TOL, which the residual cannot be driven under;
    # the floor settles it
    from sirwaves.wave_profile import NEWTON_TOL

    p = ModelParams(d1=1.385, d2=1.955, d3=3.599, beta=1.940, gamma=1.0, delta=0.0, s_minus_inf=2.631)
    c = 4.9387
    grid = wave_window(p, c)
    floor = 4.0 * np.finfo(float).eps * p.d3 / grid.dx**2 * p.s_minus_inf
    assert floor > NEWTON_TOL
    rep = solve_fixed_point(p, c, grid, tol=1e-8)
    assert rep.converged and rep.newton_steps <= 10
    assert max(rep.newton_residuals[-2:]) <= floor


def _table_case(table, row):
    if table == "ladder":
        return _ladder_case(*row)
    p, c = dataclasses.replace(P0, **row[0]), row[1]
    return p, c, wave_window(p, c)


TABLE_CASES = [("ladder", row) for row in LADDER] + [("regime", row) for row in REGIME_ROWS]


@pytest.mark.parametrize("table,row", TABLE_CASES)
def test_newton_root_is_a_fixed_point_of_the_map(table, row):
    # Newton's right rows are F's tail closures, so the step of F from the
    # root that solve_fixed_point takes, unprojected, barely moves it
    p, c, grid = _table_case(table, row)
    rep = solve_fixed_point(p, c, grid, tol=1e-8)
    step = apply_F(rep.newton, p, map_inverses(rep.specs, p, grid.dx))
    assert np.array_equal(rep.profile, np.clip(step, 0.0, None))
    assert np.max(np.abs(step - rep.newton)) <= 1e-10
    # the profile's plain distance from the root is the agreement; aligning
    # finds no shift and a distance under 1e-12, so the plain distance is
    # the distance between the two waves
    assert rep.agreement == float(np.max(np.abs(rep.profile - rep.newton)))
    shift, aligned = align_profiles(rep.profile, rep.newton, grid)
    assert abs(shift) < 1e-9 and aligned <= 1e-12


@pytest.mark.parametrize("table,row", TABLE_CASES)
def test_a_solve_applies_F_once(table, row, monkeypatch):
    p, c, grid = _table_case(table, row)
    calls = []
    original = sirwaves.wave_profile.apply_F

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sirwaves.wave_profile, "apply_F", counted)
    rep = solve_fixed_point(p, c, grid, tol=1e-8)
    assert rep.converged and len(calls) == 1 and rep.iterations == 1


P_FORMER_FALLBACK = ModelParams(d1=0.5, d2=1.0, d3=1.0, beta=4.0, gamma=0.5, delta=0.5, s_minus_inf=2.0)


# Roots that dip below a lower envelope, so that a projection onto the
# envelope set would move them; the last column is gamma_margin, pinned to
# its sign and decade.
FORMER_FALLBACKS = {
    # below the infected lower envelope on [-19.85, -9.50]
    "d1-0.5-c3.6373": (P_FORMER_FALLBACK, 3.6373, wave_window(P_FORMER_FALLBACK, 3.6373), 1e-8, -5.1e-8),
    "p0-c2.05-dx0.1": (P0, 2.05, wave_window(P0, 2.05, 0.1), 1e-8, -2.1e-8),
    "p0-c2.05-dx0.2": (P0, 2.05, wave_window(P0, 2.05, 0.2), 1e-8, -1.3e-5),
    "p0-c2.1-tol1e-6": (P0, 2.1, Grid.symmetric(60.0, 0.2), 1e-6, -1.6e-6),
}


@pytest.mark.parametrize("name", sorted(FORMER_FALLBACKS))
def test_former_fallback_rows_certify_the_root(name):
    p, c, grid, tol, margin = FORMER_FALLBACKS[name]
    rep = solve_fixed_point(p, c, grid, tol=tol)
    assert rep.converged and rep.iterations == 1
    assert rep.agreement <= 1e-13
    decade = 10.0 ** np.floor(np.log10(-margin))
    assert -10.0 * decade < rep.gamma_margin < -decade


def _band_to_dense(ab, kl, ku):
    n = ab.shape[1]
    dense = np.zeros((n, n))
    for col in range(n):
        for row in range(max(0, col - ku), min(n, col + kl + 1)):
            dense[row, col] = ab[kl + ku + row - col, col]
    return dense


def _system(p, c, dx, n):
    """A _NewtonSystem with made-up left values and the closures of p and c on spacing dx."""
    from sirwaves.wave_profile import _NewtonSystem

    edge = np.array([closure for _, _, closure in map_inverses(choose_alphas(p, c), p, dx)]).T
    return _NewtonSystem(p, c, dx, n, np.array([0.9, 1e-3, 1e-4]), edge)


def test_band_jacobian_matches_directional_differences():
    from sirwaves.wave_profile import BAND_KL, BAND_KU

    assert BAND_KL == BAND_KU == 3
    p = ModelParams(d1=0.7, d2=1.0, d3=1.3, beta=2.0, gamma=0.5, delta=0.3, s_minus_inf=1.0)
    c, dx, n = 2.5, 0.1, 25
    rng = np.random.default_rng(12)
    u = rng.uniform(0.1, 1.0, size=(3, n))
    v = rng.uniform(-1.0, 1.0, size=(3, n))
    system = _system(p, c, dx, n)

    def residual(w):
        system.u[...] = w
        system.residual()
        return system.res.copy()

    h = 1e-6
    fd = (residual(u + h * v) - residual(u - h * v)) / (2 * h)
    system.u[...] = u
    jac = _band_to_dense(system.jacobian(), BAND_KL, BAND_KU)
    # unknowns and equations run from x_max to x_min: the point-by-point vector reversed
    jv = (jac @ v.T.ravel()[::-1])[::-1].reshape(n, 3).T
    assert np.max(np.abs(jv - fd)) <= 1e-6 * np.max(np.abs(fd))
    # the last point's rows on their own, where F's closure stands in for u_n
    assert np.max(np.abs(jv[:, -1] - fd[:, -1])) <= 1e-6 * np.max(np.abs(fd[:, -1]))


def test_band_jacobian_is_factored_in_place():
    # Fortran order is dgbtrf's own layout, so no copy is made, and the
    # factors are bit for bit those of a C-ordered copy
    from scipy.linalg.lapack import dgbtrf
    from sirwaves.wave_profile import BAND_KL, BAND_KU

    grid = wave_window(P0, C)
    rep = solve_fixed_point(P0, C, grid, tol=1e-4)
    system = _system(P0, C, grid.dx, grid.n)
    system.u[...] = rep.profile
    ab = system.jacobian()  # as the solve does
    assert ab.flags.f_contiguous
    c_lu, c_piv, c_info = dgbtrf(np.ascontiguousarray(ab), BAND_KL, BAND_KU)
    lu, piv, info = dgbtrf(ab, BAND_KL, BAND_KU, overwrite_ab=1)
    assert np.shares_memory(lu, ab)  # factored where it was assembled
    assert info == c_info == 0
    assert np.array_equal(lu, c_lu) and np.array_equal(piv, c_piv)


EXTINCT = (9, 17)  # grid points of extinct_state whose S+I+R is not above ETA_DEFAULT


def extinct_state(n):
    """A random (3, n) state in [0, 1) with two extinct points, one at 0 and one at 6e-13."""
    u = np.random.default_rng(7).uniform(0.0, 1.0, size=(3, n))
    u[:, EXTINCT[0]] = 0.0
    u[:, EXTINCT[1]] = [2e-13, 3e-13, 1e-13]
    return u


def test_newton_residual_matches_componentwise_reference():
    # the residual a step writes in place keeps the arithmetic of the
    # allocating formulas, at the extinct points and in the closure row at x_max
    from sirwaves.model import ETA_DEFAULT, incidence

    p = ModelParams(d1=0.7, d2=1.0, d3=1.3, beta=2.0, gamma=0.5, delta=0.3, s_minus_inf=1.0)
    c, dx, n = 2.5, 0.1, 40
    u = extinct_state(n)
    assert all(u[:, j].sum() <= ETA_DEFAULT for j in EXTINCT)
    system = _system(p, c, dx, n)
    system.u[...] = u
    norm = system.residual()
    s, i, r = u
    inc = incidence(s, i, r, p.beta)
    assert all(inc[j] == 0.0 for j in EXTINCT)
    gain, weight = system.gain, system.weight
    for k, (d, f) in enumerate(((p.d1, -inc), (p.d2, inc - (p.gamma + p.delta) * i), (p.d3, p.gamma * i))):
        y = np.append(u[k], gain[k] * u[k, -1] + weight[k] * f[-1])  # F's closure one cell past x_max
        ref = d * (y[2:] - 2.0 * y[1:-1] + y[:-2]) / dx**2 - c * (y[2:] - y[:-2]) / (2.0 * dx) + f[1:]
        assert np.array_equal(system.res[k, 1:], ref)
        assert system.res[k, 0] == u[k, 0] - system.bc_left[k]
    assert np.array_equal(system.rhs, system.res.T.ravel()[::-1])  # the solve's order, x_max first
    assert norm == float(np.max(np.abs(system.res)))


def test_band_has_no_incidence_partials_at_an_extinct_point():
    # where S+I+R is not above the guard the incidence is pinned to 0, and so
    # are its partials: those columns are the stencil band's, plus only the
    # linear partials -(gamma+delta) (I on I) and gamma (R on I)
    from sirwaves.wave_profile import BAND_KL, BAND_KU, _stencil_band

    p = ModelParams(d1=0.7, d2=1.0, d3=1.3, beta=2.0, gamma=0.5, delta=0.3, s_minus_inf=1.0)
    c, dx, n = 2.5, 0.1, 40
    system = _system(p, c, dx, n)
    system.u[...] = extinct_state(n)
    ab = system.jacobian()
    stencil = _stencil_band(p, c, dx, n)
    mid = BAND_KL + BAND_KU
    for j in EXTINCT:
        cols = 3 * (n - 1 - j) + np.arange(3)  # the point's unknowns R, I, S in the solve's order
        expected = stencil[:, cols].copy()
        expected[mid, 1] += 0.0 - (p.gamma + p.delta)
        expected[mid - 1, 1] += p.gamma
        assert np.array_equal(ab[:, cols], expected)
    assert np.all(np.isfinite(ab))


@pytest.mark.parametrize("n", [3, 4])
def test_solves_on_three_and_four_point_grids_return_a_report(n):
    rep = solve_fixed_point(P0, C, Grid(-0.2, 0.1, n), tol=1e-8)
    assert not rep.converged and rep.newton.shape == rep.profile.shape == (3, n)
    assert any("left window too short" in w for w in rep.warnings)


def test_newton_roots_own_their_memory(solved):
    # the root is copied out of the solve's buffers, which hold F's closure in an extra column
    first, _ = newton_from(solved, P0, solved.profile)
    second, _ = newton_from(solved, P0, solved.profile)
    assert np.array_equal(first, second) and not np.shares_memory(first, second)
    for root in (first, second, solved.newton):
        assert root.flags.c_contiguous and root.flags.owndata


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0])
def test_solve_refuses_a_bad_tolerance_before_any_work(tol, monkeypatch):
    def refuse(*args):
        raise AssertionError("the solve started")

    monkeypatch.setattr(sirwaves.wave_profile, "make_gamma_set", refuse)
    with pytest.raises(ValueError, match="tolerance tol must be finite and positive"):
        solve_fixed_point(P0, C, Grid.symmetric(60.0, 0.05), tol=tol)


@pytest.mark.parametrize("c", [2.05, 2.5, 4.0])
def test_newton_factorization_keeps_every_diagonal_pivot(c, monkeypatch):
    # ordered from x_max, the stencil weight below the diagonal is the
    # smaller, downwind one, so dgbtrf swaps no rows in any Newton step
    pivots = []
    original = sirwaves.wave_profile.dgbtrf

    def recorded(*args, **kwargs):
        lu, piv, info = original(*args, **kwargs)
        pivots.append(piv.copy())
        return lu, piv, info

    monkeypatch.setattr(sirwaves.wave_profile, "dgbtrf", recorded)
    rep = solve_fixed_point(P0, c, wave_window(P0, c), tol=1e-8)
    assert rep.converged and len(pivots) == rep.newton_steps - 1
    for piv in pivots:
        assert np.array_equal(piv, np.arange(piv.size))


def test_wave_window_sizes_from_both_decay_rates():
    from sirwaves.wave_profile import MAX_WINDOW_POINTS

    assert wave_window(P0, C) == Grid.symmetric(60.0, 0.05)
    assert wave_window(P0, 4.0, 0.1) == Grid.symmetric(100.0, 0.1)  # left tail: lambda0 = 0.27
    assert wave_window(dataclasses.replace(P0, delta=0.0), 3.0619) == Grid(-60.0, 110.0, 3401)  # slow outflow
    assert wave_window(dataclasses.replace(P0, beta=1.05), 2.0).n == 41201 <= MAX_WINDOW_POINTS
    # the default spacing keeps 0.9 of the mesh bound 2*d3/c = 0.033; a given dx is kept
    assert wave_window(dataclasses.replace(P0, d3=0.1), 6.0) == Grid.symmetric(160.0, 0.03)
    assert wave_window(dataclasses.replace(P0, d3=0.1), 6.0, 0.05) == Grid.symmetric(160.0, 0.05)
    with pytest.raises(ValueError, match="103201 points"):
        wave_window(dataclasses.replace(P0, beta=1.01), 1.0)  # refused before any solve


@pytest.mark.parametrize("dx", [0.0, -0.05, float("nan"), float("inf")])
def test_wave_window_needs_a_finite_positive_spacing(dx):
    with pytest.raises(ValueError, match="grid spacing"):
        wave_window(P0, C, dx)


def test_near_c_star_converges_fast():
    rep = solve_fixed_point(P0, 2.001, Grid.symmetric(60.0, 0.05), tol=1e-8)
    assert rep.converged and rep.iterations == 1 and rep.newton_steps <= 16


def test_refused_newton_solve_raises(monkeypatch):
    # no second solver stands behind Newton: its typed error leaves the solve
    from sirwaves import NotConverged

    def refuse(*args):
        raise NotConverged("refused")

    monkeypatch.setattr(sirwaves.wave_profile, "solve_bvp_newton", refuse)
    with pytest.raises(NotConverged, match="refused"):
        solve_fixed_point(P_FORMER_FALLBACK, 3.6373, wave_window(P_FORMER_FALLBACK, 3.6373), tol=1e-8)


def test_loose_tolerance_certifies_the_newton_root():
    # every tol starts with Newton, and tol is the certificate's tolerance:
    # the loose solve takes the same root and reports the same agreement
    grid = Grid.symmetric(60.0, 0.05)
    tight = solve_fixed_point(P0, C, grid, tol=1e-8)
    rep = solve_fixed_point(P0, C, grid, tol=1e-4)
    assert rep.converged and rep.iterations == 1
    assert np.array_equal(rep.newton, tight.newton) and np.array_equal(rep.profile, tight.profile)
    assert rep.agreement == tight.agreement <= 1e-10


def test_loose_cross_check_returns_the_carried_root():
    # a loose solve certifies the Newton root, which settled at 1e-12, and
    # reports the profile's plain distance from it as the agreement
    grid = wave_window(P0, 2.1)
    rep = solve_fixed_point(P0, 2.1, grid, tol=1e-4)
    assert rep.converged
    assert rep.newton_residuals[-1] <= 1e-12
    assert rep.agreement == float(np.max(np.abs(rep.profile - rep.newton))) <= 1e-10


# ---------- diagnostics ----------

def test_identity_spread_does_not_move_with_s_minus_inf(solved):
    # the spread is relative to c*(S(-inf) - S(+inf)), and twice the P0 front
    # is the front of P0 with S(-inf) = 2, so the spread is the same, bit for bit
    p2 = dataclasses.replace(P0, s_minus_inf=2.0)
    spread = profile_diagnostics(solved.profile, solved.grid, P0, C).integral_identity_spread
    assert profile_diagnostics(2.0 * solved.profile, solved.grid, p2, C).integral_identity_spread == spread
    assert spread == pytest.approx(6.80167280095435e-07, rel=1e-6)

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
    # I is flat at both window edges: second-order one-sided first derivatives
    i, dx = solved.profile[1], solved.grid.dx
    i_prime_left = (-3.0 * i[0] + 4.0 * i[1] - i[2]) / (2.0 * dx)
    i_prime_right = (3.0 * i[-1] - 4.0 * i[-2] + i[-3]) / (2.0 * dx)
    assert abs(i_prime_left) < 1e-6 and abs(i_prime_right) < 1e-6
