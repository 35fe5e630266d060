import dataclasses
import tracemalloc

import numpy as np
import pytest

from sirwaves import (
    Grid,
    ModelParams,
    PulseIC,
    SimConfig,
    StabilityViolated,
    front_position,
    minimal_speed,
    run,
    subcritical_falsification,
    traveling_frame_check,
)
from sirwaves.model import incidence, reaction_terms
from sirwaves.pde_sim import _diffusion_bands, _reaction_rk4, _strang_step

P0 = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
SUB = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.8, gamma=1.0, delta=1.0, s_minus_inf=1.0)
# unequal diffusion rates, so a species mix-up in the diffusion step shows
P_MIXED = ModelParams(d1=0.7, d2=1.0, d3=1.3, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)


def config(p=P0, L=50.0, dx=0.2, t_end=10.0, **kw):
    return SimConfig(params=p, grid=Grid.symmetric(L, dx), t_end=t_end, **kw)


def clipped_step(state, cfg):
    """One split step at the automatic step size with roundoff negatives clipped, as the runs take it."""
    dt = cfg.time_steps()[0]
    return np.clip(_strang_step(cfg.params, cfg.grid.dx, cfg.grid.n, dt)(state), 0.0, None)


def reference_diffusion(st, p, dx):
    """Per-component centred second differences with mirror-ghost (no-flux) end rows, times d."""
    out = np.empty_like(st)
    for k, d in enumerate((p.d1, p.d2, p.d3)):
        y = st[k]
        lap = np.empty_like(y)
        lap[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / dx**2
        lap[0] = 2.0 * (y[1] - y[0]) / dx**2
        lap[-1] = 2.0 * (y[-2] - y[-1]) / dx**2
        out[k] = d * lap
    return out


def reference_reaction(st, p):
    """The pointwise reaction terms, written out per component."""
    s, i, r = st
    inc = incidence(s, i, r, p.beta)
    return np.array([-inc, inc - (p.gamma + p.delta) * i, p.gamma * i])


def reference_rhs(st, p, dx):
    """The method-of-lines right-hand side, written out per component."""
    return reference_diffusion(st, p, dx) + reference_reaction(st, p)


def reference_rk4(state, p, dx, t_end, n_steps):
    """Explicit classical RK4 on the whole method-of-lines system, in the textbook stage sum."""
    dt = t_end / n_steps
    for _ in range(n_steps):
        k1 = reference_rhs(state, p, dx)
        k2 = reference_rhs(state + 0.5 * dt * k1, p, dx)
        k3 = reference_rhs(state + 0.5 * dt * k2, p, dx)
        k4 = reference_rhs(state + dt * k3, p, dx)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state


def test_auto_dt_satisfies_stability_bound():
    # implicit diffusion: the bound is RK4 stability of the reaction, whatever dx
    rate = P0.beta + P0.gamma + P0.delta
    assert config().dt_bound == pytest.approx(2.0 / rate)
    assert config(dx=0.05).dt_bound == config().dt_bound
    assert config().time_steps() == (pytest.approx(0.1), 100)  # 0.3/(beta+gamma+delta)
    assert config(t_end=1.01).time_steps() == (pytest.approx(1.01 / 11), 11)
    assert config(dt=0.05).time_steps() == (pytest.approx(0.05), 200)
    assert config().time_steps()[0] <= config().dt_bound
    config(dt=2.0 / rate)  # the bound itself is accepted
    with pytest.raises(StabilityViolated):
        config(dt=1.0)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="dt must be positive"):
            config(dt=bad)


def test_rhs_and_step_match_componentwise_reference():
    # the split system's right-hand side (diffusion bands plus the shared
    # reaction terms) is the per-component method-of-lines one, and the
    # reaction step keeps the textbook RK4 stage sum, so results are equal
    dx, dt, n = 0.2, 0.004, 101
    state = np.random.default_rng(5).uniform(0.0, 1.0, size=(3, n))
    lower, diag, upper = _diffusion_bands(P_MIXED, dx, n)
    u = state.ravel()
    applied = diag * u
    applied[:-1] += upper * u[1:]
    applied[1:] += lower * u[:-1]
    # rtol, not equality: the bands scale by d/dx^2 before summing
    np.testing.assert_allclose(applied.reshape(3, n), reference_diffusion(state, P_MIXED, dx), rtol=1e-12, atol=1e-9)
    # the species do not couple, and the trapezoid weights make the operator symmetric
    assert lower[n - 1] == upper[n - 1] == lower[2 * n - 1] == upper[2 * n - 1] == 0.0
    w = np.tile(np.r_[0.5, np.ones(n - 2), 0.5], 3)
    assert np.array_equal(w[:-1] * upper, w[1:] * lower)

    assert np.array_equal(np.array(reaction_terms(*state, P_MIXED)), reference_reaction(state, P_MIXED))
    np.testing.assert_allclose(
        applied.reshape(3, n) + np.array(reaction_terms(*state, P_MIXED)),
        reference_rhs(state, P_MIXED, dx),
        rtol=1e-12,
        atol=1e-9,
    )
    k1 = reference_reaction(state, P_MIXED)
    k2 = reference_reaction(state + 0.5 * dt * k1, P_MIXED)
    k3 = reference_reaction(state + 0.5 * dt * k2, P_MIXED)
    k4 = reference_reaction(state + dt * k3, P_MIXED)
    expected = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.array_equal(_reaction_rk4(state, dt, P_MIXED, np.empty((5, 3, n))), expected)


def test_split_step_converges_to_explicit_rk4_reference():
    # the split scheme solves the same semi-discrete system as explicit RK4 at
    # a fine step; its error falls as dt^2 (Strang splitting, TR-BDF2)
    cfg = config(p=P_MIXED, L=20.0, dx=0.2, t_end=4.0)
    grid, dt_auto = cfg.grid, cfg.time_steps()[0]
    state = cfg.initial_state()
    ref = reference_rk4(state, P_MIXED, grid.dx, cfg.t_end, 2 * int(np.ceil(cfg.t_end / 0.004)))
    errors = []
    for halvings in range(5):
        n_steps = int(round(cfg.t_end / dt_auto)) * 2**halvings
        step = _strang_step(P_MIXED, grid.dx, grid.n, cfg.t_end / n_steps)
        u = state
        for _ in range(n_steps):
            u = step(u)
        errors.append(float(np.max(np.abs(u - ref))))
    assert errors[0] <= 1e-4
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all(ratios >= 3.5), (errors, ratios)


def test_diffusion_half_steps_match_dense_tr_bdf2_and_conserve_mass():
    # with I = 0 the reaction is exactly zero, so a split step is two pure
    # diffusion half steps; each must be textbook TR-BDF2 on the dense matrix
    dx, n = 0.2, 101
    dt = 0.3 / (P_MIXED.beta + P_MIXED.gamma + P_MIXED.delta)  # the automatic step
    rng = np.random.default_rng(23)
    state = np.array([rng.uniform(0.2, 1.0, n), np.zeros(n), rng.uniform(0.0, 0.5, n)])
    lower, diag, upper = _diffusion_bands(P_MIXED, dx, n)
    A = np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)
    g = 2.0 - np.sqrt(2.0)
    a = 0.5 * g * (0.5 * dt)
    c_old = (1.0 - g) ** 2 / (g * (2.0 - g))
    M = np.eye(3 * n) - a * A
    u = state.ravel()
    for _ in range(2):
        u_star = np.linalg.solve(M, u + a * (A @ u))
        u = np.linalg.solve(M, u_star / (g * (2.0 - g)) - c_old * u)
    out = _strang_step(P_MIXED, dx, n, dt)(state)
    np.testing.assert_allclose(out, u.reshape(3, n), rtol=1e-12, atol=0.0)
    assert np.array_equal(out[1], np.zeros(n))
    x = np.linspace(-10.0, 10.0, n)
    for k in (0, 2):
        m0, m1 = np.trapezoid(state[k], x), np.trapezoid(out[k], x)
        assert abs(m1 - m0) <= 1e-14 * m0, (k, m0, m1)


def test_automatic_step_error_in_the_front_speed():
    # the fitted P0 speed at the automatic step and at half of it; the step's
    # error is O(dt^2), measured 6.5e-5 here (a doubled automatic step, dt 0.2,
    # moves it by 2.5e-4), far below the 1.3% by which the fit still lags c* at t = 40
    cfg = config(L=100.0, dx=0.2, t_end=40.0)
    dt, _ = cfg.time_steps()
    assert dt == pytest.approx(0.1)
    auto = run(cfg).trace.speed_fit
    halved = run(dataclasses.replace(cfg, dt=dt / 2)).trace.speed_fit
    assert abs(auto - halved) <= 1.5e-4, (auto, halved)
    assert auto == pytest.approx(minimal_speed(P0).c_star, rel=0.02)


def test_no_ignition_ahead_of_the_front():
    # a roundoff floor of 1e-16 ahead of the front would grow like
    # exp((beta-gamma-delta)*t) and cross the tracking threshold near t = 28,
    # igniting the whole window; the stepper must keep the leading edge clean
    cfg = config(L=120.0, dx=0.25, t_end=40.0, n_outputs=80)
    q = P0.beta - P0.gamma - P0.delta
    assert 1e-16 * np.exp(q * cfg.t_end) > cfg.threshold
    res = run(cfg)
    x = cfg.grid.x
    tail = x >= x[-1] - 0.1 * (x[-1] - x[0])
    assert np.max(res.final[1, tail]) < 1e-20
    assert np.max(res.i_max_trace) > cfg.threshold  # an outbreak did spread
    c_star = minimal_speed(P0).c_star
    t, pos = res.trace.times, res.trace.positions
    ok = np.isfinite(pos)
    assert np.all(ok[t > 0.0])
    assert np.all(pos[ok] <= cfg.ic_center + c_star * t[ok] + 3.0 * cfg.ic.width)
    assert pos[-1] >= cfg.ic_center + 0.8 * c_star * cfg.t_end


def test_pulled_front_speed_reported_beside_the_fit():
    cfg = config(L=100.0, dx=0.25, t_end=35.0, n_outputs=150)
    trace = run(cfg).trace
    t = trace.times[np.isfinite(trace.positions)]
    t1, t2 = t[len(t) // 2], t[-1]
    lam_star = np.sqrt((P0.beta - P0.gamma - P0.delta) / P0.d2)
    expected = 2.0 - 1.5 / lam_star * np.log(t2 / t1) / (t2 - t1)
    assert trace.pulled_front_speed == pytest.approx(expected, rel=1e-12)
    # the leading-order lag overshoots at finite times (the next term is
    # positive), so the measured speed sits between it and c*
    assert trace.pulled_front_speed < trace.speed_fit < 2.0
    assert np.isnan(run(config(p=SUB, L=40.0, dx=0.25, t_end=5.0)).trace.pulled_front_speed)


def test_pulse_must_sit_inside_window():
    with pytest.raises(ValueError):
        config(ic=PulseIC(center=49.0, width=2.0))


def test_equilibrium_is_unchanged():
    cfg = config()
    n = cfg.grid.n
    state = np.array([np.full(n, P0.s_minus_inf), np.zeros(n), np.zeros(n)])
    out = clipped_step(state, cfg)
    assert np.array_equal(out[0], state[0])
    assert np.array_equal(out[1], state[1])
    assert np.array_equal(out[2], state[2])


def test_mass_conserved_per_step_without_removal():
    p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.0, s_minus_inf=1.0)
    cfg = config(p=p)
    state = cfg.initial_state()
    x = cfg.grid.x
    m0 = np.trapezoid(state.sum(axis=0), x)
    for _ in range(20):
        state = clipped_step(state, cfg)
    m1 = np.trapezoid(state.sum(axis=0), x)
    assert abs(m1 - m0) <= 1e-10 * m0


def test_mass_budget_with_removal():
    # d/dt total mass = -delta * infected mass, checked on the sampled traces
    cfg = config(t_end=5.0, n_outputs=100)
    res = run(cfg)
    t, m, mi = res.mass_times, res.mass_total, res.mass_infected
    lhs = np.diff(m) / np.diff(t)
    rhs = -P0.delta * 0.5 * (mi[1:] + mi[:-1])
    assert np.max(np.abs(lhs - rhs)) < 2e-4 * np.max(np.abs(rhs))


def test_mass_conserved_over_full_run_without_removal():
    p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.0, s_minus_inf=1.0)
    cfg = config(p=p, L=50.0, dx=0.25, t_end=10.0)
    res = run(cfg)
    drift = np.max(np.abs(res.mass_total - res.mass_total[0]))
    assert drift <= 1e-8 * res.mass_total[0]


@pytest.mark.parametrize("n_outputs", [200, 7])
def test_samples_at_most_n_outputs_evenly_spaced_but_the_last(n_outputs):
    cfg = config(L=50.0, dx=0.25, t_end=15.0, n_outputs=n_outputs, dt=0.05)
    assert cfg.time_steps()[1] == 300
    t = run(cfg).mass_times
    assert len(t) <= n_outputs + 1
    assert t[0] == 0.0 and t[-1] == pytest.approx(15.0)
    gaps = np.diff(t)
    assert np.allclose(gaps[:-1], gaps[0], rtol=1e-9)
    assert 0.0 < gaps[-1] <= gaps[0] * (1.0 + 1e-9)


@pytest.mark.parametrize("t_end,n_steps", [(15.0, 300), (0.75, 15)])
def test_snapshots_at_most_n_snapshots_plus_one_evenly_spaced_but_the_last(t_end, n_steps):
    cfg = config(L=50.0, dx=0.25, t_end=t_end, dt=0.05)
    assert cfg.time_steps()[1] == n_steps and cfg.n_snapshots == 9
    t = np.array([ts for ts, _ in run(cfg).snapshots])
    assert len(t) <= cfg.n_snapshots + 1
    assert t[0] == 0.0 and t[-1] == pytest.approx(t_end)
    gaps = np.diff(t)
    assert np.allclose(gaps[:-1], gaps[0], rtol=1e-9)
    assert 0.0 < gaps[-1] <= gaps[0] * (1.0 + 1e-9)


def test_fit_window_outside_the_unit_interval_is_refused():
    # 1.5 used to fit the same last half as 0.5; 0 and -0.5 gave nan
    cfg = config(L=40.0, t_end=4.0)
    for fit_window in (1.5, 0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="fit_window"):
            run(cfg, fit_window=fit_window)
        with pytest.raises(ValueError, match="fit_window"):
            subcritical_falsification(cfg, c_target=1.0, fit_window=fit_window)
    trace = run(cfg, fit_window=1.0).trace  # the whole trace
    assert trace.fit_window == 1.0 and np.isfinite(trace.speed_fit)


@pytest.mark.parametrize("name", ["n_outputs", "n_snapshots"])
@pytest.mark.parametrize("count", [0, -3, 2.5, True, None])
def test_sample_counts_must_be_positive_integers(name, count):
    with pytest.raises(ValueError, match=name):
        config(**{name: count})


@pytest.mark.parametrize("settings,message", [
    (lambda v: {"t_end": v}, "t_end"),
    (lambda v: {"front_threshold": v}, "front threshold"),
    (lambda v: {"ic": PulseIC(width=v)}, "pulse width"),
    (lambda v: {"ic": PulseIC(amplitude=v)}, "pulse amplitude"),
], ids=["t_end", "front_threshold", "pulse_width", "pulse_amplitude"])
def test_times_widths_and_levels_must_be_finite_and_positive(settings, message):
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=message):
            config(**settings(bad))


def test_sample_counts_accept_numpy_integers():
    cfg = config(L=40.0, t_end=2.0, n_outputs=np.int64(4), n_snapshots=np.int32(3))
    res = run(cfg)
    assert len(res.mass_times) <= 5 and len(res.snapshots) <= 4


def test_result_records_step_size_and_steps_taken():
    # a run stopped by the right edge takes fewer: see boundary_run in test_sim_digest.py
    cfg = config(L=40.0, t_end=3.0)
    res = run(cfg)
    assert (res.dt, res.steps) == cfg.time_steps() == (pytest.approx(0.1), 30)


def test_front_position_interpolates():
    x = np.linspace(0, 10, 11)
    i_vals = np.where(x <= 5, 1.0, 0.0) * (1 - x / 10)
    pos = front_position(x, i_vals, 0.25)
    assert 5.0 <= pos <= 6.0
    assert np.isnan(front_position(x, i_vals, 10.0))


def test_front_position_takes_several_levels_at_once():
    x = np.linspace(0, 10, 11)
    i_vals = np.array([0.0, 0.2, 0.5, 0.5, 0.5, 0.3, 0.1, 0.1, 0.05, 0.0, 0.0])
    # a crossing inside a segment, one at the right end of a flat pair (0.1, 0.1)
    # and one at the right end of a plateau at the level, a level above every
    # value, and levels at or below zero, met at the last grid point (the only
    # place where the pair (y0, y1) around the rightmost crossing is flat)
    levels = np.array([0.25, 0.1, 0.5, 0.7, 0.0, -1.0])
    several = front_position(x, i_vals, levels)
    singles = [front_position(x, i_vals, lv) for lv in levels]
    assert all(type(v) is float for v in singles)
    np.testing.assert_array_equal(several, singles)
    assert singles[1] == 7.0 and singles[2] == 4.0 and singles[4] == singles[5] == 10.0
    assert np.isnan(singles[3])
    # the shape of the levels is kept
    assert front_position(x, i_vals, levels.reshape(2, 3)).shape == (2, 3)
    assert front_position(x, i_vals, levels[:1]).shape == (1,)


def test_front_position_and_trapezoid_take_a_stack_of_rows():
    # a stack of rows gives, row by row, bitwise what each row alone gives
    res = run(config(L=30.0, t_end=4.0, n_outputs=8))
    x = res.config.grid.x
    rows = np.array([st[1] for _, st in res.snapshots])
    levels = np.array([1e-4, 1e-3, 2.0])  # the last is above every value: nan
    stacked = front_position(x, rows, levels)
    assert stacked.shape == (len(rows), 3) and np.isnan(stacked[:, 2]).all()
    np.testing.assert_array_equal(stacked, [front_position(x, row, levels) for row in rows])
    np.testing.assert_array_equal(front_position(x, rows, 1e-4), stacked[:, 0])
    assert np.array_equal(np.trapezoid(rows, x), [np.trapezoid(row, x) for row in rows])


def test_falsification_memory_stays_flat():
    # the samples of a run are reduced in fixed blocks, so the traced peak of
    # the benchmark's falsification run stays near its fields' size (1.4 MB
    # measured; a buffer holding every sample of the run reads about 8 MB)
    cfg = SimConfig(params=P0, grid=Grid.symmetric(60.0, 0.1), t_end=20.0)
    c_target = 0.5 * minimal_speed(P0).c_star
    tracemalloc.start()
    try:
        rep = subcritical_falsification(cfg, c_target=c_target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.outcome == "relaxed_to_minimal_speed"
    assert peak <= 2e6, peak


def test_short_run_front_mechanics():
    cfg = config(L=60.0, dx=0.2, t_end=25.0, n_outputs=120)
    res = run(cfg)
    pos = res.trace.positions
    ok = np.isfinite(pos)
    late = pos[ok][len(pos[ok]) // 3 :]
    assert np.all(np.diff(late) >= -1e-9)  # front advances monotonically
    assert res.clipped_mass < 1e-10 * res.mass_total[0]
    assert res.outcome == "front"
    # susceptible never grows, removed mass never shrinks
    first = res.snapshots[0][1]
    last = res.snapshots[-1][1]
    assert np.all(last[0] <= first[0] + 1e-12)
    assert np.trapezoid(last[2], cfg.grid.x) >= np.trapezoid(first[2], cfg.grid.x) - 1e-12


def test_speed_measurement_coarse():
    # coarse short run already lands near the minimal speed
    cfg = config(L=100.0, dx=0.25, t_end=35.0, n_outputs=150)
    res = run(cfg)
    c_star = minimal_speed(P0).c_star
    assert res.trace.speed_fit == pytest.approx(c_star, rel=0.08)
    assert res.trace.speed_stderr < 0.05


def test_traveling_frame_check_coarse():
    cfg = config(L=100.0, dx=0.25, t_end=35.0, n_outputs=150, n_snapshots=12)
    res = run(cfg)
    frame = traveling_frame_check(res)
    assert frame.max_misalignment < 0.05
    assert frame.edge_decay_rel_err < 0.15


def test_subthreshold_outbreak_dies():
    cfg = config(p=SUB, L=40.0, dx=0.25, t_end=60.0, n_outputs=100)
    res = run(cfg)
    assert res.outcome == "extinction"
    assert res.i_max_trace[-1] < 1e-6 * res.i_max_trace[0]
    late = res.i_max_trace[len(res.i_max_trace) // 2 :]
    assert np.all(np.diff(late) <= 1e-15)


def test_subcritical_seed_relaxes_to_minimal_speed_coarse():
    cfg = config(L=90.0, dx=0.25, t_end=30.0, n_outputs=150)
    rep = subcritical_falsification(cfg, c_target=1.0)
    assert rep.outcome == "relaxed_to_minimal_speed"
    assert abs(rep.measured_speed - rep.c_star) < 0.15 * rep.c_star
    assert abs(rep.measured_speed - 1.0) > 0.5  # nowhere near the forbidden target


def test_subcritical_with_subthreshold_params_collapses():
    cfg = config(p=SUB, L=40.0, dx=0.25, t_end=40.0, n_outputs=80)
    rep = subcritical_falsification(cfg, c_target=1.0)
    assert rep.outcome == "extinction"


def test_amplitude_independence_coarse():
    cfg1 = config(L=100.0, dx=0.25, t_end=35.0, n_outputs=150)
    cfg2 = config(L=100.0, dx=0.25, t_end=35.0, n_outputs=150, ic=PulseIC(amplitude=0.1))
    s1 = run(cfg1).trace.speed_fit
    s2 = run(cfg2).trace.speed_fit
    assert abs(s2 - s1) / s1 < 0.02
