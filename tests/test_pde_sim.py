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
from sirwaves.model import incidence
from sirwaves.pde_sim import _rhs, _rk4_step

P0 = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
SUB = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.8, gamma=1.0, delta=1.0, s_minus_inf=1.0)


def config(p=P0, L=50.0, dx=0.2, t_end=10.0, **kw):
    return SimConfig(params=p, grid=Grid.symmetric(L, dx), t_end=t_end, **kw)


def clipped_step(state, cfg):
    """One RK4 step at the automatic step size with roundoff negatives clipped, as the runs take it."""
    return np.clip(_rk4_step(state, cfg.dt_bound, cfg.params, cfg.grid.dx), 0.0, None)


def test_auto_dt_satisfies_stability_bound():
    cfg = config()
    assert cfg.dt_bound == pytest.approx(0.4 * 0.2**2 / 2.0)
    with pytest.raises(StabilityViolated):
        config(dt=1.0)


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


def test_rhs_and_step_match_componentwise_reference():
    # the row-vectorised RHS and the in-place RK4 sum keep the arithmetic of
    # the per-component loop and the textbook stage sum, so results are equal
    p = ModelParams(d1=0.7, d2=1.0, d3=1.3, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
    dx, dt = 0.2, 0.004
    state = np.random.default_rng(5).uniform(0.0, 1.0, size=(3, 101))

    def reference(st):
        s, i, r = st
        inc = incidence(s, i, r, p.beta)
        out = np.empty_like(st)
        for k, (d, f) in enumerate(((p.d1, -inc), (p.d2, inc - (p.gamma + p.delta) * i), (p.d3, p.gamma * i))):
            y = st[k]
            lap = np.empty_like(y)
            lap[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / dx**2
            lap[0] = 2.0 * (y[1] - y[0]) / dx**2
            lap[-1] = 2.0 * (y[-2] - y[-1]) / dx**2
            out[k] = d * lap + f
        return out

    assert np.array_equal(_rhs(state, p, dx), reference(state))
    k1 = reference(state)
    k2 = reference(state + 0.5 * dt * k1)
    k3 = reference(state + 0.5 * dt * k2)
    k4 = reference(state + dt * k3)
    expected = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.array_equal(_rk4_step(state, dt, p, dx), expected)


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


def test_front_position_interpolates():
    x = np.linspace(0, 10, 11)
    i_vals = np.where(x <= 5, 1.0, 0.0) * (1 - x / 10)
    pos = front_position(x, i_vals, 0.25)
    assert 5.0 <= pos <= 6.0
    assert np.isnan(front_position(x, i_vals, 10.0))


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
