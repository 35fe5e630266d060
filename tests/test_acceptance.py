"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Tolerances are fixed here, not tuned at runtime. The canonical parameter set
P0 has unit diffusion, beta = 2, gamma = delta = 1/2 and unit left
susceptible level, giving minimal speed 2 and decay rate 1/2 at c = 2.5.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import sirwaves.wave_profile
from sirwaves import (
    Grid,
    ModelParams,
    PulseIC,
    SimConfig,
    align_profiles,
    make_bound_set,
    make_gamma_set,
    map_inverses,
    minimal_speed,
    profile_diagnostics,
    report_json,
    run,
    run_suite,
    solve_bvp_newton,
    solve_fixed_point,
    subcritical_falsification,
    verify_sub_inequalities,
    wave_window,
)
from sirwaves.linear_analysis import golden_section
from sirwaves.resolvent import ResolventSpec, choose_alphas
from sirwaves.verification import inversion_errors
from sirwaves.cli import main as cli_main

P0 = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
C = 2.5
WAVE_GRID = Grid.symmetric(60.0, 0.05)


def report(num, ok, elapsed, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def p0_solution():
    return solve_fixed_point(P0, C, WAVE_GRID, tol=1e-8)


def test_criterion_1_closed_form_speed():
    t0 = time.time()
    sp = minimal_speed(P0)
    exact = sp.c_star == 2.0
    q = P0.beta - P0.gamma - P0.delta
    _, gs_min = golden_section(lambda lam: (P0.d2 * lam * lam + q) / lam, 1e-6, 10.0, 1e-12)
    gs = abs(gs_min - sp.c_star) <= 1e-8 * sp.c_star
    lams = np.linspace(1e-4, 10.0, 1_000_000)
    brute = np.min((P0.d2 * lams**2 + (P0.beta - P0.gamma - P0.delta)) / lams)
    grid_ok = abs(brute - sp.c_star) <= 1e-6
    elapsed = time.time() - t0
    ok = exact and gs and grid_ok and elapsed < 1.0
    report(1, ok, elapsed,
           f"c*={sp.c_star}, golden-section gap {abs(gs_min - sp.c_star):.2e}, "
           f"grid-search gap {abs(brute - sp.c_star):.2e}")


def test_criterion_2_resolvent_inversion_oracle():
    t0 = time.time()
    specs = choose_alphas(P0, C)
    errs_h = inversion_errors(specs, Grid.symmetric(20.0, 0.01))
    errs_h2 = inversion_errors(specs, Grid.symmetric(20.0, 0.005))
    worst = max(errs_h.values())
    orders = {k: np.log2(errs_h[k] / errs_h2[k]) for k in errs_h}
    order_ok = all(1.8 <= o <= 2.2 for o in orders.values())
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and order_ok and elapsed < 10.0
    report(2, ok, elapsed,
           f"worst interior error {worst:.2e} at dx=0.01, "
           f"orders {min(orders.values()):.2f}..{max(orders.values()):.2f}")


def test_criterion_3_sub_solution_inequalities():
    t0 = time.time()
    b = make_bound_set(P0, C)
    rep = verify_sub_inequalities(b, P0, C, WAVE_GRID)
    margins_ok = min(rep.s_margin, rep.i_margin, rep.r_margin) >= -1e-10
    # mutation check: undershooting the first amplitude by 2x must be reported
    bad = dataclasses.replace(b, m1=0.5 * b.m1, x1=-np.log(0.5 * b.m1) / b.eps1)
    mutated = verify_sub_inequalities(bad, P0, C, WAVE_GRID)
    mutation_ok = mutated.s_margin < 0
    elapsed = time.time() - t0
    ok = margins_ok and mutation_ok and elapsed < 1.0
    report(3, ok, elapsed,
           f"margins ({rep.s_margin:.2e}, {rep.i_margin:.2e}, {rep.r_margin:.2e}), "
           f"mutated margin {mutated.s_margin:.2e}")


def test_criterion_4_gamma_invariance():
    t0 = time.time()
    gset = make_gamma_set(P0, C, WAVE_GRID)
    specs = choose_alphas(P0, C)
    inverses = map_inverses(specs, P0, WAVE_GRID.dx)
    worst, species, side = gset.image_margin(P0, inverses)  # exact over the set, from its corners
    elapsed = time.time() - t0
    ok = worst >= -1e-6 and elapsed < 30.0
    report(4, ok, elapsed, f"exact worst membership margin of the image: {worst:.2e} ({species}, {side})")


def _criterion_5_checks(rep):
    d = profile_diagnostics(rep.profile, rep.grid, P0, C)
    checks = {
        "converged": rep.converged,
        "S decreasing": d.s_max_wrong_increment <= 1e-10,
        "R increasing": d.r_max_wrong_increment <= 1e-10,
        "I >= 0": d.i_min >= -1e-10,
        "I <= drop": d.i_max <= d.s_drop,
        "left decay 2%": d.left_decay_rel_err <= 0.02,
        "identity 0.5%": d.integral_identity_spread <= 0.005,
        "R limit 1%": d.r_end_rel_err <= 0.01,
        "R reconstruction 1e-4": d.r_reconstruction_max_err <= 1e-4,
        "J nondecreasing": d.j_min_increment >= -1e-8,
        "J bounded": d.j_bound_overshoot <= 1e-8,
    }
    return d, checks


def test_criterion_5_existence_diagnostics(p0_solution):
    t0 = time.time()
    d, checks = _criterion_5_checks(p0_solution)
    elapsed = time.time() - t0
    failed = [k for k, v in checks.items() if not v]
    ok = not failed and elapsed < 120.0
    report(5, ok, elapsed,
           f"identity spread {d.integral_identity_spread:.2e}, decay err "
           f"{d.left_decay_rel_err:.2e}, failed: {failed or 'none'}")


def test_criterion_6_solver_cross_validation(p0_solution):
    t0 = time.time()
    agreements = {}
    for c in (2.1, 2.5, 4.0):
        # the window must hold the slow left decay at each speed
        grid = wave_window(P0, c)
        rep = p0_solution if (c == C and grid == WAVE_GRID) else solve_fixed_point(P0, c, grid, tol=1e-8)
        inverses = map_inverses(rep.specs, P0, rep.grid.dx)
        newton, _ = solve_bvp_newton(P0, c, rep.grid, rep.profile, rep.gamma_set.bounds, inverses)
        _, diff = align_profiles(rep.profile, newton, rep.grid)
        agreements[c] = diff
    elapsed = time.time() - t0
    ok = all(v <= 1e-5 for v in agreements.values()) and elapsed < 300.0
    report(6, ok, elapsed,
           "agreement " + ", ".join(f"c={c}: {v:.2e}" for c, v in agreements.items()))


def test_criterion_7_spreading_speed():
    t0 = time.time()
    cfg = SimConfig(params=P0, grid=Grid.symmetric(200.0, 0.1), t_end=80.0, n_outputs=200)
    res = run(cfg)
    c_star = 2.0
    rel = abs(res.trace.speed_fit - c_star) / c_star
    stderr_ok = res.trace.speed_stderr <= 0.01 * res.trace.speed_fit
    cfg10 = SimConfig(
        params=P0, grid=Grid.symmetric(200.0, 0.1), t_end=80.0, n_outputs=200,
        ic=PulseIC(amplitude=10 * cfg.ic_amplitude),
    )
    res10 = run(cfg10)
    amp_shift = abs(res10.trace.speed_fit - res.trace.speed_fit) / res.trace.speed_fit
    elapsed = time.time() - t0
    ok = rel <= 0.05 and stderr_ok and amp_shift <= 0.01 and elapsed < 300.0
    report(7, ok, elapsed,
           f"speed {res.trace.speed_fit:.4f} ({100*rel:.2f}% off), stderr "
           f"{res.trace.speed_stderr:.1e}, amplitude shift {100*amp_shift:.3f}%")


def test_criterion_8_nonexistence_falsification():
    t0 = time.time()
    # (a) sub-threshold outbreak dies: R0 = 0.9 with unit removal rates
    sub = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.8, gamma=1.0, delta=1.0, s_minus_inf=1.0)
    res = run(SimConfig(params=sub, grid=Grid.symmetric(60.0, 0.2), t_end=100.0, n_outputs=200))
    ratio = res.i_max_trace[-1] / res.i_max_trace[0]
    late = res.i_max_trace[len(res.i_max_trace) // 2 :]
    decay_ok = ratio <= 1e-8 and np.all(np.diff(late) <= 1e-15)
    # (b) seeding a forbidden slow front relaxes to the minimal speed
    cfg = SimConfig(params=P0, grid=Grid.symmetric(150.0, 0.1), t_end=60.0, n_outputs=200)
    rep = subcritical_falsification(cfg, c_target=1.0)
    relax_ok = 1.9 <= rep.measured_speed <= 2.1
    elapsed = time.time() - t0
    ok = decay_ok and relax_ok and elapsed < 300.0
    report(8, ok, elapsed,
           f"decay ratio {ratio:.2e} by t=100; seeded speed {rep.measured_speed:.4f}")


def test_criterion_9_alpha_floor_robustness(p0_solution, monkeypatch):
    t0 = time.time()
    # criteria 3-5 rerun with every shift constant quadrupled
    b = make_bound_set(P0, C)  # envelope constants carry no alpha dependence
    rep_ineq = verify_sub_inequalities(b, P0, C, WAVE_GRID)
    ineq_ok = min(rep_ineq.s_margin, rep_ineq.i_margin, rep_ineq.r_margin) >= -1e-10

    specs4 = tuple(ResolventSpec.build(s.index, s.d, s.c, 4.0 * s.alpha) for s in choose_alphas(P0, C))
    inverses4 = map_inverses(specs4, P0, WAVE_GRID.dx)
    gset = make_gamma_set(P0, C, WAVE_GRID, b)
    worst = gset.image_margin(P0, inverses4)[0]  # the alpha floors still hold, so the corners are exact
    invariance_ok = worst >= -1e-6

    monkeypatch.setattr(sirwaves.wave_profile, "choose_alphas", lambda p, c: specs4)
    rep4 = solve_fixed_point(P0, C, WAVE_GRID, tol=1e-8)
    _, checks4 = _criterion_5_checks(rep4)
    diag_ok = all(checks4.values())
    drift = float(np.max(np.abs(rep4.profile - p0_solution.profile)))
    elapsed = time.time() - t0
    ok = ineq_ok and invariance_ok and diag_ok and drift < 1e-6 and elapsed < 300.0
    report(9, ok, elapsed,
           f"profile drift under 4x shift constants: {drift:.2e}; invariance margin {worst:.2e}")


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    r1 = report_json(run_suite(P0, C, level="quick"))
    r2 = report_json(run_suite(P0, C, level="quick"))
    suite_ok = r1 == r2

    cfg = {"params": {"d1": 1.0, "d2": 1.0, "d3": 1.0, "beta": 2.0, "gamma": 0.5,
                      "delta": 0.5, "s_minus_inf": 1.0}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = {}
    for jobs in (1, 4):
        out = tmp_path / f"jobs{jobs}"
        rc = cli_main(["sweep", str(path), "--vary", "c=2.2:3.2:3", "--jobs", str(jobs),
                       "--dx", "0.1", "--tol", "1e-6", "--out", str(out)])
        assert rc == 0
        outs[jobs] = (out / "sweep.csv").read_text()
    sweep_ok = outs[1] == outs[4]
    elapsed = time.time() - t0
    ok = suite_ok and sweep_ok
    report(10, ok, elapsed,
           f"verify bitwise identical: {suite_ok}; sweep jobs 1 == jobs 4: {sweep_ok}")
