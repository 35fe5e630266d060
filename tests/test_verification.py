from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import sirwaves.model
import sirwaves.verification
import sirwaves.wave_profile
from sirwaves import (
    ModelParams,
    choose_alphas,
    lambda0,
    make_gamma_set,
    map_inverses,
    minimal_speed,
    report_json,
    report_table,
    run_suite,
    suite_passed,
    wave_window,
)
from sirwaves.resolvent import TailIncompatible, inverse_operator
from sirwaves.verification import (
    ORACLE_FUNCTIONS,
    ORACLE_GRID,
    CheckResult,
    _Context,
    _result,
    _subthreshold_decay,
    inversion_errors,
)

P0 = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)


@pytest.fixture(scope="module")
def quick_results():
    return run_suite(P0, 2.5, level="quick")


def test_quick_suite_passes(quick_results):
    assert suite_passed(quick_results)
    statuses = {r.name: r.status for r in quick_results}
    assert statuses == {
        "resolvent_inversion": "pass",
        "piecewise_domination": "pass",
        "sub_solution_inequalities": "pass",
        "gamma_invariance": "pass",
        "fixed_point": "pass",
        "profile_diagnostics": "pass",
    }


def test_checks_run_in_declaration_order(quick_results):
    names = [r.name for r in quick_results]
    assert names == sorted(names, key=names.index)  # stable, as declared
    assert names[0] == "resolvent_inversion"
    assert names[-1] == "profile_diagnostics"


def test_every_check_states_its_claim(quick_results):
    assert all(r.claim for r in quick_results)
    with pytest.raises(ValueError):
        _result("anon", "", 1.0, 0.0)


def test_pass_iff_margin_within_tolerance():
    r = _result("a", "claim", -0.5e-6, 1e-6)
    assert r.status == "pass"
    r = _result("a", "claim", -2e-6, 1e-6)
    assert r.status == "fail"


def test_subthreshold_params_skip_wave_checks():
    sub = ModelParams(1.0, 1.0, 1.0, beta=0.9, gamma=0.5, delta=0.5, s_minus_inf=1.0)
    results = run_suite(sub, 2.5, level="quick")
    assert all(r.status == "skipped" for r in results)
    assert suite_passed(results)  # skipped is not a failure


def test_a_failed_minimal_speed_fails_the_wave_checks(monkeypatch):
    # only SubThreshold means no wave; any other error is a failure to report, not a skip
    from sirwaves.linear_analysis import CrossCheckFailed

    def broken(p):
        raise CrossCheckFailed("golden-section minimum disagrees")

    monkeypatch.setattr(sirwaves.verification, "minimal_speed", broken)
    results = run_suite(P0, 2.5, level="quick")
    assert [r.status for r in results] == ["fail"] * 6
    assert all(r.details == "minimal_speed: CrossCheckFailed: golden-section minimum disagrees" for r in results)
    assert not suite_passed(results)


def test_quick_suite_is_bitwise_deterministic():
    a = report_json(run_suite(P0, 2.5, level="quick"))
    b = report_json(run_suite(P0, 2.5, level="quick"))
    assert a == b


def test_quick_report_matches_golden_bytes():
    # the behavioural contract: the P0 quick report, byte for byte
    golden = Path(__file__).parent / "data" / "verify_report_p0_quick.json"
    assert report_json(run_suite(P0, 2.5, level="quick")).encode() == golden.read_bytes()


def test_full_report_matches_golden_bytes():
    # the full report adds the three simulation checks
    golden = Path(__file__).parent / "data" / "verify_report_p0_full.json"
    assert report_json(run_suite(P0, 2.5, level="full")).encode() == golden.read_bytes()


def test_fixed_point_check_reuses_the_newton_root(monkeypatch):
    # the P0 solve carries the agreement of its certifying step with the
    # Newton root: the solve's own Newton call is the only one
    calls = []
    original = sirwaves.wave_profile.solve_bvp_newton

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sirwaves.wave_profile, "solve_bvp_newton", counted)
    golden = Path(__file__).parent / "data" / "verify_report_p0_quick.json"
    assert report_json(run_suite(P0, 2.5, level="quick")).encode() == golden.read_bytes()
    assert len(calls) == 1


def test_gamma_invariance_applies_the_map_at_most_seven_times(monkeypatch):
    # the solve applies F once and the exact check needs at most six
    # one-component images; a return to sampling members of the set fails here
    calls = []
    original = sirwaves.wave_profile.apply_F

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (sirwaves.wave_profile, sirwaves.verification):
        if hasattr(module, "apply_F"):
            monkeypatch.setattr(module, "apply_F", counted)
    results = run_suite(P0, 2.5, level="quick")
    assert suite_passed(results)
    assert 1 <= len(calls) <= 7  # the solve's step shows the counter is hooked


def test_quick_suite_builds_each_shared_input_once(monkeypatch):
    # the checks read the specs, the bound set, the Γ set and the map inverses
    # off the solve's report instead of building them a second time
    calls = {}
    for name in ("choose_alphas", "make_bound_set", "make_gamma_set", "map_inverses"):
        original = getattr(sirwaves.wave_profile, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        for module in (sirwaves.wave_profile, sirwaves.verification):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    assert suite_passed(run_suite(P0, 2.5, level="quick"))
    assert calls == {"choose_alphas": 1, "make_bound_set": 1, "make_gamma_set": 1, "map_inverses": 1}


def test_oracle_samples_are_cached_read_only_and_give_fresh_errors():
    specs = choose_alphas(P0, 2.5)
    cached = inversion_errors(specs, ORACLE_GRID)
    hits = sirwaves.verification._oracle_samples.cache_info().hits
    assert inversion_errors(specs, ORACLE_GRID) == cached
    assert sirwaves.verification._oracle_samples.cache_info().hits == hits + 1
    for _, *arrays, _, _ in sirwaves.verification._oracle_samples(ORACLE_GRID):
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
    # the same errors from samples taken afresh, outside the cache
    x = ORACLE_GRID.x
    inner = (x >= ORACLE_GRID.x_min + 5.0) & (x <= ORACLE_GRID.x_max - 5.0)
    fresh = {}
    for name, f0, f1, f2, lt, rt in ORACLE_FUNCTIONS:
        h = f0(x)
        for spec in specs:
            try:
                invert, _ = inverse_operator(spec, ORACLE_GRID.dx, lt, rt)
            except TailIncompatible:
                continue
            back = invert(-spec.d * f2(x) + spec.c * f1(x) + spec.alpha * h)
            fresh[(name, spec.index)] = float(np.max(np.abs(back[inner] - h[inner])))
    assert cached == fresh


def test_envelopes_hold_near_c_star_with_s_minus_inf_below_one():
    # at 1.01 c* with slow removed diffusion and S(-inf) = 0.5 every quick check
    # passes: the S amplitude rule carries the factor S(-inf) that the S
    # sub-solution inequality has, so M1 is large enough when S(-inf) < 1
    p = ModelParams(d1=0.5, d2=0.5, d3=0.025, beta=0.21, gamma=0.2, delta=0.0, s_minus_inf=0.5)
    c = 1.01 * minimal_speed(p).c_star
    checks = {r.name: r for r in run_suite(p, c, level="quick")}
    assert len(checks) == 6 and all(r.status == "pass" for r in checks.values())
    # the tightest row is I, at roundoff (2.65e-17); S holds at 4.0e-8
    assert 0.0 <= checks["sub_solution_inequalities"].worst_margin < 1e-15
    assert "S 4.029e-08" in checks["sub_solution_inequalities"].details
    # the exact worst image sits 1.506e-7 below the lower S envelope, inside the
    # tolerance 1e-6, at dx 0.05 and at dx 0.025 alike
    assert checks["gamma_invariance"].worst_margin == pytest.approx(-1.506e-7, rel=0.01)
    assert checks["gamma_invariance"].details.endswith("worst S, lower envelope")
    g = wave_window(p, c, 0.025)
    exact, species, side = make_gamma_set(p, c, g).image_margin(p, map_inverses(choose_alphas(p, c), p, g.dx))
    assert (species, side) == ("S", "lower")
    assert exact == pytest.approx(-1.506e-7, rel=0.01)


def test_report_table_renders(quick_results):
    table = report_table(quick_results)
    assert "resolvent_inversion" in table
    assert "pass" in table


def test_mutated_incidence_fails_checks(monkeypatch):
    # sign-flipped incidence must surface as failures, not silent passes
    original = sirwaves.model.incidence

    def flipped(s, i, r, beta, out=None):
        value = -original(s, i, r, beta)
        if out is None:
            return value
        out[...] = value
        return out

    monkeypatch.setattr("sirwaves.model.incidence", flipped)
    results = run_suite(P0, 2.5, level="quick")
    failing = {r.name for r in results if r.status == "fail"}
    assert failing & {"gamma_invariance", "fixed_point", "profile_diagnostics"}
    assert "gamma_invariance" in failing  # the integral map reads the same reaction terms
    assert not suite_passed(results)


def test_subthreshold_decay_fails_on_a_late_rise_of_max_i(monkeypatch):
    # max I falls from 1e-2 to 1.4e-13 (the P0 check's run ends at 7e-13), but
    # rises by 1e-13 at t = 81: below an absolute slack of 1e-12, far above
    # roundoff of max I there (1.6e-11)
    trace = 1e-2 * np.exp(-0.25 * np.arange(101.0))
    trace[81] = trace[80] + 1e-13
    monkeypatch.setattr("sirwaves.pde_sim.run", lambda cfg: SimpleNamespace(i_max_trace=trace))
    margin, tol, details = _subthreshold_decay(_Context(P0, 2.5, 2.0))
    assert trace[-1] / trace[0] < 1e-8  # the overall decay alone would pass
    assert _result("subthreshold_decay", "dies out", margin, tol, details).status == "fail"


def test_default_window_holds_the_slow_right_tail():
    # with delta = 0 the infected tail behind the front decays only at the
    # outflow rate 0.155, so the right edge moves out to 110; on the symmetric
    # [-60, 60] window "J monotone" failed at -1.47e-6
    p = ModelParams(1.0, 1.0, 1.0, beta=2.0, gamma=0.5, delta=0.0, s_minus_inf=1.0)
    results = run_suite(p, 3.0619, level="quick")
    assert [(r.name, r.status) for r in results if r.status != "pass"] == []


def test_oversized_window_fails_the_wave_checks():
    # near R0 = 1 the left tail needs [-2580, 2580]; wave_window refuses it,
    # and every check on that window records the refusal as a failure
    p = ModelParams(1.0, 1.0, 1.0, beta=1.01, gamma=0.5, delta=0.5, s_minus_inf=1.0)
    results = run_suite(p, 1.0, level="quick")
    failed = {r.name: r.details for r in results if r.status == "fail"}
    assert list(failed) == ["sub_solution_inequalities", "gamma_invariance", "fixed_point", "profile_diagnostics"]
    assert all("103201 points" in d for d in failed.values())


def test_r0_edge_point_is_in_the_wave_regime_everywhere():
    # beta > gamma + delta exactly here (q = 2.8e-17), though beta/(gamma + delta)
    # rounds to 1; the regime flag, the decay rates, c* and the suite all agree on R0 > 1
    p = ModelParams(1, 1, 1, beta=0.30000000000000004, gamma=0.1, delta=0.2, s_minus_inf=1)
    assert p.growth_rate > 0 and p.wave_regime
    roots = lambda0(1e-6, p)
    assert 0.0 < roots.lambda0 < roots.lambda0_plus
    assert 0.0 < minimal_speed(p).c_star < 1e-6
    results = run_suite(p, 1e-6)
    assert all(r.details != "outside the wave regime" for r in results)
