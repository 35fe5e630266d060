from pathlib import Path

import numpy as np
import pytest

import sirwaves.model
import sirwaves.wave_profile
from sirwaves import ModelParams, run_suite, report_json, report_table, suite_passed
from sirwaves.verification import CheckResult, _result

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


def test_report_table_renders(quick_results):
    table = report_table(quick_results)
    assert "resolvent_inversion" in table
    assert "pass" in table


def test_mutated_incidence_fails_checks(monkeypatch):
    # sign-flipped incidence must surface as failures, not silent passes
    original = sirwaves.model.incidence

    def flipped(s, i, r, beta):
        return -original(s, i, r, beta)

    monkeypatch.setattr("sirwaves.model.incidence", flipped)
    results = run_suite(P0, 2.5, level="quick")
    failing = {r.name for r in results if r.status == "fail"}
    assert failing & {"gamma_invariance", "fixed_point", "profile_diagnostics"}
    assert "gamma_invariance" in failing  # the integral map reads the same reaction terms
    assert not suite_passed(results)


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
