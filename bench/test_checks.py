"""Self-tests of the benchmark: every check rejects a deliberately wrong output.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
import workloads
from workloads import P0, c_star

run.import_program()


@pytest.fixture(scope="module")
def profile(tmp_path_factory):
    """A real P0 wave at c = 2.5 on a coarse grid, as the profile subcommand writes it."""
    out = tmp_path_factory.mktemp("profile")
    case = workloads.Case("p0", "profile", P0, c=2.5, grid=workloads.symmetric_grid(60.0, 0.1))
    runner = run.Runner([case], out)
    _, bad, _ = runner.run_op(0)
    assert bad == []
    return checks.load_profile_outputs(str(out / "00"))


def _profile_failures(prof, c=2.5, **edits):
    x, s, i, r, diag = (np.array(a, copy=True) if isinstance(a, np.ndarray) else dict(a) for a in prof)
    for name, fn in edits.items():
        if name == "diag":
            fn(diag)
        else:
            fn({"s": s, "i": i, "r": r}[name])
    return checks.check_profile(x, s, i, r, P0, c, diag)


def test_profile_passes_as_written(profile):
    assert _profile_failures(profile) == []


def test_profile_rejects_s_nudged_upward(profile):
    def nudge(s):
        s[9 * len(s) // 10] += 1e-6  # behind the front, where S is flat

    bad = _profile_failures(profile, s=nudge)
    assert any("S increases" in b for b in bad)


def test_profile_rejects_r_nudged_downward(profile):
    def nudge(r):
        r[9 * len(r) // 10] -= 1e-6

    assert any("R decreases" in b for b in _profile_failures(profile, r=nudge))


def test_profile_rejects_negative_and_oversized_infected(profile):
    def negative(i):
        i[len(i) // 3] = -1e-6

    def oversized(i):
        i[np.argmax(i)] = 1.0

    assert any("negative" in b for b in _profile_failures(profile, i=negative))
    assert any("exceeds" in b for b in _profile_failures(profile, i=oversized))


def test_profile_rejects_broken_integral_identity(profile):
    def scale(i):
        i *= 1.01

    assert any("integral identity" in b for b in _profile_failures(profile, i=scale))


def test_profile_rejects_wrong_speed(profile):
    """The same profile claimed for another speed fails the decay rate and the wave equations."""
    bad = _profile_failures(profile, c=2.5 * 1.1)
    assert any("left decay rate" in b for b in bad)
    assert any("wave-equation residual" in b for b in bad)


def test_profile_rejects_smooth_bump(profile):
    def bump(s):
        x = np.linspace(-1.0, 1.0, len(s))
        s -= 1e-5 * (1.0 + np.tanh(x / 0.1))  # keeps S monotone, breaks the equations

    assert any("wave-equation residual" in b for b in _profile_failures(profile, s=bump))


def test_profile_rejects_solver_disagreement_and_non_convergence(profile):
    def disagree(d):
        d["solver_agreement"] = 2e-5

    def unconverged(d):
        d["converged"] = False

    assert any("agreement" in b for b in _profile_failures(profile, diag=disagree))
    assert any("converge" in b for b in _profile_failures(profile, diag=unconverged))


def _front(params, speed_factor=1.0, mass_error=0.0, deaths_factor=1.0, i_end=None, hit=False):
    """A synthetic simulation output that is right unless told otherwise."""
    cs = c_star(params)
    t = np.linspace(0.0, 15.0, 201)
    speed = (cs if math.isfinite(cs) else 0.0) * speed_factor
    xf = 5.0 + speed * t
    infected = 0.5 + 0.1 * np.sin(t)
    deaths = params["delta"] * np.concatenate(([0.0], np.cumsum(0.5 * (infected[1:] + infected[:-1]) * np.diff(t))))
    total = 100.0 - deaths_factor * deaths + mass_error * t / t[-1]
    snaps = [np.full(11, 0.01), np.full(11, 0.01 * (1e-9 if i_end is None else i_end))]
    summary = {"front_hit_boundary": hit, "clipped_mass": 0.0}
    return checks.check_front(params, 100.0, 0.1, (t, xf), (t, total, infected), snaps, summary)


def test_front_passes_when_right():
    assert _front(P0) == []
    assert _front({**P0, "delta": 0.0}) == []
    assert _front({**P0, "beta": 1.8, "gamma": 1.0, "delta": 1.0}) == []


def test_front_rejects_speed_six_percent_off():
    assert any("front speed" in b for b in _front(P0, speed_factor=1.06))
    assert any("front speed" in b for b in _front(P0, speed_factor=0.94))


def test_front_rejects_boundary_hit():
    assert any("boundary" in b for b in _front(P0, hit=True))


def test_front_rejects_mass_not_conserved_without_deaths():
    assert any("mass changed" in b for b in _front({**P0, "delta": 0.0}, mass_error=1e-6))


def test_front_rejects_deaths_that_do_not_match_delta():
    assert any("deaths" in b for b in _front(P0, deaths_factor=1.01))


def test_front_rejects_subcritical_outbreak_that_survives():
    sub = {**P0, "beta": 1.8, "gamma": 1.0, "delta": 1.0}
    assert any("R0 < 1" in b for b in _front(sub, i_end=1e-6))


def test_falsification_checks():
    cs = c_star(P0)
    good = SimpleNamespace(outcome="relaxed_to_minimal_speed", measured_speed=0.99 * cs)
    assert checks.check_falsification(P0, cs / 2, good) == []
    slow = SimpleNamespace(outcome="relaxed_to_minimal_speed", measured_speed=1.06 * cs)
    assert checks.check_falsification(P0, cs / 2, slow)
    died = SimpleNamespace(outcome="extinction", measured_speed=cs)
    assert checks.check_falsification(P0, cs / 2, died)


REPORT = json.dumps({"checks": [{"name": "a", "status": "pass"}, {"name": "b", "status": "pass"}],
                     "passed": True}, indent=2, sort_keys=True).encode()


def test_verify_report_passes_and_matches_itself():
    assert checks.check_verify_report(0, REPORT, None) == []
    assert checks.check_verify_report(0, REPORT, bytes(REPORT)) == []


def test_verify_report_rejects_one_failed_check():
    failed = REPORT.replace(b'"b",\n      "status": "pass"', b'"b",\n      "status": "fail"')
    assert failed != REPORT
    assert any("check b is fail" in b for b in checks.check_verify_report(0, failed, None))


def test_verify_report_rejects_one_byte_difference():
    other = REPORT[:-1] + bytes([REPORT[-1] ^ 1])
    assert any("differs" in b for b in checks.check_verify_report(0, REPORT, other))


def test_verify_report_rejects_exit_code_and_empty_report():
    assert any("exit code" in b for b in checks.check_verify_report(3, REPORT, None))
    empty = json.dumps({"checks": [], "passed": True}).encode()
    assert checks.check_verify_report(0, empty, None)


def test_integrate_is_exact_for_cubics():
    x = np.linspace(-1.0, 2.0, 31)
    assert checks.integrate(x**3 - x, x[1] - x[0]) == pytest.approx((16 - 1) / 4 - (4 - 1) / 2, rel=1e-12)


def test_cases_repeat_for_a_seed_and_keep_their_shape_across_seeds():
    for name in workloads.WORKLOADS:
        a, b, c = (workloads.cases_for(name, s) for s in (1, 1, 2))
        assert [x.config() for x in a] == [x.config() for x in b]
        assert [(x.kind, x.name) for x in a] == [(x.kind, x.name) for x in c]
    for case in workloads.cases_for("wave_ladder", 7):
        assert case.c > c_star(case.params)


def test_tracer_counts_repeat_and_uninstall_restores(tmp_path):
    import sirwaves
    from spans import Tracer

    original = sirwaves.wave_profile.apply_F
    case = workloads.Case("p0", "profile", P0, c=2.5, grid=workloads.symmetric_grid(60.0, 0.2))
    runner = run.Runner([case], tmp_path)
    tracer = Tracer()
    counts = []
    for _ in range(2):
        tracer.install()
        first = len(tracer.spans)
        before = dict(tracer.counters)
        runner.run_op(0)
        tracer.uninstall()
        spans = tracer.summary(first)
        iters = tracer.counters["wave_profile.solve_fixed_point.iterations"] - before.get(
            "wave_profile.solve_fixed_point.iterations", 0)
        assert spans["wave_profile.apply_F"]["calls"] == iters  # one F application per iteration
        assert all(v["self_s"] <= v["incl_s"] + 1e-12 for v in spans.values())
        counts.append({k: v["calls"] for k, v in spans.items()})
    assert counts[0] == counts[1]
    assert sirwaves.wave_profile.apply_F is original
    assert sirwaves.model.GridFunction.__post_init__.__name__ == "__post_init__"
    assert not hasattr(sirwaves.model.GridFunction.__post_init__, "__wrapped__")


def test_result_line_is_not_correct_when_an_op_fails():
    def rec(failed_ops):
        return {"lat": [0.1] * 5, "failed_ops": failed_ops}

    assert run.outcome([rec(0), rec(0)]) == {"correct": True, "attempted": 10, "failed": 0}
    assert run.outcome([rec(0), rec(1)]) == {"correct": False, "attempted": 10, "failed": 1}


def test_a_wrong_output_fails_its_op(tmp_path, monkeypatch):
    case = workloads.cases_for("verify_quick", 1)[0]
    runner = run.Runner([case], tmp_path)
    monkeypatch.setattr(checks, "check_verify_report", lambda *a: ["check b is fail"])
    _, bad, _ = runner.run_op(0)
    assert bad == ["check b is fail"]


def test_warmup_ops_run_on_a_coarser_grid_at_a_looser_tolerance(tmp_path):
    for name in workloads.WORKLOADS:
        warm = workloads.warmup_cases(name)
        runner = run.Runner(warm, tmp_path / name)
        for k in range(len(warm)):
            _, bad, _ = runner.run_op(k, check=False)
            assert bad == []
    profile = workloads.warmup_cases("verify_quick")[0]
    assert profile.tol > 1e-8 and profile.grid["n"] < min(c.grid["n"] for c in workloads.cases_for("wave_ladder", 1))
