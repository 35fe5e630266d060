import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sirwaves.cli import main

P0_CONFIG = {
    "params": {
        "d1": 1.0, "d2": 1.0, "d3": 1.0,
        "beta": 2.0, "gamma": 0.5, "delta": 0.5,
        "s_minus_inf": 1.0,
    },
    "c": 2.5,
}
# Grid.symmetric(40.0, 0.1)
GRID_40 = {"x_min": -40.0, "x_max": 40.0, "n": 801}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(P0_CONFIG))
    return str(path)


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_analyze_reports_c_star(config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["analyze", config_path, "--c", "2.5", "--out", out])
    assert rc == 0
    payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
    assert payload["c_star"] == 2.0
    assert payload["r0"] == 2.0
    assert payload["lambda0_table"][0]["lambda0"] == 0.5
    assert os.path.exists(os.path.join(out, "manifest.json"))


def test_analyze_d3_boundary_flagged(tmp_path):
    cfg = {"params": {**P0_CONFIG["params"], "d3": 2.0}}
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert main(["analyze", path, "--c", "2.5", "--out", out]) == 0
    payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
    entry = payload["lambda0_table"][0]
    assert entry["d3_condition"] is False
    assert "note" in entry


def test_analyze_subthreshold(tmp_path):
    cfg = {"params": {**P0_CONFIG["params"], "beta": 0.9}}
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert main(["analyze", path, "--out", out]) == 0
    payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
    assert payload["c_star"] is None
    assert payload["subthreshold"] is True


def test_config_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, {**P0_CONFIG, "speling_mistake": 1})
    assert main(["analyze", path, "--out", str(tmp_path / "o")]) == 1
    path = write_config(tmp_path, {"params": {**P0_CONFIG["params"], "bogus": 2}})
    assert main(["analyze", path, "--out", str(tmp_path / "o")]) == 1


def test_config_invalid_value_message(tmp_path, capsys):
    path = write_config(tmp_path, {"params": {**P0_CONFIG["params"], "beta": -1.0}})
    rc = main(["analyze", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "beta" in capsys.readouterr().err


def test_profile_refuses_subcritical_speed(config_path, tmp_path, capsys):
    rc = main(["profile", config_path, "--c", "1.9", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "minimal speed" in err


def test_profile_at_c_star_exits_2_with_one_line(config_path, tmp_path, capsys):
    rc = main(["profile", config_path, "--c", "2", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("solve failed: ") and "minimal speed" in err[0]


def test_refused_solve_clears_the_previous_outputs(config_path, tmp_path, capsys):
    # a reused --out must not keep an earlier run's profile under the new manifest
    out = tmp_path / "out"
    assert main(["profile", config_path, "--c", "2.5", "--tol", "1e-4", "--out", str(out)]) == 0
    assert main(["profile", config_path, "--c", "1.9", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("solve failed: ")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["c"] == 1.9 and manifest["outputs"] == {}
    assert manifest["derived"]["solve"] == {"failed": err[-1].removeprefix("solve failed: ")}


def test_profile_manifest_records_phase_timings(tmp_path):
    path = write_config(tmp_path, {**P0_CONFIG, "grid": GRID_40})
    out = tmp_path / "out"
    assert main(["profile", path, "--c", "2.5", "--tol", "1e-7", "--solver", "both", "--out", str(out)]) == 0
    timings = json.loads((out / "manifest.json").read_text())["timings"]
    assert sorted(timings) == ["diagnostics", "solve", "writes"]  # the agreement is computed inside the solve
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
    assert timings["solve"] > 0.0
    # telemetry stays out of the deterministic outputs
    assert "timings" not in (out / "diagnostics.json").read_text()
    assert main(["profile", path, "--c", "1.9", "--out", str(out)]) == 2
    assert sorted(json.loads((out / "manifest.json").read_text())["timings"]) == ["solve"]


def test_profile_exits_2_on_an_exponent_ordering_failure(config_path, tmp_path, capsys, monkeypatch):
    from sirwaves import wave_profile
    from sirwaves.resolvent import choose_mu

    monkeypatch.setattr(wave_profile, "choose_mu", lambda specs, lam0: choose_mu(specs, 10.0))
    assert main(["profile", config_path, "--c", "2.5", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip() == "solve failed: specs violate |lambda_i^-| > lambda0"


def test_profile_sizes_its_window_from_the_decay_rates(config_path, tmp_path):
    # no grid block: at c = 4 the left tail needs [-100, 100]; a fixed
    # [-60, 60] left it too short and the solve ran 5000 steps unconverged
    out = tmp_path / "out"
    assert main(["profile", config_path, "--c", "4", "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] and diag["iterations"] == 1
    lines = (out / "profile.csv").read_text().splitlines()
    assert len(lines) == 4002 and lines[1].startswith("-100,")


def test_profile_default_spacing_meets_the_mesh_condition(tmp_path, capsys):
    # d3 = 0.1 at c = 6 needs dx < 2*d3/c = 0.033: the default spacing is 0.03,
    # and an explicit --dx 0.05 is kept and refused
    path = write_config(tmp_path, {"params": {**P0_CONFIG["params"], "d3": 0.1}})
    out = tmp_path / "out"
    assert main(["profile", path, "--c", "6", "--out", str(out)]) == 0
    assert len((out / "profile.csv").read_text().splitlines()) == 10669
    assert main(["profile", path, "--c", "6", "--dx", "0.05", "--out", str(out)]) == 2
    assert "too coarse for operator 3" in capsys.readouterr().err


def test_profile_runs_and_writes_outputs(tmp_path):
    path = write_config(tmp_path, {**P0_CONFIG, "grid": GRID_40})
    out = str(tmp_path / "out")
    rc = main(["profile", path, "--c", "2.5", "--tol", "1e-7", "--solver", "both", "--out", out])
    assert rc == 0
    csv_lines = (tmp_path / "out" / "profile.csv").read_text().splitlines()
    assert csv_lines[0] == "x,S,I,R"
    assert len(csv_lines) == 802
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["converged"] is True
    assert diag["solver_agreement"] is not None and diag["solver_agreement"] < 1e-4
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "profile.csv" in manifest["outputs"]
    assert manifest["derived"]["c_star"] == 2.0


def test_profile_csv_roundtrip_precision(tmp_path):
    from sirwaves import Grid, ModelParams, solve_fixed_point

    path = write_config(tmp_path, {**P0_CONFIG, "grid": GRID_40})
    out = str(tmp_path / "out")
    main(["profile", path, "--c", "2.5", "--tol", "1e-7", "--out", out])
    lines = (tmp_path / "out" / "profile.csv").read_text().splitlines()[1:]
    vals = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    # 17 significant digits reproduce the doubles exactly: parsing recovers
    # the solved profile bit for bit
    p = ModelParams(**P0_CONFIG["params"])
    rep = solve_fixed_point(p, 2.5, Grid.symmetric(40.0, 0.1), tol=1e-7)
    assert np.array_equal(vals[:, 0], rep.grid.x)
    assert np.array_equal(vals[:, 1], rep.profile[0])
    assert np.array_equal(vals[:, 2], rep.profile[1])
    assert np.array_equal(vals[:, 3], rep.profile[2])


def test_csv_rows_match_per_value_formatting(tmp_path):
    # one format string per row writes the bytes of f"{v:.17g}" per value,
    # special values included
    from sirwaves.cli import _write_csv

    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0]
    cols = (np.array(specials), np.array(specials[::-1]), np.arange(len(specials), dtype=float))
    path = tmp_path / "t.csv"
    _write_csv(str(path), "a,b,c", cols)
    expected = "a,b,c\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(*cols))
    assert path.read_bytes() == expected.encode()


def test_explicit_grid_block_in_config(tmp_path):
    cfg = {**P0_CONFIG, "grid": {"x_min": -30.0, "x_max": 30.0, "n": 601}}
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    rc = main(["profile", path, "--c", "2.5", "--tol", "1e-6", "--out", out])
    assert rc == 0
    lines = (tmp_path / "out" / "profile.csv").read_text().splitlines()
    assert len(lines) == 602
    assert lines[1].startswith("-30,")


def test_simulate_writes_summary(tmp_path):
    cfg = {"params": P0_CONFIG["params"], "sim": {"t_end": 12.0}}
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    rc = main(["simulate", path, "--L", "60", "--dx", "0.25", "--out", out])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["c_star"] == 2.0
    assert summary["outcome"] in ("front", "no_front")
    assert summary["dt"] <= summary["dt_bound"]
    # the finite-time pulled-front speed sits beside the linear fit, below c*
    assert summary["pulled_front_speed"] < summary["c_star"]
    # from a physical start no step leaves a negative value, so nothing is clipped
    assert summary["min_value"] >= 0.0 and summary["clipped_mass"] == 0.0
    files = os.listdir(out)
    assert "front_trace.csv" in files and "mass_budget.csv" in files
    assert any(f.startswith("snapshot_t") for f in files)


def test_simulate_manifest_records_phase_timings(tmp_path):
    cfg = {"params": P0_CONFIG["params"], "sim": {"t_end": 4.0}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", path, "--L", "30", "--dx", "0.25", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    timings = manifest["timings"]
    assert sorted(timings) == ["steps", "writes"]
    assert all(isinstance(v, float) and v > 0.0 for v in timings.values())
    assert manifest["derived"]["steps"] == 40  # t_end / (0.3/(beta+gamma+delta))
    # telemetry stays out of the deterministic outputs
    summary = (out / "summary.json").read_text()
    assert "timings" not in summary and "steps" not in summary


def test_simulate_extinction_outcome(tmp_path):
    cfg = {"params": {**P0_CONFIG["params"], "beta": 1.8, "gamma": 1.0, "delta": 1.0}}
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    rc = main(["simulate", path, "--L", "40", "--dx", "0.25", "--t-end", "50", "--out", out])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["outcome"] == "extinction"
    assert "pulled_front_speed" not in summary  # R0 <= 1: no front to pull


@pytest.mark.parametrize("dt,message", [
    ("-1", "dt must be positive"),
    ("0", "dt must be positive"),
    ("1", "exceeds the stability bound"),  # dt_bound = 2/(beta+gamma+delta) = 2/3 at P0
])
def test_simulate_bad_dt_exits_2_with_one_line(config_path, tmp_path, capsys, dt, message):
    out = str(tmp_path / "out")
    rc = main(["simulate", config_path, "--dt", dt, "--t-end", "1", "--L", "20", "--dx", "0.2", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("simulate: ") and message in err[0]
    assert not os.path.exists(out)  # nothing is written for rejected settings


@pytest.mark.parametrize("flags,message", [
    (["--dx", "0"], "grid spacing"),
    (["--dx", "nan"], "grid spacing"),
    (["--L", "-5"], "grid window"),
    (["--t-end", "nan"], "t_end"),
])
def test_simulate_bad_grid_or_t_end_exits_2_with_one_line(config_path, tmp_path, capsys, flags, message):
    out = str(tmp_path / "out")
    rc = main(["simulate", config_path, "--t-end", "1", "--L", "20", "--dx", "0.2", *flags, "--out", out])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("simulate: ") and message in err[0]
    assert not os.path.exists(out)


@pytest.mark.parametrize("sim,message", [
    ({"pulse_amplitude": float("nan")}, "pulse amplitude"),
    ({"pulse_amplitude": "tiny"}, "could not convert"),
    ({"pulse_width": "x"}, "could not convert"),
    ({"pulse_center": "left"}, "could not convert"),
    ({"t_end": float("nan")}, "t_end"),
])
def test_simulate_rejects_bad_sim_values_with_one_line(tmp_path, capsys, sim, message):
    path = write_config(tmp_path, {"params": P0_CONFIG["params"], "sim": sim})
    out = str(tmp_path / "out")
    assert main(["simulate", path, "--L", "20", "--dx", "0.2", "--out", out]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("simulate: ") and message in err[0]
    assert not os.path.exists(out)


@pytest.mark.parametrize("dx", ["0", "nan", "-0.05"])
def test_profile_bad_spacing_exits_2_with_one_line(config_path, tmp_path, capsys, dx):
    rc = main(["profile", config_path, "--dx", dx, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("solve failed: ") and "grid spacing" in err[0]


def test_analyze_writes_the_phi_samples_as_csv(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", config_path, "--phi-samples", "7", "--out", str(out)]) == 0
    samples = json.loads((out / "analysis.json").read_text())["phi_samples"]
    lines = (out / "phi_samples.csv").read_text().splitlines()
    assert lines[0] == "lambda,phi" and len(samples) == len(lines) - 1 == 7
    assert lines[1:] == [f"{lam:.17g},{val:.17g}" for lam, val in samples]


def test_verify_quick_exit_code_and_determinism(config_path, tmp_path):
    out1, out2 = str(tmp_path / "v1"), str(tmp_path / "v2")
    assert main(["verify", config_path, "--out", out1]) == 0
    assert main(["verify", config_path, "--out", out2]) == 0
    r1 = (tmp_path / "v1" / "verify_report.json").read_bytes()
    r2 = (tmp_path / "v2" / "verify_report.json").read_bytes()
    assert r1 == r2


def test_verify_manifest_records_check_timings(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["verify", config_path, "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    timings = json.loads((out / "manifest.json").read_text())["timings"]
    assert sorted(timings) == sorted([c["name"] for c in report["checks"]] + ["writes"])
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
    assert timings["fixed_point"] > 0.0
    # telemetry stays out of the deterministic report
    assert "seconds" not in (out / "verify_report.json").read_text()


def test_verify_seed_has_no_effect(config_path, tmp_path):
    # --seed is still accepted, but no check samples: two seeds give the same
    # bytes, and the manifest does not record the option
    outs = {seed: tmp_path / f"seed{seed}" for seed in (1, 24301)}
    for seed, out in outs.items():
        assert main(["verify", config_path, "--seed", str(seed), "--out", str(out)]) == 0
    r1, r2 = ((out / "verify_report.json").read_bytes() for out in outs.values())
    assert r1 == r2
    manifest = json.loads((outs[1] / "manifest.json").read_text())
    assert "seed" not in manifest["config"]


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    # a broken incidence must drive the suite to exit code 3
    import sirwaves.model as model

    original = model.incidence
    monkeypatch.setattr(
        "sirwaves.model.incidence",
        lambda s, i, r, beta: -original(s, i, r, beta),
    )
    path = write_config(tmp_path, P0_CONFIG)
    assert main(["verify", path, "--out", str(tmp_path / "out")]) == 3
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["gamma_invariance"]["status"] == "fail"  # the integral map reads it too


def test_verify_newton_failure_is_a_failed_check(tmp_path, monkeypatch):
    # with a two-step budget every Newton solve fails; the suite records
    # fixed_point as failed with the error's type and text, and with no
    # profile to check it skips the diagnostics, without solving again
    import sirwaves.wave_profile

    calls = []
    original = sirwaves.wave_profile.solve_bvp_newton

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sirwaves.wave_profile, "solve_bvp_newton", counted)
    monkeypatch.setattr(sirwaves.wave_profile, "NEWTON_MAX_ITER", 2)
    path = write_config(tmp_path, P0_CONFIG)
    assert main(["verify", path, "--out", str(tmp_path / "out")]) == 3
    assert len(calls) == 1
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["fixed_point"]["status"] == "fail"
    assert checks["fixed_point"]["details"].startswith("newton solve failed: NotConverged: 2 steps ended at residual")
    assert (checks["profile_diagnostics"]["status"], checks["profile_diagnostics"]["details"]) == ("skipped", "no profile")
    assert [c["name"] for c in report["checks"] if c["status"] == "fail"] == ["fixed_point"]


def test_profile_newton_failure_exits_2(tmp_path, capsys, monkeypatch):
    # with a two-step budget the Newton solve fails at every tol: profile
    # takes the path of every refused solve, clearing an earlier run's files
    # and recording the typed error in the manifest
    path = write_config(tmp_path, P0_CONFIG)
    out = tmp_path / "out"
    assert main(["profile", path, "--tol", "1e-4", "--out", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("sirwaves.wave_profile.NEWTON_MAX_ITER", 2)
    assert main(["profile", path, "--solver", "both", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("solve failed: NotConverged: 2 steps ended at residual")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == {}
    assert manifest["derived"]["solve"] == {"failed": err[0].removeprefix("solve failed: ")}


def test_profile_near_c_star_on_wide_window_is_solved(tmp_path):
    cfg = {"params": P0_CONFIG["params"], "grid": {"x_min": -70.0, "x_max": 70.0, "n": 2801}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["profile", path, "--c", "2.01", "--solver", "both", "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] and diag["solver_agreement"] <= 1e-5
    solve = diag["solve"]
    assert diag["iterations"] == 1 and sorted(solve) == ["gamma_margin", "newton_residuals", "newton_steps"]
    assert abs(solve["gamma_margin"]) <= 1e-12  # inside the envelopes up to roundoff
    assert solve["newton_steps"] == len(solve["newton_residuals"]) - 1 >= 1
    assert solve["newton_residuals"][-1] <= 1e-12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["derived"]["solve"] == solve


def test_profile_reuses_the_newton_root_of_the_solve(config_path, tmp_path, monkeypatch):
    # the report carries the Newton agreement, so the solve's Newton call is
    # the only one, and a failed Newton solve is not retried
    import sirwaves.wave_profile

    calls = []
    original = sirwaves.wave_profile.solve_bvp_newton

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sirwaves.wave_profile, "solve_bvp_newton", counted)
    for tol in ("1e-10", "1e-8", "1e-6", "1e-4", "1e-2"):
        calls.clear()
        out = tmp_path / tol
        assert main(["profile", config_path, "--c", "2.5", "--solver", "both", "--tol", tol, "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["iterations"] == 1 and diag["solver_agreement"] <= 1e-10
        assert len(calls) == 1

    calls.clear()
    monkeypatch.setattr(sirwaves.wave_profile, "NEWTON_MAX_ITER", 2)
    assert main(["profile", config_path, "--c", "2.5", "--solver", "both", "--out", str(tmp_path / "fail")]) == 2
    assert len(calls) == 1


def test_solver_option_only_chooses_the_written_array(tmp_path):
    # newton writes the root, picard and both the step of F that certifies
    # it; every choice reports the same agreement
    from sirwaves import Grid, ModelParams, solve_fixed_point

    path = write_config(tmp_path, {**P0_CONFIG, "grid": GRID_40})
    rep = solve_fixed_point(ModelParams(**P0_CONFIG["params"]), 2.5, Grid(**GRID_40), tol=1e-8)
    written = {}
    for solver in ("picard", "newton", "both"):
        out = tmp_path / solver
        assert main(["profile", path, "--solver", solver, "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["solver"] == solver and diag["solver_agreement"] == rep.agreement
        written[solver] = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)[:, 1:].T
    assert np.array_equal(written["newton"], rep.newton)
    assert np.array_equal(written["picard"], rep.profile) and np.array_equal(written["both"], rep.profile)


def test_verify_far_above_c_star_passes(tmp_path):
    # the sech oracle's right tail leaves operator 2's kernel strip at c = 10;
    # that pair is left out of the inversion check instead of raising
    path = write_config(tmp_path, P0_CONFIG)
    assert main(["verify", path, "--c", "10", "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    inversion = report["checks"][0]
    assert inversion["name"] == "resolvent_inversion"
    assert "('sech', 2)" in inversion["details"]


def test_sweep_rows_and_outcome_flip(tmp_path):
    path = write_config(tmp_path, P0_CONFIG)
    out = str(tmp_path / "out")
    rc = main([
        "sweep", path, "--vary", "beta=0.8:2.0:2", "--dx", "0.1", "--tol", "1e-6", "--out", out,
    ])
    assert rc == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 2
    # the outcome flips from extinction to wave across the threshold beta = gamma + delta
    assert [r["outcome"] for r in rows] == ["extinction", "wave"]
    betas = [float(r["beta"]) for r in rows]
    assert betas == sorted(betas)


def test_sweep_parallel_matches_serial(tmp_path):
    path = write_config(tmp_path, P0_CONFIG)
    out1, out4 = str(tmp_path / "j1"), str(tmp_path / "j4")
    main(["sweep", path, "--vary", "c=2.1:3.0:3", "--jobs", "1",
          "--dx", "0.2", "--tol", "1e-6", "--out", out1])
    main(["sweep", path, "--vary", "c=2.1:3.0:3", "--jobs", "4",
          "--dx", "0.2", "--tol", "1e-6", "--out", out4])
    assert (tmp_path / "j1" / "sweep.csv").read_text() == (tmp_path / "j4" / "sweep.csv").read_text()


def test_sweep_two_keys(tmp_path):
    path = write_config(tmp_path, P0_CONFIG)
    out = str(tmp_path / "out")
    rc = main(["sweep", path, "--vary", "c=2.5:3.0:2", "--vary", "d3=0.5:1.0:2",
               "--dx", "0.1", "--tol", "1e-6", "--out", out])
    assert rc == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 4
    keys = [(float(r["c"]), float(r["d3"])) for r in rows]
    assert keys == sorted(keys)  # canonical order
    assert all(r["outcome"] == "wave" for r in rows)


def test_sweep_fast_waves_converge_on_their_windows(tmp_path):
    # the fixed [-40, 40] window left the 5.25 and 8 rows not_converged
    path = write_config(tmp_path, P0_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", path, "--vary", "c=2.5:8:3", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert [(float(r["c"]), r["outcome"]) for r in rows] == [(2.5, "wave"), (5.25, "wave"), (8.0, "wave")]


def test_simulate_front_hit_boundary_flagged(tmp_path):
    # window too small for the horizon: the run is flagged, not crashed
    cfg = {"params": P0_CONFIG["params"], "sim": {"t_end": 40.0}}
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    rc = main(["simulate", path, "--L", "30", "--dx", "0.25", "--out", out])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["front_hit_boundary"] is True
    # the run stopped at the edge, short of the 800 steps to t_end
    assert 0 < json.loads((tmp_path / "out" / "manifest.json").read_text())["derived"]["steps"] < 800


def test_sweep_default_spacing_fits_a_slow_removed_diffusion(tmp_path):
    # with d3 = 0.1 the old fixed --dx 0.1 broke the mesh condition dx < 2*d3/c
    # at both speeds and wrote two error rows; the default is the window's own spacing
    path = write_config(tmp_path, {"params": {**P0_CONFIG["params"], "d3": 0.1}})
    out = tmp_path / "out"
    assert main(["sweep", path, "--vary", "c=2.5:6:2", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert [(float(r["c"]), r["outcome"]) for r in rows] == [(2.5, "wave"), (6.0, "wave")]


def test_sweep_rejects_bad_vary(config_path, tmp_path):
    assert main(["sweep", config_path, "--vary", "nonsense=1:2:3",
                 "--out", str(tmp_path / "o")]) == 1
    assert main(["sweep", config_path, "--vary", "beta=1:2:3", "--vary", "c=2:3:2",
                 "--vary", "gamma=1:2:2", "--out", str(tmp_path / "o")]) == 1


def test_rerun_reproduces_output_hashes(tmp_path):
    # the manifest pins content hashes; re-running the same resolved config
    # must reproduce them all
    path = write_config(tmp_path, {**P0_CONFIG, "grid": GRID_40})
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["profile", path, "--c", "2.5", "--tol", "1e-7", "--out", out]) == 0
        outs.append(json.loads((tmp_path / name / "manifest.json").read_text()))
    assert outs[0]["outputs"] == outs[1]["outputs"]
    assert outs[0]["config"] == outs[1]["config"]


def test_out_root_env_override(config_path, tmp_path, monkeypatch):
    monkeypatch.setenv("SIRWAVES_OUT_ROOT", str(tmp_path))
    rc = main(["analyze", config_path, "--c", "2.5", "--out", "rooted"])
    assert rc == 0
    assert (tmp_path / "rooted" / "analysis.json").exists()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sirwaves.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout
