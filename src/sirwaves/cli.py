"""Command-line front end: analyze, profile, simulate, sweep, verify.

Configs are flat JSON ({"params": {...}, "c": ..., "grid": {...}}); unknown
keys are rejected. Every run directory receives a manifest with the resolved
configuration, derived constants and content hashes of all outputs, so a run
can be reproduced bit for bit from its manifest. Exit codes: 0 success,
1 bad configuration, 2 non-convergence, 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .model import Grid, ModelParams, check_spacing, r_naught
from .linear_analysis import (
    ComplexRoots,
    SubThreshold,
    check_d3_condition,
    lambda0,
    minimal_speed,
)
from .wave_profile import (
    NotConverged,
    SingularJacobian,
    check_tolerance,
    profile_diagnostics,
    solve_fixed_point,
    wave_window,
)
from . import pde_sim
from . import verification


class ConfigInvalid(ValueError):
    pass


PARAM_KEYS = ("d1", "d2", "d3", "beta", "gamma", "delta", "s_minus_inf")
GRID_KEYS = ("x_min", "x_max", "n")
SIM_KEYS = ("t_end", "dt", "pulse_center", "pulse_width", "pulse_amplitude", "front_threshold")
TOP_KEYS = ("params", "c", "grid", "sim")


def _fmt(v) -> str:
    """Floats with 17 significant digits so text output round-trips exactly."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    unknown = set(raw) - set(TOP_KEYS)
    if unknown:
        raise ConfigInvalid(f"unknown top-level keys: {sorted(unknown)}")
    if "params" not in raw:
        raise ConfigInvalid("config must contain a 'params' block")
    pblock = raw["params"]
    unknown = set(pblock) - set(PARAM_KEYS)
    if unknown:
        raise ConfigInvalid(f"unknown params keys: {sorted(unknown)}")
    missing = set(PARAM_KEYS) - set(pblock)
    if missing:
        raise ConfigInvalid(f"missing params keys: {sorted(missing)}")
    for block, keys in (("grid", GRID_KEYS), ("sim", SIM_KEYS)):
        if block in raw:
            unknown = set(raw[block]) - set(keys)
            if unknown:
                raise ConfigInvalid(f"unknown {block} keys: {sorted(unknown)}")
    return raw


def params_from_config(cfg: dict) -> ModelParams:
    try:
        return ModelParams(**{k: float(cfg["params"][k]) for k in PARAM_KEYS})
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"params: {exc}") from exc


def grid_from_config(cfg: dict) -> Grid | None:
    """The config's grid block as a Grid, or None when it has none."""
    if "grid" not in cfg:
        return None
    g = cfg["grid"]
    try:
        n = float(g["n"])
        if not n.is_integer():
            raise ValueError(f"n must be a whole number, got {g['n']!r}")
        return Grid(float(g["x_min"]), float(g["x_max"]), int(n))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"grid: {exc}") from exc


def check_speed(c) -> None:
    """Raise ValueError unless the speed c, from --c or the config, is a finite number."""
    if isinstance(c, bool) or not isinstance(c, (int, float)) or not np.isfinite(c):
        raise ValueError(f"speed c must be a finite number, got {c!r}")


def _out_dir(args) -> str:
    root = os.environ.get("SIRWAVES_OUT_ROOT", ".")
    out = args.out if os.path.isabs(args.out) else os.path.join(root, args.out)
    os.makedirs(out, exist_ok=True)
    return out


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: str, command: str, resolved: dict, derived: dict, timings: dict | None = None):
    """Write manifest.json; timings (seconds per phase) is telemetry and goes in no other output."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name != "manifest.json" and os.path.isfile(path):
            files[name] = _sha256(path)
    manifest = {
        "tool": "sirwaves",
        "version": __version__,
        "command": command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": resolved,
        "derived": derived,
        "outputs": files,
    }
    if timings is not None:
        manifest["timings"] = timings
    path = os.path.join(out_dir, "manifest.json")
    _write_json(path, manifest)
    return path


@contextlib.contextmanager
def _timed(timings: dict, phase: str):
    """Add the seconds the block takes, even if it raises, to timings[phase]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[phase] = timings.get(phase, 0.0) + time.perf_counter() - start


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _write_csv(path: str, header: str, columns):
    """Columns side by side under header, each value with 17 significant digits as _fmt writes it.

    The whole table is formatted by one % over the row format repeated once per row.
    """
    rows = np.column_stack(columns)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write(line * rows.shape[0] % tuple(rows.ravel().tolist()))


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    p = params_from_config(cfg)
    c_values = list(args.c) if args.c else ([cfg["c"]] if "c" in cfg else [])
    try:  # before any output: a non-finite speed would be written as invalid JSON
        for c in c_values:
            check_speed(c)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc
    out = _out_dir(args)

    payload: dict = {"r0": r_naught(p)}
    derived: dict = {"r0": r_naught(p)}
    try:
        speed = minimal_speed(p, n_samples=args.phi_samples)
        payload.update(
            c_star=speed.c_star,
            lambda_star=speed.lambda_star,
            full_quotient_min=speed.full_min,
            full_quotient_argmin=speed.full_argmin,
            i_branch_active=speed.i_branch_active_at_minimizer,
        )
        derived.update(c_star=speed.c_star, lambda_star=speed.lambda_star)
        if speed.phi_samples:
            payload["phi_samples"] = [[lam, val] for lam, val in speed.phi_samples]
            _write_csv(os.path.join(out, "phi_samples.csv"), "lambda,phi", np.array(speed.phi_samples).T)
    except SubThreshold:
        payload.update(c_star=None, lambda_star=None, subthreshold=True)

    table = []
    for c in c_values:
        entry: dict = {"c": c}
        try:
            roots = lambda0(c, p)
            d3 = check_d3_condition(p, c)
            entry.update(
                lambda0=roots.lambda0,
                lambda0_plus=roots.lambda0_plus,
                degenerate=roots.degenerate,
                d3_condition=d3.satisfied,
                c_minus_d3_lambda0=d3.c_minus_d3_lambda0,
            )
            if not d3.satisfied:
                entry["note"] = "d3 < 2*d2 fails: the envelope construction is unavailable"
        except (ComplexRoots, SubThreshold) as exc:
            entry.update(error=type(exc).__name__, note=str(exc))
        table.append(entry)
    payload["lambda0_table"] = table

    _write_json(os.path.join(out, "analysis.json"), payload)
    write_manifest(out, "analyze", cfg, derived)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_profile(args) -> int:
    cfg = load_config(args.config)
    p = params_from_config(cfg)
    c = args.c if args.c is not None else cfg.get("c")
    if c is None:
        raise ConfigInvalid("profile needs a speed: pass --c or put 'c' in the config")
    try:  # before any output: every solve would fail or mislabel on them
        check_speed(c)
        check_tolerance(args.tol)
    except ValueError as exc:
        print(f"profile: {exc}", file=sys.stderr)
        return 2
    grid = grid_from_config(cfg)
    out = _out_dir(args)

    timings = {}
    try:  # ComplexRoots, SubThreshold and an oversized window are ValueErrors
        with _timed(timings, "solve"):
            report = solve_fixed_point(p, c, grid or wave_window(p, c, args.dx), tol=args.tol)
    except (ValueError, NotConverged, SingularJacobian) as exc:
        # no profile: clear the previous run's outputs and record why in the manifest
        reason = str(exc) if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
        for name in ("profile.csv", "diagnostics.json"):
            if os.path.exists(os.path.join(out, name)):
                os.remove(os.path.join(out, name))
        write_manifest(out, "profile", {**cfg, "c": c}, {"solve": {"failed": reason}}, timings)
        print(f"solve failed: {reason}", file=sys.stderr)
        return 2
    grid = report.grid
    failure = None if report.converged else "profile solve did not converge; outputs are flagged"
    # the root itself for newton; picard and both write the certifying step of F from it
    chosen = report.newton if args.solver == "newton" else report.profile

    with _timed(timings, "writes"):
        _write_csv(os.path.join(out, "profile.csv"), "x,S,I,R", (grid.x, *chosen))
    with _timed(timings, "diagnostics"):
        diag = profile_diagnostics(chosen, grid, p, c)
    b = report.gamma_set.bounds
    solve = {"gamma_margin": report.gamma_margin, "newton_steps": report.newton_steps,
             "newton_residuals": list(report.newton_residuals)}
    payload = {
        "c": c,
        "converged": report.converged,
        "iterations": report.iterations,
        "residual": report.residual,
        "ode_residual": report.ode_residual,
        "s_inf": report.s_inf,
        "lambda0": report.lambda0,
        "mu": report.mu,
        "alphas": [s.alpha for s in report.specs],
        "solver": args.solver,
        "solver_agreement": report.agreement,
        "solve": solve,
        "warnings": list(report.warnings),
        "bound_set": {
            "eps": [b.eps1, b.eps2, b.eps3],
            "M": [b.m1, b.m2, b.m3],
            "crossovers": [b.x1, b.x2, b.x3],
            "r_coef": b.r_coef,
        },
        "diagnostics": {
            "s_drop": diag.s_drop,
            "integral_identity_spread": diag.integral_identity_spread,
            "left_decay_rate": diag.left_decay_rate,
            "r_end": diag.r_end,
            "r_end_predicted": diag.r_end_predicted,
            "j_max": diag.j_max,
            "i_max": diag.i_max,
        },
    }
    with _timed(timings, "writes"):
        _write_json(os.path.join(out, "diagnostics.json"), payload)
    write_manifest(
        out, "profile", {**cfg, "c": c},
        {"c_star": minimal_speed(p).c_star, "lambda0": report.lambda0, "mu": report.mu,
         "alphas": [s.alpha for s in report.specs],
         "bound_set": payload["bound_set"], "solve": solve},
        timings,
    )
    print(json.dumps(payload["diagnostics"], indent=2, sort_keys=True))
    if failure:
        print(failure, file=sys.stderr)
        return 2
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    p = params_from_config(cfg)
    grid = grid_from_config(cfg)
    sim_block = cfg.get("sim", {})
    dt = args.dt if args.dt is not None else sim_block.get("dt")

    def given(**keys):
        # the sim block's values as floats, by argument name, for the keys it has;
        # PulseIC and SimConfig supply the defaults of the others
        return {name: float(sim_block[key]) for name, key in keys.items() if key in sim_block}

    try:  # a bad spacing, window or sim value fails here, with one line
        grid = grid or Grid.symmetric(args.L, args.dx)
        t_end = args.t_end if args.t_end is not None else float(sim_block.get("t_end", 80.0))
        ic = pde_sim.PulseIC(**given(center="pulse_center", width="pulse_width", amplitude="pulse_amplitude"))
        sim_cfg = pde_sim.SimConfig(
            params=p, grid=grid, t_end=t_end,
            dt=float(dt) if dt is not None else None,
            ic=ic, **given(front_threshold="front_threshold"),
        )
    except (TypeError, ValueError) as exc:  # ValueError includes StabilityViolated
        print(f"simulate: {exc}", file=sys.stderr)
        return 2
    out = _out_dir(args)
    hit = False
    timings = {}
    with _timed(timings, "steps"):
        try:
            result = pde_sim.run(sim_cfg)
        except pde_sim.FrontHitBoundary as exc:
            result = exc.result
            hit = True

    x = grid.x
    with _timed(timings, "writes"):
        for t, arr in result.snapshots:
            _write_csv(
                os.path.join(out, f"snapshot_t{t:09.3f}.csv"), "x,S,I,R",
                (x, arr[0], arr[1], arr[2]),
            )
        _write_csv(
            os.path.join(out, "front_trace.csv"), "t,x_front",
            (result.mass_times, result.trace.positions),
        )
        _write_csv(
            os.path.join(out, "mass_budget.csv"), "t,total_mass,infected_mass",
            (result.mass_times, result.mass_total, result.mass_infected),
        )
    try:
        c_star = minimal_speed(p).c_star
    except SubThreshold:
        c_star = None
    summary = {
        "speed_fit": result.trace.speed_fit,
        "speed_stderr": result.trace.speed_stderr,
        "threshold_speeds": result.threshold_speeds,
        "c_star": c_star,
        "outcome": result.outcome,
        "front_hit_boundary": hit,
        "clipped_mass": result.clipped_mass,
        "min_value": result.min_value,
        "dt": result.dt,
        "dt_bound": sim_cfg.dt_bound,
    }
    if np.isfinite(result.trace.pulled_front_speed):
        summary["pulled_front_speed"] = result.trace.pulled_front_speed
    with _timed(timings, "writes"):
        _write_json(os.path.join(out, "summary.json"), summary)
    write_manifest(out, "simulate", {**cfg, "sim": {**sim_block, "t_end": t_end}},
                   {"c_star": c_star, "dt": result.dt, "steps": result.steps}, timings)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _parse_vary(spec: str):
    """key, lo, hi, n of a key=lo:hi:n spec: n >= 1 points from lo to hi, both finite."""
    try:
        key, rng = spec.split("=", 1)
        lo, hi, num = rng.split(":")
        key, lo, hi, num = key.strip(), float(lo), float(hi), int(num)
    except ValueError as exc:
        raise ConfigInvalid(f"bad --vary spec {spec!r}; expected key=lo:hi:n") from exc
    if num < 1:
        raise ConfigInvalid(f"bad --vary spec {spec!r}; the count n must be at least 1")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigInvalid(f"bad --vary spec {spec!r}; the bounds lo and hi must be finite")
    return key, lo, hi, num


def _sweep_one(job):
    """One sweep point: derived constants plus the outcome of a profile solve."""
    base_params, c, overrides, dx, tol = job
    values = dict(base_params)
    row: dict = {}
    for key, val in overrides.items():
        row[key] = val
        if key == "c":
            c = val
        else:
            values[key] = val
    try:
        p = ModelParams(**values)
    except ValueError as exc:
        row.update(outcome="invalid_params", error=str(exc))
        return row
    row["r0"] = r_naught(p)
    try:
        row["c_star"] = minimal_speed(p).c_star
    except SubThreshold:
        row["c_star"] = None
    if c is None:
        row.update(outcome="no_speed_requested")
        return row
    row["c"] = c
    if row["c_star"] is None:
        row.update(outcome="extinction")
        return row
    if not p.wave_regime:
        row.update(outcome="no_wave_regime")
        return row
    if c <= row["c_star"]:
        row.update(outcome="subcritical")
        return row
    try:
        rep = solve_fixed_point(p, c, wave_window(p, c, dx), tol=tol)
        row.update(
            outcome="wave" if rep.converged else "not_converged",
            lambda0=rep.lambda0,
            s_inf=rep.s_inf,
            residual=rep.residual,
            iterations=rep.iterations,
        )
    except Exception as exc:  # record, never drop
        row.update(outcome="error", error=str(exc))
    return row


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    p = params_from_config(cfg)
    try:  # once, before any job: every point would fail or be mislabelled on them
        if args.dx is not None:
            check_spacing(args.dx)
        if cfg.get("c") is not None:
            check_speed(cfg["c"])
        check_tolerance(args.tol)
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    if not 1 <= len(args.vary) <= 2:
        raise ConfigInvalid("sweep varies exactly one or two keys")
    axes = [_parse_vary(v) for v in args.vary]
    for key, *_ in axes:
        if key != "c" and key not in PARAM_KEYS:
            raise ConfigInvalid(f"cannot vary unknown key {key!r}")
    out = _out_dir(args)

    grids = [np.linspace(lo, hi, num) for _, lo, hi, num in axes]
    combos = []
    if len(axes) == 1:
        combos = [{axes[0][0]: float(v)} for v in grids[0]]
    else:
        for v0 in grids[0]:
            for v1 in grids[1]:
                combos.append({axes[0][0]: float(v0), axes[1][0]: float(v1)})

    base = {k: float(cfg["params"][k]) for k in PARAM_KEYS}
    c = cfg.get("c")
    jobs = [(base, c, combo, args.dx, args.tol) for combo in combos]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_one, jobs))
    else:
        rows = [_sweep_one(j) for j in jobs]

    keys = [a[0] for a in axes]
    rows.sort(key=lambda r: tuple(r.get(k, 0.0) for k in keys))
    columns: list[str] = []
    for row in rows:
        for k in row:
            if k not in columns:
                columns.append(k)
    path = os.path.join(out, "sweep.csv")
    with open(path, "w", newline="") as fh:
        # minimal quoting: only a text field that needs it, an error message with a comma say
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row[k]) if k in row else "" for k in columns] for row in rows)
    write_manifest(out, "sweep", {**cfg, "vary": args.vary}, {"rows": len(rows)})
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    p = params_from_config(cfg)
    c = args.c if args.c is not None else cfg.get("c")
    if c is None:
        raise ConfigInvalid("verify needs a speed: pass --c or put 'c' in the config")
    try:
        check_speed(c)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc
    out = _out_dir(args)
    results = verification.run_suite(p, c, level=args.level)
    timings = {r.name: r.seconds for r in results}
    with _timed(timings, "writes"):
        with open(os.path.join(out, "verify_report.json"), "w") as fh:
            fh.write(verification.report_json(results))
    write_manifest(out, "verify", {**cfg, "c": c, "level": args.level}, {}, timings)
    print(verification.report_table(results))
    return 0 if verification.suite_passed(results) else 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it unchanged and returns a new namespace."""
    ap = argparse.ArgumentParser(
        prog="sirwaves",
        description="Traveling-wave laboratory for the diffusive SIR model with standard incidence",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="reproduction number, minimal speed, decay rates")
    pa.add_argument("config")
    pa.add_argument("--c", type=float, action="append", help="speed(s) for the decay-rate table")
    pa.add_argument("--phi-samples", type=int, default=0,
                    help="sample phi at this many rates into analysis.json and phi_samples.csv")
    pa.add_argument("--out", default="analyze_out")
    pa.set_defaults(func=cmd_analyze)

    pp = sub.add_parser("profile", help="solve for the traveling-wave profile at a speed")
    pp.add_argument("config")
    pp.add_argument("--c", type=float)
    pp.add_argument("--dx", type=float,
                    help="window spacing; default min(0.05, 0.9*2*min(d1, d2, d3)/c), inside the mesh condition")
    pp.add_argument("--tol", type=float, default=1e-8)
    pp.add_argument("--solver", choices=("picard", "newton", "both"), default="picard",
                    help="profile.csv holds the Newton root (newton) or the step of F certifying it (picard, both)")
    pp.add_argument("--out", default="profile_out")
    pp.set_defaults(func=cmd_profile)

    ps = sub.add_parser("simulate", help="direct simulation with front tracking")
    ps.add_argument("config")
    ps.add_argument("--t-end", type=float, dest="t_end")
    ps.add_argument("--dt", type=float,
                    help="time step; default 0.3/(beta+gamma+delta), at most 2/(beta+gamma+delta)")
    ps.add_argument("--L", type=float, default=200.0)
    ps.add_argument("--dx", type=float, default=0.1)
    ps.add_argument("--out", default="simulate_out")
    ps.set_defaults(func=cmd_simulate)

    pw = sub.add_parser("sweep", help="grid of runs over one or two varied keys")
    pw.add_argument("config")
    pw.add_argument("--vary", action="append", required=True, help="key=lo:hi:n")
    pw.add_argument("--jobs", type=int, default=1)
    pw.add_argument("--dx", type=float,
                    help="window spacing; default min(0.05, 0.9*2*min(d1, d2, d3)/c), as for profile")
    pw.add_argument("--tol", type=float, default=1e-8)
    pw.add_argument("--out", default="sweep_out")
    pw.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("verify", help="run the oracle suite")
    pv.add_argument("config")
    pv.add_argument("--c", type=float)
    pv.add_argument("--level", choices=("quick", "full"), default="quick")
    pv.add_argument("--seed", type=int, help="accepted for old command lines; has no effect, since no check draws samples")
    pv.add_argument("--out", default="verify_out")
    pv.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
