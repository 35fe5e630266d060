"""Correctness checks on the program's outputs, computed apart from the program.

Every check returns a list of failure messages; an empty list means the output
passed. The closed forms (c*, the left decay rate, the wave equations, the
integral identities) are evaluated here from the parameters alone, with this
file's own quadrature and difference stencils, so a fault in the program's
versions of them cannot hide itself. No check compares against a stored copy
of earlier output.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from workloads import c_star, lambda0

# The profile solve stops at a step residual of 1e-8; monotonicity may be
# broken by no more than that iteration noise.
MONOTONE_TOL = 1e-8
IDENTITY_TOL = 0.005
LEFT_DECAY_TOL = 0.02
WAVE_RESIDUAL_TOL = 1e-6
AGREEMENT_TOL = 1e-5
SPEED_TOL = 0.05
MASS_TOL = 1e-9  # relative to the initial mass: roundoff of the conserving scheme
DEATHS_TOL = 1e-3  # relative to the deaths: Simpson in time over the ~200 budget samples
EXTINCTION_RATIO = 1e-8


def read_csv(path: str) -> np.ndarray:
    """The columns of a CSV file with one header line."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T


def integrate(y: np.ndarray, dx: float) -> float:
    """Composite Simpson rule on a uniform grid (trapezoid on the last cell if n is even)."""
    n = len(y)
    if n < 3:
        return float(0.5 * dx * (y[0] + y[-1])) if n == 2 else 0.0
    m = n if n % 2 == 1 else n - 1
    s = y[0] + y[m - 1] + 4.0 * np.sum(y[1 : m - 1 : 2]) + 2.0 * np.sum(y[2 : m - 2 : 2])
    total = dx / 3.0 * s
    if m < n:
        total += 0.5 * dx * (y[-2] + y[-1])
    return float(total)


def integrate_samples(t, y) -> float:
    """Integral over time samples that are evenly spaced except, possibly, the last interval."""
    h = float(t[1] - t[0])
    m = len(t)
    while m > 2 and not math.isclose(float(t[m - 1] - t[m - 2]), h, rel_tol=1e-9):
        m -= 1
    return integrate(y[:m], h) + float(np.trapezoid(y[m - 1 :], t[m - 1 :]))


def _incidence(s, i, r, beta):
    n = s + i + r
    return np.where(n > 0.0, beta * s * i / np.where(n > 0.0, n, 1.0), 0.0)


def wave_residual(x, s, i, r, params: dict, c: float) -> float:
    """Sup norm over interior points of -d*y'' + c*y' - f(y) for the three wave equations."""
    dx = float(x[1] - x[0])
    inc = _incidence(s, i, r, params["beta"])
    loss = params["gamma"] + params["delta"]
    worst = 0.0
    for d, y, f in (
        (params["d1"], s, -inc),
        (params["d2"], i, inc - loss * i),
        (params["d3"], r, params["gamma"] * i),
    ):
        res = -d * (y[2:] - 2.0 * y[1:-1] + y[:-2]) / dx**2 + c * (y[2:] - y[:-2]) / (2.0 * dx) - f[1:-1]
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def left_decay_rate(x, i) -> float:
    """Least-squares slope of log I over the left quarter of the window."""
    q = len(x) // 4
    xs, ys = x[:q], i[:q]
    ok = ys > 0.0
    if np.sum(ok) < 4:
        return float("nan")
    return float(np.polyfit(xs[ok], np.log(ys[ok]), 1)[0])


def check_profile(x, s, i, r, params: dict, c: float, diagnostics: dict) -> list[str]:
    """A travelling wave at speed c: shape, bounds, identities, decay rate, equations, agreement."""
    bad = []
    if not diagnostics.get("converged"):
        bad.append("profile did not converge")
    s_up = float(np.max(np.diff(s)))
    if s_up > MONOTONE_TOL:
        bad.append(f"S increases by {s_up:.3e}")
    r_down = float(-np.min(np.diff(r)))
    if r_down > MONOTONE_TOL:
        bad.append(f"R decreases by {r_down:.3e}")
    drop = params["s_minus_inf"] - float(s[-1])
    if float(np.min(i)) < 0.0:
        bad.append(f"I is negative ({float(np.min(i)):.3e})")
    if float(np.max(i)) > drop:
        bad.append(f"max I {float(np.max(i)):.6g} exceeds S(-inf)-S(+inf) = {drop:.6g}")
    dx = float(x[1] - x[0])
    int_loss = (params["gamma"] + params["delta"]) * integrate(i, dx)
    int_inc = integrate(_incidence(s, i, r, params["beta"]), dx)
    c_drop = c * drop
    spread = (max(int_loss, int_inc, c_drop) - min(int_loss, int_inc, c_drop)) / abs(c_drop)
    if not spread <= IDENTITY_TOL:
        bad.append(f"integral identity spread {spread:.3e} above {IDENTITY_TOL}")
    expected = lambda0(params, c)
    rate = left_decay_rate(x, i)
    rel = abs(rate - expected) / expected
    if not rel <= LEFT_DECAY_TOL:
        bad.append(f"left decay rate {rate:.6g} is {rel:.2%} from the closed form {expected:.6g}")
    res = wave_residual(x, s, i, r, params, c)
    if not res <= WAVE_RESIDUAL_TOL:
        bad.append(f"wave-equation residual {res:.3e} above {WAVE_RESIDUAL_TOL}")
    agree = diagnostics.get("solver_agreement")
    if agree is None or not agree <= AGREEMENT_TOL:
        bad.append(f"Picard/Newton agreement {agree} not within {AGREEMENT_TOL}")
    return bad


def fit_speed(t, xf) -> float:
    """Least-squares slope over the last half of the finite front positions."""
    ok = np.isfinite(xf)
    t, xf = t[ok], xf[ok]
    t, xf = t[len(t) // 2 :], xf[len(xf) // 2 :]
    if len(t) < 4:
        return float("nan")
    return float(np.polyfit(t, xf, 1)[0])


def check_front(params: dict, x_max: float, dx: float, trace, budget, snapshots, summary: dict) -> list[str]:
    """A simulated outbreak: spreading speed, mass budget, or extinction, by R0.

    trace is (t, x_front), budget is (t, total_mass, infected_mass), snapshots
    the I column of every snapshot in time order.
    """
    bad = []
    cs = c_star(params)
    t, total, infected = budget
    if math.isfinite(cs):
        if summary.get("front_hit_boundary"):
            bad.append("front hit the boundary")
        xf = trace[1]
        if np.any(xf[np.isfinite(xf)] >= x_max - 10.0 * dx):
            bad.append("front came within 10 dx of the right edge")
        speed = fit_speed(*trace)
        if not abs(speed - cs) <= SPEED_TOL * cs:
            bad.append(f"front speed {speed:.6g} is not within {SPEED_TOL:.0%} of c* = {cs:.6g}")
    else:
        i0, i_end = float(np.max(snapshots[0])), float(np.max(snapshots[-1]))
        if not i_end <= EXTINCTION_RATIO * i0:
            bad.append(f"R0 < 1 but max I fell only from {i0:.3e} to {i_end:.3e}")
    clipped = float(summary.get("clipped_mass", 0.0))
    change = float(total[-1] - total[0])
    if params["delta"] == 0.0:
        if not abs(change - clipped) <= MASS_TOL * float(total[0]):
            bad.append(f"mass changed by {change:.3e} with {clipped:.3e} clipped and delta = 0")
    else:
        deaths = params["delta"] * integrate_samples(t, infected)
        if not abs(change - clipped + deaths) <= DEATHS_TOL * deaths:
            bad.append(f"mass changed by {change:.6e}, deaths -delta*int(I) = {-deaths:.6e}")
    return bad


def check_falsification(params: dict, c_target: float, report) -> list[str]:
    """A front seeded for a speed below c* relaxes to c* instead."""
    cs = c_star(params)
    bad = []
    if report.outcome != "relaxed_to_minimal_speed":
        bad.append(f"outcome {report.outcome!r}")
    if not abs(report.measured_speed - cs) <= SPEED_TOL * cs:
        bad.append(f"seeded front moves at {report.measured_speed:.6g}, not within "
                   f"{SPEED_TOL:.0%} of c* = {cs:.6g} (seeded for {c_target:.6g})")
    return bad


def check_verify_report(exit_code: int, report_bytes: bytes, first_bytes: bytes | None) -> list[str]:
    """Quick verify passed every check, and matches byte for byte an earlier run of the same config and seed."""
    bad = []
    if exit_code != 0:
        bad.append(f"exit code {exit_code}")
    try:
        checks = json.loads(report_bytes)["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        return bad + [f"unreadable report: {exc}"]
    if not checks:
        bad.append("report has no checks")
    for chk in checks:
        if chk.get("status") != "pass":
            bad.append(f"check {chk.get('name')} is {chk.get('status')}")
    if first_bytes is not None and report_bytes != first_bytes:
        bad.append("report differs from an earlier run with the same config and seed")
    return bad


def load_profile_outputs(out_dir: str):
    x, s, i, r = read_csv(os.path.join(out_dir, "profile.csv"))
    with open(os.path.join(out_dir, "diagnostics.json")) as fh:
        diag = json.load(fh)
    return x, s, i, r, diag


def load_simulate_outputs(out_dir: str):
    names = sorted(n for n in os.listdir(out_dir) if n.startswith("snapshot_t") and n.endswith(".csv"))
    snapshots = [read_csv(os.path.join(out_dir, n))[2] for n in names]
    trace = read_csv(os.path.join(out_dir, "front_trace.csv"))
    budget = read_csv(os.path.join(out_dir, "mass_budget.csv"))
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    return trace, budget, snapshots, summary
