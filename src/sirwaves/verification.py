"""One-command oracle suite: every provable statement becomes an executable check.

Each check records the mathematical claim it exercises, the worst signed
margin observed (positive = satisfied with slack) and the tolerance it is held
to. No check draws random samples, so every report is bitwise reproducible;
failures are results, never exceptions.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .model import Grid, ModelParams
from .linear_analysis import SubThreshold, lambda0, minimal_speed
from .resolvent import TailIncompatible, choose_alphas, delta_inverse_piecewise_g, inverse_operator
from .wave_profile import (
    NotConverged,
    SingularJacobian,
    make_bound_set,
    make_gamma_set,
    map_inverses,
    profile_diagnostics,
    solve_fixed_point,
    verify_sub_inequalities,
    wave_window,
)
from . import pde_sim

# Tolerances, each tied to the discretization order of the quantity it bounds.
TOL_INVERSION = 1e-6  # O(dx^2) quadrature at dx = 0.01 on the oracle functions
TOL_DOMINATION = 1e-8  # O(dx^2) quadrature error near the tail of the kinked image
TOL_SUB_INEQ = 1e-10  # closed-form evaluations; roundoff only
TOL_GAMMA = 1e-6  # one quadrature application on envelope-scale inputs
TOL_AGREEMENT = 1e-5  # distance of the certifying step of F from the Newton root; ~1e-13 in practice
TOL_FIXED_POINT = 1e-8  # solve tolerance of the fixed point; its residuals are held to it
SPEED_BAND = 0.05  # pulled-front speed convergence at finite time and window
MONOTONE_SLACK = 1e-12  # a late rise of max I up to this fraction of max I is roundoff


@dataclass
class CheckResult:
    name: str
    claim: str  # the mathematical statement being exercised
    status: str  # pass | fail | skipped
    worst_margin: float
    tolerance: float
    details: str = ""
    seconds: float = 0.0  # run time: telemetry for the manifest, never in the report

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "status": self.status,
            "worst_margin": repr(float(self.worst_margin)),
            "tolerance": repr(float(self.tolerance)),
            "details": self.details,
        }


def _result(name: str, claim: str, margin: float, tol: float, details: str = "") -> CheckResult:
    if not claim:
        raise ValueError("every check must state the claim it verifies")
    status = "pass" if margin >= -tol else "fail"
    return CheckResult(name, claim, status, float(margin), float(tol), details)


def _skipped(name: str, claim: str, reason: str) -> CheckResult:
    return CheckResult(name, claim, "skipped", float("nan"), 0.0, reason)


# Oracle functions for the inversion identity: value, first and second
# derivative in closed form, plus the tail rates their images carry.
def _gauss(x):
    return np.exp(-((x / 4.0) ** 2))


def _gauss_d1(x):
    return (-2.0 * x / 16.0) * _gauss(x)


def _gauss_d2(x):
    return (4.0 * x**2 / 256.0 - 2.0 / 16.0) * _gauss(x)


def _sech(x):
    return 1.0 / np.cosh(x / 3.0)


def _sech_d1(x):
    return -np.tanh(x / 3.0) / np.cosh(x / 3.0) / 3.0


def _sech_d2(x):
    return (2.0 * np.tanh(x / 3.0) ** 2 - 1.0) / np.cosh(x / 3.0) / 9.0


def _modg(x):
    return np.sin(x / 5.0) * np.exp(-((x / 5.0) ** 2))


def _modg_d1(x):
    env = np.exp(-((x / 5.0) ** 2))
    return (np.cos(x / 5.0) / 5.0 - np.sin(x / 5.0) * 2.0 * x / 25.0) * env


def _modg_d2(x):
    env = np.exp(-((x / 5.0) ** 2))
    return (
        -np.sin(x / 5.0) / 25.0
        - 4.0 * x * np.cos(x / 5.0) / 125.0
        + np.sin(x / 5.0) * (4.0 * x**2 / 625.0 - 2.0 / 25.0)
    ) * env


ORACLE_FUNCTIONS = (
    ("gaussian", _gauss, _gauss_d1, _gauss_d2, np.inf, -np.inf),
    ("sech", _sech, _sech_d1, _sech_d2, 1.0 / 3.0, -1.0 / 3.0),
    ("modulated_gaussian", _modg, _modg_d1, _modg_d2, np.inf, -np.inf),
)


# Grid of the inversion identity check; its dx is pinned by TOL_INVERSION.
ORACLE_GRID = Grid.symmetric(20.0, 0.01)


@lru_cache(maxsize=1)
def _oracle_samples(grid: Grid):
    """(name, h, h', h'', left rate, right rate) of each oracle function on grid, arrays read-only.

    Kept for the last grid asked for, so a process samples ORACLE_GRID once.
    """
    x = grid.x
    samples = []
    for name, f0, f1, f2, lt, rt in ORACLE_FUNCTIONS:
        h, hp, hpp = f0(x), f1(x), f2(x)
        for a in (h, hp, hpp):
            a.flags.writeable = False
        samples.append((name, h, hp, hpp, lt, rt))
    return tuple(samples)


def inversion_errors(specs, grid: Grid):
    """Worst error, more than 5 from either edge, of inverse(analytic forward image) minus the function.

    The forward image -d h'' + c h' + a h is evaluated from closed-form
    derivatives, independent of the difference stencil, so this measures the
    quadrature alone. The identity is only claimed inside the kernel strip, so
    pairs whose declared tails fall outside it are left out. Returns
    {(function, operator index): error}.
    """
    x = grid.x
    inner = (x >= grid.x_min + 5.0) & (x <= grid.x_max - 5.0)
    errors = {}
    for name, h, hp, hpp, lt, rt in _oracle_samples(grid):
        for spec in specs:
            try:
                invert, _ = inverse_operator(spec, grid.dx, lt, rt)
            except TailIncompatible:
                continue
            back = invert(-spec.d * hpp + spec.c * hp + spec.alpha * h)
            errors[(name, spec.index)] = float(np.max(np.abs(back[inner] - h[inner])))
    return errors


class _Skip(Exception):
    """A check that cannot run; the message is the reason recorded."""


@dataclass
class _Context:
    """Inputs the checks share, each computed once per suite, on first use.

    The solve and the checks share one construction: the alpha specs, the
    bound set, the Γ set and the map inverses are read off the fixed-point
    report, and built here only when the solve raised.
    """

    p: ModelParams
    c: float
    c_star: float

    @cached_property
    def l0(self) -> float:
        return lambda0(self.c, self.p).lambda0

    @cached_property
    def wave_grid(self) -> Grid:
        return wave_window(self.p, self.c)

    @cached_property
    def _solve(self):
        """The solve's report or the exception it raised, kept so that the solve runs once."""
        try:
            return solve_fixed_point(self.p, self.c, self.wave_grid, tol=TOL_FIXED_POINT)
        except (ValueError, RuntimeError) as exc:  # fixed_point raises it again for the checks that need the profile
            return exc

    @property
    def _report(self):
        """The solve's report, or None when the solve raised."""
        return None if isinstance(self._solve, Exception) else self._solve

    @property
    def fixed_point(self):
        """The solve's report or the Newton error it raised; any other error of the solve is raised again."""
        out = self._solve
        if isinstance(out, Exception) and not isinstance(out, (NotConverged, SingularJacobian)):
            raise out
        return out

    @cached_property
    def specs(self):
        rep = self._report
        return rep.specs if rep else choose_alphas(self.p, self.c)

    @cached_property
    def bounds(self):
        rep = self._report
        return rep.gamma_set.bounds if rep else make_bound_set(self.p, self.c)

    @cached_property
    def gamma_set(self):
        rep = self._report
        return rep.gamma_set if rep else make_gamma_set(self.p, self.c, self.wave_grid, self.bounds)

    @cached_property
    def inverses(self):
        rep = self._report
        return rep.inverses if rep else map_inverses(self.specs, self.p, self.wave_grid.dx)


# Each check returns (worst margin, tolerance, details) or raises _Skip.

def _resolvent_inversion(ctx: _Context):
    errs = inversion_errors(ctx.specs, ORACLE_GRID)
    worst = max(errs.values())
    arg = max(errs, key=errs.get)
    details = f"worst {worst:.3e} at {arg}"
    left_out = [(f[0], s.index) for f in ORACLE_FUNCTIONS for s in ctx.specs if (f[0], s.index) not in errs]
    if left_out:
        details += f"; left out, tails outside the kernel strip: {left_out}"
    return TOL_INVERSION - worst, TOL_INVERSION, details


def _piecewise_domination(ctx: _Context):
    # the quadrature dip scales like dx^2 with a parameter-dependent constant,
    # so resolve finely enough for the fixed tolerance across regimes
    _, _, margins = delta_inverse_piecewise_g(ctx.specs[1], ctx.l0, 0.1, 1.0, Grid.symmetric(20.0, 0.005))
    m = float(np.min(margins))
    return m, TOL_DOMINATION, f"min margin {m:.3e}"


def _sub_solution_inequalities(ctx: _Context):
    rep = verify_sub_inequalities(ctx.bounds, ctx.p, ctx.c, ctx.wave_grid)
    return (
        min(rep.s_margin, rep.i_margin, rep.r_margin),
        TOL_SUB_INEQ,
        f"margins S {rep.s_margin:.3e}, I {rep.i_margin:.3e}, R {rep.r_margin:.3e}",
    )


def _gamma_invariance(ctx: _Context):
    margin, species, side = ctx.gamma_set.image_margin(ctx.p, ctx.inverses)
    return margin, TOL_GAMMA, f"exact over the set from six corner images: worst {species}, {side} envelope"


def _fixed_point(ctx: _Context):
    report = ctx.fixed_point
    if isinstance(report, RuntimeError):
        return -1.0, 0.0, f"newton solve failed: {type(report).__name__}: {report}"
    details = (
        f"iterations {report.iterations}, residual {report.residual:.3e}, "
        f"wave-equation residual {report.ode_residual:.3e}"
    )
    if not report.converged:
        return -1.0, 0.0, "did not converge: " + details
    diff = report.agreement
    tol = TOL_FIXED_POINT
    margin = min(tol - report.residual, 10.0 * tol - report.ode_residual, TOL_AGREEMENT - diff)
    return margin, 0.0, details + f", solver agreement {diff:.3e}"


def _profile_diagnostics(ctx: _Context):
    # tolerances follow each quantity's error model (iteration noise 10*tol,
    # window terms set by how far the fields still sit from their limits at
    # x_max, estimated geometrically from the tail increment and decay rate)
    report = ctx.fixed_point
    if isinstance(report, RuntimeError):
        raise _Skip("no profile")
    if not report.converged:
        raise _Skip("no converged profile")
    diag = profile_diagnostics(report.profile, report.grid, ctx.p, ctx.c)
    noise = 10.0 * TOL_FIXED_POINT
    s_vals = report.profile[0]
    k = max(2, int(round(1.0 / ctx.wave_grid.dx)))
    r_abs = max(0.05, -diag.right_decay_rate)
    s_gap = max(0.0, float(s_vals[-1 - k] - s_vals[-1])) / max(np.expm1(r_abs), 1e-6)
    edge = float(report.profile[1, -1]) + s_gap
    margins = {
        "S decreasing": noise - diag.s_max_wrong_increment,
        "R increasing": noise - diag.r_max_wrong_increment,
        "I nonnegative": diag.i_min + noise,
        "I below drop": diag.s_drop - diag.i_max,
        "left decay": 0.02 - diag.left_decay_rel_err,
        "identity": 0.005 - diag.integral_identity_spread,
        "R limit": 0.01 - diag.r_end_rel_err,
        "R reconstruction": 1e-4 - diag.r_reconstruction_max_err,
        "J monotone": diag.j_min_increment + 1e-8,
        "J bounded": 1e-8 + 2.0 * edge - diag.j_bound_overshoot,
        "I below J": diag.i_le_j_margin + noise,
    }
    worst = min(margins, key=margins.get)
    return margins[worst], 0.0, f"tightest: {worst} ({margins[worst]:.3e})"


def _spreading_speed(ctx: _Context):
    cfg = pde_sim.SimConfig(params=ctx.p, grid=Grid.symmetric(200.0, 0.1), t_end=80.0, n_outputs=200)
    try:
        sim = pde_sim.run(cfg)
    except pde_sim.FrontHitBoundary:
        return -1.0, 0.0, "front hit the boundary"
    rel = abs(sim.trace.speed_fit - ctx.c_star) / ctx.c_star
    return SPEED_BAND - rel, 0.0, f"measured {sim.trace.speed_fit:.4f} vs {ctx.c_star:.4f}"


def _subcritical_falsification(ctx: _Context):
    cfg = pde_sim.SimConfig(params=ctx.p, grid=Grid.symmetric(150.0, 0.1), t_end=60.0, n_outputs=200)
    rep = pde_sim.subcritical_falsification(cfg, c_target=0.5 * ctx.c_star)
    off = abs(rep.measured_speed - ctx.c_star) / ctx.c_star
    return 0.1 - off, 0.0, f"target {rep.c_target:.3f}, measured {rep.measured_speed:.4f}"


def _subthreshold_decay(ctx: _Context):
    # runs in either regime, on sub-threshold parameters derived from p
    p = ctx.p
    decay_params = ModelParams(
        d1=p.d1, d2=p.d2, d3=p.d3, beta=0.9 * (p.gamma + p.delta) * 2.0,
        gamma=(p.gamma + p.delta), delta=(p.gamma + p.delta), s_minus_inf=p.s_minus_inf,
    )
    cfg = pde_sim.SimConfig(params=decay_params, grid=Grid.symmetric(40.0, 0.2), t_end=100.0, n_outputs=100)
    sim = pde_sim.run(cfg)
    ratio = sim.i_max_trace[-1] / sim.i_max_trace[0]
    late = sim.i_max_trace[len(sim.i_max_trace) // 2 :]
    # the largest late rise of max I, as a fraction of max I before it: max I
    # ends near 1e-12, so only a relative slack tests the decay there
    rises = np.diff(late) / np.maximum(late[:-1], np.finfo(float).tiny)
    monotone = float(np.max(rises)) if len(rises) else 0.0
    return min(1e-8 - ratio, MONOTONE_SLACK - monotone), 0.0, f"max-I ratio {ratio:.3e} at t = {cfg.t_end}"


# Every check once, in report order: (name, claim, needs a wave, compute).
QUICK_CHECKS = (
    ("resolvent_inversion", "inverse(forward(h)) = h for exponentially bounded smooth h",
     True, _resolvent_inversion),
    ("piecewise_domination", "inverse(forward(clipped exponential)) dominates the clipped exponential",
     True, _piecewise_domination),
    ("sub_solution_inequalities", "envelope differential inequalities hold on their domains",
     True, _sub_solution_inequalities),
    ("gamma_invariance", "the integral map sends the envelope-sandwiched set into itself",
     True, _gamma_invariance),
    ("fixed_point", "the integral map has a fixed point solving the wave equations",
     True, _fixed_point),
    ("profile_diagnostics", "the converged wave satisfies its proven monotonicity, bounds and identities",
     True, _profile_diagnostics),
)
FULL_CHECKS = (
    ("spreading_speed", "compact outbreaks spread at the minimal front speed",
     True, _spreading_speed),
    ("subcritical_falsification", "no front travels below the minimal speed; seeds relax to it",
     True, _subcritical_falsification),
    ("subthreshold_decay", "with the reproduction number at most one every outbreak dies out",
     False, _subthreshold_decay),
)


def run_suite(p: ModelParams, c: float, level: str = "quick") -> list:
    """Execute the oracle checks in declaration order and return their results.

    quick: operator identities, envelope inequalities, invariance of the
    convex set, the fixed point with its Newton agreement, and the
    profile diagnostics. full: adds the spreading-speed measurement and the
    two nonexistence falsification runs.
    """
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    broken = None  # why the minimal speed could not be computed inside the wave regime
    try:
        c_star = minimal_speed(p).c_star
    except SubThreshold:
        c_star = float("nan")
    except Exception as exc:  # a failed cross-check, say: every check that needs a wave fails with it
        c_star, broken = float("nan"), f"minimal_speed: {type(exc).__name__}: {exc}"
    wave_ok = p.wave_regime and c > c_star
    ctx = _Context(p, c, c_star)

    results: list[CheckResult] = []
    for name, claim, needs_wave, compute in QUICK_CHECKS + (FULL_CHECKS if level == "full" else ()):
        if needs_wave and not wave_ok:
            results.append(_result(name, claim, -1.0, 0.0, broken) if broken
                           else _skipped(name, claim, "outside the wave regime"))
            continue
        start = time.perf_counter()
        try:
            margin, tol, details = compute(ctx)
        except _Skip as why:
            results.append(_skipped(name, claim, str(why)))
        except ValueError as exc:  # a wave window too large to solve on, say
            results.append(_result(name, claim, -1.0, 0.0, str(exc)))
        else:
            results.append(_result(name, claim, margin, tol, details))
        results[-1].seconds = time.perf_counter() - start
    return results


def suite_passed(results) -> bool:
    return all(r.status != "fail" for r in results)


def report_json(results) -> str:
    """Deterministic serialization: identical inputs give identical bytes."""
    payload = {
        "checks": [r.to_dict() for r in results],
        "passed": suite_passed(results),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def report_table(results) -> str:
    lines = [f"{'check':34s} {'status':8s} {'margin':>12s}  details"]
    for r in results:
        margin = "-" if np.isnan(r.worst_margin) else f"{r.worst_margin:.3e}"
        lines.append(f"{r.name:34s} {r.status:8s} {margin:>12s}  {r.details}")
    return "\n".join(lines)
