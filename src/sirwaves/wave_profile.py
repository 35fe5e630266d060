"""Front profiles: envelope construction, the integral fixed-point map, and checks.

The wave is found as a fixed point of u -> D^{-1}[shifted reaction], iterated
inside the convex set sandwiched between explicit super- and sub-solution
envelopes. A damped-Newton solve of the discretized wave equations finishes
tight solves and cross-checks the profile, and the diagnostics verify the
integral identities and asymptotics that the converged wave must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .model import (
    CONSTANT,
    ETA_DEFAULT,
    ZERO,
    Grid,
    ModelParams,
    edge_difference,
    exp_growth,
    reaction_terms,
    wave_operator,
)
from .linear_analysis import characteristic_f, lambda0
from .resolvent import choose_alphas, choose_mu, first_order_recursion, inverse_operator

# Largest share of grid points the final projection onto the envelope set may
# move in a solve that counts as converged.
CLAMP_BUDGET = 0.01
# Step residual at which the fixed-point iteration hands over to Newton, and
# the most steps restarted from the Newton root may take to confirm it.
LOOSE_TOL = 1e-4
CONFIRM_BUDGET = 20


class SearchExhausted(RuntimeError):
    """No envelope amplitude below 1e12 satisfies its inequality."""


class NotConverged(RuntimeError):
    """The Newton boundary-value solve failed to converge."""


class SingularJacobian(RuntimeError):
    """The Newton linear system is singular or produced non-finite values."""


@dataclass(frozen=True)
class BoundSet:
    """Envelope constants: decay rate, exponent increments, amplitudes, crossovers.

    The exponent increments satisfy 0 < eps3 < eps2 < eps1 < lambda0 with
    eps1 < c/d1, f(lambda0+eps2) > 0 and c - d3*(lambda0+eps3) > 0; each
    amplitude M_j is large enough for its differential inequality and
    x2 < x1 holds for the crossovers x_j = -ln(M_j)/eps_j.
    """

    lambda0: float
    c: float
    s_minus_inf: float
    r_coef: float  # gamma/(c*lambda0 - d3*lambda0^2), the removed-envelope scale
    eps1: float
    eps2: float
    eps3: float
    m1: float
    m2: float
    m3: float
    x1: float
    x2: float
    x3: float

    def s_plus(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.s_minus_inf)

    def s_minus(self, x):
        x = np.asarray(x, dtype=float)
        return np.maximum(self.s_minus_inf * (1.0 - self.m1 * np.exp(self.eps1 * x)), 0.0)

    def i_plus(self, x):
        return np.exp(self.lambda0 * np.asarray(x, dtype=float))

    def i_minus(self, x):
        x = np.asarray(x, dtype=float)
        return np.maximum(np.exp(self.lambda0 * x) * (1.0 - self.m2 * np.exp(self.eps2 * x)), 0.0)

    def r_plus(self, x):
        return self.r_coef * np.exp(self.lambda0 * np.asarray(x, dtype=float))

    def r_minus(self, x):
        x = np.asarray(x, dtype=float)
        return np.maximum(
            self.r_coef * np.exp(self.lambda0 * x) * (1.0 - self.m3 * np.exp(self.eps3 * x)), 0.0
        )


@dataclass(frozen=True)
class GammaSet:
    """The invariant convex set: (3, n) arrays sandwiched between the envelopes on a grid."""

    bounds: BoundSet
    super_array: np.ndarray
    sub_array: np.ndarray

    def membership_margin(self, a: np.ndarray) -> float:
        """Smallest signed distance of a (3, n) array to the envelopes; negative means outside."""
        return float(min(np.min(a - self.sub_array), np.min(self.super_array - a)))


@dataclass(frozen=True)
class SubInequalityReport:
    """Worst pointwise margins of the three sub-solution differential inequalities."""

    s_margin: float
    i_margin: float
    r_margin: float
    s_argmin: float
    i_argmin: float
    r_argmin: float


@dataclass
class FixedPointReport:
    """Outcome of the projected fixed-point iteration; profiles are (3, n) arrays, rows S, I, R."""

    grid: Grid
    profile: np.ndarray
    iterations: int
    residual: float  # weighted norm of F(u) - u at the final iterate
    residual_max: float  # same step in the plain sup norm
    clamp_fraction: float  # share of points the final projection actually moved
    s_inf: float  # measured plateau of S at the right edge
    converged: bool
    ode_residual: float  # sup norm of the finite-difference wave-equation residual
    gamma_set: GammaSet
    specs: tuple
    mu: float
    lambda0: float
    c: float
    warnings: tuple
    finish_reason: str  # why a "picard" finish did not go through Newton; empty otherwise
    stage_iterations: dict  # applications of F: "picard" to the handover, "confirm", "resumed"
    newton: np.ndarray | None  # the Newton root, when the confirmation accepted it

    @property
    def finish(self) -> str:
        """"newton" when the Newton root was confirmed, else "picard"."""
        return "picard" if self.newton is None else "newton"


def select_epsilons(p: ModelParams, c: float):
    """Halving rule for the exponent increments; each strict inequality is re-verified."""
    roots = lambda0(c, p)
    l0, l0p = roots.lambda0, roots.lambda0_plus
    e1 = 0.5 * min(l0, c / p.d1)
    e2 = 0.5 * min(e1, l0p - l0)
    e3 = 0.5 * min(e2, c / p.d3 - l0)
    if not (0 < e3 < e2 < e1 < l0 and e1 < c / p.d1):
        raise AssertionError("epsilon ordering failed")
    if not characteristic_f(l0 + e2, c, p) > 0:
        raise AssertionError("f(lambda0 + eps2) > 0 failed")
    if not c - p.d3 * (l0 + e3) > 0:
        raise AssertionError("c - d3*(lambda0 + eps3) > 0 failed")
    return e1, e2, e3


def _smallest_m(ineq, lo: float = 1.0, hi_cap: float = 1e12) -> float:
    """Smallest M >= lo with ineq(M) >= 0, by doubling then bisection."""
    if ineq(lo) >= 0:
        return lo
    hi = max(2.0, 2.0 * lo)
    while ineq(hi) < 0:
        hi *= 2.0
        if hi > hi_cap:
            raise SearchExhausted(f"no amplitude below {hi_cap} satisfies the inequality")
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if ineq(mid) >= 0:
            b = mid
        else:
            a = mid
    return b


def select_Ms(p: ModelParams, c: float, eps):
    """Envelope amplitudes: 1.1 x the bisection threshold of each inequality.

    The amplitude inequalities (with l0 the decay rate and K the removed-envelope
    scale) are:
        M1*eps1*(c - d1*eps1) >= beta * M1^(-(l0-eps1)/eps1)
        M2*f(l0+eps2)*S_-inf*(1 - M1*M2^(-eps1/eps2))
            >= beta*(gamma + c*l0 - d3*l0^2)/(c*l0 - d3*l0^2) * M2^(-(l0-eps2)/eps2)
        (c*(l0+eps3) - d3*(l0+eps3)^2)/(c*l0 - d3*l0^2) * M3 >= M2 * M3^(-(eps2-eps3)/eps3)
    with M2 additionally large enough that x2 < x1.
    """
    e1, e2, e3 = eps
    l0 = lambda0(c, p).lambda0
    sm = p.s_minus_inf
    denom = c * l0 - p.d3 * l0 * l0
    if denom <= 0:
        raise AssertionError("c*lambda0 - d3*lambda0^2 must be positive (d3 < 2*d2 regime)")

    def ineq1(m):
        return m * e1 * (c - p.d1 * e1) - p.beta * m ** (-(l0 - e1) / e1)

    m1 = 1.1 * _smallest_m(ineq1)
    rhs2 = p.beta * (p.gamma + denom) / denom
    f2 = characteristic_f(l0 + e2, c, p)
    lo2 = max(1.0, m1 ** (e2 / e1)) * (1.0 + 1e-9)  # keeps 1 - M1*M2^(-e1/e2) > 0 and x2 < x1

    def ineq2(m):
        return m * f2 * sm * (1.0 - m1 * m ** (-e1 / e2)) - rhs2 * m ** (-(l0 - e2) / e2)

    m2 = 1.1 * _smallest_m(ineq2, lo=lo2)
    num3 = (c * (l0 + e3) - p.d3 * (l0 + e3) ** 2) / denom

    def ineq3(m):
        return num3 * m - m2 * m ** (-(e2 - e3) / e3)

    m3 = 1.1 * _smallest_m(ineq3)
    # re-verify everything at the returned values
    checks = (ineq1(m1), ineq2(m2), ineq3(m3))
    if min(checks) < 0:
        raise AssertionError(f"amplitude inequalities failed on re-check: {checks}")
    if not (-np.log(m2) / e2 < -np.log(m1) / e1):
        raise AssertionError("x2 < x1 failed")
    return m1, m2, m3


def make_bound_set(p: ModelParams, c: float) -> BoundSet:
    """Full envelope construction: increments, amplitudes, crossovers."""
    eps = select_epsilons(p, c)
    ms = select_Ms(p, c, eps)
    l0 = lambda0(c, p).lambda0
    denom = c * l0 - p.d3 * l0 * l0
    return BoundSet(
        lambda0=l0,
        c=c,
        s_minus_inf=p.s_minus_inf,
        r_coef=p.gamma / denom,
        eps1=eps[0],
        eps2=eps[1],
        eps3=eps[2],
        m1=ms[0],
        m2=ms[1],
        m3=ms[2],
        x1=-np.log(ms[0]) / eps[0],
        x2=-np.log(ms[1]) / eps[1],
        x3=-np.log(ms[2]) / eps[2],
    )


def eval_bounds(b: BoundSet, grid: Grid):
    """Evaluate the envelopes on the grid as (super, sub) arrays of shape (3, n), rows S, I, R."""
    x = grid.x
    sup = np.array([b.s_plus(x), b.i_plus(x), b.r_plus(x)])
    sub = np.array([b.s_minus(x), b.i_minus(x), b.r_minus(x)])
    return sup, sub


def make_gamma_set(p: ModelParams, c: float, grid: Grid, bounds: BoundSet | None = None) -> GammaSet:
    b = bounds if bounds is not None else make_bound_set(p, c)
    sup, sub = eval_bounds(b, grid)
    return GammaSet(bounds=b, super_array=sup, sub_array=sub)


def verify_sub_inequalities(b: BoundSet, p: ModelParams, c: float, grid: Grid) -> SubInequalityReport:
    """Pointwise margins of the three sub-solution inequalities on their domains.

    Derivatives of the piecewise-smooth envelopes are evaluated from their
    closed forms on each smooth piece (values at the crossover are the
    one-sided limits from the left), never by differencing. Violations are
    reported, not raised.
    """
    x = grid.x
    l0 = b.lambda0

    def worst(margins, mask):
        if not np.any(mask):
            return np.inf, np.nan
        vals = margins[mask]
        k = int(np.argmin(vals))
        return float(vals[k]), float(x[mask][k])

    # susceptible envelope inequality on x <= x1
    mask1 = x <= b.x1
    m_s = -p.beta * np.exp(l0 * x) + b.s_minus_inf * b.m1 * b.eps1 * (
        c - p.d1 * b.eps1
    ) * np.exp(b.eps1 * x)
    s_margin, s_arg = worst(m_s, mask1)

    # infected envelope inequality on x <= x2 (sub-branch formulas are exact there)
    mask2 = x <= b.x2
    i_minus = np.exp(l0 * x) - b.m2 * np.exp((l0 + b.eps2) * x)
    i_minus_p = l0 * np.exp(l0 * x) - b.m2 * (l0 + b.eps2) * np.exp((l0 + b.eps2) * x)
    i_minus_pp = l0**2 * np.exp(l0 * x) - b.m2 * (l0 + b.eps2) ** 2 * np.exp((l0 + b.eps2) * x)
    s_minus = b.s_minus(x)
    lhs = (
        p.beta * s_minus * i_minus / (s_minus + b.i_plus(x) + b.r_plus(x))
        - (p.gamma + p.delta) * i_minus
    )
    rhs = -p.d2 * i_minus_pp + c * i_minus_p
    i_margin, i_arg = worst(lhs - rhs, mask2)

    # removed envelope inequality on x <= x3
    mask3 = x <= b.x3
    k = b.r_coef
    r_minus_p = k * (l0 * np.exp(l0 * x) - b.m3 * (l0 + b.eps3) * np.exp((l0 + b.eps3) * x))
    r_minus_pp = k * (
        l0**2 * np.exp(l0 * x) - b.m3 * (l0 + b.eps3) ** 2 * np.exp((l0 + b.eps3) * x)
    )
    lhs_r = p.gamma * b.i_minus(x)
    rhs_r = -p.d3 * r_minus_pp + c * r_minus_p
    r_margin, r_arg = worst(lhs_r - rhs_r, mask3)

    return SubInequalityReport(
        s_margin=s_margin,
        i_margin=i_margin,
        r_margin=r_margin,
        s_argmin=s_arg,
        i_argmin=i_arg,
        r_argmin=r_arg,
    )


def discrete_decay_rate(p: ModelParams, c: float, dx: float) -> float:
    """Decay rate actually propagated by the centered stencil.

    Smaller positive root of -d2*(2cosh(l*dx)-2)/dx^2 + c*sinh(l*dx)/dx = q;
    it sits O(dx^2) from the continuum rate and is independent of the shift
    constants, so tail closures keyed to it keep the fixed point free of the
    shift-constant bookkeeping.
    """
    roots = lambda0(c, p)
    q = p.beta - p.gamma - p.delta

    def fdisc(lam):
        return -p.d2 * (2.0 * np.cosh(lam * dx) - 2.0) / dx**2 + c * np.sinh(lam * dx) / dx - q

    lo, hi = 0.5 * roots.lambda0, 0.5 * (roots.lambda0 + roots.lambda0_plus)
    if fdisc(lo) >= 0 or fdisc(hi) <= 0:  # extremely coarse mesh; fall back
        return roots.lambda0
    return brentq(fdisc, lo, hi, xtol=1e-15, rtol=8.9e-16)


def map_inverses(specs, p: ModelParams, dx: float, tail_rate: float | None = None):
    """The three shifted inverses of the integral map on spacing dx, prepared once per solve.

    Returns one (alpha_i, D_i^{-1}) pair per equation. Integrand tails: S-like
    constant on both sides, I-like exponential on the left and zero on the right,
    R-like exponential on the left and constant on the right. The left rate defaults
    to the mesh decay rate so the closures match what the stencil propagates.
    """
    if tail_rate is None:
        tail_rate = discrete_decay_rate(p, specs[1].c, dx)
    lead = exp_growth(tail_rate)
    tails = ((CONSTANT, CONSTANT), (lead, ZERO), (lead, CONSTANT))
    return tuple((spec.alpha, inverse_operator(spec, dx, *t)) for spec, t in zip(specs, tails))


def apply_F(u: np.ndarray, p: ModelParams, inverses) -> np.ndarray:
    """One application of the integral map F = D^{-1} o (shifted reaction) to a (3, n) array.

    inverses comes from map_inverses on the grid spacing of u; f_S is minus the incidence.
    """
    s, i, r = u
    f_s, _, f_r = reaction_terms(s, i, r, p)
    (a1, inv1), (a2, inv2), (a3, inv3) = inverses
    return np.array([
        inv1(a1 * s + f_s),
        inv2(a2 * i - f_s - (p.gamma + p.delta) * i),
        inv3(a3 * r + f_r),
    ])


def _wave_residual(u: np.ndarray, p: ModelParams, c: float, dx: float) -> np.ndarray:
    """Centred-difference residual d*u'' - c*u' + f(u) of the wave equations, interior points only.

    Rows are S, I, R. Newton drives it to zero; the fixed point reports its sup norm.
    """
    d = np.array([[p.d1], [p.d2], [p.d3]])
    return wave_operator(u, d, c, dx) + np.array(reaction_terms(*u, p))[:, 1:-1]


class _Picard:
    """The projected iteration u -> P(F(u)) from one start, resumable across budgets.

    The wave-equation residual is the step difference amplified by the map's
    Lipschitz constant, so once both step residuals reach the target it is
    tightened until the wave-equation residual fits under 10*tol (a few times
    only: a residual that stays up reflects window error, not iteration error).
    """

    def __init__(self, u: np.ndarray, step, ode_residual, tol: float):
        self.u, self.step, self.ode_residual, self.tol = u, step, ode_residual, tol
        self.target, self.tightenings, self.iterations = tol, 0, 0
        self.res_w = self.res_m = self.ode_res = np.inf
        self.clamp_fraction = 1.0

    def run(self, budget: int, handover: float | None = None) -> str:
        """Take up to budget steps; returns "tol", "handover" or "budget" for why it stopped."""
        for _ in range(budget):
            self.iterations += 1
            self.u, self.res_w, self.res_m, self.clamp_fraction = self.step(self.u, self.iterations)
            res = max(self.res_w, self.res_m)
            if res <= self.target:
                self.ode_res = self.ode_residual(self.u)
                if self.ode_res <= 10.0 * self.tol or self.tightenings >= 4 or self.target <= 1e-14:
                    return "tol"
                self.target *= 0.25
                self.tightenings += 1
            if handover is not None and res <= handover:
                return "handover"
        return "budget"

    @property
    def converged(self) -> bool:
        return self.res_w <= self.tol and self.res_m <= self.tol and self.clamp_fraction <= CLAMP_BUDGET


def solve_fixed_point(
    p: ModelParams,
    c: float,
    grid: Grid,
    tol: float = 1e-8,
    max_iter: int = 5000,
    alpha_floor_scale: float = 1.0,
) -> FixedPointReport:
    """Projected iteration of F from the envelope midpoint, finished by Newton.

    Each step projects F(u) back onto the invariant set and re-pins the
    infected value at the left edge to the upper envelope (the translation
    family's canonical representative; the value there is below 1e-10 by the
    window guard, so the pin is a phase convention, not a constraint on the
    shape). Convergence requires the weighted residual and the plain sup
    residual to both reach tol, so the reported wave-equation residual
    inherits the tolerance rather than the discretization error.

    For tol below LOOSE_TOL the iteration stops at LOOSE_TOL, solve_bvp_newton
    solves from that iterate, and at most CONFIRM_BUDGET steps restarted from
    the Newton root confirm it as a fixed point of the map to tol; near c*
    this replaces thousands of slowly contracting steps. If Newton fails or the
    confirmation does not converge (the Newton root can be a translate of the
    map's fixed point), the iteration resumes from the LOOSE_TOL iterate with
    the rest of max_iter, which is the plain iteration's own trajectory.
    iterations counts every application of F, confirmation included. After a
    Newton finish the report carries the root, so callers that compare the two
    solvers need not solve again.
    """
    roots = lambda0(c, p)  # raises ComplexRoots below the minimal speed
    if not p.wave_regime:
        raise ValueError("parameters outside the wave regime (need R0 > 1 and d3 < 2*d2)")
    specs = choose_alphas(p, c, alpha_floor_scale)
    mu = choose_mu(specs, roots.lambda0)
    gamma_set = make_gamma_set(p, c, grid)
    inverses = map_inverses(specs, p, grid.dx)

    warnings = []
    if np.exp(roots.lambda0 * grid.x_min) >= 1e-10:
        warnings.append(
            f"left window too short: exp(lambda0*x_min) = {np.exp(roots.lambda0 * grid.x_min):.2e} >= 1e-10"
        )

    def ode_residual(arr: np.ndarray) -> float:
        return float(np.max(np.abs(_wave_residual(arr, p, c, grid.dx))))

    sub = gamma_set.sub_array
    sup = gamma_set.super_array
    pin_value = sup[1, 0]
    w = np.exp(-mu * np.abs(grid.x))

    def step(u: np.ndarray, k: int):
        v = apply_F(u, p, inverses)
        diff = v - u
        res_w = float(np.max(w * np.abs(diff)))
        res_m = float(np.max(np.abs(diff)))
        if not np.isfinite(res_m):
            raise ValueError(f"fixed-point step is not finite at iteration {k}")
        clamped = np.clip(v, sub, sup)
        # grazing the envelopes within the solve tolerance is not a projection
        # event, so only count moves the iteration itself could resolve
        clamp_fraction = float(np.mean(np.abs(clamped - v) > 0.1 * tol))
        clamped[1, 0] = pin_value
        return clamped, res_w, res_m, clamp_fraction

    def start(u: np.ndarray) -> _Picard:
        u = u.copy()
        u[1, 0] = pin_value
        return _Picard(u, step, ode_residual, tol)

    final = picard = start(np.where(sub > 0, np.sqrt(sub * sup), 0.5 * (sub + sup)))
    stopped = picard.run(max_iter, handover=LOOSE_TOL if tol < LOOSE_TOL else None)
    stages = {"picard": picard.iterations, "confirm": 0, "resumed": 0}
    newton = None
    if tol >= LOOSE_TOL:
        reason = f"tol {tol:.1e} is not below the Newton handover {LOOSE_TOL:.0e}"
    elif stopped == "budget":
        reason = "max_iter reached before the Newton handover"
    elif stopped == "tol":
        reason = "converged before the Newton handover"
    else:
        try:
            root = solve_bvp_newton(p, c, grid, picard.u, bounds=gamma_set.bounds)
        except (NotConverged, SingularJacobian) as exc:
            reason = f"newton failed: {type(exc).__name__}: {exc}"
        else:
            confirm = start(root)
            stopped = confirm.run(CONFIRM_BUDGET)
            stages["confirm"] = confirm.iterations
            if stopped == "tol" and confirm.converged and confirm.ode_res <= 10.0 * tol:
                reason, final, newton = "", confirm, root
            else:
                reason = f"confirmation did not converge in {CONFIRM_BUDGET} iterations"
        if final is picard:
            picard.run(max_iter - picard.iterations)
            stages["resumed"] = picard.iterations - stages["picard"]
    u, res_w, res_m = final.u, final.res_w, final.res_m
    clamp_fraction, ode_res = final.clamp_fraction, final.ode_res

    converged = final.converged

    n_tail = max(2, int(0.1 * grid.n))
    s_inf = float(np.mean(u[0, -n_tail:]))
    if not np.isfinite(ode_res):
        ode_res = ode_residual(u)
    if converged and ode_res > 10.0 * tol:
        converged = False
        warnings.append(f"wave-equation residual {ode_res:.2e} exceeds 10*tol")

    i_vals = u[1]
    mass = np.cumsum(0.5 * (i_vals[1:] + i_vals[:-1]) * grid.dx)
    if mass[-1] > 0:
        x999 = grid.x[1:][int(np.searchsorted(mass, 0.999 * mass[-1]))]
        if x999 >= grid.x_max:
            warnings.append("right window too short: 99.9% of the infected mass is not inside")

    return FixedPointReport(
        grid=grid,
        profile=np.clip(u, 0.0, None),
        iterations=sum(stages.values()),
        residual=res_w,
        residual_max=res_m,
        clamp_fraction=clamp_fraction,
        s_inf=s_inf,
        converged=bool(converged),
        ode_residual=ode_res,
        gamma_set=gamma_set,
        specs=specs,
        mu=mu,
        lambda0=roots.lambda0,
        c=c,
        warnings=tuple(warnings),
        finish_reason=reason,
        stage_iterations=stages,
        newton=newton,
    )


def solve_bvp_newton(
    p: ModelParams,
    c: float,
    grid: Grid,
    init: np.ndarray,
    bounds: BoundSet | None = None,
    tol: float = 1e-12,
    max_iter: int = 30,
) -> np.ndarray:
    """Damped Newton on the centered-difference discretization of the wave equations.

    Starts from a copy of the (3, n) array init and returns the root as a
    (3, n) array clipped at zero. Left boundary: Dirichlet values taken from
    the envelope construction, with the infected value pinning the phase.
    Right boundary: outflow conditions S' = 0 and R' = 0, and I' = -kappa*I
    with kappa = outflow_rate(p, c).
    """
    b = bounds if bounds is not None else make_bound_set(p, c)
    n = grid.n
    dx = grid.dx
    x0 = grid.x_min
    l0 = b.lambda0
    bc_left = np.array([
        p.s_minus_inf * (1.0 - b.m1 * np.exp(b.eps1 * x0)),
        np.exp(l0 * x0),
        b.r_coef * np.exp(l0 * x0) * (1.0 - b.m3 * np.exp(b.eps3 * x0)),
    ])
    robin = np.array([0.0, outflow_rate(p, c), 0.0])
    ds = (p.d1, p.d2, p.d3)

    def residual(vec: np.ndarray) -> np.ndarray:
        u = vec.reshape(3, n)
        out = np.empty((3, n))
        out[:, 1:-1] = _wave_residual(u, p, c, dx)
        out[:, 0] = u[:, 0] - bc_left
        out[:, -1] = edge_difference(u, dx)[1] + robin * u[:, -1]
        return out.ravel()

    interior = np.arange(1, n - 1)
    # weights of (y[n-3], y[n-2], y[n-1]) in the outflow closure's one-sided difference
    edge_w = edge_difference(np.eye(3), dx)[1]

    def jacobian(vec: np.ndarray) -> csc_matrix:
        s, i, r = vec.reshape(3, n)
        ntot = s + i + r
        ok = ntot > ETA_DEFAULT
        safe = np.where(ok, ntot, 1.0)
        # derivatives of the incidence in S, I and R at the interior points
        dinc = [
            np.where(ok, g / safe**2, 0.0)[interior]
            for g in (p.beta * i * (i + r), p.beta * s * (s + r), -p.beta * s * i)
        ]
        e = np.ones(n - 2)
        # interior entries as (equation, unknown, column offset, values)
        entries = [
            (comp, comp, offset, weight * e)
            for comp, d in enumerate(ds)
            for offset, weight in zip((-1, 0, 1), wave_operator(np.eye(3), d, c, dx)[:, 0])
        ]
        entries += [(0, k, 0, -dinc[k]) for k in range(3)]
        entries += [(1, 0, 0, dinc[0]), (1, 1, 0, dinc[1] - (p.gamma + p.delta) * e), (1, 2, 0, dinc[2])]
        entries += [(2, 1, 0, p.gamma * e)]
        # boundary rows: Dirichlet on the left, the one-sided outflow closure on the right
        edge = []
        for comp in range(3):
            first, last = comp * n, comp * n + n - 1
            edge += [(first, first, 1.0), (last, last, edge_w[2] + robin[comp]),
                     (last, last - 1, edge_w[1]), (last, last - 2, edge_w[0])]
        edge_rows, edge_cols, edge_vals = zip(*edge)
        rows = np.concatenate([a * n + interior for a, _, _, _ in entries] + [edge_rows])
        cols = np.concatenate([b * n + interior + offset for _, b, offset, _ in entries] + [edge_cols])
        vals = np.concatenate([v for _, _, _, v in entries] + [edge_vals])
        del entries, dinc  # free the per-block arrays before the matrix is built
        # compressed columns straight away, as splu takes them: a CSR copy per
        # step left the heap's high-water mark several MB higher
        return csc_matrix((vals, (rows, cols)), shape=(3 * n, 3 * n))

    def newton_step(vec: np.ndarray, res: np.ndarray) -> np.ndarray:
        # the matrix and its factors go out of scope on return, before the
        # line search and the next factorization
        try:
            jac = jacobian(vec)
            lu = splu(jac)
            step = lu.solve(-res)
            # one round of iterative refinement: the raw solve's floor scales
            # with the d/dx^2 entries and can sit above the Newton tolerance
            step += lu.solve(-(res + jac @ step))
        except Exception as exc:  # umfpack/superlu signal singularities differently
            raise SingularJacobian(str(exc)) from exc
        return step

    vec = np.array(init, dtype=float).reshape(3 * n)
    res = residual(vec)
    res_norm = float(np.max(np.abs(res)))
    stalls = 0
    for _ in range(max_iter):
        if res_norm <= tol:
            break
        step = newton_step(vec, res)
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("Newton step is not finite")
        step_norm = float(np.max(np.abs(step)))
        if step_norm <= 1e-3 * (1.0 + float(np.max(np.abs(vec)))):
            # inside the quadratic basin: take the full step even if the
            # residual norm transiently rises (the translation mode is nearly
            # neutral, so small boundary mismatches need long, harmless steps)
            vec = vec + step
            res = residual(vec)
            res_norm = float(np.max(np.abs(res)))
            continue
        lam, accepted = 1.0, False
        for _ in range(9):
            trial = vec + lam * step
            trial_res = residual(trial)
            trial_norm = float(np.max(np.abs(trial_res)))
            if trial_norm < res_norm:
                vec, res, res_norm = trial, trial_res, trial_norm
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            stalls += 1
            vec = vec + lam * step
            res = residual(vec)
            res_norm = float(np.max(np.abs(res)))
            if stalls >= 3:
                raise NotConverged(f"damped Newton stalled at residual {res_norm:.2e}")
    if res_norm > tol:
        raise NotConverged(f"Newton residual {res_norm:.2e} above tolerance {tol}")
    return np.clip(vec.reshape(3, n), 0.0, None)


def outflow_rate(p: ModelParams, c: float) -> float:
    """Outflow rate kappa of Newton's right boundary row I' = -kappa*I.

    The positive root of d2*k^2 + c*k = gamma + delta: the decay rate of small
    infected perturbations at the right edge. Windows are sized from it so
    that I has decayed by x_max.
    """
    return (np.sqrt(c * c + 4.0 * p.d2 * (p.gamma + p.delta)) - c) / (2.0 * p.d2)


def align_profiles(a: np.ndarray, b: np.ndarray, grid: Grid, max_shift: float = 2.0):
    """Best translation of b onto a, two (3, n) arrays on grid; returns (shift, max-norm difference after shifting).

    Rows of b are interpolated with cubic splines and the shift is found
    by golden-section on the sup-norm mismatch over the common interior.
    """
    from .linear_analysis import golden_section

    x = grid.x
    inner = (x >= grid.x_min + max_shift) & (x <= grid.x_max - max_shift)
    xs = x[inner]
    splines = [CubicSpline(x, row) for row in b]
    targets = [row[inner] for row in a]

    def mismatch(shift):
        return max(
            float(np.max(np.abs(sp(xs + shift) - tv))) for sp, tv in zip(splines, targets)
        )

    shift, diff = golden_section(mismatch, -max_shift, max_shift, tol=1e-14)
    return shift, diff


def newton_cross_check(report: FixedPointReport, p: ModelParams):
    """The Newton root of the report's wave and its aligned sup-norm distance from the fixed point.

    After a Newton finish the root is the one the report carries; otherwise
    solve_bvp_newton solves from the fixed point on report.grid. Returns
    (root, agreement); raises NotConverged or SingularJacobian.
    """
    root = report.newton
    if root is None:
        root = solve_bvp_newton(p, report.c, report.grid, report.profile, bounds=report.gamma_set.bounds)
    return root, align_profiles(report.profile, root, report.grid)[1]


def _exp_decay_convolution(psi: np.ndarray, rate: float, dx: float, tail_rate: float = 0.0) -> np.ndarray:
    """E(x_j) = integral_x^inf exp(-rate*(y-x)) psi(y) dy, product-trapezoid rule.

    The kernel is integrated exactly against the piecewise-linear interpolant
    of psi; the beyond-window remainder extends psi exponentially at tail_rate
    (<= 0), giving psi(x_max)/(rate - tail_rate).
    """
    b = rate * dx
    v0 = (np.exp(-b) - 1.0 + b) / b**2
    v1 = (1.0 - np.exp(-b) * (1.0 + b)) / b**2
    w = np.exp(-b)
    tail = psi[-1] / (rate - min(tail_rate, 0.0))
    return first_order_recursion([dx * v0, dx * v1], w, psi[::-1], tail - dx * v0 * psi[-1])[::-1]


def _cumulative_integral(psi: np.ndarray, dx: float, left_tail: float) -> np.ndarray:
    out = np.empty_like(psi)
    out[0] = left_tail
    out[1:] = left_tail + np.cumsum(0.5 * (psi[1:] + psi[:-1]) * dx)
    return out


@dataclass(frozen=True)
class ProfileDiagnostics:
    """Checks of the converged wave against its proven structure.

    Monotonicity of S and R, the sandwich 0 <= I <= S(-inf) - S(inf), the
    leading-edge decay rate, the integral identity
    integral((gamma+delta)*I) = integral(incidence) = c*(S(-inf)-S(inf)),
    the limit R(inf) = gamma*(S(-inf)-S(inf))/(gamma+delta), reconstruction of
    R from I through the removed-equation kernel, and the monotone bound
    function J with I <= J <= S(-inf) - S(inf).
    """

    s_inf: float
    s_at_right: float  # S at the last grid point; a certified upper bound on S(inf)
    s_drop: float
    s_max_wrong_increment: float
    r_max_wrong_increment: float
    i_min: float
    i_max: float
    left_decay_rate: float
    left_decay_rel_err: float
    right_decay_rate: float
    integral_gamma_delta_i: float
    integral_incidence: float
    c_times_drop: float
    integral_identity_spread: float
    r_end: float
    r_end_predicted: float
    r_end_rel_err: float
    r_reconstruction_max_err: float
    j_max: float
    j_min_increment: float
    j_bound_overshoot: float  # j_max - (S(-inf) - S(x_max)); <= ~0 certifies j_max <= drop
    i_le_j_margin: float
    i_prime_left: float
    i_prime_right: float


def profile_diagnostics(u: np.ndarray, grid: Grid, p: ModelParams, c: float) -> ProfileDiagnostics:
    """Diagnostics of a (3, n) profile on grid, rows S, I, R."""
    x, dx = grid.x, grid.dx
    s, i, r = u
    l0 = lambda0(c, p).lambda0

    n_tail = max(2, int(0.1 * grid.n))
    s_inf = float(np.mean(s[-n_tail:]))
    drop = p.s_minus_inf - s_inf

    s_wrong = float(np.max(np.diff(s)))
    r_wrong = float(-np.min(np.diff(r)))

    quarter = grid.n // 4
    with np.errstate(divide="ignore"):
        left_fit = np.polyfit(x[:quarter], np.log(np.maximum(i[:quarter], 1e-300)), 1)[0]
        right_fit = np.polyfit(x[-quarter:], np.log(np.maximum(i[-quarter:], 1e-300)), 1)[0]

    inc = -reaction_terms(s, i, r, p)[0]
    int_i = float(np.trapezoid((p.gamma + p.delta) * i, x))
    int_inc = float(np.trapezoid(inc, x))
    c_drop = c * drop
    vals = (int_i, int_inc, c_drop)
    spread = float((max(vals) - min(vals)) / max(abs(c_drop), 1e-300))

    r_end_pred = p.gamma * drop / (p.gamma + p.delta)
    r_end = float(r[-1])
    r_end_err = abs(r_end - r_end_pred) / max(abs(r_end_pred), 1e-300)

    cum_i = _cumulative_integral(i, dx, left_tail=i[0] / l0)
    r_tail = float(min(right_fit, 0.0))  # measured decay closes the window tails
    r_hat = (p.gamma / c) * (cum_i + _exp_decay_convolution(i, c / p.d3, dx, r_tail))
    r_rec_err = float(np.max(np.abs(r_hat - r)))

    j = i + ((p.gamma + p.delta) / c) * (cum_i + _exp_decay_convolution(i, c / p.d2, dx, r_tail))
    # the last few cells sit inside the window-closure boundary layer (width
    # ~ 1/lambda_2^+, amplitude ~ I(x_max)); monotonicity is a statement about
    # the wave, so scan up to its edge
    j_incr = float(np.min(np.diff(j)[:-10]))
    j_max = float(np.max(j))
    # compare against the drop down to S at the right edge: since S decreases,
    # S(-inf) - S(x_max) never exceeds the true drop, making the bound strict
    j_overshoot = float(j_max - (p.s_minus_inf - s[-1]))
    i_le_j = float(np.min(j - i))

    i_prime_left, i_prime_right = (float(v) for v in edge_difference(i, dx))

    return ProfileDiagnostics(
        s_inf=s_inf,
        s_at_right=float(s[-1]),
        s_drop=drop,
        s_max_wrong_increment=s_wrong,
        r_max_wrong_increment=r_wrong,
        i_min=float(np.min(i)),
        i_max=float(np.max(i)),
        left_decay_rate=float(left_fit),
        left_decay_rel_err=float(abs(left_fit - l0) / l0),
        right_decay_rate=float(right_fit),
        integral_gamma_delta_i=int_i,
        integral_incidence=int_inc,
        c_times_drop=c_drop,
        integral_identity_spread=spread,
        r_end=r_end,
        r_end_predicted=r_end_pred,
        r_end_rel_err=float(r_end_err),
        r_reconstruction_max_err=r_rec_err,
        j_max=j_max,
        j_min_increment=j_incr,
        j_bound_overshoot=j_overshoot,
        i_le_j_margin=i_le_j,
        i_prime_left=i_prime_left,
        i_prime_right=i_prime_right,
    )
