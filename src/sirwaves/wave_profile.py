"""Front profiles: envelope construction, the integral fixed-point map, and checks.

The wave is a fixed point of u -> D^{-1}[shifted reaction] inside the convex
set sandwiched between explicit super- and sub-solution envelopes. Newton on
the map's own discrete problem, clipped at zero and started inside the a
priori bounds, finds it and one unprojected step of the map certifies it; the
solve measures the profile's distance to the envelopes and never projects
onto them. The diagnostics verify the integral identities and asymptotics the
converged wave must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dgbtrf, dgbtrs
# splu no longer factors anything here; it stays bound by name because the
# benchmark tracer (bench/spans.py) hooks wave_profile.splu; tests/test_api_surface.py
# checks that the name resolves and spares it the unused-import check.
from scipy.sparse.linalg import splu  # noqa: F401

from .model import Grid, ModelParams, check_spacing, incidence_partials, reaction_terms, wave_operator
from .linear_analysis import characteristic_f, envelope, envelope_image, front_roots, lambda0
from .linear_analysis import stencil_roots, symbol_roots
from .resolvent import choose_alphas, choose_mu, first_order_recursion, inverse_operator

# Residual sup norm the Newton solve must reach where its roundoff floor is
# lower (see solve_bvp_newton), and the most steps it may take.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
# Sub- and super-diagonals of the point-ordered Newton Jacobian: each wave row
# reaches the same species one point either way, three unknowns off. The
# points run from x_max to x_min, so that the smaller, downwind stencil weight
# sits below the diagonal and dgbtrf keeps its diagonal pivots.
BAND_KL, BAND_KU = 3, 3
# Most points wave_window may size; wider windows are refused before any solve.
MAX_WINDOW_POINTS = 50_001


class EnvelopeConditionFailed(ValueError):
    """An inequality of the envelope construction fails at these parameters and speed."""


class SearchExhausted(EnvelopeConditionFailed):
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

    def envelopes(self, x):
        """The (super, sub) envelope pieces at x as (3, len(x)) arrays, rows S, I, R; the super pieces have M = 0."""
        x = np.asarray(x, dtype=float)
        pieces = ((self.s_minus_inf, 0.0, self.eps1, self.m1), (1.0, self.lambda0, self.eps2, self.m2),
                  (self.r_coef, self.lambda0, self.eps3, self.m3))
        sup = np.array([envelope(x, amp, lam, 0.0, 0.0) for amp, lam, _, _ in pieces])
        sub = np.array([envelope(x, *piece) for piece in pieces])
        return sup, sub


@dataclass(frozen=True)
class GammaSet:
    """The invariant convex set: (3, n) arrays sandwiched between the envelopes on a grid."""

    bounds: BoundSet
    super_array: np.ndarray
    sub_array: np.ndarray

    def membership_margin(self, a: np.ndarray) -> float:
        """Smallest signed distance of a (3, n) array to the envelopes; negative means outside."""
        return float(min(np.min(a - self.sub_array), np.min(self.super_array - a)))

    def image_margin(self, p: ModelParams, inverses):
        """Exact worst membership margin of F(u) over every u in the set: (margin, species, side).

        species is "S", "I" or "R" and side "lower" or "upper", the envelope
        the worst image comes closest to or crosses. Each component F_k is
        D_k^{-1} applied to its integrand H_k, which is monotone in each
        species at every point:
          - dH_1/dS >= alpha_1 - beta > 0 and dH_2/dI >= alpha_2 - (gamma+delta) > 0,
            floors that choose_alphas enforces;
          - the cross terms follow from the incidence h = beta*S*I/(S+I+R), with
            dh/dS >= 0, dh/dI >= 0 and dh/dR <= 0 (model.incidence_partials,
            each at most beta in size): H_1 = alpha_1*S - h falls in I
            and rises in R, H_2 = alpha_2*I + h - (gamma+delta)*I rises in S and
            falls in R, and H_3 = alpha_3*R + gamma*I rises in both;
          - D_k^{-1} is a positive map: discrete_kernel (dx < 2d/c) keeps both
            kernel ratios positive and _tail_ratio keeps every tail coefficient
            positive.
        So over the envelope box F_1 is smallest at (S-, I+, R-) and largest at
        (S+, I-, R+), F_2 at (S-, I-, R+) and (S+, I+, R-), and F_3 at (I-, R-)
        and (I+, R+). Six one-component images give the worst case that any
        sampling of the set can only approach from above. inverses comes from
        map_inverses on the grid of the envelope arrays.
        """
        (s_lo, i_lo, r_lo), (s_hi, i_hi, r_hi) = self.sub_array, self.super_array
        corners = (  # per species: the corner of its smallest image, the corner of its largest
            ((s_lo, i_hi, r_lo), (s_hi, i_lo, r_hi)),
            ((s_lo, i_lo, r_hi), (s_hi, i_hi, r_lo)),
            ((s_lo, i_lo, r_lo), (s_hi, i_hi, r_hi)),  # S does not enter F_3
        )
        margins = []
        for k, (low, high) in enumerate(corners):
            invert = inverses[k][1]
            lowest = invert(_integrands(low, p, inverses)[k])
            highest = invert(_integrands(high, p, inverses)[k])
            margins.append((float(np.min(lowest - self.sub_array[k])), "SIR"[k], "lower"))
            margins.append((float(np.min(self.super_array[k] - highest)), "SIR"[k], "upper"))
        return min(margins, key=lambda m: m[0])


@dataclass(frozen=True)
class SubInequalityReport:
    """Worst pointwise margins of the three sub-solution differential inequalities."""

    s_margin: float
    i_margin: float
    r_margin: float


@dataclass
class FixedPointReport:
    """Outcome of solve_fixed_point: the Newton root and one step of F from it; (3, n) arrays, rows S, I, R."""

    grid: Grid
    profile: np.ndarray  # F(newton), clipped at zero
    iterations: int  # applications of F, always 1; bench/spans.py counts them
    residual: float  # weighted norm of F(newton) - newton
    residual_max: float  # same step in the plain sup norm
    s_inf: float  # measured plateau of S at the right edge
    converged: bool
    ode_residual: float  # sup norm of the finite-difference wave-equation residual of the profile
    gamma_set: GammaSet
    gamma_margin: float  # gamma_set.membership_margin(profile); negative means outside the envelopes
    specs: tuple
    inverses: tuple  # map_inverses(specs, p, grid.dx): the map F the profile is a step of
    mu: float
    lambda0: float
    c: float
    warnings: tuple
    newton: np.ndarray  # the Newton root
    newton_residuals: tuple  # residual sup norms of the Newton solve, at its start and after each step
    agreement: float  # plain sup distance of profile from newton

    @property
    def newton_steps(self) -> int:
        """Steps of the Newton solve."""
        return len(self.newton_residuals) - 1


def select_epsilons(p: ModelParams, c: float):
    """Halving rule for the exponent increments; each strict inequality is re-verified."""
    roots = lambda0(c, p)
    l0, l0p = roots.lambda0, roots.lambda0_plus
    e1 = 0.5 * min(l0, c / p.d1)
    e2 = 0.5 * min(e1, l0p - l0)
    e3 = 0.5 * min(e2, c / p.d3 - l0)
    if not (0 < e3 < e2 < e1 < l0 and e1 < c / p.d1):
        raise EnvelopeConditionFailed("epsilon ordering failed")
    if not characteristic_f(l0 + e2, c, p) > 0:
        raise EnvelopeConditionFailed("f(lambda0 + eps2) > 0 failed")
    if not c - p.d3 * (l0 + e3) > 0:
        raise EnvelopeConditionFailed("c - d3*(lambda0 + eps3) > 0 failed")
    return e1, e2, e3


def _smallest_m(ineq, lo: float = 1.0, hi_cap: float = 1e12) -> float:
    """Smallest M >= lo with ineq(M) >= 0, by doubling then bisection.

    The bisection takes at most 200 halvings and stops early once the
    midpoint equals an end of the bracket: the bracket is then two adjacent
    floats, and no further halving can move b.
    """
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
        if mid == a or mid == b:
            break
        if ineq(mid) >= 0:
            b = mid
        else:
            a = mid
    return b


def select_Ms(p: ModelParams, c: float, eps):
    """Envelope amplitudes: 1.1 x the bisection threshold of each inequality.

    The amplitude inequalities (with l0 the decay rate and K the removed-envelope
    scale) are:
        S_-inf*M1*eps1*(c - d1*eps1) >= beta * M1^(-(l0-eps1)/eps1)
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
        raise EnvelopeConditionFailed("c*lambda0 - d3*lambda0^2 must be positive (d3 < 2*d2 regime)")

    def ineq1(m):
        return sm * m * e1 * (c - p.d1 * e1) - p.beta * m ** (-(l0 - e1) / e1)

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
        raise EnvelopeConditionFailed(f"amplitude inequalities failed on re-check: {checks}")
    if not (-np.log(m2) / e2 < -np.log(m1) / e1):
        raise EnvelopeConditionFailed("x2 < x1 failed")
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


def make_gamma_set(p: ModelParams, c: float, grid: Grid, bounds: BoundSet | None = None) -> GammaSet:
    b = bounds if bounds is not None else make_bound_set(p, c)
    sup, sub = b.envelopes(grid.x)
    return GammaSet(bounds=b, super_array=sup, sub_array=sub)


def verify_sub_inequalities(b: BoundSet, p: ModelParams, c: float, grid: Grid) -> SubInequalityReport:
    """Pointwise margins of the three sub-solution inequalities on their domains.

    Each envelope is amp*exp(lam*x)*(1 - M*exp(eps*x)) on its smooth piece, so
    its image -d*h'' + c*h' comes from the symbol (envelope_image), never by
    differencing; values at the crossover are the one-sided limits from the
    left. Violations are reported, not raised.
    """
    x = grid.x
    l0 = b.lambda0

    def worst(margins, mask):
        return float(np.min(margins[mask])) if np.any(mask) else np.inf

    # susceptible envelope inequality on x <= x1
    s_image = b.s_minus_inf * envelope_image(x, 0.0, b.eps1, b.m1, p.d1, c, 0.0)
    s_margin = worst(-p.beta * np.exp(l0 * x) - s_image, x <= b.x1)

    # infected envelope inequality on x <= x2, with the lower I envelope in its expanded
    # form: exact there, and the bits the margin is computed from, unlike the clipped piece
    sup, sub = b.envelopes(x)
    i_minus = np.exp(l0 * x) - b.m2 * np.exp((l0 + b.eps2) * x)
    lhs = p.beta * sub[0] * i_minus / (sub[0] + sup[1] + sup[2]) - (p.gamma + p.delta) * i_minus
    i_margin = worst(lhs - envelope_image(x, l0, b.eps2, b.m2, p.d2, c, 0.0), x <= b.x2)

    # removed envelope inequality on x <= x3
    r_image = b.r_coef * envelope_image(x, l0, b.eps3, b.m3, p.d3, c, 0.0)
    r_margin = worst(p.gamma * sub[1] - r_image, x <= b.x3)

    return SubInequalityReport(s_margin=s_margin, i_margin=i_margin, r_margin=r_margin)


def discrete_decay_rate(p: ModelParams, c: float, dx: float) -> float:
    """Decay rate actually propagated by the centered stencil: log(z_lo)/dx.

    z_lo is the smaller stencil root of the infected equation linearized at
    the disease-free state, the symbol with d = d2 and a = -p.growth_rate;
    the rate sits O(dx^2) from the continuum rate lambda0 and is independent
    of the shift constants, so tail closures keyed to it keep the fixed point
    free of the shift-constant bookkeeping. Raises ComplexRoots below the
    minimal speed, where the stencil roots can still be real.
    """
    lambda0(c, p)  # the continuum roots decide whether a decay rate exists
    z_lo, _, _ = stencil_roots(p.d2, c, -p.growth_rate, dx)
    return float(np.log(z_lo) / dx)


def map_inverses(specs, p: ModelParams, dx: float):
    """The three shifted inverses of the integral map on spacing dx, prepared once per solve.

    Returns one (alpha_i, D_i^{-1}, (gain_i, weight_i)) triple per equation: F's value
    one cell past the right edge is gain*u[-1] + weight*f(u[-1]), the right closure
    (z, w) of resolvent.inverse_operator applied to the integrand alpha*u + f(u).
    Integrand tail rates: S-like constant (0) on both sides, I-like exponential on the
    left and zero (-inf) on the right, R-like exponential on the left and constant on
    the right. The left rate is the mesh decay rate, so the closures match what the
    stencil propagates.
    """
    lead = discrete_decay_rate(p, specs[1].c, dx)
    rates = ((0.0, 0.0), (lead, -np.inf), (lead, 0.0))
    ops = [(spec.alpha, *inverse_operator(spec, dx, *r)) for spec, r in zip(specs, rates)]
    return tuple((alpha, invert, (z + w * alpha, w)) for alpha, invert, (z, w) in ops)


def _integrands(u, p: ModelParams, inverses):
    """The integrands alpha_i*u_i + (shifted reaction) that F inverts, rows S, I, R; f_S is minus the incidence."""
    s, i, r = u
    f_s, _, f_r = reaction_terms(s, i, r, p)
    (a1, _, _), (a2, _, _), (a3, _, _) = inverses
    return a1 * s + f_s, a2 * i - f_s - (p.gamma + p.delta) * i, a3 * r + f_r


def apply_F(u: np.ndarray, p: ModelParams, inverses) -> np.ndarray:
    """One application of the integral map F = D^{-1} o (shifted reaction) to a (3, n) array.

    inverses comes from map_inverses on the grid spacing of u.
    """
    return np.array([invert(g) for (_, invert, _), g in zip(inverses, _integrands(u, p, inverses))])


def _wave_rows(y: np.ndarray, d: np.ndarray, c: float, dx: float, f, out, lap: np.ndarray, adv: np.ndarray):
    """out = d*y'' - c*y' + f at the interior points of the C-contiguous (3, w) array y, in place.

    The stencil takes model.wave_operator's operations in its order, so the
    rows are bit for bit wave_operator(y, d, c, dx) + f. d is the (3, 1)
    column of diffusion rates, f the three reaction rows at the w - 2
    interior points, out any (3, w - 2) array or view, and lap and adv
    zeroed C-contiguous (3, w) scratch. Each operation is one pass over the
    flattened arrays; where one row meets the next it mixes two species,
    in the first and last columns of lap and adv, which out never reads.
    """
    y1, lap1, adv1 = y.reshape(-1), lap.reshape(-1), adv.reshape(-1)
    inner = lap1[1:-1]
    np.multiply(y1[1:-1], 2.0, out=inner)
    np.subtract(y1[2:], inner, out=inner)
    inner += y1[:-2]
    lap *= d
    lap /= dx**2
    np.subtract(y1[2:], y1[:-2], out=adv1[1:-1])
    adv *= c
    adv /= 2.0 * dx
    lap -= adv
    for k in range(3):
        np.add(lap[k, 1:-1], f[k], out=out[k])
    return out


def _wave_residual(u: np.ndarray, p: ModelParams, c: float, dx: float) -> np.ndarray:
    """Centred-difference residual d*u'' - c*u' + f(u) of the wave equations, interior points only.

    Rows are S, I, R. Newton drives it to zero; the fixed point reports its sup norm.
    """
    y = np.ascontiguousarray(u, dtype=float)
    out = np.empty((3, y.shape[1] - 2))
    return _wave_rows(y, _diffusion(p), c, dx, reaction_terms(*y[:, 1:-1], p), out, *np.zeros((2, *y.shape)))


def check_tolerance(tol: float) -> None:
    """Raise ValueError unless the certification tolerance tol is finite and positive."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"certification tolerance tol must be finite and positive, got {tol}")


def solve_fixed_point(p: ModelParams, c: float, grid: Grid, tol: float = 1e-8) -> FixedPointReport:
    """Fixed point of the integral map F, found by Newton and certified by one step of F.

    solve_bvp_newton (Newton on the banded Jacobian, clipped at zero) solves
    F's own discrete problem. Its start is the envelope midpoint with
    the infected value at the left edge pinned to the upper envelope (the
    translation family's canonical representative; the value there is below
    1e-10 by the window guard, so the pin is a phase convention, not a
    constraint on the shape), and with rows I and R capped at S(-inf), the a
    priori bound of every front, and never below the lower envelopes;
    uncapped, the upper envelopes grow like exp(lambda0*x) right of the
    crossovers and Newton spends its first steps undoing them. Its right-edge
    rows are F's tail closures, so its root is a fixed point of F.

    The profile is one step of F from the root, neither projected onto the
    invariant set nor re-pinned. It is certified when the step moved the root
    by at most tol, in the weighted and in the plain sup norm, and its
    wave-equation residual is at most 10*tol; otherwise the report reads
    converged=False with a warning. The invariant set is only measured:
    gamma_margin is the profile's signed distance to the envelopes, which can
    be slightly negative (a root dipping up to 1e-5 below a lower envelope on
    a coarse grid). NotConverged and SingularJacobian from the Newton solve
    propagate; so does front_roots' NoFront where the construction does not
    apply. A tol that is not finite and positive raises ValueError before any work.
    """
    check_tolerance(tol)
    roots = front_roots(c, p)  # a grid given in the config has not passed wave_window's refusal
    specs = choose_alphas(p, c)
    mu = choose_mu(specs, roots.lambda0)
    gamma_set = make_gamma_set(p, c, grid)
    inverses = map_inverses(specs, p, grid.dx)

    warnings = []
    if np.exp(roots.lambda0 * grid.x_min) >= 1e-10:
        warnings.append(
            f"left window too short: exp(lambda0*x_min) = {np.exp(roots.lambda0 * grid.x_min):.2e} >= 1e-10"
        )

    sub, sup = gamma_set.sub_array, gamma_set.super_array
    start = np.where(sub > 0, np.sqrt(sub * sup), 0.5 * (sub + sup))
    start[1, 0] = sup[1, 0]
    start[1:] = np.maximum(np.minimum(start[1:], p.s_minus_inf), sub[1:])
    newton, residuals = solve_bvp_newton(p, c, grid, start, gamma_set.bounds, inverses)

    u = apply_F(newton, p, inverses)
    moved = np.abs(u - newton)
    res_w = float(np.max(np.exp(-mu * np.abs(grid.x)) * moved))
    res_m = float(np.max(moved))
    ode_res = float(np.max(np.abs(_wave_residual(u, p, c, grid.dx))))
    converged = res_w <= tol and res_m <= tol and ode_res <= 10.0 * tol
    if not converged:
        warnings.append(f"not certified at tol {tol:.1e}: one step of F moved the Newton root by {res_m:.2e} "
                        f"and left a wave-equation residual of {ode_res:.2e}")

    s_inf = _s_plus_inf(u[0])

    i_vals = u[1]
    mass = _cumulative_integral(i_vals, grid.dx, 0.0)
    if mass[-1] > 0:
        x999 = grid.x[int(np.searchsorted(mass, 0.999 * mass[-1]))]
        if x999 >= grid.x_max:
            warnings.append("right window too short: 99.9% of the infected mass is not inside")

    profile = np.clip(u, 0.0, None)
    return FixedPointReport(
        grid=grid,
        profile=profile,
        iterations=1,
        residual=res_w,
        residual_max=res_m,
        s_inf=s_inf,
        converged=bool(converged),
        ode_residual=ode_res,
        gamma_set=gamma_set,
        gamma_margin=gamma_set.membership_margin(profile),
        specs=specs,
        inverses=inverses,
        mu=mu,
        lambda0=roots.lambda0,
        c=c,
        warnings=tuple(warnings),
        newton=newton,
        newton_residuals=residuals,
        agreement=float(np.max(np.abs(profile - newton))),
    )


def _diffusion(p: ModelParams) -> np.ndarray:
    """The diffusion rates d1, d2, d3 as a (3, 1) column, one per species row."""
    return np.array([[p.d1], [p.d2], [p.d3]])


def _stencil_weights(p: ModelParams, c: float, dx: float) -> np.ndarray:
    """(3, 3) weights of the centred wave stencil: row k holds species k's weights of u[j-1], u[j], u[j+1]."""
    return wave_operator(np.eye(3), _diffusion(p)[:, :, None], c, dx)[..., 0]


def _stencil_band(p: ModelParams, c: float, dx: float, n: int) -> np.ndarray:
    """The part of the Newton band that does not depend on u: the stencils and the Dirichlet rows.

    Built once per solve in the order of _NewtonSystem.jacobian, where
    species k sits at slot 2 - k of its point. The neighbour towards x_min
    is the next point in that order (above the diagonal) and the neighbour
    towards x_max the previous one (below it); the point at x_max has none
    below, since its right neighbour is F's closure.
    """
    ab = np.zeros((2 * BAND_KL + BAND_KU + 1, 3 * n), order="F")
    mid = BAND_KL + BAND_KU
    for k, (w_lo, w_mid, w_hi) in enumerate(_stencil_weights(p, c, dx)):
        ab[mid - 3, 5 - k::3] = w_lo
        ab[mid, 2 - k:3 * (n - 1):3] = w_mid
        ab[mid + 3, 2 - k:3 * (n - 2):3] = w_hi
    ab[mid, 3 * (n - 1):] = 1.0  # Dirichlet rows at x_min, the last point in the order
    return ab


class _NewtonSystem:
    """The boundary-value problem solve_bvp_newton solves, with every buffer its steps write.

    The left edge carries the Dirichlet values bc_left and every other point
    the wave equations; at the last point the value one cell past the window
    is F's tail closure gain*u[:, -1] + weight*f(u[:, -1]), edge = (gain,
    weight) over S, I, R from map_inverses. Built once per solve: the
    (3, n + 1) array whose first n columns are the iterate u and whose last
    holds the closure value, the diffusion column, the stencil band, the
    band and right-hand-side buffers LAPACK works in, and scratch for the
    stencil, the reaction rows and the incidence partials. A step then
    writes the residual and the band in place: of the grid's size it
    allocates only incidence's total, incidence_partials' N^2 and dgbtrf's
    pivot indices.
    """

    def __init__(self, p: ModelParams, c: float, dx: float, n: int, bc_left, edge):
        self.p, self.c, self.dx, self.bc_left = p, c, dx, bc_left
        self.gain, self.weight = edge
        self.ext = np.empty((3, n + 1))
        self.u = self.ext[:, :n]
        self.d = _diffusion(p)
        mid = BAND_KL + BAND_KU
        self.fixed = _stencil_band(p, c, dx, n)  # and gamma, the one constant reaction partial, in the R rows
        self.fixed[mid - 1, 1:3 * (n - 1):3] = p.gamma
        self.ab = np.empty_like(self.fixed)  # Fortran order like fixed; the band, then its factors
        # the point at x_max: where its nine (k, m) entries sit in ab, d f_k / d u_m there, and the
        # weight of its right neighbour, F's closure, in each equation
        k, m = np.divmod(np.arange(9), 3)
        self.corner = (mid + m - k, 2 - m)
        self.df = np.zeros((3, 3))
        self.df[2, 1] = p.gamma
        self.w_hi = _stencil_weights(p, c, dx)[:, 2:]
        self.rhs = np.empty(3 * n)  # in the solve's order, the reverse of res.T.ravel()
        self.res = self.rhs[::-1].reshape(n, 3).T  # the same buffer as a (3, n) array on the grid
        self.size = np.empty(3 * n)  # |rhs|
        self.finite = np.empty(3 * n, dtype=bool)
        self.lap, self.adv = np.zeros((2, 3, n + 1))
        self.f, self.dinc = np.empty((2, 3, n - 1))
        self.own = np.empty(n - 1)  # the I equation's own partial

    def residual(self) -> float:
        """Write the residual at u into rhs, reversed (res on the grid); return its sup norm."""
        p, u, beyond = self.p, self.u, self.ext[:, -1]
        f = reaction_terms(*u[:, 1:], p, out=self.f)
        for k in range(3):
            beyond[k] = self.gain[k] * u[k, -1] + self.weight[k] * f[k][-1]
        _wave_rows(self.ext, self.d, self.c, self.dx, f, self.res[:, 1:], self.lap, self.adv)
        np.subtract(u[:, 0], self.bc_left, out=self.res[:, 0])
        return float(np.abs(self.rhs, out=self.size).max())

    def jacobian(self) -> np.ndarray:
        """Jacobian of the residual at u in LAPACK band storage, written into ab and returned.

        Unknowns and equations are ordered from x_max to x_min: the
        point-by-point vector (3*j + k for species k at point j) reversed, so
        that species k at point j is 3*n - 1 - (3*j + k). Entry (row, col)
        sits at ab[BAND_KL + BAND_KU + row - col, col]; the top BAND_KL rows
        are room for the fill-in of dgbtrf. In this order the stencil weight
        below the diagonal is the downwind d/dx^2 - c/(2*dx), smaller than
        the diagonal entry it competes with for the pivot, so partial
        pivoting keeps the diagonal pivot wherever the reaction terms do not
        outweigh the stencil. Fortran order is the layout dgbtrf factors in
        place; a C-ordered ab would be copied and transposed on every call.

        The reaction part is model.incidence_partials at points 1 to n-1, subtracted in
        the S rows and added in the I rows, with -(gamma+delta) folded into the I
        diagonal and gamma added in the R rows.
        """
        p, ab, own = self.p, self.ab, self.own
        d_s, d_i, d_r = incidence_partials(*self.u[:, 1:], p.beta, self.dinc)
        np.subtract(d_i, p.gamma + p.delta, out=own)  # the I equation's own partial, added as one value
        np.copyto(ab, self.fixed)
        mid = BAND_KL + BAND_KU
        for m, (partial, i_partial) in enumerate(zip(self.dinc, (d_s, own, d_r))):
            # equation k at slot 2 - k, unknown m at slot 2 - m of the same point; points n-1 down to 1
            cols = slice(2 - m, 3 * own.size, 3)
            s_row, i_row = ab[mid + m, cols][::-1], ab[mid + m - 1, cols][::-1]
            np.subtract(s_row, partial, out=s_row)
            np.add(i_row, i_partial, out=i_row)
        df, last = self.df, self.dinc[:, -1]
        df[0], df[1], df[1, 1] = -last, last, own[-1]
        beyond = np.diag(self.gain) + self.weight[:, None] * df  # d u_n / d u_{n-1} through F's closure
        ab[self.corner] += (self.w_hi * beyond).ravel()
        return ab


def solve_bvp_newton(p: ModelParams, c: float, grid: Grid, init: np.ndarray, bounds: BoundSet, inverses):
    """Newton on the integral map's own discrete problem, clipped at zero.

    Starts from the (3, n) array init. Every point but the first carries the
    centred-difference wave equations, which are F = u at interior points.
    Left boundary: Dirichlet values S-, I+ and R- of the envelopes in
    bounds, with the infected value pinning the phase and the other two
    fixing the scale of the degree-one homogeneous system. Right boundary:
    the value one cell past the window is F's tail closure, taken from
    inverses (built by map_inverses on grid.dx), so a root is a fixed point
    of F. Each step solves J step = -G on the banded Jacobian
    (dgbtrf/dgbtrs) and clips the iterate at zero. The linear system is
    ordered from x_max to x_min, the order in which dgbtrf keeps the
    diagonal pivots (see _NewtonSystem.jacobian): the residual is written
    reversed into the right-hand side and the step is read back in grid
    order. A _NewtonSystem holds every buffer, built once per solve with
    the stencil band and the diffusion column, so a step is one residual
    pass, one band update and the two LAPACK calls. From the
    start solve_fixed_point gives, inside the a priori bounds, no
    globalization is needed: every tested configuration, down to 1.0005*c*
    and d3 = 0.02*d2, settles within 10 steps.
    The loop stops once a step starts and ends at a residual of at most
    the settle tolerance max(NEWTON_TOL, 4*eps*max(d1, d2, d3)/dx^2*S(-inf)):
    the second term is the residual's roundoff floor, the second difference
    of values of scale S(-inf), which is above NEWTON_TOL at d3 = 3.6,
    S(-inf) = 2.6 and dx = 0.05. The residual barely sees the near-translation
    direction of the wave (the phase is pinned only by a left edge value
    below 1e-10), so stopping at the first residual under the tolerance left
    roots up to 3e-11 apart from different starts; one more step takes them
    to roundoff. That settling step reuses the previous step's factors
    (one chord step), since the Jacobian has not moved at that scale.

    Returns (root, residuals): the root as a new C-contiguous (3, n) array
    and the residual sup norm at the start and after each step. Raises
    NotConverged after NEWTON_MAX_ITER steps or on a non-finite residual,
    SingularJacobian on a zero pivot or a non-finite step.
    """
    dx, x0, n = grid.dx, grid.x_min, grid.n
    (_, i_sup, _), (s_sub, _, r_sub) = bounds.envelopes([x0])
    bc_left = np.concatenate([s_sub, i_sup, r_sub])
    edge = np.array([closure for _, _, closure in inverses]).T
    settle = max(NEWTON_TOL, 4.0 * np.finfo(float).eps * max(p.d1, p.d2, p.d3) / dx**2 * p.s_minus_inf)
    system = _NewtonSystem(p, c, dx, n, bc_left, edge)
    u = system.u
    u[...] = init
    norms = [system.residual()]
    lu = None
    while len(norms) < 2 or max(norms[-2:]) > settle:
        if len(norms) > NEWTON_MAX_ITER:
            raise NotConverged(f"{NEWTON_MAX_ITER} steps ended at residual {norms[-1]:.2e}, not settled at {settle:.2e}")
        if lu is None or norms[-1] > settle:
            lu, piv, info = dgbtrf(system.jacobian(), BAND_KL, BAND_KU, overwrite_ab=1)
            if info != 0:
                raise SingularJacobian(f"dgbtrf info {info} at step {len(norms)}")
        # J (-step) = G, solved in place of the residual
        neg_step, info = dgbtrs(lu, BAND_KL, BAND_KU, system.rhs, piv, overwrite_b=1)
        if info != 0 or not np.isfinite(neg_step, out=system.finite).all():
            raise SingularJacobian(f"step {len(norms)} is not finite")
        u -= neg_step[::-1].reshape(n, 3).T
        np.maximum(u, 0.0, out=u)
        norms.append(system.residual())
        if not np.isfinite(norms[-1]):
            raise NotConverged(f"residual is not finite at step {len(norms) - 1}")
    return u.copy(), tuple(norms)


def outflow_rate(p: ModelParams, c: float) -> float:
    """Decay rate kappa of small infected perturbations at the right edge, which sizes the wave window.

    The positive root of d2*k^2 + c*k = gamma + delta, minus the negative root
    of the symbol with d = d2 and a = gamma + delta. wave_window puts the right
    edge where I has decayed by exp(-16.1) at this rate.
    """
    return -symbol_roots(p.d2, c, p.gamma + p.delta)[0]


def wave_window(p: ModelParams, c: float, dx: float | None = None) -> Grid:
    """The window every wave solve uses unless it is given a grid, with spacing dx.

    dx defaults to min(0.05, 0.9*2*min(d1, d2, d3)/c), inside the mesh
    condition dx < 2d/c of every operator's stencil; a given dx is kept.
    The left half-width max(60, ceil(26/rate/10)*10), rate = min(lambda0, c/d1),
    puts I below exp(-26) at x_min, under the solve's window guard, and lets S,
    which settles at the slower rate, meet the map's constant tail there. The
    right edge max(half, ceil(16.1/kappa/10)*10), kappa = outflow_rate(p, c),
    lets I fall below exp(-16.1) of its scale by x_max. Raises front_roots' NoFront first (c <= c*,
    c <= 0 included), then ValueError above MAX_WINDOW_POINTS or for a spacing not finite and positive.
    """
    l0 = front_roots(c, p).lambda0
    if dx is None:
        dx = min(0.05, 0.9 * 2.0 * min(p.d1, p.d2, p.d3) / c)
    check_spacing(dx)
    half = max(60.0, np.ceil(26.0 / min(l0, c / p.d1) / 10.0) * 10.0)
    right = max(half, np.ceil(16.1 / outflow_rate(p, c) / 10.0) * 10.0)
    n = int(round((half + right) / dx)) + 1
    if n > MAX_WINDOW_POINTS:
        raise ValueError(f"window [-{half:g}, {right:g}] at dx = {dx:g} has {n} points, over {MAX_WINDOW_POINTS}")
    return Grid(-half, right, n)


def align_profiles(a: np.ndarray, b: np.ndarray, grid: Grid):
    """Best translation of b onto a, two (3, n) arrays on grid; returns (shift, max-norm difference after shifting).

    The rows of b are interpolated by one cubic spline along the grid, and the
    shift, at most 2 either way, is found by golden-section on the sup-norm
    mismatch over the common interior.
    """
    from .linear_analysis import golden_section

    x = grid.x
    inner = (x >= grid.x_min + 2.0) & (x <= grid.x_max - 2.0)
    xs = x[inner]
    spline = CubicSpline(x, b, axis=1)
    target = a[:, inner]

    def mismatch(shift):
        return float(np.max(np.abs(spline(xs + shift) - target)))

    shift, diff = golden_section(mismatch, -2.0, 2.0, tol=1e-14)
    return shift, diff


def _s_plus_inf(s: np.ndarray) -> float:
    """S(+inf) of a profile's S row, estimated as its mean over the last 10% of the points (at least 2)."""
    n_tail = max(2, int(0.1 * s.size))
    return float(np.mean(s[-n_tail:]))


def _exp_decay_convolution(psi: np.ndarray, rate: float, dx: float, right_rate: float) -> np.ndarray:
    """E(x_j) = integral_x^inf exp(-rate*(y-x)) psi(y) dy, product-trapezoid rule.

    The kernel is integrated exactly against the piecewise-linear interpolant
    of psi; the beyond-window remainder extends psi exponentially at right_rate
    (<= 0), giving psi(x_max)/(rate - right_rate).
    """
    b = rate * dx
    v0 = (np.exp(-b) - 1.0 + b) / b**2
    v1 = (1.0 - np.exp(-b) * (1.0 + b)) / b**2
    w = np.exp(-b)
    tail = psi[-1] / (rate - min(right_rate, 0.0))
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
    s_drop: float
    s_max_wrong_increment: float
    r_max_wrong_increment: float
    i_min: float
    i_max: float
    left_decay_rate: float
    left_decay_rel_err: float
    right_decay_rate: float
    integral_identity_spread: float
    r_end: float
    r_end_predicted: float
    r_end_rel_err: float
    r_reconstruction_max_err: float
    j_max: float
    j_min_increment: float
    j_bound_overshoot: float  # j_max - (S(-inf) - S(x_max)); <= ~0 certifies j_max <= drop
    i_le_j_margin: float


def profile_diagnostics(u: np.ndarray, grid: Grid, p: ModelParams, c: float) -> ProfileDiagnostics:
    """Diagnostics of a (3, n) profile on grid, rows S, I, R."""
    x, dx = grid.x, grid.dx
    s, i, r = u
    l0 = lambda0(c, p).lambda0

    s_inf = _s_plus_inf(s)
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

    return ProfileDiagnostics(
        s_inf=s_inf,
        s_drop=drop,
        s_max_wrong_increment=s_wrong,
        r_max_wrong_increment=r_wrong,
        i_min=float(np.min(i)),
        i_max=float(np.max(i)),
        left_decay_rate=float(left_fit),
        left_decay_rel_err=float(abs(left_fit - l0) / l0),
        right_decay_rate=float(right_fit),
        integral_identity_spread=spread,
        r_end=r_end,
        r_end_predicted=r_end_pred,
        r_end_rel_err=float(r_end_err),
        r_reconstruction_max_err=r_rec_err,
        j_max=j_max,
        j_min_increment=j_incr,
        j_bound_overshoot=j_overshoot,
        i_le_j_margin=i_le_j,
    )
