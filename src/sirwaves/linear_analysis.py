"""Everything derived from linearizing at the invaded disease-free state.

Every linear operator of the package is h -> -d*h'' + c*h' + a*h, of symbol
P(lambda; d, c, a) = -d*lambda^2 + c*lambda + a; the roots of P and of its
centred stencil are the rates and per-cell ratios it annihilates. The infected
equation linearized at (s_minus_inf, 0, 0) is d = d2, a = -(beta-gamma-delta):
the characteristic function f, whose smaller positive root is the leading-edge
decay rate of the front; minimizing the growth-rate quotient over decay rates
gives the minimal front speed c* = 2*sqrt(d2*(beta-gamma-delta)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, wave_operator


class NoFront(ValueError):
    """The envelope construction does not apply at (p, c), so no front is solved for there; see front_roots."""


class ComplexRoots(NoFront):
    """Speed below the minimal one: no front decays at a positive real rate."""


class SubThreshold(NoFront):
    """beta <= gamma + delta (R0 <= 1): no positive minimal speed exists."""


class OutsideHypothesis(NoFront):
    """d3 >= 2*d2: the envelope construction's hypothesis d3 < 2*d2 fails."""


class NonPositiveLambda(ValueError):
    """The speed quotient is only defined for decay rates lambda > 0."""


@dataclass(frozen=True)
class CharRoots:
    """Positive roots of the characteristic function at a given speed."""

    c: float
    lambda0: float
    lambda0_plus: float
    degenerate: bool = False  # True at c = c*, where both roots are lambda*


@dataclass(frozen=True)
class SpeedAnalysis:
    """Minimal speed c_star at lambda_star, the infected branch's minimum, and phi's minimum full_min at full_argmin.

    The two minima coincide when the infected branch is active there; a
    dominant d1 or d3 branch gives a larger full_min, reported, never hidden.
    """

    c_star: float
    lambda_star: float
    full_min: float
    full_argmin: float
    i_branch_active_at_minimizer: bool
    phi_samples: tuple | None = None


@dataclass(frozen=True)
class D3Report:
    """Outcome of the d3 < 2*d2 check and of the implied inequality c - d3*lambda0 > 0."""

    satisfied: bool
    implied_positive: bool
    lambda0: float
    c_minus_d3_lambda0: float


def symbol(lam, d: float, c: float, a: float):
    """P(lambda; d, c, a) = -d*lambda^2 + c*lambda + a, the symbol of h -> -d*h'' + c*h' + a*h."""
    return -d * lam * lam + c * lam + a


def symbol_roots(d: float, c: float, a: float):
    """Roots lo < hi of the symbol and s = sqrt(c*c + 4*d*a), for c*c + 4*d*a > 0.

    lo = -2a/(c + s) is the conjugate form of (c - s)/(2d), free of cancellation
    when c*c dominates 4*d*|a|; hi = (c + s)/(2d).
    """
    s = np.sqrt(c * c + 4.0 * d * a)
    return -2.0 * a / (c + s), (c + s) / (2.0 * d), s


def stencil_roots(d: float, c: float, a: float, dx: float):
    """Roots z_lo <= z_hi of the symbol's centred stencil on spacing dx, and its discriminant root s.

    h_j = z^j solves the centred -d*h'' + c*h' + a*h = 0 exactly when
    E*z^2 + B*z + A = 0, with (A, B, E) the weights of h[j-1], h[j], h[j+1];
    z stands for exp(lambda*dx). s*dx = sqrt(c^2 + 4*d*a + (a*dx)^2) is real
    wherever the symbol's roots are, and for dx < 2d/c then 0 < z_lo <= z_hi.
    """
    # the stencil of a minus the wave operator d*h'' - c*h'
    w = wave_operator(np.eye(3), d, c, dx)[:, 0]
    A, B, E = -w[0], a - w[1], -w[2]
    s = np.sqrt(B * B - 4.0 * A * E)
    return -2.0 * A / (B + s), (B + s) / (-2.0 * E), s


def envelope(x, amp: float, lam: float, eps: float, m: float):
    """The envelope piece max(amp*exp(lam*x)*(1 - m*exp(eps*x)), 0); m = 0 gives amp*exp(lam*x) itself."""
    cut = 1.0 - m * np.exp(eps * x) if m else 1.0
    return np.maximum(amp * np.exp(lam * x) * cut, 0.0)


def envelope_image(x, lam: float, eps: float, m: float, d: float, c: float, a: float):
    """-d*h'' + c*h' + a*h of an envelope piece h = exp(lam*x)*(1 - m*exp(eps*x)), from the symbol."""
    return symbol(lam, d, c, a) * np.exp(lam * x) - m * symbol(lam + eps, d, c, a) * np.exp((lam + eps) * x)


def characteristic_f(lam: float, c: float, p: ModelParams) -> float:
    """f(lambda) = -d2*lambda^2 + c*lambda - q, q = p.growth_rate = beta - gamma - delta."""
    return symbol(lam, p.d2, c, -p.growth_rate)


def lambda0(c: float, p: ModelParams) -> CharRoots:
    """Both positive roots of f at speed c, decided against minimal_speed(p)'s c* and lambda*.

    Raises SubThreshold unless p.growth_rate > 0 (R0 > 1) and ComplexRoots for c < c*.
    At c = c*, and above it where c*c - 4*d2*q rounds to <= 0, both roots are lambda*
    (degenerate); otherwise symbol_roots gives them, the smaller free of cancellation.
    """
    speed = minimal_speed(p)
    if c < speed.c_star:
        raise ComplexRoots(f"c = {c} is below the minimal speed {speed.c_star}")
    q = p.growth_rate
    if c == speed.c_star or c * c - 4.0 * p.d2 * q <= 0:
        lam = float(speed.lambda_star)
        return CharRoots(c=float(c), lambda0=lam, lambda0_plus=lam, degenerate=True)
    lam_small, lam_large, _ = symbol_roots(p.d2, c, -q)
    return CharRoots(c=float(c), lambda0=float(lam_small), lambda0_plus=float(lam_large))


def jacobian_dfe(p: ModelParams) -> np.ndarray:
    """Jacobian of the reaction terms at the invaded disease-free state (S_-inf, 0, 0)."""
    return np.array(
        [
            [0.0, -p.beta, 0.0],
            [0.0, p.growth_rate, 0.0],
            [0.0, p.gamma, 0.0],
        ]
    )


def a_lambda_matrix(lam: float, p: ModelParams) -> np.ndarray:
    """diag(d_i lambda^2) plus the disease-free Jacobian."""
    return np.diag([p.d1 * lam * lam, p.d2 * lam * lam, p.d3 * lam * lam]) + jacobian_dfe(p)


def a_lambda_eigenvalues(lam: float, p: ModelParams):
    """Eigenvalues of the parameterized matrix in equation order.

    The matrix is triangular up to its coupling column, so the eigenvalues are
    (d1*lam^2, d2*lam^2 + beta - gamma - delta, d3*lam^2).
    """
    if lam < 0:
        raise NonPositiveLambda("lambda must be >= 0")
    return (p.d1 * lam * lam, p.d2 * lam * lam + p.growth_rate, p.d3 * lam * lam)


def phi(lam: float, p: ModelParams) -> float:
    """Speed quotient: largest eigenvalue of the parameterized matrix divided by lambda."""
    if lam <= 0:
        raise NonPositiveLambda("phi is defined for lambda > 0 only")
    return max(a_lambda_eigenvalues(lam, p)) / lam


def golden_section(fn, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 400):
    """Minimize a unimodal scalar function on [lo, hi]; returns (argmin, min). Used by wave_profile.align_profiles."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(max_iter):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fn(x2)
    xm = 0.5 * (a + b)
    return xm, fn(xm)


def minimal_speed(p: ModelParams, n_samples: int = 0) -> SpeedAnalysis:
    """Minimal front speed c* = 2*sqrt(d2*q) at lambda* = sqrt(q/d2), q = p.growth_rate, and phi's minimum.

    Raises SubThreshold unless q > 0 (R0 > 1). The one place c* and lambda*
    are formed: every "is c above c*?" reads them here. phi(l) = max(d1*l,
    d2*l + q/l, d3*l) and the outer branches rise with l, so with D =
    max(d1, d3) the infected branch is active at lambda* exactly when
    D <= 2*d2; otherwise phi is least where D*l meets it, at sqrt(q/(D - d2)).
    n_samples > 0 adds that many samples of phi, geometrically spaced.
    """
    q = p.growth_rate
    if q <= 0:
        raise SubThreshold(f"beta - gamma - delta = {q} <= 0 (R0 <= 1): no minimal wave speed")
    c_star = 2.0 * np.sqrt(p.d2 * q)
    lam_star = np.sqrt(q / p.d2)

    outer = max(p.d1, p.d3)
    active = outer <= 2.0 * p.d2
    full_argmin = lam_star if active else np.sqrt(q / (outer - p.d2))
    full_min = c_star if active else outer * full_argmin

    samples = None
    if n_samples > 0:
        # every branch's minimizer is at least lam_star*sqrt(d2/max(d1, d2, d3)),
        # so the first sample sits below the minimizer even when R0 is close to 1
        lam_floor = 0.1 * lam_star * np.sqrt(p.d2 / max(p.d1, p.d2, p.d3))
        lams = np.geomspace(min(1e-3, lam_floor), 10.0 * max(1.0, lam_star), n_samples)
        samples = tuple((float(l), float(phi(l, p))) for l in lams)

    return SpeedAnalysis(
        c_star=c_star,
        lambda_star=lam_star,
        full_min=full_min,
        full_argmin=full_argmin,
        i_branch_active_at_minimizer=bool(active),
        phi_samples=samples,
    )


def check_d3_condition(p: ModelParams, c: float) -> D3Report:
    """Check d3 < 2*d2 and, independently, the implied inequality c - d3*lambda0 > 0."""
    roots = lambda0(c, p)
    prod = c - p.d3 * roots.lambda0
    return D3Report(
        satisfied=bool(p.d3 < 2.0 * p.d2),
        implied_positive=bool(prod > 0),
        lambda0=roots.lambda0,
        c_minus_d3_lambda0=float(prod),
    )


def front_roots(c: float, p: ModelParams) -> CharRoots:
    """The roots at speed c where the envelope construction applies: the one decision of where a front is solved for.

    Otherwise raises, in this order, SubThreshold (R0 <= 1), ComplexRoots
    (c < c*), OutsideHypothesis (d3 >= 2*d2) or, at c = c*, a plain NoFront.
    """
    roots = lambda0(c, p)
    if not check_d3_condition(p, c).satisfied:
        raise OutsideHypothesis(
            f"d3 = {p.d3} is not below 2*d2 = {2.0 * p.d2}; the envelope construction needs d3 < 2*d2")
    if roots.degenerate:
        raise NoFront(f"c = {c} is the minimal speed; the envelope construction needs c > c*")
    return roots
