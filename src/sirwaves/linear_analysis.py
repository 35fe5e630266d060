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


class ComplexRoots(ValueError):
    """Speed below the minimal one: the characteristic roots are complex."""


class SubThreshold(ValueError):
    """beta <= gamma + delta (R0 <= 1): no positive minimal speed exists."""


class NonPositiveLambda(ValueError):
    """The speed quotient is only defined for decay rates lambda > 0."""


class CrossCheckFailed(ValueError):
    """Two independent computations of one quantity disagree beyond their tolerance."""


@dataclass(frozen=True)
class CharRoots:
    """Positive roots of the characteristic function at a given speed."""

    c: float
    lambda0: float
    lambda0_plus: float
    degenerate: bool = False  # True exactly at c = c*, where the roots coincide


@dataclass(frozen=True)
class SpeedAnalysis:
    """Minimal speed and minimizer, with a full-quotient cross-check.

    c_star / lambda_star come from the closed form for the infected branch.
    full_min / full_argmin minimize the quotient over all three eigenvalue
    branches; they coincide with the closed form whenever the infected branch
    is the active maximum at the minimizer, and the discrepancy is reported
    (never hidden) when another branch dominates.
    """

    c_star: float
    lambda_star: float
    i_branch_min: float
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
    """Roots lo <= hi of the symbol and s = sqrt(c*c + 4*d*a); raises ComplexRoots when c*c + 4*d*a < 0.

    lo = -2a/(c + s) is the conjugate form of (c - s)/(2d), free of cancellation
    when c*c dominates 4*d*|a|; hi = (c + s)/(2d).
    """
    disc = c * c + 4.0 * d * a
    if disc < 0:
        raise ComplexRoots(f"c = {c} is below the minimal speed {np.sqrt(-4.0 * d * a)}: "
                           "characteristic roots are complex")
    s = np.sqrt(disc)
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


def envelope_image(x, lam: float, eps: float, m: float, d: float, c: float, a: float):
    """-d*h'' + c*h' + a*h of an envelope piece h = exp(lam*x)*(1 - m*exp(eps*x)), from the symbol."""
    return symbol(lam, d, c, a) * np.exp(lam * x) - m * symbol(lam + eps, d, c, a) * np.exp((lam + eps) * x)


def characteristic_f(lam: float, c: float, p: ModelParams) -> float:
    """f(lambda) = -d2*lambda^2 + c*lambda - q, q = p.growth_rate = beta - gamma - delta."""
    return symbol(lam, p.d2, c, -p.growth_rate)


def lambda0(c: float, p: ModelParams) -> CharRoots:
    """Both positive roots of f at speed c; raises ComplexRoots below the minimal speed.

    Raises SubThreshold unless p.growth_rate > 0 (R0 > 1). The smaller root is the
    conjugate form of symbol_roots, free of cancellation for c much larger than
    the minimal speed.
    """
    q = p.growth_rate
    if q <= 0:
        raise SubThreshold("beta <= gamma + delta: no wave decay rate exists")
    lam_small, lam_large, s = symbol_roots(p.d2, c, -q)
    degenerate = bool(s <= 1e-13 * max(1.0, c))
    return CharRoots(c=float(c), lambda0=float(lam_small), lambda0_plus=float(lam_large), degenerate=degenerate)


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
    """Minimize a unimodal scalar function on [lo, hi]; returns (argmin, min)."""
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
    """Minimal front speed c* = 2*sqrt(d2*q), q = p.growth_rate, with numerical cross-checks.

    Raises SubThreshold unless q > 0 (R0 > 1). Golden-section minimization of the
    infected branch must agree with the closed form to 1e-8 relative; the full
    three-branch quotient is minimized as well and reported separately, since a
    dominant d1 or d3 branch can push the full minimum above the infected-branch value.
    """
    q = p.growth_rate
    if q <= 0:
        raise SubThreshold(
            f"beta - gamma - delta = {q} <= 0 (R0 <= 1): no minimal wave speed"
        )
    c_star = 2.0 * np.sqrt(p.d2 * q)
    lam_star = np.sqrt(q / p.d2)

    # the quotient blows up at 0 and infinity; every branch's minimizer is at
    # least lam_star*sqrt(d2/max(d1, d2, d3)), so the bracket, the tolerance
    # and the first sample shrink with it when R0 is close to 1
    lam_hi = 10.0 * max(1.0, lam_star)
    lam_floor = 0.1 * lam_star * np.sqrt(p.d2 / max(p.d1, p.d2, p.d3))
    lam_lo = min(1e-6, lam_floor)
    tol = min(1e-12, 1e-6 * lam_lo)
    i_branch = lambda lam: (p.d2 * lam * lam + q) / lam
    _, gs_min = golden_section(i_branch, lam_lo, lam_hi, tol)
    if abs(gs_min - c_star) > 1e-8 * c_star:
        raise CrossCheckFailed(
            f"golden-section minimum {gs_min} disagrees with closed form {c_star}"
        )

    full_argmin, full_min = golden_section(lambda lam: phi(lam, p), lam_lo, lam_hi, tol)
    active = abs(phi(lam_star, p) - i_branch(lam_star)) <= 1e-12 * max(1.0, c_star)

    samples = None
    if n_samples > 0:
        lams = np.geomspace(min(1e-3, lam_floor), lam_hi, n_samples)
        samples = tuple((float(l), float(phi(l, p))) for l in lams)

    return SpeedAnalysis(
        c_star=c_star,
        lambda_star=lam_star,
        i_branch_min=gs_min,
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
