"""The damped advection-diffusion operators and their integral inverses.

For each equation i the operator D_i h = -d_i h'' + c h' + a_i h (with a shift
constant a_i large enough that both kernel exponents straddle the wave decay
rate) has an inverse given by a two-sided exponential-kernel integral. Here
D_i is discretized with centered differences and D_i^{-1} as an exponentially
weighted quadrature whose kernel ratios are the roots of the difference
stencil's own characteristic polynomial. That choice makes the inversion
identity D_i^{-1}(D_i h) = h hold exactly at interior grid points, so fixed
points of the integral map solve the discretized differential equations to the
iteration tolerance rather than to discretization accuracy, and the result
cannot depend on the bookkeeping constants a_i.

The kernel ratios differ from exp(lambda_i^{+-} dx) by O(dx^2); both the
continuum exponents and the discrete ratios are kept on the spec so either
view can be checked.

Off the window every integrand is an exponential, one rate per side (0 for a
constant, +inf on the left or -inf on the right for a vanishing tail), so each
tail sum against a kernel is one geometric series in q = exp(rate*dx).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .model import Grid, GridFunction, ModelParams
from .linear_analysis import CrossCheckFailed, envelope_image, lambda0, stencil_roots, symbol, symbol_roots


class TailIncompatible(ValueError):
    """A declared tail growth rate falls outside the kernel's convergence strip."""


class ExponentOrdering(ValueError):
    """An ordering of kernel exponents fails.

    One of lambda^- < lambda < lambda + eps < lambda^+, lambda^- < 0 < -lambda^-
    < lambda^+, |lambda_i^-| > lambda0, or lambda_i^- < -mu < mu < lambda_i^+.
    """


class ShiftFloorLost(ValueError):
    """A shift constant is not above its floor (alpha_1 > beta, alpha_2 > gamma + delta)."""


@dataclass(frozen=True)
class ResolventSpec:
    """Constants defining one operator pair (D_i, D_i^{-1}).

    lambda_minus < 0 < -lambda_minus < lambda_plus are the roots of the symbol
    f_i(lambda) = -d_i lambda^2 + c lambda + alpha, and rho = d_i*(l+ - l-)
    = sqrt(c^2 + 4 d_i alpha) normalizes the kernel.
    """

    index: int
    d: float
    c: float
    alpha: float
    lambda_minus: float
    lambda_plus: float
    rho: float

    @classmethod
    def build(cls, index: int, d: float, c: float, alpha: float) -> "ResolventSpec":
        lam_minus, lam_plus, s = symbol_roots(d, c, alpha)
        rho_diff = d * (lam_plus - lam_minus)
        if abs(rho_diff - s) > 1e-12 * s:
            raise CrossCheckFailed("the two closed forms of rho disagree")
        if not (lam_minus < 0 < -lam_minus < lam_plus):
            raise ExponentOrdering("kernel exponents lost their ordering")
        return cls(
            index=index, d=d, c=c, alpha=alpha,
            lambda_minus=lam_minus, lambda_plus=lam_plus, rho=s,
        )

    def f(self, lam: float) -> float:
        """f_i(lambda) = -d lambda^2 + c lambda + alpha; the kernel exponents are its roots."""
        return symbol(lam, self.d, self.c, self.alpha)


@dataclass(frozen=True)
class DiscreteKernel:
    """Grid-level kernel data: stencil roots z_-, z_+ and the discrete normalizer.

    z_- in (0,1) and z_+ > 1 solve E z^2 + B z + A = 0 where (A, B, E) is the
    centered stencil of D_i; the per-cell ratios play the role of
    exp(lambda_i^{+-} dx) and rho_hat = sqrt(c^2 + 4 d alpha + (alpha dx)^2).
    """

    z_minus: float
    z_plus: float
    rho_hat: float
    dx: float


def choose_alphas(p: ModelParams, c: float):
    """Pick the shift constants and build the three operator specs.

    a_i = 2*max(floor_i, d_i lambda0^2 + c lambda0) with floors (beta,
    gamma+delta, 1); doubling guarantees |lambda_i^-| > lambda0 strictly, and
    the floors keep the integrands of the fixed-point map monotone in each
    component.
    """
    roots = lambda0(c, p)
    l0 = roots.lambda0
    floors = (p.beta, p.gamma + p.delta, 1.0)
    ds = (p.d1, p.d2, p.d3)
    specs = []
    for idx, (floor, d) in enumerate(zip(floors, ds), start=1):
        alpha = 2.0 * max(floor, d * l0 * l0 + c * l0)
        spec = ResolventSpec.build(idx, d, c, alpha)
        if not (-spec.lambda_minus > l0):
            raise ExponentOrdering(f"|lambda_{idx}^-| > lambda0 failed after doubling")
        specs.append(spec)
    if not (specs[0].alpha > p.beta and specs[1].alpha > p.gamma + p.delta):
        raise ShiftFloorLost("alpha floors lost")
    return tuple(specs)


def choose_mu(specs, lam0: float) -> float:
    """Midpoint exponent of the weight exp(-mu|x|): lambda0 < mu < min_i |lambda_i^-|."""
    bound = min(-s.lambda_minus for s in specs)
    if not bound > lam0:
        raise ExponentOrdering("specs violate |lambda_i^-| > lambda0")
    mu = 0.5 * (lam0 + bound)
    for s in specs:
        if not (s.lambda_minus < -mu < mu < s.lambda_plus):
            raise ExponentOrdering("mu sandwich failed")
    return mu


def discrete_kernel(spec: ResolventSpec, dx: float) -> DiscreteKernel:
    """Stencil-matched kernel ratios for spacing dx: the stencil roots of the operator's symbol.

    Requires dx < 2*d/c so the off-diagonal stencil entries keep one sign and
    the two ratios stay positive.
    """
    d, c, alpha = spec.d, spec.c, spec.alpha
    if dx >= 2.0 * d / c:
        raise ValueError(
            f"dx = {dx} too coarse for operator {spec.index}: need dx < 2d/c = {2.0 * d / c}"
        )
    z_minus, z_plus, s = stencil_roots(d, c, alpha, dx)
    rho_hat = s * dx  # = sqrt(c^2 + 4 d alpha + (alpha dx)^2)
    return DiscreteKernel(z_minus=z_minus, z_plus=z_plus, rho_hat=rho_hat, dx=dx)


def first_order_recursion(b, ratio: float, x: np.ndarray, initial: float) -> np.ndarray:
    """y[j] = b[0]*x[j] + b[1]*x[j-1] + ratio*y[j-1] along x, with y[0] = b[0]*x[0] + initial.

    b has one or two entries. Every one-sided exponential sum of the package
    (the kernel sums here, the decay convolution of the profile diagnostics)
    runs through this one O(n) recursion.
    """
    return lfilter(b, [1.0, -ratio], x, zi=np.array([initial]))[0]


def _tail_ratio(rate: float, spec: ResolventSpec, kern: DiscreteKernel, side: str) -> float:
    """Per-cell ratio q = exp(rate*dx) of one tail, checked against the kernel strip.

    The vanishing closures (+inf on the left, -inf on the right) give q = inf
    and q = 0, whose tail sums are exactly 0; every other rate, NaN included,
    must lie inside the strip.
    """
    q = np.exp(rate * kern.dx)
    vanishing = rate == (np.inf if side == "left" else -np.inf)
    if not (vanishing or (spec.lambda_minus < rate < spec.lambda_plus and kern.z_minus < q < kern.z_plus)):
        raise TailIncompatible(
            f"{side} tail rate {rate} outside the kernel strip "
            f"({spec.lambda_minus}, {spec.lambda_plus}) of operator {spec.index}"
        )
    return q


def _tail_sums(g: np.ndarray, q_left: float, q_right: float, kern: DiscreteKernel):
    """Closed-form geometric sums of the off-window tails, of ratios q_left and q_right, against each kernel."""
    dx, zm, zp = kern.dx, kern.z_minus, kern.z_plus
    return dx * g[0] / (q_left - zm), dx * g[-1] * q_right / (zp - q_right)


def _kernel_sums(g: np.ndarray, kern: DiscreteKernel, t_left: float, t_right: float) -> np.ndarray:
    """The kernel quadrature (L_j + R_j)/rho_hat of g, i.e. D^{-1} g at the grid points.

    L_j = dx * sum_{k<=j} z_-^(j-k) g_k and R_j = dx * sum_{k>j} z_+^(j-k) g_k are the
    one-sided accumulations from the left and from the right, seeded with the analytic
    tail sums; evaluated by first-order recursions in O(n) instead of the O(n^2) double sum.
    """
    dx, zm, zp = kern.dx, kern.z_minus, kern.z_plus
    left = first_order_recursion([dx], zm, g, zm * t_left)
    w = 1.0 / zp
    right = first_order_recursion([0.0, w * dx], w, g[::-1], t_right)[::-1]
    return (left + right) / kern.rho_hat


def inverse_operator(spec: ResolventSpec, dx: float, left_rate: float, right_rate: float):
    """D^{-1} on samples of spacing dx whose tails have these rates: (values -> values, right closure).

    The kernel, the tail checks and the tail ratios are done once here, so a
    solver can apply the returned map at every iteration on plain arrays.

    The right closure (z, w) continues h = D^{-1} g one cell past the window,
    h_n = z*h_{n-1} + w*g_{n-1}: h_n = (z_- L_{n-1} + z_+ R_{n-1})/rho_hat with
    R_{n-1} the right tail sum, so z = z_- and w = (z_+ - z_-)/rho_hat per unit g_{n-1}.
    """
    kern = discrete_kernel(spec, dx)
    q_left = _tail_ratio(left_rate, spec, kern, "left")
    q_right = _tail_ratio(right_rate, spec, kern, "right")

    def invert(g: np.ndarray) -> np.ndarray:
        return _kernel_sums(g, kern, *_tail_sums(g, q_left, q_right, kern))

    unit_tail = _tail_sums(np.ones(1), q_left, q_right, kern)[1]
    return invert, (kern.z_minus, (kern.z_plus - kern.z_minus) * unit_tail / kern.rho_hat)


def apply_delta_inverse(h: GridFunction, spec: ResolventSpec) -> GridFunction:
    """inverse_operator applied to a GridFunction, its grid spacing and tail rates.

    The solvers and the checks call inverse_operator's array map directly;
    this form is kept for the benchmark tracer, which hooks it by name, as it
    hooks wave_profile.splu.
    """
    invert, _ = inverse_operator(spec, h.grid.dx, h.left_rate, h.right_rate)
    return GridFunction(h.grid, invert(h.values), h.left_rate, h.right_rate)


def delta_inverse_piecewise_g(
    spec: ResolventSpec, lam: float, eps: float, big_m: float, grid: Grid
):
    """Apply the inverse to the image of g(x) = max(e^{lam x}(1 - M e^{eps x}), 0).

    The image under D_i is envelope_image, f_i(lam) e^{lam x}
    - M f_i(lam+eps) e^{(lam+eps) x}, left of the crossover x* = -ln(M)/eps and
    zero to the right; its exact two-exponential left tail is summed here too,
    and the result must dominate g pointwise.

    Returns the arrays (result, g_samples, margins) with margins = result - g.
    """
    if not (spec.lambda_minus < lam < lam + eps < spec.lambda_plus):
        raise ExponentOrdering(
            f"need lambda_-^({spec.index}) < {lam} < {lam + eps} < lambda_+^({spec.index})"
        )
    if big_m <= 0 or eps <= 0:
        raise ValueError("M and eps must be positive")
    x_star = -np.log(big_m) / eps
    x = grid.x
    image = envelope_image(x, lam, eps, big_m, spec.d, spec.c, spec.alpha)
    # a node sitting on the crossover carries half the one-sided limit, the
    # trapezoid-consistent weight for a jump located exactly at a sample
    on_kink = np.abs(x - x_star) <= 1e-9 * max(1.0, abs(x_star))
    dg = np.where(on_kink, 0.5 * image, np.where(x < x_star, image, 0.0))

    kern = discrete_kernel(spec, grid.dx)
    dx, zm = kern.dx, kern.z_minus
    if x_star <= grid.x_min:
        t_left = 0.0
    else:
        # exact geometric sums of both exponential terms beyond the left edge
        q1 = np.exp(lam * dx)
        q2 = np.exp((lam + eps) * dx)
        t_left = dx * (
            spec.f(lam) * np.exp(lam * grid.x_min) / (q1 - zm)
            - big_m * spec.f(lam + eps) * np.exp((lam + eps) * grid.x_min) / (q2 - zm)
        )
    result = _kernel_sums(dg, kern, t_left, 0.0)

    g_vals = np.maximum(np.exp(lam * x) * (1.0 - big_m * np.exp(eps * x)), 0.0)
    return result, g_vals, result - g_vals
