"""Model parameters, grids, grid functions with their tail rates, the standard-incidence reaction terms and the wave stencil.

Everything here is an immutable value object; the other modules build on these
without mutating them, so instances are safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Guard level below which the total population counts as extinct and the
# incidence and its partials are pinned to 0, its physical limit (SI/N <= min(S, I)).
ETA_DEFAULT = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Diffusion rates, epidemiological rates and the left-limit susceptible level.

    d1, d2, d3  diffusion of susceptible / infected / removed (length^2/time)
    beta        transmission rate (1/time)
    gamma       recovery rate (1/time)
    delta       death or quarantine rate of infectives (1/time, may be 0)
    s_minus_inf susceptible density far ahead of the front (individuals/length)
    """

    d1: float
    d2: float
    d3: float
    beta: float
    gamma: float
    delta: float
    s_minus_inf: float

    def __post_init__(self):
        for name in ("d1", "d2", "d3", "beta", "gamma", "s_minus_inf"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if not (np.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")

    @property
    def growth_rate(self) -> float:
        """q = beta - gamma - delta, the linearization's one number at the disease-free state; R0 > 1 iff q > 0."""
        return self.beta - self.gamma - self.delta


def check_spacing(dx: float) -> None:
    """Raise ValueError unless the grid spacing dx is finite and positive."""
    if not (np.isfinite(dx) and dx > 0):
        raise ValueError(f"grid spacing dx must be finite and positive, got {dx}")


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on [x_min, x_max] with the origin strictly inside.

    The origin must be interior because the envelope functions used by the
    profile solver are anchored at x = 0.
    """

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not (self.x_min < 0.0 < self.x_max):
            raise ValueError("grid window must contain 0 strictly inside")
        if self.n < 3:
            raise ValueError("grid needs at least 3 points")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        pts = self.x_min + self.dx * np.arange(self.n)
        pts.flags.writeable = False
        return pts

    @classmethod
    def symmetric(cls, half_width: float, dx: float) -> "Grid":
        """Window [-half_width, half_width] with spacing as close to dx as possible."""
        check_spacing(dx)
        if not np.isfinite(half_width):
            raise ValueError(f"grid half-width must be finite, got {half_width}")
        n = int(round(2.0 * half_width / dx)) + 1
        return cls(-half_width, half_width, n)


@dataclass(frozen=True)
class GridFunction:
    """Samples of a real function on a Grid plus one exponential tail rate per side.

    Beyond an edge the function is its edge value times exp(rate*(x - edge)):
    rate 0.0 continues it as a constant, +inf on the left and -inf on the right
    as zero. These closures cover every function the resolvent operators
    transport: susceptible-like plateaus and pure exponentials of the
    infected/removed type. It is the input of resolvent.apply_delta_inverse;
    the solvers pass the samples and the two rates to inverse_operator as
    plain arrays and floats.
    """

    grid: Grid
    values: np.ndarray
    left_rate: float = 0.0
    right_rate: float = 0.0

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function values must all be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def r_naught(p: ModelParams) -> float:
    """Basic reproduction number beta/(gamma + delta)."""
    return p.beta / (p.gamma + p.delta)


def incidence(s, i, r, beta: float, out=None):
    """Standard incidence beta*S*I/(S+I+R), pinned to 0 where the population is extinct.

    Works elementwise on arrays; scalars in give a scalar out. out, an array of
    the broadcast shape, receives the values and is returned. The total is the
    one temporary array.
    """
    s = np.asarray(s, dtype=float)
    i = np.asarray(i, dtype=float)
    r = np.asarray(r, dtype=float)
    n = np.asarray(s + i)
    n += r
    if out is None:
        out = np.empty(n.shape)
    extinct = _guard(n)
    np.multiply(s, beta, out=out)
    out *= i
    out /= n
    if extinct is not None:
        out[extinct] = 0.0
    return out if out.ndim else float(out)


def incidence_partials(s, i, r, beta: float, out: np.ndarray) -> np.ndarray:
    """Partials of the incidence in S, I and R, written into the rows of the (3, n) out and returned.

    With N = S+I+R they are beta*I*(I+R)/N^2, beta*S*(S+R)/N^2 and -beta*S*I/N^2:
    at nonnegative states 0 <= d/dS <= beta, 0 <= d/dI <= beta and -beta <= d/dR <= 0.
    They are 0 where incidence is pinned to 0. N^2 is the one temporary array.
    """
    d_s, d_i, d_r = out
    square = s + i
    square += r
    extinct = _guard(square)
    square *= square
    np.add(i, r, out=d_r)  # scratch until the last partial
    np.multiply(i, beta, out=d_s)
    d_s *= d_r
    d_s /= square
    np.add(s, r, out=d_r)
    np.multiply(s, beta, out=d_i)
    d_i *= d_r
    d_i /= square
    np.multiply(s, -beta, out=d_r)
    d_r *= i
    d_r /= square
    if extinct is not None:
        out[:, extinct] = 0.0
    return out


def _guard(total: np.ndarray):
    """Mask of the totals S+I+R not above ETA_DEFAULT (nan included), set to 1 in place; None if there is none."""
    if total.size and total.min() > ETA_DEFAULT:
        return None
    extinct = ~(total > ETA_DEFAULT)
    total[extinct] = 1.0
    return extinct


def reaction_terms(s, i, r, p: ModelParams, out=None):
    """Reaction parts of the three equations: (-incidence, incidence-(gamma+delta)*I, gamma*I).

    The three components sum to -delta*I exactly; with delta = 0 the local
    population is conserved. Works elementwise on arrays; scalars in give
    scalars out. out, a (3, n) array, receives the three rows and is
    returned: the same terms in the same operation order, with no array
    allocated but incidence's total.
    """
    i = np.asarray(i, dtype=float)
    if out is None:
        inc = incidence(s, i, r, p.beta)
        return -inc, inc - (p.gamma + p.delta) * i, p.gamma * i
    inc, removed = out[1], out[2]
    incidence(s, i, r, p.beta, out=inc)
    np.multiply(i, p.gamma + p.delta, out=removed)  # scratch until the last line
    np.negative(inc, out=out[0])
    inc -= removed
    np.multiply(i, p.gamma, out=removed)
    return out


def wave_operator(y: np.ndarray, d, c: float, dx: float) -> np.ndarray:
    """Centred discretization of the linear wave operator d*y'' - c*y' at j = 1..n-2 of the last axis.

    d broadcasts against y[..., 1:-1], so a (3, 1) column gives one rate per species; c = 0
    gives diffusion. On the rows of np.eye(3) it gives the weights of y[j-1], y[j], y[j+1].
    """
    return (d * (y[..., 2:] - 2.0 * y[..., 1:-1] + y[..., :-2]) / dx**2
            - c * (y[..., 2:] - y[..., :-2]) / (2.0 * dx))
