"""Model parameters, grids, grid functions with their tail rates, the standard-incidence reaction terms and the stencils.

Everything here is an immutable value object; the other modules build on these
without mutating them, so instances are safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Guard level below which the total population counts as extinct and the
# incidence is pinned to its physical limit 0 (SI/N <= min(S, I)).
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
    def wave_regime(self) -> bool:
        """True iff fronts can exist: R0 > 1 together with d3 < 2*d2."""
        return self.beta / (self.gamma + self.delta) > 1.0 and self.d3 < 2.0 * self.d2


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
    the broadcast shape, receives the values and is returned. When every total
    is above the guard (no extinct point, no nan), the pinning is skipped: the
    values are the same, without the two masked passes. The total is the one
    temporary array.
    """
    s = np.asarray(s, dtype=float)
    i = np.asarray(i, dtype=float)
    r = np.asarray(r, dtype=float)
    n = s + i
    n += r
    if out is None:
        out = np.empty(n.shape)
    if n.size and n.min() > ETA_DEFAULT:
        np.multiply(s, beta, out=out)
        out *= i
        out /= n
    else:
        safe = np.where(n > ETA_DEFAULT, n, 1.0)
        out[...] = np.where(n > ETA_DEFAULT, beta * s * i / safe, 0.0)
    return out if out.ndim else float(out)


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


def centered_difference(y: np.ndarray, order: int) -> np.ndarray:
    """Interior centred difference y[j+1] - 2y[j] + y[j-1] (order 2) or y[j+1] - y[j-1] (order 1).

    Taken along the last axis for j = 1..n-2, it is dx^2 or 2*dx times the derivative;
    edge_difference closes the ends. On the rows of np.eye(3) it gives the weights.
    """
    if order == 2:
        return y[..., 2:] - 2.0 * y[..., 1:-1] + y[..., :-2]
    if order == 1:
        return y[..., 2:] - y[..., :-2]
    raise ValueError(f"centred differences have order 1 or 2, not {order}")


def wave_operator(y: np.ndarray, d, c: float, dx: float) -> np.ndarray:
    """Centred discretization of the linear wave operator d*y'' - c*y' at j = 1..n-2 of the last axis.

    d broadcasts against y[..., 1:-1], so a (3, 1) column gives one rate per species; c = 0
    gives diffusion. On the rows of np.eye(3) it gives the weights of y[j-1], y[j], y[j+1].
    """
    return d * centered_difference(y, 2) / dx**2 - c * centered_difference(y, 1) / (2.0 * dx)


def edge_difference(y: np.ndarray, dx: float):
    """Second-order one-sided first derivatives (y'(x_0), y'(x_{n-1})) along the last axis.

    These close the wave operator at the two ends of the window. On the rows of
    np.eye(3) they give the weights of (y[0], y[1], y[2]) and of (y[-3], y[-2], y[-1]).
    """
    left = (-3.0 * y[..., 0] + 4.0 * y[..., 1] - y[..., 2]) / (2.0 * dx)
    right = (3.0 * y[..., -1] - 4.0 * y[..., -2] + y[..., -3]) / (2.0 * dx)
    return left, right
