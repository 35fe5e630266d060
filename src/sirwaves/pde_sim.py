"""Direct simulation of the reaction-diffusion system on a closed 1-D domain.

Centred second differences with reflecting (no-flux) ends in space; in time,
Strang splitting: half a step of diffusion by the L-stable TR-BDF2 scheme,
a full step of the pointwise reaction by classical RK4, and the second
diffusion half step (Hundsdorfer & Verwer 2003). Diffusion is implicit, so
the step is limited by the reaction rates alone and not by dx. Used to
measure spreading fronts against the linear prediction and to run the
falsification experiments: no front survives below the minimal speed, and with
R0 <= 1 every outbreak dies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .model import Grid, ModelParams, reaction_terms, wave_operator
from .linear_analysis import SubThreshold, lambda0, minimal_speed


class StabilityViolated(ValueError):
    """The requested time step exceeds the stability limit of the RK4 reaction step."""


class FrontHitBoundary(RuntimeError):
    """The front reached the right edge: speed fits from this run are unusable."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


# Automatic step and largest accepted step, as multiples of 1/(beta+gamma+delta),
# the fastest reaction rate. The classical RK4 step is stable up to about 2.79/rate
# on a real decay. At the automatic step the split scheme is within about 4.3e-6 of
# explicit RK4 on the same grid (tests/test_pde_sim.py, dt refinement).
AUTO_STEP = 0.3
STEP_LIMIT = 2.0

# Samples of a run are reduced in blocks of this many rows: a fixed buffer, so
# the memory of a run does not grow with its sample count.
SAMPLE_BLOCK = 16
# A sample locates the tracked front for the boundary stop only when I reaches
# the level at one of this many points nearest the right edge. Otherwise the
# front lies left of x[n - EDGE_POINTS] = x_max - 11*dx, short of x_max - 10*dx.
EDGE_POINTS = 12
# Front speeds are fitted over the last FIT_WINDOW fraction of the usable trace.
FIT_WINDOW = 0.5
# Full fields are stored evenly over a run, at most N_SNAPSHOTS + 1 times.
N_SNAPSHOTS = 9

# TR-BDF2 stage fraction: a trapezoid stage over TRBDF2_GAMMA of the step, then
# BDF2 over the rest. With this choice both stages solve with the same matrix
# I - (TRBDF2_GAMMA/2)*h*A, and the scheme is L-stable.
TRBDF2_GAMMA = 2.0 - np.sqrt(2.0)


@dataclass(frozen=True)
class PulseIC:
    """Gaussian infected pulse on an otherwise uniform susceptible background.

    S = S_-inf - I so the total population starts uniform, R = 0.
    center/amplitude default to x_min + span/4 and 0.01*S_-inf.
    """

    center: float | None = None
    width: float = 2.0
    amplitude: float | None = None


@dataclass(frozen=True)
class SimConfig:
    params: ModelParams
    grid: Grid
    t_end: float
    dt: float | None = None  # None = automatic from the reaction rates
    ic: PulseIC = field(default_factory=PulseIC)
    front_threshold: float = 1e-4  # tracking level as a fraction of S_-inf
    n_outputs: int = 200  # front-trace samples over the run

    def __post_init__(self):
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
        count = self.n_outputs
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
            raise ValueError(f"n_outputs must be a positive integer, got {count!r}")
        if self.dt is not None:
            if not self.dt > 0:
                raise ValueError(f"dt must be positive, got {self.dt}")
            if self.dt > self.dt_bound:
                raise StabilityViolated(f"dt = {self.dt} exceeds the stability bound {self.dt_bound}")
        ic = self.ic
        if not (np.isfinite(ic.width) and ic.width > 0):
            raise ValueError(f"pulse width must be finite and positive, got {ic.width}")
        if ic.amplitude is not None and not (np.isfinite(ic.amplitude) and ic.amplitude > 0):
            raise ValueError(f"pulse amplitude must be finite and positive, got {ic.amplitude}")
        if not (np.isfinite(self.front_threshold) and self.front_threshold > 0):
            raise ValueError(f"front threshold must be finite and positive, got {self.front_threshold}")
        center = self.ic_center
        if not (self.grid.x_min + 3 * ic.width < center < self.grid.x_max - 3 * ic.width):
            raise ValueError("initial pulse must sit well inside the window")

    @property
    def _reaction_rate(self) -> float:
        p = self.params
        return p.beta + p.gamma + p.delta

    @property
    def dt_bound(self) -> float:
        """Largest accepted step: RK4 stability on the reaction. Implicit diffusion sets no bound."""
        return STEP_LIMIT / self._reaction_rate

    def time_steps(self) -> tuple[float, int]:
        """Step size and count: t_end split evenly under the requested or automatic step."""
        dt = AUTO_STEP / self._reaction_rate if self.dt is None else self.dt
        # a count within roundoff of a whole number is not rounded up: 10/(0.3/3) = 100, not 101
        n_steps = max(1, int(np.ceil(self.t_end / dt * (1.0 - 1e-12))))
        return self.t_end / n_steps, n_steps

    @property
    def ic_center(self) -> float:
        if self.ic.center is not None:
            return self.ic.center
        return self.grid.x_min + 0.25 * (self.grid.x_max - self.grid.x_min)

    @property
    def ic_amplitude(self) -> float:
        if self.ic.amplitude is not None:
            return self.ic.amplitude
        return 0.01 * self.params.s_minus_inf

    @property
    def threshold(self) -> float:
        return self.front_threshold * self.params.s_minus_inf

    def initial_state(self) -> np.ndarray:
        x = self.grid.x
        i0 = self.ic_amplitude * np.exp(-((x - self.ic_center) / self.ic.width) ** 2)
        s0 = self.params.s_minus_inf - i0
        return np.array([s0, i0, np.zeros_like(x)])


@dataclass
class FrontTrace:
    """Rightmost threshold crossing of I over time with a late-window speed fit.

    pulled_front_speed is what a front pulled by the linearization averages
    over the same window (see _pulled_front_speed); nan when R0 <= 1 or there
    is no window to fit.
    """

    times: np.ndarray
    positions: np.ndarray
    threshold: float
    speed_fit: float
    speed_stderr: float
    hit_boundary: bool = False
    pulled_front_speed: float = np.nan


@dataclass
class SimResult:
    config: SimConfig
    final: np.ndarray  # (3, n) fields at the last step, rows S, I, R
    trace: FrontTrace
    mass_times: np.ndarray
    mass_total: np.ndarray  # integral of S+I+R
    mass_infected: np.ndarray  # integral of I
    i_max_trace: np.ndarray
    clipped_mass: float
    min_value: float  # smallest field value any step produced, before clipping
    snapshots: list  # (t, (3, n) array) pairs
    threshold_speeds: dict  # speed fits at 1e-3/1e-4/1e-5 of S_-inf
    dt: float  # the split step size
    steps: int  # split steps taken, fewer than the configured count after a boundary stop

    @property
    def outcome(self) -> str:
        if self.config.params.growth_rate <= 0 or not np.isfinite(self.trace.speed_fit):
            return "extinction" if self.i_max_trace[-1] < self.i_max_trace[0] else "no_front"
        return "front"


def _diffusion_bands(p: ModelParams, dx: float, n: int):
    """Bands (lower, diagonal, upper) of the no-flux diffusion operator, the three species stacked.

    Each species' block is the wave operator at c = 0, d_k*y'', with
    mirror-ghost end rows (y[-1] = y[1], y[n] = y[n-2]) folding the ghost's
    weight onto the neighbour. The blocks are stacked into one 3n system with
    zero coupling between them, so one tridiagonal solve serves all three.
    """
    weights = [wave_operator(np.eye(3), d, 0.0, dx)[:, 0] for d in (p.d1, p.d2, p.d3)]
    w_lo, w_mid, w_hi = np.array(weights).T  # per species, the weights of y[j-1], y[j], y[j+1]
    lower = np.outer(w_lo, np.ones(n))
    lower[:, 0], lower[:, -1] = 0.0, w_lo + w_hi  # row 0 has no left neighbour in its block
    upper = np.outer(w_hi, np.ones(n))
    upper[:, 0], upper[:, -1] = w_lo + w_hi, 0.0  # row n-1 has no right neighbour in its block
    return lower.ravel()[1:], np.outer(w_mid, np.ones(n)).ravel(), upper.ravel()[:-1]


def _reaction_rk4(state: np.ndarray, dt: float, p: ModelParams, stages: np.ndarray) -> np.ndarray:
    """Classical RK4 on the pointwise reaction terms of the (3, n) state, stepped in place.

    stages is a (5, 3, n) work array: rows 0-3 take the four stage slopes and
    row 4 the stage arguments. The weighted sum of the stages is formed in
    place, in the textbook order, and added to state, which is returned.
    """
    k1, k2, k3, k4, arg = stages
    reaction_terms(*state, p, out=k1)
    np.multiply(k1, 0.5 * dt, out=arg)
    arg += state
    reaction_terms(*arg, p, out=k2)
    np.multiply(k2, 0.5 * dt, out=arg)
    arg += state
    reaction_terms(*arg, p, out=k3)
    np.multiply(k3, dt, out=arg)
    arg += state
    reaction_terms(*arg, p, out=k4)
    k2 *= 2.0
    k3 *= 2.0
    k1 += k2
    k1 += k3
    k1 += k4
    k1 *= dt / 6.0
    state += k1
    return state


def _strang_step(p: ModelParams, dx: float, n: int, dt: float):
    """The map state -> state of one split step of size dt on an n-point grid.

    Half a step of diffusion by TR-BDF2, a full reaction step by RK4, and the
    second diffusion half step. Both TR-BDF2 stages solve with the matrix
    M = I - a*A, a = (TRBDF2_GAMMA/2)*(dt/2). Scaled by the trapezoid weights W
    (1/2 at each block's ends, 1 inside), W - a*W*A is symmetric positive
    definite, so it is factored once here by LDL^T and every solve is O(n).

    A half step applies the operator once, s = a*W*A u. The trapezoid stage
    solves (W - a*W*A) d1 = 2*s; since then a*A*(u + d1) = d1 - a*A*u, the
    BDF2 stage's right side c_old*d1 + a*A*u* is (1 + c_old)*d1 - a*A*u and
    needs no second application. A uniform state gives s = 0 exactly (a row
    of a*W*A is -2q, q, q, or -q, q at a block's end), so it stays exactly
    uniform; since W*A has zero column sums, each half step conserves the
    trapezoid-rule mass of every species to roundoff.

    Every buffer is built here, so a step allocates no array but the total
    S+I+R of each reaction stage: the map returns its own (3, n) state
    buffer, which the next call overwrites, and handed that buffer back it
    steps it without a copy.
    """
    _, diag, upper = _diffusion_bands(p, dx, n)
    g = TRBDF2_GAMMA
    a = 0.5 * g * (0.5 * dt)  # trapezoid weight of the half step's operator
    w = np.ones(n)
    w[[0, -1]] = 0.5
    w = np.tile(w, 3)
    # bands of a*W*A; it is symmetric, w[:-1]*upper == w[1:]*lower, so one off-diagonal serves both
    a_diag = a * w * diag
    a_off = a * w[:-1] * upper
    d, e = dpttrf(w - a_diag, -a_off)[:2]
    # BDF2 weight of the old state: (I - a*A) u_new = u_star/(g(2-g)) - c_old*u
    c_old = (1.0 - g) ** 2 / (g * (2.0 - g))
    cw = (1.0 + c_old) * w
    u = np.empty(3 * n)  # the state, stepped in place
    s = np.empty(3 * n)  # a*W*A u
    inc = np.empty(3 * n)  # each TR-BDF2 stage's increment
    prod = np.empty(3 * n - 1)  # the off-diagonal times the shifted state
    stages = np.empty((5, 3, n))

    def diffuse(v):
        np.multiply(a_diag, v, out=s)
        np.multiply(a_off, v[1:], out=prod)
        s[:-1] += prod
        np.multiply(a_off, v[:-1], out=prod)
        s[1:] += prod
        # both stages solved for the increment; inc is contiguous float64, so solved in place
        np.add(s, s, out=inc)
        dpttrs(d, e, inc, overwrite_b=1)
        v += inc
        np.multiply(inc, cw, out=inc)
        np.subtract(inc, s, out=inc)
        dpttrs(d, e, inc, overwrite_b=1)
        v += inc

    state_u = u.reshape(3, n)

    def step(state):
        if state is not state_u:
            np.copyto(state_u, state)
        diffuse(u)
        _reaction_rk4(state_u, dt, p, stages)
        diffuse(u)
        return state_u

    return step


def front_position(x: np.ndarray, i_vals: np.ndarray, threshold):
    """Rightmost crossing of the threshold, linearly interpolated; nan if none.

    threshold may be an array of levels, which gives an array of crossings,
    each the one its level alone gives; a scalar level gives a float.
    i_vals may be a stack of rows (m, n), which gives one crossing per row and
    level, shape (m, *levels.shape), each the one its row alone gives.
    """
    levels = np.asarray(threshold, dtype=float)
    lv = levels.ravel()
    rows = i_vals.reshape(-1, len(x))
    last = len(x) - 1
    above = rows[:, None, :] >= lv[:, None]  # (rows, levels, points)
    k = last - above[..., ::-1].argmax(axis=-1)  # rightmost point at or above (last if none)
    inside = k < last  # below the rightmost crossing I falls under the level, so y1 < y0 there
    k1 = k + inside
    y0, y1 = np.take_along_axis(rows, k, axis=1), np.take_along_axis(rows, k1, axis=1)
    frac = np.divide(lv - y0, y1 - y0, out=np.zeros(k.shape), where=inside)
    pos = np.where(y0 >= lv, x[k] + frac * (x[k1] - x[k]), np.nan)
    if i_vals.ndim == 1 and not levels.ndim:
        return float(pos[0, 0])
    return pos.reshape(i_vals.shape[:-1] + levels.shape)


def _fit_window(times: np.ndarray, positions: np.ndarray):
    """The finite samples over the last FIT_WINDOW fraction of the usable trace."""
    ok = np.isfinite(positions)
    t, xp = times[ok], positions[ok]
    start = int(np.floor((1.0 - FIT_WINDOW) * len(t)))
    return t[start:], xp[start:]


def _fit_speed(times: np.ndarray, positions: np.ndarray):
    """Least-squares slope over the last FIT_WINDOW fraction of the usable trace."""
    t, xp = _fit_window(times, positions)
    if len(t) < 4 or np.ptp(t) == 0:
        return np.nan, np.nan
    tbar = t - np.mean(t)
    denom = np.sum(tbar**2)
    slope = float(np.sum(tbar * xp) / denom)
    resid = xp - np.mean(xp) - slope * tbar
    stderr = float(np.sqrt(np.sum(resid**2) / max(len(t) - 2, 1) / denom))
    return slope, stderr


def _pulled_front_speed(p: ModelParams, t: np.ndarray) -> float:
    """Average speed over the fit window [t[0], t[-1]] of a front pulled by the linearization.

    Such a front sits at c*t - (3/(2*lambda*))*ln(t) + const at late times,
    lambda* = sqrt((beta-gamma-delta)/d2) (Bramson; van Saarloos 2003, Phys.
    Rep. 386), so the window [t1, t2] sees c* - (3/(2*lambda*))*ln(t2/t1)/(t2-t1),
    short of c*. That lag holds only after the relaxation time 1/(d2*lambda*^2) = 1/q,
    q = beta - gamma - delta: nan when R0 <= 1, when there is no window after t = 0
    to fit, or when the window starts before 1/q.
    """
    try:
        speed = minimal_speed(p)
    except SubThreshold:
        return np.nan
    if len(t) < 4 or not 0.0 < t[0] < t[-1] or p.growth_rate * t[0] < 1.0:
        return np.nan
    t1, t2 = t[0], t[-1]
    return float(speed.c_star - 1.5 / speed.lambda_star * np.log(t2 / t1) / (t2 - t1))


def run(cfg: SimConfig) -> SimResult:
    """Integrate to t_end from the configured pulse, tracking fronts, mass budget and snapshots.

    Raises FrontHitBoundary (carrying the partial result) if the front comes
    within 10*dx of the right edge: speed fits from such a run are unusable.
    """
    result = _simulate(cfg, cfg.initial_state(), stop_at_boundary=True)
    if result.trace.hit_boundary:
        raise FrontHitBoundary(
            f"front reached x_max - 10*dx before t_end = {cfg.t_end}", result=result
        )
    return result


def _simulate(cfg: SimConfig, state: np.ndarray, stop_at_boundary: bool) -> SimResult:
    """The stepping loop of every simulation: split steps from state to t_end at cfg's step size.

    Roundoff negatives are clipped to zero after each step and their mass is
    counted. Fronts, mass budget and max I are sampled at t = 0, every
    ceil(n_steps/n_outputs) steps and at t_end, so at most n_outputs + 1 times;
    the full fields likewise every ceil(n_steps/(N_SNAPSHOTS - 1)) steps, at
    most N_SNAPSHOTS + 1 times. With stop_at_boundary the run ends
    as soon as a sample finds the front within 10*dx of the right edge.

    A sample copies only the I row and the S+I+R row into a block of
    SAMPLE_BLOCK rows; fronts, masses and max I are computed once per block,
    each bitwise what the sample alone gives.
    """
    p, grid = cfg.params, cfg.grid
    x, dx = grid.x, grid.dx
    dt, n_steps = cfg.time_steps()
    step = _strang_step(p, dx, grid.n, dt)
    sample_every = -(-n_steps // cfg.n_outputs)  # ceil: at most n_outputs samples after t = 0
    snap_every = -(-n_steps // (N_SNAPSHOTS - 1))  # ceil: at most N_SNAPSHOTS + 1 fields
    thresholds = {
        "1e-3": 1e-3 * p.s_minus_inf,
        "1e-4": 1e-4 * p.s_minus_inf,
        "1e-5": 1e-5 * p.s_minus_inf,
    }
    levels = np.array([cfg.threshold, *thresholds.values()])  # the tracked front first
    edge = grid.x_max - 10.0 * dx

    clipped = 0.0
    min_value = np.inf
    times, blocks = [], []
    i_rows, totals = np.empty((2, SAMPLE_BLOCK, grid.n))  # I and S+I+R of the block's samples
    filled = 0
    snapshots = [(0.0, state.copy())]
    hit_boundary = False

    def sample(t):
        nonlocal filled
        times.append(t)
        i_rows[filled] = state[1]
        state.sum(axis=0, out=totals[filled])
        filled += 1
        if filled == SAMPLE_BLOCK:
            reduce_block()

    def reduce_block():
        # fronts at every level, both masses and max I of the filled rows
        nonlocal filled
        rows = i_rows[:filled]
        blocks.append((
            front_position(x, rows, levels),
            np.trapezoid(totals[:filled], x),
            np.trapezoid(rows, x),
            rows.max(axis=1),
        ))
        filled = 0

    def front_at_edge() -> bool:
        # the tracked front, located only when I reaches its level near the right edge
        near = state[1, -EDGE_POINTS:].max() >= cfg.threshold
        return bool(near and front_position(x, state[1], cfg.threshold) >= edge)

    sample(0.0)
    for k in range(1, n_steps + 1):
        state = step(state)
        low = float(state.min())
        min_value = min(min_value, low)
        if low < 0.0:
            neg = state < 0.0
            clipped += float(-np.sum(state[neg]) * dx)
            state[neg] = 0.0
        t = k * dt
        if k % sample_every == 0 or k == n_steps:
            sample(t)
            hit_boundary = hit_boundary or front_at_edge()
        if k % snap_every == 0 or k == n_steps:
            snapshots.append((t, state.copy()))
        if hit_boundary and stop_at_boundary:
            break
    if filled:
        reduce_block()

    times = np.asarray(times)
    positions, masses, infected, imax = (np.concatenate(parts) for parts in zip(*blocks))
    fronts, *aux_fronts = np.ascontiguousarray(positions.T)
    speed, stderr = _fit_speed(times, fronts)
    trace = FrontTrace(
        times=times,
        positions=fronts,
        threshold=cfg.threshold,
        speed_fit=speed,
        speed_stderr=stderr,
        hit_boundary=hit_boundary,
        pulled_front_speed=_pulled_front_speed(p, _fit_window(times, fronts)[0]),
    )
    thr_speeds = {key: _fit_speed(times, vals)[0] for key, vals in zip(thresholds, aux_fronts)}
    return SimResult(
        config=cfg,
        final=state,
        trace=trace,
        mass_times=times,
        mass_total=masses,
        mass_infected=infected,
        i_max_trace=imax,
        clipped_mass=clipped,
        min_value=min_value,
        snapshots=snapshots,
        threshold_speeds=thr_speeds,
        dt=dt,
        steps=k,
    )


@dataclass(frozen=True)
class FrameCheck:
    """Shape invariance of late-time fronts in the co-moving frame."""

    speed: float
    max_misalignment: float  # relative to max I over the compared snapshots
    edge_decay_rate: float
    edge_decay_expected: float
    edge_decay_rel_err: float


def traveling_frame_check(result: SimResult) -> FrameCheck:
    """Translate late snapshots back by the measured speed and compare shapes.

    Only the right-moving front is compared (the reflecting setup also launches
    a left-moving one from the pulse). The leading-edge decay of I is fitted
    and compared with the decay rate of the linearization at the measured
    speed, or at the minimal speed when the front is still relaxing toward it.
    """
    p = result.config.params
    grid = result.config.grid
    x = grid.x
    c_hat = result.trace.speed_fit
    late = [(t, st) for t, st in result.snapshots if t >= 0.6 * result.config.t_end]
    if len(late) < 2:
        raise ValueError("need at least two late snapshots")
    t0, base = late[0]
    region = x >= result.config.ic_center + 3.0 * result.config.ic.width
    scale = max(float(np.max(st[1])) for _, st in late)
    worst = 0.0
    for t, st in late[1:]:
        shifted = np.interp(x, x - c_hat * (t - t0), st[1], left=np.nan, right=np.nan)
        ok = np.isfinite(shifted) & region
        worst = max(worst, float(np.max(np.abs(shifted[ok] - base[1][ok]))) / scale)

    t_last, last = late[-1]
    i_vals = np.where(region, last[1], 0.0)
    peak = float(np.max(i_vals))
    k_peak = int(np.argmax(i_vals))
    edge = (i_vals > 1e-8 * peak) & (i_vals < 1e-3 * peak) & (np.arange(len(x)) > k_peak)
    if np.sum(edge) >= 4:
        slope = -np.polyfit(x[edge], np.log(i_vals[edge]), 1)[0]
    else:
        slope = np.nan
    try:
        speed = minimal_speed(p)
    except SubThreshold:
        expected = np.nan
    else:
        # at or below c* the rate is the double root lambda*, where lambda0(c*)
        # can find the discriminant a rounding below 0 and raise ComplexRoots
        expected = lambda0(c_hat, p).lambda0 if c_hat > speed.c_star else speed.lambda_star
    rel = abs(slope - expected) / expected if np.isfinite(slope) and np.isfinite(expected) else np.nan
    return FrameCheck(
        speed=c_hat,
        max_misalignment=worst,
        edge_decay_rate=float(slope),
        edge_decay_expected=float(expected),
        edge_decay_rel_err=float(rel),
    )


@dataclass(frozen=True)
class FalsificationReport:
    """Outcome of a seeded attempt to realize a forbidden slow front."""

    c_target: float
    c_star: float
    measured_speed: float
    measured_stderr: float
    i_max_initial: float
    i_max_final: float
    outcome: str  # 'relaxed_to_minimal_speed' or 'extinction'


def subcritical_falsification(cfg: SimConfig, c_target: float) -> FalsificationReport:
    """Seed a front shaped for a forbidden speed and report what actually happens.

    Below the minimal speed no real decay rate exists (the characteristic
    roots are complex, with modulus equal to the minimizing rate), so the seed
    decays at that modulus rate; the measured speed then relaxes to the
    minimal speed instead of c_target. With R0 <= 1 the seed collapses
    regardless of shape.
    """
    p = cfg.params
    grid = cfg.grid
    x = grid.x
    try:
        speed = minimal_speed(p)
        c_star = speed.c_star
        lam_seed = speed.lambda_star  # root modulus below c*
        if c_target > c_star:
            lam_seed = lambda0(c_target, p).lambda0
    except SubThreshold:
        c_star = np.nan
        lam_seed = 1.0

    amp = cfg.ic_amplitude
    x0 = cfg.ic_center
    i0 = amp * np.minimum(1.0, np.exp(-lam_seed * (x - x0)))
    s0 = np.maximum(p.s_minus_inf - i0, 0.0)
    result = _simulate(cfg, np.array([s0, i0, np.zeros_like(x)]), stop_at_boundary=False)
    imax = result.i_max_trace
    late = imax[len(imax) // 2 :]
    extinct = imax[-1] < 1e-3 * imax[0] and bool(np.all(np.diff(late) <= 1e-15))
    return FalsificationReport(
        c_target=c_target,
        c_star=float(c_star),
        measured_speed=float(result.trace.speed_fit),
        measured_stderr=float(result.trace.speed_stderr),
        i_max_initial=float(imax[0]),
        i_max_final=float(imax[-1]),
        outcome="extinction" if extinct else "relaxed_to_minimal_speed",
    )
