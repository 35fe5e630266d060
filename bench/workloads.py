"""The three benchmark workloads: the cases of each round, drawn from a seed.

A workload is a fixed list of cases. Each round of a run executes every case
once, in list order, so the mix of ops is the same in every run and every
round; the seed moves only where each case sits inside a narrow band, never
how many ops there are or which code paths they take. The program sees only
the configs written here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

P0 = {"d1": 1.0, "d2": 1.0, "d3": 1.0, "beta": 2.0, "gamma": 0.5, "delta": 0.5, "s_minus_inf": 1.0}

# Relative half-width of the seeded band around each ladder rung, as a share
# of the rung's excess over c* (1.005 -> c/c* in [1.0049, 1.0051]). Picard
# iteration counts grow steeply as c approaches c*, so the band stays narrow
# enough that the work per op moves by about one percent between seeds.
RUNG_BAND = 0.02


def c_star(params: dict) -> float:
    """Minimal speed 2*sqrt(d2*(beta-gamma-delta)) in closed form; nan when R0 <= 1."""
    q = params["beta"] - params["gamma"] - params["delta"]
    return 2.0 * math.sqrt(params["d2"] * q) if q > 0 else float("nan")


def lambda0(params: dict, c: float) -> float:
    """Smaller root of d2*l^2 - c*l + (beta-gamma-delta) = 0: the left decay rate of I."""
    d2 = params["d2"]
    q = params["beta"] - params["gamma"] - params["delta"]
    return (c - math.sqrt(c * c - 4.0 * d2 * q)) / (2.0 * d2)


def half_width(params: dict, c: float) -> float:
    """Profile window half-width max(60, ceil(26/lambda0/10)*10): I(x_min) < exp(-26)."""
    return max(60.0, math.ceil(26.0 / lambda0(params, c) / 10.0) * 10.0)


def symmetric_grid(half: float, dx: float) -> dict:
    return {"x_min": -half, "x_max": half, "n": int(round(2.0 * half / dx)) + 1}


def _with(**changes) -> dict:
    return {**P0, **changes}


@dataclass
class Case:
    """One op of a round.

    kind is 'profile', 'simulate' or 'verify' (a `sirwaves` subcommand run
    in process) or 'falsify' (the library call
    pde_sim.subcritical_falsification, which no subcommand reaches).
    """

    name: str
    kind: str
    params: dict
    c: float | None = None
    grid: dict | None = None
    sim: dict = field(default_factory=dict)
    seed: int | None = None  # the suite's --seed, for 'verify'
    tol: float | None = None  # profile --tol; None keeps the CLI default

    def config(self) -> dict:
        cfg: dict = {"params": dict(self.params)}
        if self.c is not None:
            cfg["c"] = self.c
        if self.grid is not None:
            cfg["grid"] = dict(self.grid)
        if self.sim:
            cfg["sim"] = dict(self.sim)
        return cfg


def wave_ladder(rng: random.Random) -> list[Case]:
    rungs = [("P0", P0, r, 0.05) for r in (1.005, 1.05, 1.25, 1.5, 2.0)]
    rungs += [("P0", P0, 1.25, 0.1), ("P0", P0, 1.25, 0.025)]
    rungs += [
        ("d3=1.9", _with(d3=1.9), 1.25, 0.05),
        ("beta=1.25", _with(beta=1.25), 1.25, 0.05),
        ("d1=0.5", _with(d1=0.5), 1.25, 0.05),
    ]
    cases = []
    for label, params, rung, dx in rungs:
        ratio = 1.0 + (rung - 1.0) * (1.0 + RUNG_BAND * rng.uniform(-1.0, 1.0))
        c = ratio * c_star(params)
        grid = symmetric_grid(half_width(params, c), dx)
        cases.append(Case(f"{label}@{rung}c*/dx={dx}", "profile", params, c=c, grid=grid))
    return cases


def _pulse(rng: random.Random, s_minus_inf: float) -> dict:
    """Seeded Gaussian pulse near the origin: centre +-0.5, width 2 +-10%, amplitude 0.01*S +-10%."""
    return {
        "pulse_center": rng.uniform(-0.5, 0.5),
        "pulse_width": 2.0 * rng.uniform(0.9, 1.1),
        "pulse_amplitude": 0.01 * s_minus_inf * rng.uniform(0.9, 1.1),
    }


FRONT_T_END = 15.0
FRONT_DX = 0.1


def front_window(params: dict, t_end: float) -> dict:
    """[-10, x_max] with x_max 15 length units past where a c* front from 0 is at t_end."""
    x_max = math.ceil((c_star(params) * t_end + 15.0) / 5.0) * 5.0
    return {"x_min": -10.0, "x_max": x_max, "n": int(round((x_max + 10.0) / FRONT_DX)) + 1}


def front_spread(rng: random.Random) -> list[Case]:
    cases = []
    for label, params in (
        ("P0", P0),
        ("delta=0", _with(delta=0.0)),
        ("d1=0.5,beta=4,S=2", _with(d1=0.5, beta=4.0, s_minus_inf=2.0)),
    ):
        sim = {"t_end": FRONT_T_END, **_pulse(rng, params["s_minus_inf"])}
        cases.append(Case(label, "simulate", params, grid=front_window(params, FRONT_T_END), sim=sim))
    sub = _with(beta=1.8, gamma=1.0, delta=1.0)  # R0 = 0.9
    cases.append(Case("R0=0.9", "simulate", sub, grid=symmetric_grid(40.0, 0.2),
                      sim={"t_end": 100.0, **_pulse(rng, 1.0)}))
    fals = _pulse(rng, 1.0)
    cases.append(Case("falsify@c*/2", "falsify", P0, c=0.5 * c_star(P0), grid=symmetric_grid(60.0, 0.1),
                      sim={"t_end": 20.0, "pulse_center": -30.0 + fals["pulse_center"],
                           "pulse_amplitude": fals["pulse_amplitude"]}))
    return cases


def verify_quick(rng: random.Random) -> list[Case]:
    points = [
        ("P0@2.5", P0, 2.5),
        ("P0@2.1", P0, 2.1),
        ("d3=1.9", _with(d3=1.9), None),
        ("beta=1.25", _with(beta=1.25), None),
        ("d1=0.5", _with(d1=0.5), None),
    ]
    cases = []
    for label, params, c in points:
        c = 1.25 * c_star(params) if c is None else c
        cases.append(Case(label, "verify", params, c=c, seed=rng.randrange(2**31)))
    return cases


WORKLOADS = {"wave_ladder": wave_ladder, "front_spread": front_spread, "verify_quick": verify_quick}


def cases_for(workload: str, seed: int) -> list[Case]:
    """The cases of one round; the same seed always gives the same cases."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def warmup_cases(workload: str) -> list[Case]:
    """Small ops through the workload's code paths, run during set-up and never timed.

    They pay first-call costs (lazy imports, caches) without costing as much
    as a timed op, so that set-up time moves with those costs and not with
    the speed of the ops. The profile warm-up is a coarse grid solved to a
    loose tolerance; verify_quick adds a verify of a sub-threshold config,
    which passes through `cli verify` and the report writer with every check
    skipped.
    """
    if workload == "front_spread":
        return [Case("warmup", "simulate", P0, grid={"x_min": -10.0, "x_max": 20.0, "n": 301},
                     sim={"t_end": 0.5, "pulse_center": 0.0})]
    warm = [Case("warmup", "profile", P0, c=3.0, grid=symmetric_grid(60.0, 0.2), tol=1e-4)]
    if workload == "verify_quick":
        warm.append(Case("warmup-verify", "verify", _with(beta=1.8, gamma=1.0, delta=1.0), c=1.0, seed=1))
    return warm
