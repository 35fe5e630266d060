"""Golden digests of simulation outputs: a rewrite of the stepping loop that claims bitwise-equal runs is held to it.

Each digest is the sha256 of the float64 bytes of the arrays, in order: the
final state, every snapshot with its time, the front trace, the mass budget
with the max-I trace, the clipped mass and the three threshold speed fits.
The runs cover P0, unequal diffusion rates (so a species mix-up in the
diffusion step shows) and an outbreak below threshold, whose front trace
runs into nan. A fourth run starts from a state with a negative dip, so that
the clipping branch runs and its count of clipped mass is pinned too. Two
more pin the sampling: a run stopped by the right edge part way through a
block of samples, and a run whose sample count is not a multiple of the block.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from sirwaves import Grid, ModelParams, SimConfig, run, subcritical_falsification
from sirwaves.pde_sim import FrontHitBoundary, _simulate

P0 = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
P_MIXED = dataclasses.replace(P0, d1=0.7, d3=1.3)
SUB = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.8, gamma=1.0, delta=1.0, s_minus_inf=1.0)  # R0 = 0.9


def config(p, dx=0.2, t_end=10.0):
    return SimConfig(params=p, grid=Grid.symmetric(40.0, dx), t_end=t_end)


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def result_digest(res) -> str:
    snaps = [a for t, st in res.snapshots for a in ([t], st)]
    speeds = [res.threshold_speeds[k] for k in ("1e-3", "1e-4", "1e-5")]
    return _sha256(
        res.final, *snaps,
        res.trace.times, res.trace.positions,
        res.mass_times, res.mass_total, res.mass_infected, res.i_max_trace,
        [res.clipped_mass], speeds,
    )


def dipped_run():
    cfg = config(P0, t_end=2.0)
    state = cfg.initial_state()
    state[2, 300:310] = -1e-6  # negative removed density ahead of the pulse, clipped after the first step
    res = _simulate(cfg, state, stop_at_boundary=True)
    assert res.clipped_mass > 0.0
    assert res.min_value < 0.0  # the first step still carries the dip
    return res


def boundary_run():
    # the front reaches x_max - 10*dx at sample 60 of a run sampled every other
    # step, part way through a block of samples; the digest is of the partial result
    cfg = SimConfig(params=P0, grid=Grid.symmetric(20.0, 0.2), t_end=30.0)
    with pytest.raises(FrontHitBoundary) as hit:
        run(cfg)
    res = hit.value.result
    assert res.trace.hit_boundary and len(res.mass_times) == 61 and res.mass_times[-1] == 12.0
    assert (res.dt, res.steps) == (0.1, 120)  # of the 300 configured
    return res


def odd_samples_run():
    # every third of 100 steps plus the last: 35 samples, not a multiple of the block
    res = run(dataclasses.replace(config(P_MIXED), n_outputs=40))
    assert len(res.mass_times) == 35
    return res


RUNS = {
    "p0": (lambda: run(config(P0)), "c0f10f74f47cca6fdcd766d4f58a14fb17fa1b14df5e4fca0b1f8df097abb057"),
    "mixed_d": (lambda: run(config(P_MIXED)), "45cfc6549b11d76e29f287a6384499b5d6e1c5809fb24798e3129464ad9f97d6"),
    "r0=0.9": (lambda: run(config(SUB, dx=0.25, t_end=30.0)), "2f40053d3f32918d0fb0a3bd221aa8842ccc3175d7e4a5658dddf0f863e184cf"),
    "clipped": (dipped_run, "df37364b395473b6f767132f2b906fd59d00eb21e1360b2a232d01bd034363e8"),
    "hit_boundary": (boundary_run, "c287649b2497dd725d9235251850fbbc2c56bbf5b4496ceb26472c6da269e058"),
    "35_samples": (odd_samples_run, "ec470d2f8d9f526fa4aa08e5b9397da878504fe7068e0b00ae76d071483c5edc"),
}


def test_min_value_is_the_smallest_value_the_steps_reach():
    # the loop reads it from the state.min() it takes every step; every stored
    # snapshot after the start is a stepped state, clipped at zero
    for res in (run(config(P0)), run(config(P_MIXED)), dipped_run()):
        stepped = [st for t, st in res.snapshots[1:]] + [res.final]
        assert res.min_value <= min(float(st.min()) for st in stepped)
        assert (res.min_value < 0.0) == (res.clipped_mass > 0.0)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulation_digests(name):
    make, digest = RUNS[name]
    assert result_digest(make()) == digest


def test_falsification_report_digest():
    rep = subcritical_falsification(config(P0, dx=0.25, t_end=10.0), c_target=1.0)
    assert rep.outcome == "relaxed_to_minimal_speed"
    fields = [rep.c_target, rep.c_star, rep.measured_speed, rep.measured_stderr, rep.i_max_initial, rep.i_max_final]
    assert _sha256(fields) == "494d4e06003c2526f9b1b260a49ca8a98ef6443957aee4659f9177f7222e7b5d"
