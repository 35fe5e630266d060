"""Golden digests of simulation outputs: a rewrite of the stepping loop that claims bitwise-equal runs is held to it.

Each digest is the sha256 of the float64 bytes of the arrays, in order: the
final state, every snapshot with its time, the front trace, the mass budget
with the max-I trace, the clipped mass and the three threshold speed fits.
The runs cover P0, unequal diffusion rates (so a species mix-up in the
diffusion step shows) and an outbreak below threshold, whose front trace
runs into nan. A fourth run starts from a state with a negative dip, so that
the clipping branch runs and its count of clipped mass is pinned too.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from sirwaves import Grid, ModelParams, SimConfig, run, subcritical_falsification
from sirwaves.pde_sim import _simulate

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
    res = _simulate(cfg, state, 0.5, stop_at_boundary=True)
    assert res.clipped_mass > 0.0
    return res


RUNS = {
    "p0": (lambda: run(config(P0)), "e66bcfea764e4a71d44b32f7388e8d901c179b641cec747bb1222bf680bbb70a"),
    "mixed_d": (lambda: run(config(P_MIXED)), "98d2d91346b2eaeff535c6b315edca9ca619831f2a2372afe8ffda94bd527009"),
    "r0=0.9": (lambda: run(config(SUB, dx=0.25, t_end=30.0)), "918927899af6116a9d25af84d82384185896ac0422f36a65c7d88716779bf515"),
    "clipped": (dipped_run, "fef60c4f0662e9d0d62705dc4ea5fe8fb5282a866335f63a1f605a4bd381750c"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulation_digests(name):
    make, digest = RUNS[name]
    assert result_digest(make()) == digest


def test_falsification_report_digest():
    rep = subcritical_falsification(config(P0, dx=0.25, t_end=10.0), c_target=1.0)
    assert rep.outcome == "relaxed_to_minimal_speed"
    fields = [rep.c_target, rep.c_star, rep.measured_speed, rep.measured_stderr, rep.i_max_initial, rep.i_max_final]
    assert _sha256(fields) == "0c753a251ef33c80d06172968ac727f5952d91d89160457284ac56536ae7ed39"
