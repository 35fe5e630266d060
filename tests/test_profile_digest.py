"""Golden digests of computed profiles: a refactor that claims bitwise-equal profiles is held to it.

Each digest is the sha256 of the float64 bytes of the arrays, in order. The
tight solve (tol = 1e-8) finishes by Newton, so it covers the Picard profile
and the confirmed root; the loose solve (tol = 1e-4) stops before the
handover, so newton_cross_check solves afresh from it.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from sirwaves import ModelParams, newton_cross_check, solve_fixed_point, wave_window

P0 = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
C = 2.5

CASES = {
    "p0": (
        P0,
        "616a127b49e02b44edb0cc12fc78cbc07b9edca2978b9bc16075ea4d53b196c4",
        "d6ae3020528bc4951b5ae5cc3c0100c989eb135546e92cae25bec475176c9cbd",
    ),
    "d=(0.7,1,1.3)": (
        dataclasses.replace(P0, d1=0.7, d3=1.3),
        "6e3af2e5b1489b9bd7903b0727a5a45ce17d8976c9b1921e5d20ec0731f4dc33",
        "d34a4941d9ee0c39f70012ecf14d442b4d47015e2d06ba1ef4162c362950bb2b",
    ),
}


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_profile_digests(name):
    p, tight_digest, loose_digest = CASES[name]
    grid = wave_window(p, C)
    tight = solve_fixed_point(p, C, grid, tol=1e-8)
    assert tight.finish == "newton"
    assert _sha256(tight.profile, tight.newton) == tight_digest
    root, agreement = newton_cross_check(solve_fixed_point(p, C, grid, tol=1e-4), p)
    assert _sha256(root, [agreement]) == loose_digest
