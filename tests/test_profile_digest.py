"""Golden digests of computed profiles: a refactor that claims bitwise-equal profiles is held to it.

Each digest is the sha256 of the float64 bytes of the arrays, in order. The
tight solve (tol = 1e-8) finishes by Newton, so it covers the Newton root and
the profile that confirms it; the loose solve (tol = 1e-4) is the plain
iteration alone, so newton_cross_check solves afresh from it.
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
        "b47a878e9cee83778d1ac651fbeda393f2533947ccdb075d500122b321992c14",
        "f4f1d54e3ffcbbba548db3b43435e897a0163c8af578f310b12cd3965a128be6",
    ),
    "d=(0.7,1,1.3)": (
        dataclasses.replace(P0, d1=0.7, d3=1.3),
        "0e9c8473a007de227668d49d7929a159c4c15aab1ea58e9d84c9faf00b102fd9",
        "b1d6ff74ac402919f28e694011cd3aa3050652f0ecb2352b51e076be5b1e8954",
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
