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
        "cd055a82e1c0622b4d72840fc6dad919a860e2bb768fb9274bf2b06420c31cfc",
        "6a4b286b60df673ef42f2a306428a23bf11880ea651cd7b79dda151651062eae",
    ),
    "d=(0.7,1,1.3)": (
        dataclasses.replace(P0, d1=0.7, d3=1.3),
        "f5955c1eee1b3c11557cd2ccc08ac6979cfee7f776a800139159268bae1bd05b",
        "3dd1bd104036cf882664573e8dc9d5899e89efcd93986ae0135ed56ade0ca9c3",
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
