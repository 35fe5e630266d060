"""Golden digests of computed profiles: a refactor that claims bitwise-equal profiles is held to it.

Each digest is the sha256 of the float64 bytes of the arrays, in order. The
tight digest (tol = 1e-8) covers the profile, the one unprojected step of F
that certifies the Newton root, and the root itself; the loose solve
(tol = 1e-4) certifies the same root at its own tolerance, and its digest
covers that root and the agreement the report carries.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from sirwaves import ModelParams, solve_fixed_point, wave_window

P0 = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
C = 2.5

CASES = {
    "p0": (
        P0,
        "ee4d3ef7da78fc101dcce8a32978fd0cf4b15e4f171e90c7a9ee00209191b90d",
        "a39274d6cd7b990b8ee350e6e6b29f56624fc8c7ab380212ad05104513595c0d",
    ),
    "d=(0.7,1,1.3)": (
        dataclasses.replace(P0, d1=0.7, d3=1.3),
        "22a49d486a9da136ac34fff277bc52bbca388c7531d89996bcf61d9f375c09af",
        "f35e033f2cc6136cdab74300e00e74208bb00af1eb0bbc2f5154cb84bf577379",
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
    assert tight.converged
    assert _sha256(tight.profile, tight.newton) == tight_digest
    loose = solve_fixed_point(p, C, grid, tol=1e-4)
    assert _sha256(loose.newton, [loose.agreement]) == loose_digest
