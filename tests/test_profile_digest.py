"""Golden digests of computed profiles: a refactor that claims bitwise-equal profiles is held to it.

Each digest is the sha256 of the float64 bytes of the arrays, in order. The
tight solve (tol = 1e-8) has two: the newton digest covers the Newton root,
and the profile digest the one unprojected step of F that certifies it, so a
change to F's left tails (the mesh decay rate) moves the profile digest and
leaves the root pinned. The loose solve (tol = 1e-4) certifies the same root
at its own tolerance, and its digest covers that root and the agreement the
report carries.
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
        "2d413e7fc60f788eefc0c370dc1945e3f6fc30cf2459e1995c15f2a749bdecd3",
        "cd2fbd473bde5c2bf7aa72b5e7de202a15b9d3343a98d59502888d0fd2803550",
        "a39274d6cd7b990b8ee350e6e6b29f56624fc8c7ab380212ad05104513595c0d",
    ),
    "d=(0.7,1,1.3)": (
        dataclasses.replace(P0, d1=0.7, d3=1.3),
        "7e60def2793498d677260c1834cbdac6850f4c5bad401514b1001c007758476d",
        "e65f42e78c203334453020caad13994f3845f553e7e35c85393c96acb7d5f09c",
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
    p, newton_digest, profile_digest, loose_digest = CASES[name]
    grid = wave_window(p, C)
    tight = solve_fixed_point(p, C, grid, tol=1e-8)
    assert tight.converged
    assert _sha256(tight.newton) == newton_digest
    assert _sha256(tight.profile) == profile_digest
    loose = solve_fixed_point(p, C, grid, tol=1e-4)
    assert _sha256(loose.newton, [loose.agreement]) == loose_digest
