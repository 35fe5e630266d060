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
        "15057a6f6dee413a37427a37a22fc00d1fbbbe94979254e711ce0affec2e2a8b",
        "be68dd4545069c446dfa40c2b1277916e43b84cf9926e6bff58e2f099018d155",
        "6c3d7ad39587e87fae31dcade8eddb4697fd98127d02d954e973d36c2739adb8",
    ),
    "d=(0.7,1,1.3)": (
        dataclasses.replace(P0, d1=0.7, d3=1.3),
        "fb28f4abe79ac86a5a30934a223c512aa740720a0b88075c9ef5252fb7d086a6",
        "359b97bee7f67f772463c294f38b9f9b6d322399564ab8c7e21952f8592e0c4d",
        "b39b6346d0231e2204462ccc0fcfcf5b3972a2611956d46bdd106e1154b543b3",
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
