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
        "c3c208819fc8265b27accc39dda7282382bafe07b0be209d522d52fe74b8b75d",
        "fbdd656544864a77060cf910ce80426c2e81d0d1298f10a09aeed3d72052e834",
        "5badd3c7f4df8cef91e0770efcbe346285546bb549b0b52bae71b2a653325d19",
    ),
    "d=(0.7,1,1.3)": (
        dataclasses.replace(P0, d1=0.7, d3=1.3),
        "e10800b5b48cea79a24561f2fb4150388401a20ec8e4e737b2e5022dd092340c",
        "764717ef62de337ec5ea0d1bf2fb7b589c860e832e1a61a99a8f588bee7b54ae",
        "8b632ae18973480d3e7ca2f36c6a20d65e1f8a93024bf99238b25d5e145a23bf",
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
