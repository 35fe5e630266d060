"""Golden digests of computed profiles: a refactor that claims bitwise-equal profiles is held to it.

Each digest is the sha256 of the float64 bytes of the arrays, in order. The
tight solve (tol = 1e-8) finishes by Newton, so it covers the Newton root and
the one projected step of F that certifies it; the loose solve (tol = 1e-4)
certifies the same root at its own tolerance, and its digest covers that root
and the agreement the report carries.
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
        "ebf0185347a3918b050b59bd24ce9209858cda89f272c376fde5eda9934fd1ba",
        "fc399aaec9a85c72cc49d53de52aba187c00e134046a9dbe884e2663ec26d916",
    ),
    "d=(0.7,1,1.3)": (
        dataclasses.replace(P0, d1=0.7, d3=1.3),
        "442bba8fa3dca7b54e33cd7e0a4a5de50c5cdab0690290bea635a192c371c500",
        "5583653d04a039ddebbfd465fd6eecae23e7e80fa0b2aad8b175f3f57f7743e9",
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
    loose = solve_fixed_point(p, C, grid, tol=1e-4)
    assert _sha256(loose.newton, [loose.agreement]) == loose_digest
