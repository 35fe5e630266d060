import numpy as np
import pytest

from sirwaves import (
    Grid,
    GridFunction,
    ModelParams,
    centered_difference,
    edge_difference,
    incidence,
    r_naught,
    reaction_terms,
    wave_operator,
)
from sirwaves.model import ETA_DEFAULT

P0 = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)


def test_r_naught_values():
    assert r_naught(P0) == 2.0
    assert r_naught(ModelParams(1, 1, 1, beta=1.0, gamma=1.0, delta=0.0, s_minus_inf=1)) == 1.0
    assert r_naught(ModelParams(1, 1, 1, beta=0.9, gamma=0.5, delta=0.5, s_minus_inf=1)) == 0.9


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0.0, 1, 1, 2, 0.5, 0.5, 1)
    with pytest.raises(ValueError):
        ModelParams(1, 1, 1, 2, 0.5, -0.1, 1)
    with pytest.raises(ValueError):
        ModelParams(1, 1, 1, -2, 0.5, 0.5, 1)


def test_wave_regime_flag():
    assert P0.wave_regime
    # R0 <= 1
    assert not ModelParams(1, 1, 1, 0.9, 0.5, 0.5, 1).wave_regime
    # d3 >= 2*d2
    assert not ModelParams(1, 1, 2.0, 2, 0.5, 0.5, 1).wave_regime


def test_incidence_values():
    assert incidence(1, 1, 0, beta=2.0) == pytest.approx(1.0)
    assert incidence(0, 0, 0, beta=2.0) == 0.0
    assert incidence(0.6, 0.3, 0.1, beta=2.0) == pytest.approx(0.36)


def test_incidence_guard_branch():
    assert ETA_DEFAULT == 1e-12
    assert incidence(1e-14, 1e-14, 0.0, beta=2.0) == 0.0


def pinned_incidence(s, i, r, beta):
    """The guarded formula applied at every point, as the masked path computes it."""
    n = s + i + r
    return np.where(n > ETA_DEFAULT, beta * s * i / np.where(n > ETA_DEFAULT, n, 1.0), 0.0)


def test_incidence_fast_path_matches_the_guarded_formula():
    rng = np.random.default_rng(7)
    s, i, r = rng.uniform(0.0, 2.0, size=(3, 40))
    # all totals above the guard: the unmasked path, equal at every point
    assert np.array_equal(incidence(s, i, r, 1.7), pinned_incidence(s, i, r, 1.7))
    # extinct points, one exactly at the guard, and a nan total take the masked path
    s[[3, 11]], i[[3, 11]], r[[3, 11]] = 0.0, [1e-13, ETA_DEFAULT], 0.0
    r[20] = np.nan
    mixed = incidence(s, i, r, 1.7)
    expected = pinned_incidence(s, i, r, 1.7)
    assert mixed[3] == mixed[11] == mixed[20] == 0.0  # a nan total fails the guard and is pinned too
    assert np.array_equal(mixed, expected)
    # a live point gives the same value on either path
    live = np.setdiff1d(np.arange(40), [3, 11, 20])
    assert np.array_equal(mixed[live], incidence(s[live], i[live], r[live], 1.7))
    # scalars in give a float out, on both paths
    for args in ((0.6, 0.3, 0.1), (1e-14, 1e-14, 0.0)):
        out = incidence(*args, beta=2.0)
        assert type(out) is float and out == float(pinned_incidence(*np.array(args), 2.0))


def test_reaction_terms_into_a_buffer_match_the_allocating_form():
    # out= gives the allocating form's rows bitwise, on the unmasked path and
    # on the masked one (a total exactly at the guard), and returns out
    rng = np.random.default_rng(8)
    s, i, r = rng.uniform(0.0, 2.0, size=(3, 40))
    for masked in (False, True):
        if masked:
            s[5], i[5], r[5] = 0.0, ETA_DEFAULT, 0.0
        out = np.full((3, 40), np.nan)
        assert reaction_terms(s, i, r, P0, out=out) is out
        assert np.array_equal(out, np.array(reaction_terms(s, i, r, P0)))
        inc = np.empty(40)
        assert incidence(s, i, r, P0.beta, out=inc) is inc
        assert np.array_equal(inc, incidence(s, i, r, P0.beta))
    assert out[:, 5].tolist() == [-0.0, -ETA_DEFAULT, 0.5 * ETA_DEFAULT]
    # scalars in still give scalars out
    assert all(isinstance(v, float) for v in reaction_terms(0.6, 0.3, 0.1, P0))


def test_incidence_monotone_in_s():
    rng = np.random.default_rng(0)
    for _ in range(200):
        i, r = rng.uniform(0, 5, size=2)
        s = np.sort(rng.uniform(0, 5, size=2))
        lo, hi = (incidence(v, i, r, beta=2.0) for v in s)
        assert hi >= lo - 1e-14


def test_incidence_bounds():
    rng = np.random.default_rng(1)
    s, i, r = rng.uniform(0, 10, size=(3, 500))
    inc = incidence(s, i, r, beta=2.0)
    assert np.all(inc <= 2.0 * i + 1e-14)
    assert np.all(inc <= 2.0 * s + 1e-14)


def test_incidence_lipschitz():
    # |inc(u1) - inc(u2)| <= beta * (|ds| + |di| + |dr|) away from the guard
    rng = np.random.default_rng(2)
    beta = 2.0
    for _ in range(500):
        u1 = rng.uniform(0.01, 5, size=3)
        u2 = rng.uniform(0.01, 5, size=3)
        lhs = abs(incidence(*u1, beta) - incidence(*u2, beta))
        assert lhs <= beta * np.sum(np.abs(u1 - u2)) + 1e-12


def test_reaction_terms_values():
    fs, fi, fr = reaction_terms(1.0, 1.0, 0.0, P0)
    assert (fs, fi, fr) == pytest.approx((-1.0, 0.0, 0.5))


def test_reaction_sum_is_minus_delta_i():
    rng = np.random.default_rng(3)
    for _ in range(200):
        s, i, r = rng.uniform(0, 4, size=3)
        fs, fi, fr = reaction_terms(s, i, r, P0)
        assert fs + fi + fr == pytest.approx(-P0.delta * i, abs=1e-14)


def test_disease_free_states_are_fixed_points():
    rng = np.random.default_rng(4)
    for _ in range(50):
        s, r = rng.uniform(0, 4, size=2)
        assert reaction_terms(s, 0.0, r, P0) == (0.0, 0.0, 0.0)


def test_grid_construction():
    g = Grid(-10.0, 10.0, 201)
    assert g.dx == pytest.approx(0.1)
    assert g.x[0] == -10.0
    assert np.array_equal(g.x, -10.0 + g.dx * np.arange(201))
    # exactly reproducible
    assert np.array_equal(g.x, Grid(-10.0, 10.0, 201).x)


def test_grid_requires_interior_origin():
    with pytest.raises(ValueError):
        Grid(1.0, 10.0, 11)
    with pytest.raises(ValueError):
        Grid(-10.0, 10.0, 2)


@pytest.mark.parametrize("dx", [0.0, -0.1, float("nan"), float("inf")])
def test_symmetric_grid_needs_a_finite_positive_spacing(dx):
    with pytest.raises(ValueError, match="grid spacing"):
        Grid.symmetric(10.0, dx)


def test_grid_function_validation():
    g = Grid(-1.0, 1.0, 5)
    with pytest.raises(ValueError):
        GridFunction(g, np.ones(4))
    with pytest.raises(ValueError):
        GridFunction(g, np.array([1.0, np.inf, 0, 0, 0]))
    gf = GridFunction(g, np.ones(5))
    with pytest.raises(ValueError):
        gf.values[0] = 2.0  # frozen


def test_tail_models():
    g = Grid(-1.0, 1.0, 5)
    gf = GridFunction(g, np.full(5, 3.0), left_rate=0.0, right_rate=-2.0)
    assert (gf.left_rate, gf.right_rate) == (0.0, -2.0)
    assert GridFunction(g, np.full(5, 3.0)).left_rate == 0.0  # constant by default
    assert GridFunction(g, np.full(5, 3.0)).right_rate == 0.0


def test_centered_difference_weights_and_exactness():
    assert centered_difference(np.eye(3), 2)[:, 0].tolist() == [1.0, -2.0, 1.0]
    assert centered_difference(np.eye(3), 1)[:, 0].tolist() == [-1.0, 0.0, 1.0]
    # d = 1.5, c = 2, dx = 0.5: d/dx^2 = 6 and c/(2*dx) = 2, exact in binary
    assert wave_operator(np.eye(3), 1.5, 2.0, 0.5)[:, 0].tolist() == [8.0, -12.0, 4.0]
    left, right = edge_difference(np.eye(3), 0.5)
    assert left.tolist() == [-3.0, 4.0, -1.0]  # weights of y[0], y[1], y[2]
    assert right.tolist() == [1.0, -4.0, 3.0]  # weights of y[-3], y[-2], y[-1]
    with pytest.raises(ValueError):
        centered_difference(np.eye(3), 3)
    # exact on quadratics, row by row along the last axis
    g = Grid(-1.0, 1.0, 21)
    y = np.array([g.x**2, 3.0 * g.x - 1.0])
    second, first = centered_difference(y, 2), centered_difference(y, 1)
    assert second.shape == first.shape == (2, g.n - 2)
    assert np.allclose(second / g.dx**2, [[2.0], [0.0]], atol=1e-10)
    assert np.allclose(first / (2.0 * g.dx), [2.0 * g.x[1:-1], np.full(g.n - 2, 3.0)], atol=1e-12)
    # d*y'' - c*y' with one rate per row, and the one-sided first derivatives at both ends
    wave = wave_operator(y, np.array([[0.7], [1.3]]), 2.5, g.dx)
    assert np.allclose(wave, [1.4 - 5.0 * g.x[1:-1], np.full(g.n - 2, -7.5)], atol=1e-10)
    left, right = edge_difference(y, g.dx)
    assert np.allclose(left, [2.0 * g.x[0], 3.0], atol=1e-12)
    assert np.allclose(right, [2.0 * g.x[-1], 3.0], atol=1e-12)

