import numpy as np
import pytest

from sirwaves import (
    ComplexRoots,
    ModelParams,
    NoFront,
    NonPositiveLambda,
    OutsideHypothesis,
    SubThreshold,
    a_lambda_eigenvalues,
    a_lambda_matrix,
    characteristic_f,
    check_d3_condition,
    front_roots,
    jacobian_dfe,
    lambda0,
    minimal_speed,
    phi,
)

P0 = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)


def test_characteristic_f_values():
    assert characteristic_f(0.0, 5.0, P0) == -1.0
    assert characteristic_f(0.5, 2.5, P0) == pytest.approx(0.0)
    assert characteristic_f(1.0, 2.0, P0) == pytest.approx(0.0)  # double root at c = c*


def test_lambda0_roots():
    r = lambda0(2.5, P0)
    assert r.lambda0 == pytest.approx(0.5)
    assert r.lambda0_plus == pytest.approx(2.0)
    assert not r.degenerate
    assert characteristic_f(r.lambda0, 2.5, P0) == pytest.approx(0.0, abs=1e-14)
    assert characteristic_f(r.lambda0_plus, 2.5, P0) == pytest.approx(0.0, abs=1e-14)


def test_lambda0_degenerate_at_c_star():
    r = lambda0(2.0, P0)
    assert r.degenerate
    assert r.lambda0 == pytest.approx(1.0)
    assert r.lambda0_plus == pytest.approx(1.0)


def test_lambda0_complex_below_c_star():
    with pytest.raises(ComplexRoots):
        lambda0(1.9, P0)
    # c = 0 has complex roots and c = -3 <= -c* two negative ones: neither is a front
    for c in (0.0, -3.0):
        with pytest.raises(ComplexRoots, match="below the minimal speed"):
            lambda0(c, P0)


def test_lambda0_stable_for_large_c():
    # conjugate form avoids cancellation; root identity must hold at c >> c*
    r = lambda0(1e6, P0)
    assert characteristic_f(r.lambda0, 1e6, P0) == pytest.approx(0.0, abs=1e-9)
    assert r.lambda0 == pytest.approx(1e-6, rel=1e-8)


def test_jacobian_dfe():
    j = jacobian_dfe(P0)
    assert j[1, 1] == 1.0
    assert j[0, 1] == -2.0
    assert j[2, 1] == 0.5
    assert np.all(j[:, 0] == 0.0) and np.all(j[:, 2] == 0.0)
    j2 = jacobian_dfe(ModelParams(1, 1, 1, 1.0, 1.0, 0.0, 1))
    assert j2[1, 1] == 0.0


def test_a_lambda_eigenvalues_closed_form():
    assert a_lambda_eigenvalues(1.0, P0) == pytest.approx((1.0, 2.0, 1.0))
    eigs = a_lambda_eigenvalues(0.0, P0)
    assert eigs == pytest.approx((0.0, 1.0, 0.0))
    assert max(eigs) == pytest.approx(P0.beta - P0.gamma - P0.delta)
    p = ModelParams(d1=3.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
    assert a_lambda_eigenvalues(2.0, p) == pytest.approx((12.0, 5.0, 4.0))


def test_a_lambda_eigenvalues_match_generic_solver():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = ModelParams(
            d1=rng.uniform(0.1, 5),
            d2=rng.uniform(0.1, 5),
            d3=rng.uniform(0.1, 5),
            beta=rng.uniform(0.1, 5),
            gamma=rng.uniform(0.1, 3),
            delta=rng.uniform(0, 3),
            s_minus_inf=1.0,
        )
        lam = rng.uniform(0, 5)
        closed = np.sort(a_lambda_eigenvalues(lam, p))
        generic = np.sort(np.linalg.eigvals(a_lambda_matrix(lam, p)).real)
        assert np.max(np.abs(closed - generic)) <= 1e-10 * max(1.0, np.max(np.abs(closed)))


def test_phi_values():
    assert phi(1.0, P0) == pytest.approx(2.0)
    assert phi(1.0, P0) == pytest.approx(minimal_speed(P0).c_star)
    # large lambda dominated by the largest diffusion branch
    p = ModelParams(d1=1.0, d2=0.01, d3=0.01, beta=0.6, gamma=0.25, delta=0.25, s_minus_inf=1.0)
    lam = 10.0
    brute = max(p.d1 * lam**2, p.d2 * lam**2 + 0.1, p.d3 * lam**2) / lam
    assert phi(lam, p) == pytest.approx(brute)
    assert phi(lam, p) == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(NonPositiveLambda):
        phi(0.0, P0)


def test_minimal_speed_closed_forms():
    sp = minimal_speed(P0)
    assert sp.c_star == pytest.approx(2.0)
    assert sp.lambda_star == pytest.approx(1.0)
    p = ModelParams(d1=1, d2=4.0, d3=1, beta=3.0, gamma=1.0, delta=1.0, s_minus_inf=1)
    sp = minimal_speed(p)
    assert sp.c_star == pytest.approx(4.0)
    assert sp.lambda_star == pytest.approx(0.5)


def test_minimal_speed_golden_section_agreement():
    # a numerical minimization of the infected branch reaches the closed form
    from sirwaves.linear_analysis import golden_section

    sp = minimal_speed(P0)
    q = P0.growth_rate
    _, gs_min = golden_section(lambda lam: (P0.d2 * lam * lam + q) / lam, 1e-6, 10.0, 1e-12)
    assert abs(gs_min - sp.c_star) <= 1e-8 * sp.c_star


def test_minimal_speed_brute_force_grid():
    # dense grid oracle over a million decay rates
    q = P0.beta - P0.gamma - P0.delta
    lams = np.linspace(1e-4, 10.0, 1_000_000)
    brute = np.min((P0.d2 * lams**2 + q) / lams)
    assert abs(brute - minimal_speed(P0).c_star) <= 1e-6


def test_minimal_speed_subthreshold():
    with pytest.raises(SubThreshold):
        minimal_speed(ModelParams(1, 1, 1, 0.9, 0.5, 0.5, 1))


def test_phi_never_below_c_star():
    sp = minimal_speed(P0)
    for lam in np.geomspace(1e-3, 50.0, 200):
        assert phi(lam, P0) >= sp.c_star - 1e-12


def test_minimal_speed_reports_full_quotient():
    # strong susceptible diffusion pushes the full minimum above the infected branch
    p = ModelParams(d1=50.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
    sp = minimal_speed(p)
    assert not sp.i_branch_active_at_minimizer
    assert sp.full_min > sp.c_star
    # with the infected branch active, the two minimizations coincide
    sp0 = minimal_speed(P0)
    assert sp0.i_branch_active_at_minimizer
    assert abs(sp0.full_min - sp0.c_star) <= 1e-8 * sp0.c_star


@pytest.mark.parametrize("d2", [1.0, 1e6])
def test_minimal_speed_just_above_r0_one(d2):
    # lambda* = sqrt(1e-13/d2) lies far below 1e-6, where a numerical
    # search on a fixed bracket would end; the closed forms need no bracket
    p = ModelParams(d1=1.0, d2=d2, d3=1.0, beta=1.0000000000001, gamma=0.5, delta=0.5, s_minus_inf=1.0)
    q = p.beta - p.gamma - p.delta
    sp = minimal_speed(p)
    assert sp.c_star == 2.0 * np.sqrt(d2 * q)
    assert sp.i_branch_active_at_minimizer
    assert sp.full_min == sp.c_star
    assert sp.full_argmin == sp.lambda_star


def test_phi_samples_reach_below_the_minimizer_near_r0_one():
    # lambda* = 3.2e-7: the samples start at 0.1*lambda* as the bracket does, not at 1e-3
    p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=1.0000000000001, gamma=0.5, delta=0.5, s_minus_inf=1.0)
    sp = minimal_speed(p, n_samples=3)
    assert sp.phi_samples[0][0] < sp.lambda_star < 1e-3
    # away from R0 = 1 they start at 1e-3
    assert minimal_speed(P0, n_samples=3).phi_samples[0][0] == 1e-3


def test_minimal_speed_full_quotient_closed_form():
    # infected branch active (P0), susceptible-dominated (d1 = 50) and
    # removed-dominated (d3 = 3 > 2*d2): each closed form is a value of phi
    # that no point of a fine grid undercuts, and the grid's minimum comes
    # within its kink error (slope times spacing) of it
    p_s = ModelParams(d1=50.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
    p_r = ModelParams(d1=1.0, d2=1.0, d3=3.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
    sp0, sp_s, sp_r = minimal_speed(P0), minimal_speed(p_s), minimal_speed(p_r)
    assert sp0.full_argmin == 1.0 and sp0.full_min == sp0.c_star
    assert sp_s.full_argmin == np.sqrt(1 / 49) and sp_s.full_min == 50 * np.sqrt(1 / 49)
    assert sp_r.full_argmin == np.sqrt(1 / 2) and sp_r.full_min == 3 * np.sqrt(1 / 2)
    assert not sp_s.i_branch_active_at_minimizer and not sp_r.i_branch_active_at_minimizer
    lams = np.linspace(1e-4, 10.0, 1_000_000)
    for p, sp in ((P0, sp0), (p_s, sp_s), (p_r, sp_r)):
        grid_phi = np.maximum.reduce([p.d1 * lams, p.d2 * lams + p.growth_rate / lams, p.d3 * lams])
        assert phi(sp.full_argmin, p) == pytest.approx(sp.full_min, rel=1e-15)
        assert -1e-12 <= np.min(grid_phi) - sp.full_min <= 1e-6 + max(p.d1, p.d3) * (lams[1] - lams[0])
        assert abs(lams[np.argmin(grid_phi)] - sp.full_argmin) <= 1e-4


def test_lambda0_at_the_minimal_speed_over_regime_draws():
    # c* decides: at c* the roots are lambda* (never a rounding of the
    # discriminant either side of 0), one ulp below is refused, one ulp above
    # gives two distinct real roots
    rng = np.random.default_rng(1)
    for _ in range(2000):
        d1, d2, d3 = rng.uniform(0.05, 5.0, size=3)
        gamma, delta = rng.uniform(0.05, 2.0), rng.uniform(0.0, 1.0)
        p = ModelParams(d1, d2, d3, (gamma + delta) * rng.uniform(1.001, 5.0), gamma, delta, 1.0)
        sp = minimal_speed(p)
        at = lambda0(sp.c_star, p)
        assert at.degenerate and at.lambda0 == at.lambda0_plus == sp.lambda_star
        with pytest.raises(ComplexRoots):
            lambda0(np.nextafter(sp.c_star, 0.0), p)
        above = lambda0(np.nextafter(sp.c_star, np.inf), p)
        assert not above.degenerate and 0.0 < above.lambda0 < above.lambda0_plus


def test_f_concavity():
    rng = np.random.default_rng(8)
    for _ in range(100):
        lams = np.sort(rng.uniform(0, 5, size=3))
        c = rng.uniform(0, 5)
        f = [characteristic_f(l, c, P0) for l in lams]
        # second difference of a concave function is nonpositive
        h1, h2 = lams[1] - lams[0], lams[2] - lams[1]
        if h1 > 1e-9 and h2 > 1e-9:
            second = (f[2] - f[1]) / h2 - (f[1] - f[0]) / h1
            assert second <= 1e-10


def test_f_positive_between_roots():
    r = lambda0(2.5, P0)
    lams = np.linspace(0.01, 3.5, 500)
    vals = np.array([characteristic_f(l, 2.5, P0) for l in lams])
    inside = (lams > r.lambda0 + 1e-9) & (lams < r.lambda0_plus - 1e-9)
    outside = (lams < r.lambda0 - 1e-9) | (lams > r.lambda0_plus + 1e-9)
    assert np.all(vals[inside] > 0)
    assert np.all(vals[outside] < 0)


def test_d3_condition():
    rep = check_d3_condition(P0, 2.5)
    assert rep.satisfied and rep.implied_positive
    assert rep.c_minus_d3_lambda0 == pytest.approx(2.0)
    p = ModelParams(1, 1, 2.0, 2.0, 0.5, 0.5, 1)  # boundary d3 = 2*d2 excluded
    assert not check_d3_condition(p, 2.5).satisfied
    p = ModelParams(1, 1, 1.9, 2.0, 0.5, 0.5, 1)
    rep = check_d3_condition(p, 2.01)
    assert rep.satisfied and rep.implied_positive


def test_front_roots_refuses_in_order():
    # R0 <= 1 first, then c < c*, then the hypothesis d3 < 2*d2, then c = c*
    d3_3 = ModelParams(1, 1, 3.0, 2.0, 0.5, 0.5, 1)
    c_star = minimal_speed(P0).c_star
    refusals = []
    for p, c, kind in (
        (ModelParams(1, 1, 3.0, 0.9, 0.5, 0.5, 1), 2.5, SubThreshold),
        (d3_3, 1.9, ComplexRoots),
        (d3_3, c_star, OutsideHypothesis),
        (P0, c_star, NoFront),
    ):
        with pytest.raises(NoFront) as info:
            front_roots(c, p)
        assert type(info.value) is kind
        refusals.append(info.value)
    assert all(isinstance(exc, ValueError) for exc in refusals)
    assert str(refusals[-1]) == "c = 2.0 is the minimal speed; the envelope construction needs c > c*"
    assert front_roots(2.5, P0) == lambda0(2.5, P0)


def test_d3_condition_implies_positivity_property():
    # whenever d3 < 2*d2 and c >= c*: c - d3*lambda0 > 0
    rng = np.random.default_rng(9)
    count = 0
    while count < 100:
        d2 = rng.uniform(0.1, 5)
        p = ModelParams(
            d1=rng.uniform(0.1, 5),
            d2=d2,
            d3=rng.uniform(0.05, 2 * d2 * 0.999),
            beta=rng.uniform(0.2, 5),
            gamma=rng.uniform(0.05, 2),
            delta=rng.uniform(0, 2),
            s_minus_inf=1.0,
        )
        if p.beta <= p.gamma + p.delta:
            continue
        c = minimal_speed(p).c_star * rng.uniform(1.0, 4.0)
        assert check_d3_condition(p, c).c_minus_d3_lambda0 > 0
        count += 1


@pytest.mark.parametrize("c", (2.05, 2.5, 4.0, 8.0))
def test_each_rate_is_a_root_of_its_symbol(c):
    # every decay rate and kernel exponent solves P(lambda; d, c, a) = 0 for
    # its own (d, a), relative to the size of the symbol's terms
    from sirwaves import choose_alphas
    from sirwaves.linear_analysis import symbol
    from sirwaves.wave_profile import outflow_rate

    def rel(lam, d, a):
        return abs(symbol(lam, d, c, a)) / (d * lam * lam + c * abs(lam) + abs(a))

    q = P0.beta - P0.gamma - P0.delta
    r = lambda0(c, P0)
    assert rel(r.lambda0, P0.d2, -q) <= 1e-15 and rel(r.lambda0_plus, P0.d2, -q) <= 1e-15
    assert rel(-outflow_rate(P0, c), P0.d2, P0.gamma + P0.delta) <= 1e-15
    for spec in choose_alphas(P0, c):
        assert rel(spec.lambda_minus, spec.d, spec.alpha) <= 1e-15
        assert rel(spec.lambda_plus, spec.d, spec.alpha) <= 1e-15


@pytest.mark.parametrize("c", (2.05, 2.5, 4.0, 8.0))
@pytest.mark.parametrize("dx", (0.1, 0.05, 0.025))
def test_discrete_decay_rate_is_a_root_of_the_stencil(c, dx):
    # exp(lambda_hat*x) solves the centred infected equation d2*h'' - c*h' + q*h = 0
    # at interior points, relative to the size of the stencil's terms; the
    # continuum rate lambda0 misses by its O(dx^2) offset
    from sirwaves import Grid, discrete_decay_rate
    from sirwaves.model import wave_operator

    q = P0.beta - P0.gamma - P0.delta
    x = Grid.symmetric(5.0, dx).x

    def worst(lam):
        h = np.exp(lam * x)
        terms = P0.d2 * (h[2:] + 2.0 * h[1:-1] + h[:-2]) / dx**2 + c * (h[2:] + h[:-2]) / (2.0 * dx) + q * h[1:-1]
        return np.max(np.abs(wave_operator(h, P0.d2, c, dx) + q * h[1:-1]) / terms)

    assert worst(discrete_decay_rate(P0, c, dx)) <= 1e-12
    assert worst(lambda0(c, P0).lambda0) > 1e-10


def test_discrete_decay_rate_complex_below_c_star():
    # at c = 1.9999 the stencil roots of dx = 0.05 are still real; the
    # continuum roots are not, and no wave decay rate exists
    from sirwaves import discrete_decay_rate
    from sirwaves.linear_analysis import stencil_roots

    z_lo, z_hi, _ = stencil_roots(P0.d2, 1.9999, -1.0, 0.05)
    assert 0.0 < z_lo < z_hi
    for c in (1.9999, 1.9):
        with pytest.raises(ComplexRoots):
            discrete_decay_rate(P0, c, 0.05)
