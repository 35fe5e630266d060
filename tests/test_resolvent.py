import numpy as np
import pytest
from scipy.optimize import brentq

from sirwaves import (
    Grid,
    GridFunction,
    ModelParams,
    ResolventSpec,
    TailIncompatible,
    ExponentOrdering,
    apply_delta_inverse,
    choose_alphas,
    choose_mu,
    delta_inverse_piecewise_g,
    discrete_kernel,
    lambda0,
    wave_operator,
)
from sirwaves.resolvent import _tail_ratio, _tail_sums, inverse_operator
from sirwaves.verification import ORACLE_FUNCTIONS, inversion_errors

P0 = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
C = 2.5
SPECS = choose_alphas(P0, C)
L0 = lambda0(C, P0).lambda0


def grid(L=20.0, dx=0.02):
    return Grid.symmetric(L, dx)


# ---------- constant selection ----------

def test_choose_alphas_p0_values():
    assert [s.alpha for s in SPECS] == pytest.approx([4.0, 3.0, 3.0])
    assert SPECS[0].lambda_minus == pytest.approx(-1.10850, abs=1e-5)
    assert SPECS[1].lambda_minus == pytest.approx(-0.88600, abs=1e-5)
    assert all(-s.lambda_minus > L0 for s in SPECS)
    assert SPECS[0].alpha > P0.beta and SPECS[1].alpha > P0.gamma + P0.delta


def test_kernel_exponents_against_root_finder():
    # scalar root-finder oracle on f_i for each spec
    for s in SPECS:
        f = lambda lam: -s.d * lam**2 + s.c * lam + s.alpha
        lo = brentq(f, -10.0, 0.0)
        hi = brentq(f, 0.0, 10.0)
        assert s.lambda_minus == pytest.approx(lo, abs=1e-10)
        assert s.lambda_plus == pytest.approx(hi, abs=1e-10)
        assert abs(f(s.lambda_minus)) < 1e-10 and abs(f(s.lambda_plus)) < 1e-10


def test_rho_two_forms_agree():
    for s in SPECS:
        direct = np.sqrt(s.c**2 + 4.0 * s.d * s.alpha)
        diff = s.d * (s.lambda_plus - s.lambda_minus)
        assert abs(direct - diff) <= 1e-12 * direct
        assert s.rho == pytest.approx(direct)


def test_choose_mu_p0():
    mu = choose_mu(SPECS, L0)
    assert mu == pytest.approx(0.693, abs=1e-3)
    for s in SPECS:
        assert s.lambda_minus < -mu < mu < s.lambda_plus


def test_choose_mu_near_degenerate():
    spec = ResolventSpec.build(1, 1.0, 2.5, 4.0)
    eps = 1e-6
    lam0_tight = -spec.lambda_minus - eps
    mu = choose_mu((spec,), lam0_tight)
    assert lam0_tight < mu < -spec.lambda_minus


def test_exponent_orderings_raise_typed_value_errors():
    bound = min(-s.lambda_minus for s in SPECS)
    with pytest.raises(ExponentOrdering, match="specs violate"):
        choose_mu(SPECS, 1.01 * bound)  # lam0 above min |lambda_i^-|
    with pytest.raises(ExponentOrdering, match="lost their ordering"):
        ResolventSpec.build(1, 1.0, 2.5, -0.5)  # alpha < 0 puts both exponents above 0
    assert issubclass(ExponentOrdering, ValueError)  # so profile exits 2


def forward_image(f, s, g):
    """-d h'' + c h' + alpha h at g's points by the centred stencil of model.wave_operator.

    f is sampled on g extended by one cell at each end, so every point of g is
    an interior point of the stencil.
    """
    h_ext = f(g.x_min + g.dx * np.arange(-1, g.n + 1))
    return -wave_operator(h_ext, s.d, s.c, g.dx) + s.alpha * h_ext[1:-1]


# ---------- inverse operator ----------

def test_inverse_of_constant_is_exact():
    g = grid(10.0, 0.05)
    for s in SPECS:
        gf = GridFunction(g, np.full(g.n, 3.0), 0.0, 0.0)
        out = apply_delta_inverse(gf, s)
        assert np.allclose(out.values, 3.0 / s.alpha, rtol=1e-13)


def test_inverse_exponential_eigenrelation():
    # continuum prediction exp(lam0*x)/f_2(lam0) to O(dx^2); the discrete
    # symbol value is matched to near roundoff
    g = grid(20.0, 0.01)
    s = SPECS[1]
    h = np.exp(L0 * g.x)
    gf = GridFunction(g, h, L0, L0)
    out = apply_delta_inverse(gf, s).values
    continuum = h / s.f(L0)
    assert np.max(np.abs(out / continuum - 1.0)) < 1e-5
    dx = g.dx
    sym = (
        -s.d * (np.exp(L0 * dx) - 2.0 + np.exp(-L0 * dx)) / dx**2
        + s.c * (np.exp(L0 * dx) - np.exp(-L0 * dx)) / (2.0 * dx)
        + s.alpha
    )
    assert np.max(np.abs(out / (h / sym) - 1.0)) < 1e-12


def test_inverse_exponential_eigenrelation_random_rates():
    # any rate strictly inside the kernel strip is an approximate eigenfunction
    g = grid(20.0, 0.01)
    rng = np.random.default_rng(31)
    for s in SPECS:
        for _ in range(5):
            lam = rng.uniform(0.8 * s.lambda_minus, 0.8 * s.lambda_plus)
            h = np.exp(lam * g.x)
            out = apply_delta_inverse(GridFunction(g, h, lam, lam), s).values
            assert np.max(np.abs(out / (h / s.f(lam)) - 1.0)) < 2e-4


def test_roundtrip_after_forward_operator_is_exact_interior():
    # inverse(forward(h)) returns h to roundoff in the interior; the only
    # residue is the tail-model mismatch decaying in from the edges
    g = grid(20.0, 0.02)
    sech = lambda x: 1.0 / np.cosh(x / 3.0)
    h = sech(g.x)
    margin = int(5.0 / g.dx)
    for s in SPECS:
        invert, _ = inverse_operator(s, g.dx, 1.0 / 3.0, -1.0 / 3.0)
        back = invert(forward_image(sech, s, g))
        inner = slice(margin, -margin)
        assert np.max(np.abs(back[inner] - h[inner])) < 1e-9


def test_roundtrip_against_analytic_forward_is_second_order():
    # oracle: closed-form derivatives; quadrature alone carries the error
    prev = None
    for dx in (0.02, 0.01, 0.005):
        errs = inversion_errors(SPECS, grid(20.0, dx))
        worst = max(errs.values())
        if prev is not None:
            order = np.log2(prev / worst)
            assert 1.8 <= order <= 2.2
        prev = worst
    assert worst < 1e-6


def test_inverse_positivity_monotonicity_linearity():
    g = grid(10.0, 0.05)
    rng = np.random.default_rng(11)
    s = SPECS[1]
    h1 = rng.uniform(0.0, 1.0, g.n)
    h2 = h1 + rng.uniform(0.0, 1.0, g.n)
    out1 = apply_delta_inverse(GridFunction(g, h1, np.inf, -np.inf), s).values
    out2 = apply_delta_inverse(GridFunction(g, h2, np.inf, -np.inf), s).values
    assert np.all(out1 >= 0)  # positive kernel
    assert np.all(out2 >= out1 - 1e-15)  # monotone
    a, b = 2.5, -1.25
    combo = apply_delta_inverse(GridFunction(g, a * h1 + b * h2, np.inf, -np.inf), s).values
    assert np.allclose(combo, a * out1 + b * out2, atol=1e-12)


def test_recursive_accumulation_matches_direct_sum():
    # O(n) recursion equals the O(n^2) double sum on a small grid
    g = Grid(-2.0, 2.0, 41)
    s = SPECS[1]
    rng = np.random.default_rng(12)
    h = rng.uniform(-1, 1, g.n)
    out = apply_delta_inverse(GridFunction(g, h, np.inf, -np.inf), s).values
    kern = discrete_kernel(s, g.dx)
    direct = np.empty(g.n)
    for j in range(g.n):
        acc = 0.0
        for k in range(g.n):
            if k <= j:
                acc += kern.z_minus ** (j - k) * h[k]
            else:
                acc += kern.z_plus ** (j - k) * h[k]
        direct[j] = g.dx * acc / kern.rho_hat
    assert np.allclose(out, direct, atol=1e-13)


def test_inversion_errors_leave_out_pairs_outside_the_kernel_strip():
    # far above c* the sech oracle's right tail rate -1/3 lies outside the
    # strip of operator 2, so that pair is left out instead of raising
    specs = choose_alphas(P0, 10.0)
    errs = inversion_errors(specs, Grid.symmetric(20, 0.01))
    assert ("sech", 2) not in errs
    assert ("gaussian", 2) in errs and ("sech", 1) in errs
    assert set(inversion_errors(SPECS, grid(20.0, 0.01))) == {
        (f[0], s.index) for f in ORACLE_FUNCTIONS for s in SPECS
    }


def test_discrete_kernel_ratios_near_continuum():
    for dx in (0.05, 0.025):
        for s in SPECS:
            kern = discrete_kernel(s, dx)
            kappa_minus, kappa_plus = np.log(kern.z_minus) / dx, np.log(kern.z_plus) / dx
            assert abs(kappa_minus - s.lambda_minus) < 0.2 * dx**2 * max(1, abs(s.lambda_minus) ** 3)
            assert abs(kappa_plus - s.lambda_plus) < 2.0 * dx**2 * max(1, s.lambda_plus**3)
            assert 0 < kern.z_minus < 1 < kern.z_plus


def test_tail_incompatible_raises():
    g = grid(10.0, 0.05)
    s = SPECS[1]
    bad_rate = s.lambda_plus + 0.5  # grows faster than the right kernel decays
    gf = GridFunction(g, np.exp(0.1 * g.x), 0.1, bad_rate)
    with pytest.raises(TailIncompatible):
        apply_delta_inverse(gf, s)
    with pytest.raises(TailIncompatible):  # decays faster than the left kernel grows
        inverse_operator(s, g.dx, s.lambda_minus - 0.5, 0.0)


def test_vanishing_closures_give_zero_tail_sums():
    # +inf on the left and -inf on the right close a tail that is zero off the window
    s = SPECS[1]
    kern = discrete_kernel(s, 0.05)
    q_left = _tail_ratio(np.inf, s, kern, "left")
    q_right = _tail_ratio(-np.inf, s, kern, "right")
    assert _tail_sums(np.array([2.0, 1.0, 3.0]), q_left, q_right, kern) == (0.0, 0.0)


@pytest.mark.parametrize("right_rate,q", [(0.0, 1.0), (-np.inf, 0.0), (-0.3, np.exp(-0.3 * 0.05))])
def test_right_closure_is_the_inverse_one_cell_on(right_rate, q):
    # the closure continues D^{-1} g one cell past the window: on a window one
    # cell longer, with g continued by its own tail ratio, the inverse agrees
    # with the short one and takes the closure's value at the new point
    dx = 0.05
    g = np.exp(-((np.arange(-200, 201) * dx / 3.0) ** 2)) + 0.5
    for s in SPECS:
        invert, (z, w) = inverse_operator(s, dx, L0, right_rate)
        h = invert(g)
        h_long = invert(np.append(g, q * g[-1]))
        assert np.max(np.abs(h_long[:-1] - h)) <= 1e-13
        assert h_long[-1] == pytest.approx(z * h[-1] + w * g[-1], rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("left,right", [(np.nan, 0.0), (0.0, np.nan), (-np.inf, 0.0), (0.0, np.inf)])
def test_undefined_tail_rates_are_rejected(left, right):
    # NaN, and infinities that would make the tail grow without bound off the window
    with pytest.raises(TailIncompatible):
        inverse_operator(SPECS[1], 0.05, left, right)


# ---------- forward of the inverse ----------

def test_plugging_derivatives_back_recovers_input():
    # -d u'' + c u' + alpha u = h: exact at interior points via the stencil
    g = grid(20.0, 0.02)
    s = SPECS[2]
    h = np.exp(-((g.x / 4.0) ** 2))
    invert, _ = inverse_operator(s, g.dx, np.inf, -np.inf)
    u = invert(h)
    back = -wave_operator(u, s.d, s.c, g.dx) + s.alpha * u[1:-1]
    assert np.max(np.abs(back - h[1:-1])) < 1e-10


# ---------- piecewise clipped-exponential domination ----------

def test_piecewise_g_domination():
    g = grid(20.0, 0.01)
    s = SPECS[1]
    out, g_vals, margins = delta_inverse_piecewise_g(s, L0, 0.1, 1.0, g)
    assert np.min(margins) >= -1e-8
    assert np.all(out >= -1e-12)


def test_piecewise_g_closed_forms():
    # both branches of the analytic margin formula, O(dx^2) with the kink on a node
    g = grid(20.0, 0.01)
    s = SPECS[1]
    lam, eps, big_m = L0, 0.1, 1.0
    out, g_vals, margins = delta_inverse_piecewise_g(s, lam, eps, big_m, g)
    x_star = -np.log(big_m) / eps
    x = g.x
    gap = eps / (s.lambda_plus - s.lambda_minus)
    right = x >= x_star + 1.0
    expected_right = gap * np.exp(lam * x_star + s.lambda_minus * (x[right] - x_star))
    assert np.max(np.abs(out[right] - expected_right)) < 1e-4 * gap
    left = (x <= x_star - 1.0) & (x >= x_star - 5.0)
    expected_left = gap * np.exp(lam * x_star + s.lambda_plus * (x[left] - x_star))
    assert np.max(np.abs(margins[left] - expected_left)) < 1e-4 * gap


def test_piecewise_g_exponent_ordering():
    g = grid(10.0, 0.05)
    s = SPECS[1]
    with pytest.raises(ExponentOrdering):
        delta_inverse_piecewise_g(s, s.lambda_plus, 0.5, 1.0, g)


# ---------- robustness of the constant choice ----------

def test_alpha_doubling_leaves_identities_intact():
    # rerunning with 4x shift constants must not change what the operators compute
    specs4 = [ResolventSpec.build(s.index, s.d, s.c, 4.0 * s.alpha) for s in SPECS]
    g = grid(20.0, 0.02)
    gauss = lambda x: np.exp(-((x / 4.0) ** 2))
    for s1, s4 in zip(SPECS, specs4):
        assert s4.alpha >= s1.alpha
        u1 = inverse_operator(s1, g.dx, np.inf, -np.inf)[0](forward_image(gauss, s1, g))
        u4 = inverse_operator(s4, g.dx, np.inf, -np.inf)[0](forward_image(gauss, s4, g))
        inner = slice(5, -5)
        assert np.max(np.abs(u1[inner] - u4[inner])) < 1e-9
