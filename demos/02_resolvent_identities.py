"""The damped operators D_i and their exponential-kernel inverses.

D_i h = -d_i h'' + c h' + a_i h is inverted by a two-sided exponential-kernel
sum whose ratios are matched to the difference stencil, so inverse(forward(h))
returns h to roundoff at interior points, with the forward image taken by the
centred stencil of model.wave_operator. Every inversion is the array map that
resolvent.inverse_operator builds once per operator, spacing and tail rates.
Against the exact (closed-form) forward image the roundtrip converges at
second order, and the inverse of the clipped exponential's image dominates the
clipped exponential pointwise.
"""

import numpy as np

from sirwaves import Grid, ModelParams, choose_alphas, delta_inverse_piecewise_g, lambda0, wave_operator
from sirwaves.resolvent import inverse_operator

p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
c = 2.5
specs = choose_alphas(p, c)
l0 = lambda0(c, p).lambda0

print("shift constants and kernel exponents:")
for s in specs:
    print(f"  i={s.index}: alpha={s.alpha:.3f}, exponents ({s.lambda_minus:.4f}, {s.lambda_plus:.4f})")

grid = Grid.symmetric(20.0, 0.01)
# the gaussian on the grid extended by one cell at each end, so the stencil reaches every grid point
gauss_ext = np.exp(-(((grid.x_min + grid.dx * np.arange(-1, grid.n + 1)) / 4.0) ** 2))
gauss = gauss_ext[1:-1]

print("\nroundtrip inverse(forward(h)) for a gaussian, interior max error:")
for s in specs:
    invert, _ = inverse_operator(s, grid.dx, np.inf, -np.inf)
    back = invert(-wave_operator(gauss_ext, s.d, s.c, grid.dx) + s.alpha * gauss)
    inner = slice(200, -200)
    err = np.max(np.abs(back[inner] - gauss[inner]))
    print(f"  i={s.index}: {err:.2e}")

print("\nroundtrip against the closed-form forward image (pure quadrature error):")
x = grid.x
h = np.exp(-((x / 4.0) ** 2))
hp = (-2 * x / 16.0) * h
hpp = (4 * x**2 / 256.0 - 2 / 16.0) * h
for dx in (0.02, 0.01, 0.005):
    g = Grid.symmetric(20.0, dx)
    xg = g.x
    hg = np.exp(-((xg / 4.0) ** 2))
    img = -specs[1].d * (4 * xg**2 / 256.0 - 2 / 16.0) * hg + specs[1].c * (-2 * xg / 16.0) * hg + specs[1].alpha * hg
    back = inverse_operator(specs[1], g.dx, np.inf, -np.inf)[0](img)
    inner = slice(int(5 / dx), -int(5 / dx))
    print(f"  dx={dx:6.3f}: {np.max(np.abs(back[inner] - hg[inner])):.2e}")

print("\npure exponential exp(lambda0*x) is an eigenfunction of the inverse:")
out = inverse_operator(specs[1], grid.dx, l0, l0)[0](np.exp(l0 * grid.x))
ratio = out[len(x) // 2] / np.exp(l0 * 0.0)
print(f"  value at 0: {ratio:.6f} vs 1/f_2(lambda0) = {1.0 / specs[1].f(l0):.6f}")

print("\ndomination: inverse(forward(clipped exponential)) >= clipped exponential:")
out, g_vals, margins = delta_inverse_piecewise_g(specs[1], l0, 0.1, 1.0, grid)
print(f"  min margin over the grid: {np.min(margins):.2e} (tolerance -1e-8)")
