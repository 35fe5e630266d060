"""Solving for the traveling wave: envelopes, fixed point, Newton agreement.

The wave at speed c > c* is a fixed point of the integral map inside the
region between explicit lower and upper envelopes; Newton, clipped at zero
and started inside the a priori bounds, solves the map's own discrete problem
and one step of the map certifies the root. The report carries that step's distance from the root and
the profile's signed distance to the envelopes, and the profile is checked
against every identity the wave provably satisfies: monotone S and R, the
sandwich 0 <= I <= S(-inf) - S(inf), the leading-edge decay rate, the
conserved integrals, and the removed-field reconstruction from I alone.
"""

import numpy as np

from sirwaves import Grid, ModelParams, profile_diagnostics, solve_fixed_point

p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)
c = 2.5
grid = Grid.symmetric(60.0, 0.05)

rep = solve_fixed_point(p, c, grid, tol=1e-8)
b = rep.gamma_set.bounds
print(f"envelope constants: eps = ({b.eps1}, {b.eps2}, {b.eps3})")
print(f"                    M   = ({b.m1:.4f}, {b.m2:.4f}, {b.m3:.4f})")
print(f"Newton took {rep.newton_steps} steps, residual sup norm "
      + " -> ".join(f"{r:.1e}" for r in rep.newton_residuals))
print(f"one step of the map from the Newton root moved it by {rep.residual_max:.2e} "
      f"(weighted {rep.residual:.2e}); certified: {rep.converged}")
print(f"wave-equation residual {rep.ode_residual:.2e}, S(inf) = {rep.s_inf:.6f}, "
      f"distance to the envelopes {rep.gamma_margin:.2e}")

d = profile_diagnostics(rep.profile, grid, p, c)
print("\ndiagnostics of the converged wave:")
print(f"  susceptible drop    {d.s_drop:.6f}")
print(f"  peak infected       {d.i_max:.6f} (bound {d.s_drop:.6f})")
print(f"  leading-edge decay  {d.left_decay_rate:.6f} vs lambda0 = 0.5")
print(f"  integral identity   spread {d.integral_identity_spread:.2e}")
print(f"  removed limit       {d.r_end:.6f} vs predicted {d.r_end_predicted:.6f}")
print(f"  R rebuilt from I    max error {d.r_reconstruction_max_err:.2e}")

print("\nwave profile every 10 length units:")
print(f"{'x':>7s} {'S':>10s} {'I':>10s} {'R':>10s}")
s, i, r = rep.profile
for xq in range(-60, 61, 10):
    k = int(round((xq - grid.x_min) / grid.dx))
    print(f"{grid.x[k]:7.1f} {s[k]:10.6f} {i[k]:10.6f} {r[k]:10.6f}")
