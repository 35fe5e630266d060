"""Minimal front speed from the linearization at the invaded state.

The infected equation linearized ahead of the front admits exponential modes
exp(lambda*x) traveling at speed (d2*lambda^2 + beta - gamma - delta)/lambda.
The slowest such speed, over all decay rates lambda > 0, is the minimal front
speed c* = 2*sqrt(d2*(beta - gamma - delta)); below it the mode speeds are
complex and no front exists.
"""

import numpy as np

from sirwaves import ModelParams, lambda0, minimal_speed, phi, r_naught

p = ModelParams(d1=1.0, d2=1.0, d3=1.0, beta=2.0, gamma=0.5, delta=0.5, s_minus_inf=1.0)

print(f"reproduction number R0 = {r_naught(p)}")
speed = minimal_speed(p, n_samples=9)
print(f"minimal speed  c* = {speed.c_star}")
print(f"minimizing decay rate = {speed.lambda_star}")
print(f"full-quotient minimum = {speed.full_min} at lambda = {speed.full_argmin}")
print(f"infected branch active at the minimizer: {speed.i_branch_active_at_minimizer}")

print("\nspeed quotient along the decay-rate axis (minimum at lambda = 1):")
for lam, val in speed.phi_samples:
    bar = "#" * int(4 * min(val, 12))
    print(f"  lambda = {lam:7.3f}   phi = {val:8.3f}  {bar}")

print("\ndecay rates of admissible fronts above the minimal speed:")
for c in (2.05, 2.5, 3.0, 4.0):
    roots = lambda0(c, p)
    print(f"  c = {c:4.2f}: slow rate {roots.lambda0:.4f}, fast rate {roots.lambda0_plus:.4f}")

print("\nat c = c* the two rates collide at lambda* (degenerate front), for any parameters:")
roots = lambda0(speed.c_star, p)
print(f"  c = {speed.c_star}: rate {roots.lambda0} (degenerate = {roots.degenerate})")

print("\nbelow c* the rates leave the real axis:")
try:
    lambda0(1.9, p)
except Exception as exc:
    print(f"  c = 1.9 -> {type(exc).__name__}: {exc}")
