"""
Linearized flow, differentiability order, and the dimension bound.

First the tangent propagator is validated against brute perturbation:
the remainder || S(t)(u0 + eps d) - S(t)u0 - eps Lambda(t) d || must shrink
like eps^2 for the smooth discrete flow (and vanish outright when the
dynamics is affine).

Then a frame of tangent vectors rides along a trajectory with QR
re-orthonormalization, and the time-averaged trace of the linearized
operator over the leading n directions is scanned upward: the first n
with a negative trace bounds the attractor's fractal dimension.
"""

import numpy as np

import nlch

grid = nlch.build_grid(1, 256, 1.0)
x = grid.axis_coords()
direction = np.cos(np.pi * x / grid.length)
direction /= nlch.l2_norm(grid, direction)
cfg = nlch.SolverConfig(dt=0.01, t_end=4.0, record_every=10)
eps_list = [1e-2, 3e-3, 1e-3, 3e-4]

print("differentiability of the solution map")
op = nlch.assemble_kernel(nlch.gaussian_kernel(c=0.05, lam=0.05), grid)
spec = nlch.logistic_reaction(grid, 1.0)
u0 = 0.5 + 0.2 * np.cos(np.pi * x / grid.length)
study = nlch.remainder_order(u0, direction, eps_list, spec, op, cfg, t=1.0)
for e, r in zip(study.eps, study.remainders):
    print(f"  eps = {e:.0e}   remainder = {r:.3e}")
print(f"  nonlinear flow: {study}")

null_op = nlch.assemble_kernel(nlch.zero_kernel(), grid)
lin = nlch.oono_reaction(grid, 1.0)
rng = np.random.default_rng(3)
study = nlch.remainder_order(rng.uniform(0.3, 0.7, grid.num_nodes), direction,
                             eps_list, lin, null_op, cfg, t=1.0)
print(f"  affine flow:    {study}")
print()

print("trace scan along an Oono trajectory (sigma = 1, weak kernel)")
op = nlch.assemble_kernel(nlch.gaussian_kernel(c=0.02, lam=0.05), grid)
spec = nlch.oono_reaction(grid, 1.0)
u0 = rng.uniform(0.2, 0.8, grid.num_nodes)
scan = nlch.dimension_bound(u0, 8, 4.0, spec, op, cfg, ortho_every=1)
print("   n   time-averaged trace of the rank-n projector")
for n, tr in enumerate(scan.traces, start=1):
    marker = "  <- first negative" if n == scan.n_bound else ""
    print(f"  {n:2d}   {tr:12.4f}{marker}")
print(f"  dimension bound: N = {scan.describe()}")
print(f"  (the n = 1 entry is the constant mode and reads off -sigma = -1; "
      f"each further mode adds its diffusive decay rate)")
