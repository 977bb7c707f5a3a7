"""
Steady states: existence, non-uniqueness, and certification.

The solver runs a damped fixed-point iteration on the semi-implicit step
at one pseudo-time, accelerated by Anderson mixing.  A limit is certified by its
strong-form residual alone, which must fall below 1e-9, and multistart
keeps only certified limits.  The demo prints each limit's residual and,
as a check against the time integrator, how far the flow moves it over
unit time; it asserts neither.

Non-uniqueness is real: a reaction vanishing at 0, 1/2, and 1 admits all
three constant states as equilibria, and the multistart solver finds each
one from the matching seed.
"""

import numpy as np

import nlch

grid = nlch.build_grid(1, 128, 1.0)
op = nlch.assemble_kernel(nlch.gaussian_kernel(c=0.05, lam=0.05), grid)

print("a reaction with three zeros: g = u (1-u) (1/2 - u)")
spec = nlch.balanced_cubic_reaction(grid, 1.0)
seeds = [np.full(grid.num_nodes, c) for c in (0.0, 0.5, 1.0)]
results = nlch.multistart_equilibria(seeds, spec, op)
print(f"  three constant seeds -> {len(results)} distinct equilibria")
for res in results:
    state, _ = nlch.run(res.u, spec, op, nlch.SolverConfig(dt=0.01, t_end=1.0))
    drift = nlch.l2_norm(grid, state.u - res.u)
    print(f"  mass {np.mean(res.u):.2f}: residual {res.residual:.2e}, "
          f"iterations {res.iterations}, unit-time drift {drift:.2e}")
print()

print("a strictly decreasing reaction has a unique equilibrium:")
spec = nlch.bertozzi_reaction(grid, 5.0, 0.6)
rng = np.random.default_rng(0)
seeds = [rng.uniform(0.0, 1.0, grid.num_nodes) for _ in range(5)]
results = nlch.multistart_equilibria(seeds, spec, op)
print(f"  five random seeds -> {len(results)} equilibrium "
      f"(residual {results[0].residual:.2e}, mass {np.mean(results[0].u):.4f})")
print()

print("the time integrator agrees with the steady-state solver:")
spec = nlch.oono_reaction(grid, 1.0)
u0 = rng.uniform(0.2, 0.8, grid.num_nodes)
res = nlch.solve_equilibrium(u0, spec, op)
state, _ = nlch.run(u0, spec, op, nlch.SolverConfig(dt=0.01, t_end=25.0,
                                                    record_every=100))
print(f"  |picard limit - time limit| = {nlch.l2_norm(grid, res.u - state.u):.2e}")
print(f"  (both find the empty phase: max |u*| = {np.max(np.abs(res.u)):.2e})")
