"""
A 2D run at desk scale: 64 x 64 cells, a matrix-free Gaussian kernel
operator applied as two 64 x 64 products with its Toeplitz factor,
snapshots in the portable NLCH binary format.

The same guarantees hold as in 1D: bounds, exact mass balance, and a
monotone energy when the reaction is switched off.  Writes the final field
to nlch_2d_demo.nlch in the working directory.
"""

from pathlib import Path

import numpy as np

import nlch
from nlch.io import read_field, write_field

grid = nlch.build_grid(dim=2, n=64, length=1.0)
print(f"grid: {grid.n}x{grid.n} = {grid.num_nodes} cells")
print("assembling the kernel operator from its generator "
      f"({2 * grid.n - 1}^2 = {(2 * grid.n - 1) ** 2} offsets, "
      f"not {grid.num_nodes}^2 = {grid.num_nodes**2} weights) ...")
op = nlch.assemble_kernel(nlch.gaussian_kernel(c=0.02, lam=0.02), grid)
print(f"kernel constants: r2 = {op.r2_est:.4g}, rinf = {op.rinf_est:.4g}")

spec = nlch.zero_reaction(grid)
rng = np.random.default_rng(11)
u0 = rng.uniform(0.3, 0.7, grid.num_nodes)
cfg = nlch.SolverConfig(dt=0.005, t_end=0.5, record_every=10)
state, rec = nlch.run(u0, spec, op, cfg)

print(f"ran {state.step_count} steps to t = {state.t}")
print(f"mass drift: {abs(rec.mass[-1] - rec.mass[0]):.2e} (conserved, g = 0)")
print(f"bounds: [{min(rec.min_u):.4f}, {max(rec.max_u):.4f}]")
d_energy = np.diff(rec.energy)
print(f"energy monotone: {bool(np.all(d_energy <= 1e-10))} "
      f"(max increment {np.max(d_energy):.2e})")

out = Path("nlch_2d_demo.nlch")
write_field(out, grid, state.u, state.t)
g2, u2, t2 = read_field(out)
print(f"snapshot round trip: {out.name}, t = {t2}, "
      f"bit-exact = {np.array_equal(u2, state.u)}")
