"""
The three interaction-kernel families and their discrete operators.

Every kernel becomes a symmetric operator W[i,j] = K(|x_i - x_j|) h^dim,
stored by its Toeplitz generator.  A 2D gaussian is applied by two
products with its n x n Toeplitz factor, every other operator by a
matrix-vector product on small grids or a zero-padded FFT on large ones.
Alongside each operator we estimate the constants that the convergence
thresholds depend on: the row-sum bound (k2_sup), the L2 -> H1 operator
norm (r2), and the worst-row gradient bound (rinf).
"""

import numpy as np

import nlch
from nlch.kernels import newton_self_cell_average

grid = nlch.build_grid(1, 128, 1.0)

print("gaussian  K(r) = c exp(-r^2/lam)")
op = nlch.assemble_kernel(nlch.gaussian_kernel(c=1.0, lam=0.05), grid)
print(f"  symmetric exactly: {np.array_equal(op.weights, op.weights.T)}")
print(f"  kbar: boundary {op.kbar[0]:.4f} < interior {op.kbar[grid.n // 2]:.4f} "
      "(mass leaks near the walls)")
print(f"  constants: r2 = {op.r2_est:.4f}, rinf = {op.rinf_est:.4f}, "
      f"k2_sup = {op.k2_sup:.4f}")
print()

print("mollifier  K(r) = c exp(-hcut^2/(hcut^2 - r^2)) inside r < hcut, 0 outside")
opm = nlch.assemble_kernel(nlch.mollifier_kernel(c=1.0, hcut=0.2), grid)
x = grid.axis_coords()
r = np.abs(x[:, None] - x[None, :])
outside = opm.weights[r >= 0.2]
print(f"  compactly supported: all {outside.size} far entries are exactly 0: "
      f"{np.all(outside == 0.0)}")
print(f"  constants: r2 = {opm.r2_est:.4f}, rinf = {opm.rinf_est:.4f}, "
      f"k2_sup = {opm.k2_sup:.4f}")
print()

print("newton (2D)  K(r) = -kd ln r, singular at r = 0")
g2 = nlch.build_grid(2, 24, 1.0)
opn = nlch.assemble_kernel(nlch.newton_kernel(kd=1.0), g2)
print(f"  self-cell entries use the analytic cell average of -ln r: "
      f"{newton_self_cell_average(g2.h, 1.0):.4f}")
print(f"  all weights finite: {np.all(np.isfinite(opn.generator))}")
print(f"  constants: r2 = {opn.r2_est:.4f}, rinf = {opn.rinf_est:.4f}, "
      f"k2_sup = {opn.k2_sup:.4f}")
print()

print("convolving the indicator of one cell recovers the kernel profile:")
j = grid.n // 3
rho = np.zeros(grid.num_nodes)
rho[j] = 1.0 / grid.cell_volume
profile = op.convolve(rho)
for i in range(j - 2, j + 3):
    print(f"  x = {x[i]:.4f}   K*delta = {profile[i]:.5f}   "
          f"K(|x - x_j|) = {np.exp(-((x[i] - x[j]) ** 2) / 0.05):.5f}")
