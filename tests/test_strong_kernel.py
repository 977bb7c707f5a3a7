"""Strong-kernel tier: claims that only the nonlocal term can make true.

The acceptance contract runs at kernel amplitude c = 0.05, where the
kernel is too weak to matter: a mode-1 perturbation of u = 1/2 decays
there as it does with no kernel at all, so that tier passes with every
kernel zeroed.  Linearized at u = 1/2, mode k grows at the rate
lambda_k (2 mu(1/2) Khat(xi_k) - 1), mu(1/2) = 1/4, so a Gaussian with
Khat(xi_1) > 2 separates the phases.  At c = 20, lam = 0.05,
Khat(xi_1) = c sqrt(pi lam) exp(-lam pi^2 / 4) is about 7.

The run: 1D n = 128, no reaction, dt = 2e-3 (below the random-data
cliff) to t = 1, from 0.5 + 0.01 cos(pi x).  Measured at c = 20, the
mode-1 coefficient grows from 7.07e-3 to 0.439 (x62) and the spread
max u - min u from 0.02 to 0.996, with no clamp event; at c = 0 the
coefficient falls to 4.0e-7, and at c = 0.05 to 4.3e-7.
"""

from nlch.diagnostics import mass_balance_residual
from nlch.grid import build_grid, inner, l2_norm, neumann_mode
from nlch.kernels import assemble_kernel, gaussian_kernel
from nlch.model import zero_reaction
from nlch.timestepper import SolverConfig, run

BOUND_TOL = 1e-8      # criterion 01
MASS_TOL = 1e-12      # criterion 02


def _mode_one_run(c: float):
    """The mode-1 coefficient at t = 0 and t = 1, and the run's record."""
    grid = build_grid(1, 128, 1.0)
    phi = neumann_mode(grid, 1)
    u0 = 0.5 + 0.01 * phi
    op = assemble_kernel(gaussian_kernel(c, 0.05), grid)
    state, rec = run(u0, zero_reaction(grid), op, SolverConfig(dt=2e-3, t_end=1.0))
    coefficient = lambda u: inner(grid, u, phi) / l2_norm(grid, phi)
    return coefficient(u0), coefficient(state.u), rec


def test_strong_kernel_separates_the_phases():
    before, after, rec = _mode_one_run(20.0)
    lo, hi = min(rec.min_u), max(rec.max_u)
    assert after >= 10.0 * before, f"mode 1 went {before:.3e} -> {after:.3e}"
    assert lo >= -BOUND_TOL and hi <= 1.0 + BOUND_TOL, (lo, hi)
    assert mass_balance_residual(rec) <= MASS_TOL


def test_without_the_kernel_the_mode_decays():
    before, after, _ = _mode_one_run(0.0)
    assert abs(after) <= before / 100.0, f"mode 1 went {before:.3e} -> {after:.3e}"
