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

The first claims of criteria 01-04 at c = 20, with their tolerances, on
the same grid and dt.  The suite's 18 runs to t = 2 (logistic 1, Bertozzi
(2, 0.7) and Oono 1, each with a Gaussian (20, 0.05) and a mollifier
(20, 0.2), from seeds 0-2 of uniform(0.1, 0.9)) took 1.0 s with no clamp
event, min u >= 1.0e-3, max u <= 0.99932 and mass residual <= 5.0e-16.
The Gaussian runs ended with max u - min u of 0.56 to 0.995; the bound on
that spread sees the kernel.  Oono from seed 0 decays in L2 at rate 1.001
(r^2 0.9999999 on [10, 20]), and logistic from seed 1 converges to 1 at
rate 0.994 (r^2 0.99993 on [7.5, 15]).
"""

import numpy as np
import pytest

from nlch.diagnostics import fit_exponential_rate, mass_balance_residual
from nlch.grid import build_grid, integrate, l2_norm, neumann_mode
from nlch.kernels import assemble_kernel, gaussian_kernel, mollifier_kernel
from nlch.model import bertozzi_reaction, logistic_reaction, oono_reaction, zero_reaction
from nlch.timestepper import SolverConfig, run

BOUND_TOL = 1e-8      # criterion 01
MASS_TOL = 1e-12      # criterion 02
# max u - min u at the end of a Gaussian suite run: 0.71x the smallest measured
SPREAD_MIN = 0.4


def _mode_one_run(c: float):
    """The mode-1 coefficient at t = 0 and t = 1, and the run's record."""
    grid = build_grid(1, 128, 1.0)
    phi = neumann_mode(grid, 1)
    u0 = 0.5 + 0.01 * phi
    op = assemble_kernel(gaussian_kernel(c, 0.05), grid)
    state, rec = run(u0, zero_reaction(grid), op, SolverConfig(dt=2e-3, t_end=1.0))
    coefficient = lambda u: integrate(grid, u * phi) / l2_norm(grid, phi)
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


SUITE_REACTIONS = {
    "logistic": lambda g: logistic_reaction(g, 1.0),
    "bertozzi": lambda g: bertozzi_reaction(g, 2.0, 0.7),
    "oono": lambda g: oono_reaction(g, 1.0),
}
SUITE_KERNELS = {"gaussian": gaussian_kernel(20.0, 0.05), "mollifier": mollifier_kernel(20.0, 0.2)}
SEEDS = (0, 1, 2)
DT = 2e-3


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 128, 1.0)


@pytest.fixture(scope="module")
def gaussian(grid):
    return assemble_kernel(SUITE_KERNELS["gaussian"], grid)


@pytest.fixture(scope="module")
def suite(grid):
    """(u0, final state, record) of each of the 18 runs, by (reaction, kernel, seed)."""
    cfg = SolverConfig(dt=DT, t_end=2.0, record_every=5)
    out = {}
    for kname, kernel in SUITE_KERNELS.items():
        op = assemble_kernel(kernel, grid)
        for rname, reaction in SUITE_REACTIONS.items():
            for seed in SEEDS:
                u0 = np.random.default_rng(seed).uniform(0.1, 0.9, grid.num_nodes)
                out[rname, kname, seed] = (u0, *run(u0, reaction(grid), op, cfg))
    return out


def test_suite_keeps_the_phase_bounds(suite):
    bounds = {key: (min(rec.min_u), max(rec.max_u)) for key, (_, _, rec) in suite.items()}
    assert all(lo >= -BOUND_TOL and hi <= 1.0 + BOUND_TOL for lo, hi in bounds.values()), bounds


def test_suite_keeps_the_mass_identity(suite):
    """The per-step residual, and Oono's mean, which shrinks by 1 - sigma dt a step."""
    for key, (u0, _, rec) in suite.items():
        assert mass_balance_residual(rec) <= MASS_TOL, key
        if key[0] == "oono":
            want = float(np.mean(u0)) * (1.0 - DT) ** np.arange(len(rec.step_mass))
            assert np.max(np.abs(np.array(rec.step_mass) - want) / want) <= MASS_TOL, key


def test_gaussian_suite_runs_separate_the_phases(suite):
    spreads = {key: float(np.ptp(state.u)) for key, (_, state, _) in suite.items()
               if key[1] == "gaussian"}
    assert min(spreads.values()) >= SPREAD_MIN, spreads


def test_oono_decays_to_zero_exponentially(grid, gaussian):
    u0 = np.random.default_rng(0).uniform(0.1, 0.9, grid.num_nodes)
    _, rec = run(u0, oono_reaction(grid, 1.0), gaussian,
                 SolverConfig(dt=DT, t_end=20.0, record_every=10))
    rate, r2 = fit_exponential_rate(rec.times, rec.l2_norm, (10.0, 20.0))
    assert rate >= 0.5 and r2 >= 0.99, (rate, r2)    # criterion 03


def test_logistic_converges_to_one(grid, gaussian):
    u0 = np.random.default_rng(1).uniform(0.1, 0.9, grid.num_nodes)
    _, rec = run(u0, logistic_reaction(grid, 1.0), gaussian,
                 SolverConfig(dt=DT, t_end=15.0, record_every=5), ref=np.ones(grid.num_nodes))
    rate, r2 = fit_exponential_rate(rec.times, rec.dist_to_ref, (7.5, 15.0))
    assert rate > 0.0 and r2 >= 0.95, (rate, r2)     # criterion 04
    assert np.all(np.diff(rec.step_mass) > 0)
