"""Acceptance gate: the long-time-behavior claims as executable checks.

Each test covers one numbered criterion, prints one pass/fail line, and
pins its tolerance explicitly.  The preset suite is 1D with n = 256:
three reactions (logistic, Bertozzi, Oono), two kernels (gaussian,
mollifier), three random seeds each.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import warnings

import numpy as np
import pytest

from nlch.diagnostics import (
    fit_exponential_rate,
    linear_fit_residual_fraction,
    mass_balance_residual,
)
from nlch.equilibrium import multistart_equilibria, solve_equilibrium
from nlch.grid import build_grid, l2_norm, neumann_mode
from nlch.kernels import assemble_kernel, gaussian_kernel, mollifier_kernel, zero_kernel
from nlch.model import (
    balanced_cubic_reaction,
    bertozzi_reaction,
    logistic_reaction,
    oono_reaction,
    zero_reaction,
)
from nlch.tangent import dimension_bound, remainder_order
from nlch.timestepper import SolverConfig, pair_run, run

N_1D = 256
SEEDS = (0, 1, 2)
SUITE_CFG = SolverConfig(dt=0.01, t_end=10.0, record_every=5)


def _criterion(num, name, checks):
    """Print the per-criterion verdict, then assert every sub-check."""
    failed = [desc for desc, ok in checks if not ok]
    print(f"ACCEPTANCE {num:2d} ({name}): {'FAIL' if failed else 'PASS'}")
    for desc in failed:
        print(f"    failed: {desc}")
    assert not failed, f"criterion {num} ({name}): " + "; ".join(failed)


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, N_1D, 1.0)


@pytest.fixture(scope="module")
def kernels(grid):
    return {
        "gaussian": assemble_kernel(gaussian_kernel(0.05, 0.05), grid),
        "mollifier": assemble_kernel(mollifier_kernel(0.05, 0.2), grid),
    }


def _reactions(grid):
    return {
        "logistic": logistic_reaction(grid, 1.0),
        "bertozzi": bertozzi_reaction(grid, 2.0, 0.7),
        "oono": oono_reaction(grid, 1.0),
    }


@pytest.fixture(scope="module")
def suite(grid, kernels):
    """The 18 preset runs shared by criteria 1, 2, and 6."""
    out = {}
    for rname, spec in _reactions(grid).items():
        for kname, op in kernels.items():
            for seed in SEEDS:
                rng = np.random.default_rng(seed)
                u0 = rng.uniform(0.1, 0.9, grid.num_nodes)
                state, rec = run(u0, spec, op, SUITE_CFG)
                out[(rname, kname, seed)] = (u0, state, rec)
    return out


def test_criterion_01_phase_bounds(suite, grid, kernels):
    recs = {key: rec for key, (_, _, rec) in suite.items()}
    # and one datum per reaction drawn nearer the pure phases
    for seed, (rname, spec) in enumerate(_reactions(grid).items()):
        u0 = np.random.default_rng(seed).uniform(0.05, 0.95, grid.num_nodes)
        for kname, op in kernels.items():
            recs[(rname, kname, f"wide {seed}")] = run(u0, spec, op, SUITE_CFG)[1]
    checks = []
    for key, rec in recs.items():
        lo, hi = min(rec.min_u), max(rec.max_u)
        checks.append((f"{key}: min u = {lo:.2e} >= -1e-8", lo >= -1e-8))
        checks.append((f"{key}: max u = {hi:.8f} <= 1 + 1e-8", hi <= 1.0 + 1e-8))
    # reaching this point at all means zero aborts
    checks.append(("zero aborts across the suite", True))
    _criterion(1, "phase bounds", checks)


def test_criterion_02_mass_identity(suite, grid):
    checks = []
    for key, (u0, _, rec) in suite.items():
        res = mass_balance_residual(rec)
        checks.append((f"{key}: per-step residual {res:.2e} <= 1e-12", res <= 1e-12))
    sigma, dt = 1.0, SUITE_CFG.dt
    for kname in ("gaussian", "mollifier"):
        for seed in SEEDS:
            u0, _, rec = suite[("oono", kname, seed)]
            oracle = float(np.mean(u0))
            worst = 0.0
            for m in rec.step_mass[1:]:
                oracle = oracle * (1.0 - sigma * dt)
                worst = max(worst, abs(m - oracle) / abs(oracle))
            checks.append(
                (f"oono/{kname}/{seed}: geometric mean error {worst:.2e} <= 1e-12",
                 worst <= 1e-12))
    _criterion(2, "mass identity", checks)


def test_criterion_03_oono_exponential_decay(grid, kernels):
    spec = oono_reaction(grid, 1.0)
    cfg = SolverConfig(dt=0.01, t_end=20.0, record_every=10)
    checks = []
    # a datum inside the suite's range, and one across all of [0, 1]
    for seed, lo, hi in ((0, 0.1, 0.9), (3, 0.0, 1.0)):
        u0 = np.random.default_rng(seed).uniform(lo, hi, grid.num_nodes)
        _, rec = run(u0, spec, kernels["gaussian"], cfg)
        rate, r2 = fit_exponential_rate(rec.times, rec.l2_norm, (10.0, 20.0))
        checks += [(f"u0 in [{lo}, {hi}]: fitted L2 decay rate {rate:.4f} >= 0.5", rate >= 0.5),
                   (f"u0 in [{lo}, {hi}]: fit quality r^2 = {r2:.6f} >= 0.99", r2 >= 0.99)]
    _criterion(3, "Oono converges to 0 exponentially", checks)


def test_criterion_04_logistic_convergence_to_one(grid, kernels):
    spec = logistic_reaction(grid, 1.0)
    op = kernels["gaussian"]
    rng = np.random.default_rng(1)
    u0 = rng.uniform(0.1, 0.9, grid.num_nodes)
    cfg = SolverConfig(dt=0.01, t_end=15.0, record_every=5)
    ref = np.ones(grid.num_nodes)
    _, rec = run(u0, spec, op, cfg, ref=ref)
    rate, r2 = fit_exponential_rate(rec.times, rec.dist_to_ref, (7.5, 15.0))
    increments = np.diff(rec.step_mass)

    with pytest.warns(UserWarning, match="pure phase"):
        state0, _ = run(np.zeros(grid.num_nodes), spec, op,
                        SolverConfig(dt=0.01, t_end=2.0))
    _criterion(4, "logistic converges to 1", [
        (f"fitted ||1-u|| decay rate {rate:.4f} > 0", rate > 0.0),
        (f"fit quality r^2 = {r2:.6f} >= 0.95", r2 >= 0.95),
        ("mean strictly increasing step-by-step", bool(np.all(increments > 0))),
        ("u0 = 0 stays exactly 0", bool(np.all(state0.u == 0.0))),
    ])


def test_criterion_05_bertozzi_unique_limit(grid, kernels):
    op = kernels["gaussian"]
    c1 = 0.5 * (op.r2_est / 4.0 + op.rinf_est) ** 2
    beta0 = c1 + 2.0
    spec = bertozzi_reaction(grid, beta0, 0.7)
    rng = np.random.default_rng(2)
    u01 = rng.uniform(0.1, 0.9, grid.num_nodes)
    u02 = rng.uniform(0.1, 0.9, grid.num_nodes)
    cfg = SolverConfig(dt=0.02, t_end=9.0, record_every=5)
    pair = pair_run(u01, u02, spec, op, cfg)
    rate, r2 = fit_exponential_rate(pair.times, pair.dist, (4.5, 9.0))
    _criterion(5, "Bertozzi converges to the unique stationary point", [
        (f"beta0 = {beta0:.4f} exceeds the Case-2 threshold {c1 + 1.0:.4f}",
         beta0 > c1 + 1.0),
        (f"final pair distance {pair.dist[-1]:.2e} <= 1e-6", pair.dist[-1] <= 1e-6),
        (f"pair decay rate {rate:.4f} >= 1", rate >= 1.0),
        (f"fit quality r^2 = {r2:.6f} >= 0.99", r2 >= 0.99),
    ])


def test_criterion_06_continuous_dependence(grid, kernels, suite):
    """Nearby data separate at most exponentially: log-distance within 10%
    of a straight line.  Each pair starts from a suite run's final state
    (so the contraction coefficients are frozen near the attractor) with an
    inward constant shift, the slowest eigendirection; mixed perturbations
    would superpose several exponentials and say nothing sharper."""
    checks = []
    cfg = SolverConfig(dt=0.01, t_end=1.5, record_every=5)
    for rname, spec in _reactions(grid).items():
        for kname, op in kernels.items():
            for seed in SEEDS:
                u01 = suite[(rname, kname, seed)][1].u
                inward = 1.0 if float(np.mean(u01)) < 0.5 else -1.0
                u02 = np.clip(u01 + inward * 1e-4, 0.0, 1.0)
                pair = pair_run(u01, u02, spec, op, cfg)
                log_d = np.log(pair.dist)
                slope = np.polyfit(pair.times, log_d, 1)[0]
                frac = linear_fit_residual_fraction(pair.times, log_d)
                checks.append(
                    (f"{rname}/{kname}/{seed}: C = {slope:.3f} finite",
                     bool(np.isfinite(slope))))
                checks.append(
                    (f"{rname}/{kname}/{seed}: residual fraction {frac:.3f} <= 0.10",
                     frac <= 0.10))
    _criterion(6, "continuous dependence", checks)


def test_criterion_07_equilibrium_certification(grid, kernels):
    op = kernels["gaussian"]
    dt = 0.01
    checks = []

    spec53 = balanced_cubic_reaction(grid, 1.0)
    seeds = [np.full(grid.num_nodes, c) for c in (0.0, 0.5, 1.0)]
    found = multistart_equilibria(seeds, spec53, op)
    checks.append((f"three constant seeds give exactly 3 equilibria, got {len(found)}",
                   len(found) == 3))

    rng = np.random.default_rng(3)
    extra = [
        (oono_reaction(grid, 1.0), rng.uniform(0.1, 0.9, grid.num_nodes)),
        (bertozzi_reaction(grid, 5.0, 0.6), rng.uniform(0.1, 0.9, grid.num_nodes)),
    ]
    resolved = [(spec53, r) for r in found] + [
        (spec, solve_equilibrium(u0, spec, op)) for spec, u0 in extra]
    for spec, res in resolved:
        if not res.converged:
            checks.append((f"{spec.name}: solve converged", False))
            continue
        checks.append((f"{spec.name}: residual {res.residual:.2e} < 1e-8",
                       res.residual < 1e-8))
        checks.append((f"{spec.name}: bounds respected",
                       float(np.min(res.u)) >= -1e-8 and float(np.max(res.u)) <= 1 + 1e-8))
        with warnings.catch_warnings():
            # pure-phase equilibria legitimately trigger the stationary-mass note
            warnings.simplefilter("ignore", UserWarning)
            state, _ = run(res.u, spec, op, SolverConfig(dt=dt, t_end=1.0))
        drift = l2_norm(grid, state.u - res.u)
        checks.append((f"{spec.name}: unit-time flow drift {drift:.2e} <= 10*dt",
                       drift <= 10 * dt))
    _criterion(7, "equilibrium certification", checks)


def test_criterion_08_uniform_differentiability(grid, kernels):
    eps_list = [1e-2, 3e-3, 1e-3, 3e-4]
    x = grid.axis_coords()
    direction = neumann_mode(grid, 1)
    direction = direction / l2_norm(grid, direction)

    nonlinear = logistic_reaction(grid, 1.0)
    u0 = 0.5 + 0.2 * np.cos(np.pi * x / grid.length)
    cfg = SolverConfig(dt=0.01, t_end=1.0)
    study = remainder_order(u0, direction, eps_list, nonlinear,
                            kernels["gaussian"], cfg, t=1.0)

    linear = oono_reaction(grid, 1.0)
    null_op = assemble_kernel(zero_kernel(), grid)
    rng = np.random.default_rng(4)
    u0_lin = rng.uniform(0.3, 0.7, grid.num_nodes)
    lin_study = remainder_order(u0_lin, direction, eps_list, linear, null_op, cfg, t=1.0)

    _criterion(8, "uniform differentiability", [
        (f"nonlinear fitted order {study.order:.3f} >= 1.5", study.order >= 1.5),
        (f"nonlinear fit r^2 = {study.r_squared:.5f} >= 0.98", study.r_squared >= 0.98),
        (f"linear remainders max {np.max(lin_study.remainders):.2e} <= 1e-10",
         bool(np.all(lin_study.remainders <= 1e-10))),
    ])


def test_criterion_09_trace_negativity(grid, kernels):
    op = assemble_kernel(gaussian_kernel(0.02, 0.05), grid)
    spec = oono_reaction(grid, 1.0)
    rng = np.random.default_rng(5)
    u0 = rng.uniform(0.2, 0.8, grid.num_nodes)
    cfg = SolverConfig(dt=0.01, t_end=4.0, record_every=10)
    # 30 columns span a steep contraction hierarchy: per-step QR keeps the
    # trailing directions above the cancellation floor
    scan = dimension_bound(u0, 30, 4.0, spec, op, cfg, ortho_every=1)
    checks = [(f"finite dimension bound, N = {scan.describe()}", scan.n_bound is not None)]
    if scan.n_bound is not None:
        tail = scan.traces[scan.n_bound - 1:]
        checks.append((f"trace negative for all n >= {scan.n_bound}",
                       bool(np.all(tail < 0.0))))
    checks.append(
        (f"n = 1 constant-mode trace {scan.traces[0]:.4f} within 5% of -sigma = -1",
         abs(scan.traces[0] - (-1.0)) <= 0.05))
    _criterion(9, "trace negativity and dimension bound", checks)


def test_criterion_10_reaction_free_regression(grid):
    op = assemble_kernel(gaussian_kernel(0.02, 0.05), grid)
    spec = zero_reaction(grid)
    rng = np.random.default_rng(6)
    u0 = rng.uniform(0.2, 0.8, grid.num_nodes)
    cfg = SolverConfig(dt=0.005, t_end=4.0, record_every=1)
    _, rec = run(u0, spec, op, cfg)
    m = np.asarray(rec.step_mass)
    mass_drift = float(np.max(np.abs(m - m[0]))) / abs(m[0])
    d_energy = np.diff(rec.energy)
    _criterion(10, "reaction-free gradient-flow regression", [
        (f"mass conserved to {mass_drift:.2e} <= 1e-12", mass_drift <= 1e-12),
        (f"energy nonincreasing, max increment {np.max(d_energy):.2e} <= 1e-10",
         bool(np.all(d_energy <= 1e-10))),
    ])
