"""Steady-state solves: certification, non-uniqueness, and Anderson mixing."""

import numpy as np
import pytest

from nlch._cores import solve1
from nlch.equilibrium import (
    ANDERSON_DEPTH,
    DAMPING,
    EQ_SHIFT,
    RESIDUAL_TOL,
    _AndersonHistory,
    _rhs,
    equilibrium_residual,
    multistart_equilibria,
    solve_equilibrium,
)
from nlch.grid import build_grid, check_field, l2_norm
from nlch.kernels import KernelOp, assemble_kernel, gaussian_kernel
from nlch.model import (
    balanced_cubic_reaction,
    bertozzi_reaction,
    logistic_reaction,
    oono_reaction,
    zero_reaction,
)
from nlch.solvers import SpdNeumannSolver
from nlch.timestepper import SolverConfig, initial_state, run, step


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 64, 1.0)


@pytest.fixture(scope="module")
def op(grid):
    return assemble_kernel(gaussian_kernel(0.05, 0.05), grid)


def const(grid, c):
    return np.full(grid.num_nodes, float(c))


# the plain step ||G(u) - u|| below which the oracle checks the residual
PICARD_TOL = 1e-10


def _oracle_solve(u_init, spec, op, max_sweeps=10000):
    """The plain damped Picard loop on the semi-implicit step at the pseudo-
    time of solve_equilibrium, with its own stop rule: a residual check once
    the plain step is below PICARD_TOL, and a flag when such a check falls
    by less than 1%; returns (u, converged, iterations)."""
    grid = op.grid
    theta = DAMPING
    tau = 1.0 / (spec.lipschitz_s + EQ_SHIFT)
    u = check_field(grid, u_init)
    solver = SpdNeumannSolver(grid, tau)
    converged = False
    stall_residual = np.inf
    iters = 0
    for _ in range(max_sweeps):
        iters += 1
        gamma = solver.solve(u + tau * _rhs(u, spec, op))
        u_next = (1.0 - theta) * u + theta * gamma
        np.clip(u_next, 0.0, 1.0, out=u_next)
        delta = l2_norm(grid, u_next - u)
        u = u_next
        if delta < PICARD_TOL:
            resid = equilibrium_residual(u, spec, op)
            if resid < RESIDUAL_TOL:
                converged = True
                break
            if resid >= 0.99 * stall_residual:
                break       # step converged but residual stalled: flag
            stall_residual = resid
    return u, converged, iters


class TestResidual:
    def test_half_state_reaction_free(self, grid, op):
        assert equilibrium_residual(const(grid, 0.5), zero_reaction(grid), op) <= 1e-12

    def test_zero_state_logistic(self, grid, op):
        # mu(0) = 0 and g(0) = 0: the pure phase is an exact equilibrium
        assert equilibrium_residual(const(grid, 0.0), logistic_reaction(grid, 1.0), op) <= 1e-12

    def test_nonequilibrium_has_positive_residual(self, grid, op):
        rng = np.random.default_rng(0)
        u = rng.uniform(0.2, 0.8, grid.num_nodes)
        assert equilibrium_residual(u, oono_reaction(grid, 1.0), op) > 1e-3


class TestSolve:
    def test_reaction_free_half_converges_immediately(self, grid, op):
        res = solve_equilibrium(const(grid, 0.5), zero_reaction(grid), op)
        assert res.converged
        # the half state is a fixed point: one sweep
        assert res.iterations == 1
        assert np.max(np.abs(res.u - 0.5)) < 1e-10
        assert res.residual < 1e-10

    def test_balanced_cubic_constants_return_themselves(self, grid, op):
        spec = balanced_cubic_reaction(grid, 1.0)
        for c in (0.0, 0.5, 1.0):
            res = solve_equilibrium(const(grid, c), spec, op)
            assert res.converged
            assert res.residual < 1e-10
            assert np.max(np.abs(res.u - c)) < 1e-10

    def test_result_is_not_the_seed(self, grid, op):
        """A seed certified at once is copied: a later write to it leaves
        the result alone."""
        seed = const(grid, 0.5)
        res = solve_equilibrium(seed, balanced_cubic_reaction(grid, 1.0), op)
        assert res.converged and res.iterations == 1
        seed[:] = 0.9
        assert np.all(res.u == 0.5)

    @pytest.mark.parametrize("value", [1.5, -2.0, 1.0 + 1e-12])
    def test_seed_outside_phase_bounds_rejected(self, grid, op, value):
        seed = const(grid, 0.5)
        seed[3] = value
        with pytest.raises(ValueError, match="0 <= u <= 1"):
            solve_equilibrium(seed, balanced_cubic_reaction(grid, 1.0), op)

    def test_oono_collapses_to_zero(self, grid, op):
        rng = np.random.default_rng(1)
        res = solve_equilibrium(rng.uniform(0.1, 0.9, grid.num_nodes),
                                oono_reaction(grid, 1.0), op)
        assert res.converged
        assert np.max(np.abs(res.u)) < 1e-9
        assert res.residual < 1e-9

    def test_solver_limit_matches_time_integration(self, grid, op):
        """Long time integration is the independent oracle for the oono
        steady state."""
        spec = oono_reaction(grid, 1.0)
        rng = np.random.default_rng(2)
        u0 = rng.uniform(0.2, 0.8, grid.num_nodes)
        res = solve_equilibrium(u0, spec, op)
        state, _ = run(u0, spec, op, SolverConfig(dt=0.01, t_end=25.0, record_every=100))
        assert l2_norm(grid, state.u - res.u) < 1e-8

    def test_non_convergence_is_flagged(self, grid, op, monkeypatch):
        monkeypatch.setattr("nlch.equilibrium.MAX_SWEEPS", 2)
        spec = bertozzi_reaction(grid, 5.0, 0.6)
        rng = np.random.default_rng(3)
        res = solve_equilibrium(rng.uniform(0, 1, grid.num_nodes), spec, op)
        assert not res.converged
        assert not res.certified
        # two steps, then the residual of the last iterate
        assert res.iterations == 3
        assert res.residual == equilibrium_residual(res.u, spec, op) >= RESIDUAL_TOL

    def test_mass_defect_reported(self, grid, op):
        res = solve_equilibrium(const(grid, 0.5), zero_reaction(grid), op)
        assert res.mass_defect == 0.0

    @pytest.mark.parametrize("name,max_sweeps", [("oono", 10000), ("balanced_cubic", 10000),
                                                 ("bertozzi", 2)])
    def test_one_kernel_apply_per_sweep(self, grid, op, monkeypatch, name, max_sweeps):
        """A sweep's residual check and step share one right-hand side: one
        kernel apply per iteration, whether the solve converges or runs out
        of sweeps."""
        monkeypatch.setattr("nlch.equilibrium.MAX_SWEEPS", max_sweeps)
        calls = 0
        convolve = KernelOp.convolve

        def counted(self, field):
            nonlocal calls
            calls += 1
            return convolve(self, field)

        monkeypatch.setattr(KernelOp, "convolve", counted)
        spec = REACTIONS[name](grid)
        seed = np.random.default_rng(4).uniform(0.1, 0.9, grid.num_nodes)
        res = solve_equilibrium(seed, spec, op)
        assert res.converged == (max_sweeps > 2) == (res.residual < RESIDUAL_TOL)
        assert calls == res.iterations, (calls, res.iterations)
        assert res.residual == equilibrium_residual(res.u, spec, op)


class TestCertification:
    def test_converged_solves_certify(self, grid, op):
        """Residual < 1e-8, bounds respected, and unit-time flow drift below
        10 dt for every converged equilibrium."""
        cases = [
            (bertozzi_reaction(grid, 5.0, 0.6), 10),
            (oono_reaction(grid, 1.0), 11),
            (balanced_cubic_reaction(grid, 1.0), 12),
        ]
        dt = 0.01
        for spec, seed in cases:
            rng = np.random.default_rng(seed)
            res = solve_equilibrium(rng.uniform(0.1, 0.9, grid.num_nodes), spec, op)
            assert res.converged, spec.name
            assert res.residual < 1e-8, spec.name
            assert float(np.min(res.u)) >= 0.0 and float(np.max(res.u)) <= 1.0
            state, _ = run(res.u, spec, op, SolverConfig(dt=dt, t_end=1.0))
            drift = l2_norm(grid, state.u - res.u)
            assert drift <= 10 * dt, f"{spec.name}: drift {drift:.2e}"

    def test_phase_separating_limit_is_certified(self, grid):
        """A strongly attracting kernel separates phases: the limit whose
        residual check passed is reported certified and does not drift."""
        op = assemble_kernel(gaussian_kernel(2.0, 0.05), grid)
        spec = balanced_cubic_reaction(grid, 1.0)
        seed = np.random.default_rng(3).uniform(0.1, 0.9, grid.num_nodes)
        res = solve_equilibrium(seed, spec, op)
        assert res.converged and res.certified
        dt = 0.01
        state, _ = run(res.u, spec, op, SolverConfig(dt=dt, t_end=1.0))
        drift = l2_norm(grid, state.u - res.u)
        assert drift <= 10 * dt, drift

    def test_stable_limit_is_certified_past_a_slow_residual(self, grid):
        """A residual that falls slowly near a stable limit is followed down to
        RESIDUAL_TOL: the logistic solve reaches u = 1, certified, and a unit
        time of flow leaves it in place."""
        op = assemble_kernel(gaussian_kernel(20.0, 0.05), grid)
        spec = logistic_reaction(grid, 1.0)
        seed = np.random.default_rng(104).uniform(0.05, 0.95, grid.num_nodes)
        res = solve_equilibrium(seed, spec, op)
        assert res.converged and res.certified, (res.residual, res.iterations)
        assert res.residual < RESIDUAL_TOL
        assert np.max(np.abs(res.u - 1.0)) <= 1e-8
        dt = 1e-3
        state, _ = run(res.u, spec, op, SolverConfig(dt=dt, t_end=1.0))
        drift = l2_norm(grid, state.u - res.u)
        assert drift <= 10 * dt, drift


class TestSteadyStateOfTheStep:
    @pytest.mark.parametrize("name", ["oono", "bertozzi", "logistic", "balanced_cubic"])
    def test_one_step_leaves_a_certified_limit_in_place(self, grid, op, name):
        """At u* the step's right side is (I - dt Lap) u* - dt r, r the strong
        residual, and its mass correction is round-off: since (I - dt Lap)^-1
        is an L2 contraction, one step moves u* by at most dt ||r||, at the
        sweep's pseudo-time and at a time step's dt alike."""
        spec = REACTIONS[name](grid)
        seeds = [const(grid, c) for c in (0.0, 0.5, 1.0)]
        seeds += [np.random.default_rng(k).uniform(0.1, 0.9, grid.num_nodes) for k in (3, 4)]
        found = multistart_equilibria(seeds, spec, op)
        assert found
        for res in found:
            for dt in (1.0 / (spec.lipschitz_s + EQ_SHIFT), 0.01):
                state = step(initial_state(res.u, spec, op), spec, op,
                             SolverConfig(dt=dt, t_end=dt))
                moved = l2_norm(grid, state.u - res.u)
                assert moved <= dt * res.residual + 1e-14, (name, dt, moved, res.residual)


class TestMultistart:
    def test_three_distinct_equilibria(self, grid, op):
        spec = balanced_cubic_reaction(grid, 1.0)
        seeds = [const(grid, c) for c in (0.0, 0.5, 1.0)]
        results = multistart_equilibria(seeds, spec, op)
        assert len(results) == 3
        masses = sorted(float(np.mean(r.u)) for r in results)
        assert masses == pytest.approx([0.0, 0.5, 1.0], abs=1e-9)

    def test_bertozzi_unique(self, grid, op):
        spec = bertozzi_reaction(grid, 5.0, 0.6)
        rng = np.random.default_rng(14)
        seeds = [rng.uniform(0, 1, grid.num_nodes) for _ in range(5)]
        results = multistart_equilibria(seeds, spec, op)
        assert len(results) == 1

    def test_empty_seed_list(self, grid, op):
        assert multistart_equilibria([], zero_reaction(grid), op) == []

    def test_duplicate_seeds_deduplicate(self, grid, op):
        spec = balanced_cubic_reaction(grid, 1.0)
        seeds = [const(grid, 0.5), const(grid, 0.5)]
        assert len(multistart_equilibria(seeds, spec, op)) == 1


REACTIONS = {
    "oono": lambda grid: oono_reaction(grid, 1.0),
    "bertozzi": lambda grid: bertozzi_reaction(grid, 5.0, 0.6),
    "balanced_cubic": lambda grid: balanced_cubic_reaction(grid, 1.0),
    "logistic": lambda grid: logistic_reaction(grid, 1.0),
}


class TestAndersonMixing:
    @pytest.mark.parametrize("name", list(REACTIONS))
    def test_limits_match_the_plain_iteration(self, grid, op, name):
        """Every seed the plain iteration solves is solved, certified, to the
        same limit, and the random seeds take at most half the sweeps."""
        spec = REACTIONS[name](grid)
        random_seeds = [np.random.default_rng(k).uniform(0.1, 0.9, grid.num_nodes)
                        for k in range(3, 13)]
        sweeps = oracle_sweeps = 0
        for k, seed in enumerate(random_seeds + [const(grid, c) for c in (0.0, 0.5, 1.0)]):
            u_oracle, oracle_converged, oracle_iters = _oracle_solve(seed, spec, op)
            res = solve_equilibrium(seed, spec, op)
            if oracle_converged:
                assert res.converged and res.certified, (name, k)
                dist = l2_norm(grid, res.u - u_oracle)
                assert dist <= 1e-9, (name, k, dist)
            if k < len(random_seeds):
                sweeps += res.iterations
                oracle_sweeps += oracle_iters
        assert 2 * sweeps <= oracle_sweeps, (name, sweeps, oracle_sweeps)

    def test_first_sweep_of_each_stage_is_plain(self, grid, op, monkeypatch):
        """The history starts empty: with one sweep the solve is the plain
        iteration, bit for bit."""
        monkeypatch.setattr("nlch.equilibrium.MAX_SWEEPS", 1)
        seed = np.random.default_rng(7).uniform(0.1, 0.9, grid.num_nodes)
        for make in REACTIONS.values():
            spec = make(grid)
            u_oracle, _, _ = _oracle_solve(seed, spec, op, max_sweeps=1)
            res = solve_equilibrium(seed, spec, op)
            assert np.array_equal(res.u, u_oracle)
            # one step, then the residual of its iterate
            assert res.iterations == 2

    def test_mixed_iterate_is_clamped(self, grid):
        """The secant through two residuals extrapolates to 1.15: clamped to 1."""
        hist = _AndersonHistory()
        v = np.ones(grid.num_nodes)
        assert np.array_equal(hist.mix(const(grid, 0.9), 0.1 * v), const(grid, 0.9))
        assert np.array_equal(hist.mix(const(grid, 0.95), 0.08 * v), v)

    def test_zero_history_gives_the_plain_step(self, grid):
        hist = _AndersonHistory()
        g, f = const(grid, 0.5), np.zeros(grid.num_nodes)
        with np.errstate(all="raise"):
            for _ in range(3):
                u = hist.mix(g, f)
        assert not hist.df
        assert np.array_equal(u, g)

    def test_parallel_history_keeps_one_column(self, grid):
        """Residuals along one direction (a constant seed's iterates) give
        parallel columns: all but the newest are dropped."""
        hist = _AndersonHistory()
        v = np.ones(grid.num_nodes)
        with np.errstate(all="raise"):
            for c in (0.1, 0.05, 0.02, 0.01, 0.004, 0.001):
                u = hist.mix(const(grid, 1.0 - c), c * v)
        assert len(hist.df) == 1
        assert np.isfinite(u).all() and np.min(u) >= 0.0 and np.max(u) <= 1.0

    def test_dependent_history_drops_the_oldest_columns(self, grid):
        """Differences a, b, a + b are linearly dependent: the oldest column
        goes and the mixed iterate stays finite and in [0, 1]."""
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, grid.num_nodes))
        hist = _AndersonHistory()
        with np.errstate(all="raise"):
            for f in (np.zeros(grid.num_nodes), a, a + b, 2 * a + 2 * b):
                u = hist.mix(np.clip(0.5 + 0.1 * f, 0.0, 1.0), 0.01 * f)
        assert len(hist.df) == 2
        assert np.isfinite(u).all() and np.min(u) >= 0.0 and np.max(u) <= 1.0

    def test_failed_solve_drops_the_oldest_column(self, grid, monkeypatch):
        """A Gram matrix that passes the independence test but cannot be
        solved costs its oldest column, as a failed test does."""
        rng = np.random.default_rng(8)
        hist = _AndersonHistory()
        for _ in range(4):
            hist.mix(rng.uniform(0, 1, grid.num_nodes), rng.standard_normal(grid.num_nodes))
        assert len(hist.df) == 3
        failed = []

        def solve_once_fails(a, b):
            # NaNs are how the LAPACK core reports a solve np.linalg.solve
            # would reject with LinAlgError
            if not failed:
                failed.append(a.shape)
                return np.full(b.shape, np.nan)
            return solve1(a, b)

        monkeypatch.setattr("nlch.equilibrium.solve1", solve_once_fails)
        u = hist.mix(rng.uniform(0, 1, grid.num_nodes), rng.standard_normal(grid.num_nodes))
        # four columns before the failure, three after
        assert failed == [(4, 4)] and len(hist.df) == len(hist.dg) == 3
        assert np.isfinite(u).all() and np.min(u) >= 0.0 and np.max(u) <= 1.0

    def test_spinodal_seed_returns(self, grid, monkeypatch):
        """This seed's Gram matrix is at times not positive definite in
        floats: the Cholesky core returns NaNs, the oldest column goes, and
        the solve goes on."""
        monkeypatch.setattr("nlch.equilibrium.MAX_SWEEPS", 200)
        op = assemble_kernel(gaussian_kernel(80.0, 0.05), grid)
        spec = balanced_cubic_reaction(grid, 1.0)
        seed = np.random.default_rng(100).uniform(0.05, 0.95, grid.num_nodes)
        res = solve_equilibrium(seed, spec, op)
        assert np.isfinite(res.u).all() and np.min(res.u) >= 0.0 and np.max(res.u) <= 1.0
        assert res.residual == equilibrium_residual(res.u, spec, op)

    def test_history_depth_is_bounded(self, grid):
        rng = np.random.default_rng(6)
        hist = _AndersonHistory()
        for _ in range(3 * ANDERSON_DEPTH):
            hist.mix(rng.uniform(0, 1, grid.num_nodes), rng.standard_normal(grid.num_nodes))
        assert len(hist.df) == len(hist.dg) == ANDERSON_DEPTH
