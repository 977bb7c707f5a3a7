"""Steady-state solves: certification, non-uniqueness, and continuation."""

import numpy as np
import pytest

from nlch.equilibrium import (
    EquilibriumConfig,
    equilibrium_residual,
    multistart_equilibria,
    solve_equilibrium,
)
from nlch.grid import build_grid, l2_norm
from nlch.kernels import assemble_kernel, gaussian_kernel
from nlch.model import (
    balanced_cubic_reaction,
    bertozzi_reaction,
    logistic_reaction,
    oono_reaction,
    zero_reaction,
)
from nlch.timestepper import SolverConfig, run


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 64, 1.0)


@pytest.fixture(scope="module")
def op(grid):
    return assemble_kernel(gaussian_kernel(0.05, 0.05), grid)


def const(grid, c):
    return np.full(grid.num_nodes, float(c))


class TestConfig:
    def test_schedule_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            EquilibriumConfig(eps_schedule=(0.1, 1.0))

    def test_damping_range(self):
        with pytest.raises(ValueError, match="damping"):
            EquilibriumConfig(damping=0.0)

    def test_empty_schedule(self):
        with pytest.raises(ValueError, match="nonempty"):
            EquilibriumConfig(eps_schedule=())

    @pytest.mark.parametrize("key", ["picard_tol", "residual_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-10])
    def test_tolerances_finite_positive(self, key, value):
        with pytest.raises(ValueError, match="finite and positive"):
            EquilibriumConfig(**{key: value})

    def test_max_iter_positive(self):
        with pytest.raises(ValueError, match="max_iter"):
            EquilibriumConfig(max_iter=0)

    @pytest.mark.parametrize("sched", [(float("nan"),), (float("inf"), 0.0), (-1.0,)])
    def test_schedule_entries_finite_nonnegative(self, sched):
        with pytest.raises(ValueError, match="finite and >= 0"):
            EquilibriumConfig(eps_schedule=sched)


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
        # one sweep per continuation stage
        assert res.iterations == len(EquilibriumConfig().eps_schedule)
        assert np.max(np.abs(res.u - 0.5)) < 1e-10
        assert res.residual < 1e-10

    def test_balanced_cubic_constants_return_themselves(self, grid, op):
        spec = balanced_cubic_reaction(grid, 1.0)
        for c in (0.0, 0.5, 1.0):
            res = solve_equilibrium(const(grid, c), spec, op)
            assert res.converged
            assert res.residual < 1e-10
            assert np.max(np.abs(res.u - c)) < 1e-10

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

    def test_non_convergence_is_flagged(self, grid, op):
        spec = bertozzi_reaction(grid, 5.0, 0.6)
        cfg = EquilibriumConfig(max_iter=2)
        rng = np.random.default_rng(3)
        res = solve_equilibrium(rng.uniform(0, 1, grid.num_nodes), spec, op, cfg)
        assert not res.converged
        assert not res.certified

    def test_mass_defect_reported(self, grid, op):
        res = solve_equilibrium(const(grid, 0.5), zero_reaction(grid), op)
        assert res.mass_defect == 0.0


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

    def test_eps_continuation_gaps_shrink(self, grid, op):
        spec = bertozzi_reaction(grid, 5.0, 0.6)
        rng = np.random.default_rng(13)
        res = solve_equilibrium(rng.uniform(0.1, 0.9, grid.num_nodes), spec, op)
        # warm-started later stages move the iterate less and less
        gaps = res.eps_gaps
        assert gaps[-1] <= 1e-8
        assert gaps[-1] <= gaps[0]


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

    def test_zero_dedup_tol_merges_identical_limits(self, grid, op):
        spec = balanced_cubic_reaction(grid, 1.0)
        seeds = [const(grid, 0.5), const(grid, 0.5)]
        assert len(multistart_equilibria(seeds, spec, op, dedup_tol=0.0)) == 1

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-6])
    def test_dedup_tol_finite_nonnegative(self, grid, op, tol):
        with pytest.raises(ValueError, match="dedup_tol"):
            multistart_equilibria([const(grid, 0.5)], zero_reaction(grid), op, dedup_tol=tol)
