"""Semi-implicit stepping: bounds, mass identity, decay, and guards."""

import numpy as np
import pytest

from nlch.diagnostics import fit_exponential_rate, mass_balance_residual
from nlch.grid import build_grid, l2_norm
from nlch.kernels import assemble_kernel, gaussian_kernel, zero_kernel
from nlch.model import (
    bertozzi_reaction,
    logistic_reaction,
    oono_reaction,
    zero_reaction,
)
from nlch.solvers import SolverError
from nlch.timestepper import SolverConfig, initial_state, pair_run, run, step


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 128, 1.0)


@pytest.fixture(scope="module")
def weak_op(grid):
    return assemble_kernel(gaussian_kernel(0.05, 0.05), grid)


@pytest.fixture(scope="module")
def null_op(grid):
    return assemble_kernel(zero_kernel(), grid)


class TestConfigValidation:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            SolverConfig(dt=-0.1, t_end=1.0)

    @pytest.mark.parametrize("dt,t_end,match", [
        (float("nan"), 1.0, "dt must be positive and finite"),
        (float("inf"), 1.0, "dt must be positive and finite"),
        (0.01, float("inf"), "t_end must be positive and finite"),
        (0.01, float("nan"), "t_end must be positive and finite"),
        (0.01, 0.004, "steps >= 1"),
        (1e-320, 1e300, "steps >= 1"),
    ])
    def test_rejects_nonfinite_or_stepless_runs(self, dt, t_end, match):
        with pytest.raises(ValueError, match=match):
            SolverConfig(dt=dt, t_end=t_end)

    def test_single_step_run_accepted(self):
        assert SolverConfig(dt=0.01, t_end=0.006).n_steps == 1

    def test_reaction_stability_guard(self, grid, null_op):
        spec = oono_reaction(grid, 10.0)
        cfg = SolverConfig(dt=0.1, t_end=1.0)   # dt * L = 1 >= 0.5
        with pytest.raises(ValueError, match="explicit"):
            run(np.full(grid.num_nodes, 0.5), spec, null_op, cfg)


class TestSingleStep:
    def test_half_is_fixed_point_of_pure_diffusion(self, grid, null_op):
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        state = initial_state(np.full(grid.num_nodes, 0.5), null_op)
        new = step(state, spec, null_op, cfg)
        assert np.max(np.abs(new.u - 0.5)) < 1e-14
        assert new.t == pytest.approx(0.01)

    def test_w_cache_consistent(self, grid, weak_op):
        spec = logistic_reaction(grid, 1.0)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        rng = np.random.default_rng(0)
        state = initial_state(rng.uniform(0.2, 0.8, grid.num_nodes), weak_op)
        for _ in range(5):
            state = step(state, spec, weak_op, cfg)
        want = weak_op.convolve(1.0 - 2.0 * state.u)
        assert np.allclose(state.w, want, rtol=1e-12, atol=1e-14)

    def test_instability_aborts(self, grid):
        # a huge time step with a strong kernel must trip the excursion guard
        op = assemble_kernel(gaussian_kernel(40.0, 0.02), grid)
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.2, t_end=2.0)
        x = grid.axis_coords()
        u0 = 0.5 + 0.49 * np.cos(np.pi * x)
        with pytest.raises(SolverError, match="excursion|unstable"):
            run(u0, spec, op, cfg)

    def test_round_off_excursions_are_clamped_and_counted(self):
        """A jump from the pure phase 0 overshoots below 0 by round-off:
        the excursions are clamped and counted, and the mass identity holds."""
        grid = build_grid(1, 64, 1.0)
        op = assemble_kernel(gaussian_kernel(0.05, 0.05), grid)
        u0 = np.where(grid.axis_coords() < 0.5, 0.0, 0.9)
        state, rec = run(u0, zero_reaction(grid), op, SolverConfig(dt=1e-4, t_end=50e-4))
        assert state.step_count == 50
        assert state.clamp_events > 0
        assert mass_balance_residual(rec) <= 1e-12


class TestMassIdentity:
    def test_oono_mean_recursion(self, grid, weak_op):
        sigma, dt = 1.0, 0.01
        spec = oono_reaction(grid, sigma)
        rng = np.random.default_rng(1)
        u0 = rng.uniform(0.1, 0.9, grid.num_nodes)
        _, rec = run(u0, spec, weak_op, SolverConfig(dt=dt, t_end=1.0))
        oracle = float(np.mean(u0))
        for k in range(len(rec.step_mass) - 1):
            assert rec.step_mass[k + 1] == pytest.approx(oracle * (1 - sigma * dt),
                                                         rel=1e-12)
            oracle = oracle * (1 - sigma * dt)

    def test_signed_reactions_give_monotone_mass(self, grid, weak_op):
        rng = np.random.default_rng(2)
        u0 = rng.uniform(0.2, 0.8, grid.num_nodes)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        _, rec_up = run(u0, logistic_reaction(grid, 1.0), weak_op, cfg)
        assert np.all(np.diff(rec_up.step_mass) > 0), "logistic mass must increase"
        _, rec_down = run(u0, oono_reaction(grid, 1.0), weak_op, cfg)
        assert np.all(np.diff(rec_down.step_mass) < 0), "oono mass must decrease"
        assert mass_balance_residual(rec_up) <= 1e-12
        assert mass_balance_residual(rec_down) <= 1e-12

    def test_zero_initial_datum_with_logistic_stays_zero(self, grid, weak_op):
        spec = logistic_reaction(grid, 1.0)
        cfg = SolverConfig(dt=0.01, t_end=0.5)
        with pytest.warns(UserWarning, match="pure phase"):
            state, _ = run(np.zeros(grid.num_nodes), spec, weak_op, cfg)
        assert np.all(state.u == 0.0), "u = 0 is an equilibrium point"


class TestDecay:
    def test_heat_mode_decay_rate(self, grid, null_op):
        """Reaction-free, kernel-free dynamics is the heat equation; the
        lowest cosine mode decays at the analytic Neumann rate."""
        L = grid.length
        x = grid.axis_coords()
        u0 = 0.5 + 0.3 * np.cos(np.pi * x / L)
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.001, t_end=1.5, record_every=10)
        ref = np.full(grid.num_nodes, 0.5)
        _, rec = run(u0, spec, null_op, cfg, ref=ref)
        rate, r2 = fit_exponential_rate(rec.times, rec.dist_to_ref, (0.25, 1.25))
        want = (np.pi / L) ** 2
        assert rate == pytest.approx(want, rel=0.10)
        assert r2 > 0.999
        assert abs(rec.mass[-1] - 0.5) < 1e-12

    def test_oono_l2_collapse(self, grid, weak_op):
        spec = oono_reaction(grid, 1.0)
        rng = np.random.default_rng(3)
        u0 = rng.uniform(0.0, 1.0, grid.num_nodes)
        _, rec = run(u0, spec, weak_op, SolverConfig(dt=0.01, t_end=6.0, record_every=5))
        rate, r2 = fit_exponential_rate(rec.times, rec.l2_norm, (3.0, 6.0))
        assert rate >= 0.5
        assert r2 >= 0.99


class TestPhaseBoundsAndSeparation:
    def test_bounds_hold_on_random_runs(self, grid, weak_op):
        cfg = SolverConfig(dt=0.01, t_end=2.0, record_every=5)
        for seed, maker in ((0, lambda: logistic_reaction(grid, 1.0)),
                            (1, lambda: oono_reaction(grid, 1.0)),
                            (2, lambda: bertozzi_reaction(grid, 2.0, 0.7))):
            rng = np.random.default_rng(seed)
            u0 = rng.uniform(0.05, 0.95, grid.num_nodes)
            state, rec = run(u0, maker(), weak_op, cfg)
            assert min(rec.min_u) >= -1e-8
            assert max(rec.max_u) <= 1.0 + 1e-8

    def test_logistic_running_minimum_does_not_decrease(self, grid, weak_op):
        """With a nonnegative reaction and data away from 0, the separation
        from the lower phase persists after a unit transient."""
        spec = logistic_reaction(grid, 1.0)
        rng = np.random.default_rng(4)
        u0 = rng.uniform(0.2, 0.8, grid.num_nodes)
        _, rec = run(u0, spec, weak_op, SolverConfig(dt=0.01, t_end=4.0, record_every=5))
        t = np.asarray(rec.times)
        mins = np.asarray(rec.min_u)[t >= 1.0]
        assert np.all(np.diff(mins) >= -1e-12)

    def test_gradient_norm_stays_bounded(self, grid, weak_op):
        spec = logistic_reaction(grid, 1.0)
        rng = np.random.default_rng(5)
        u0 = rng.uniform(0.1, 0.9, grid.num_nodes)
        _, rec = run(u0, spec, weak_op, SolverConfig(dt=0.01, t_end=3.0, record_every=5))
        h1 = np.asarray(rec.h1_seminorm)
        assert np.all(np.isfinite(h1))
        tail = h1[np.asarray(rec.times) >= 1.0]
        assert np.max(tail) <= max(10.0 * h1[0], 10.0)


class TestPairRuns:
    def test_identical_data_identical_trajectories(self, grid, weak_op):
        spec = logistic_reaction(grid, 1.0)
        rng = np.random.default_rng(6)
        u0 = rng.uniform(0.2, 0.8, grid.num_nodes)
        pair = pair_run(u0, u0.copy(), spec, weak_op, SolverConfig(dt=0.01, t_end=0.5))
        assert np.all(pair.dist == 0.0)

    def test_heat_contraction(self, grid, null_op):
        spec = zero_reaction(grid)
        rng = np.random.default_rng(7)
        u01 = rng.uniform(0.2, 0.8, grid.num_nodes)
        u02 = rng.uniform(0.2, 0.8, grid.num_nodes)
        pair = pair_run(u01, u02, spec, null_op, SolverConfig(dt=0.01, t_end=1.0))
        assert np.all(np.diff(pair.dist) <= 1e-14)

    def test_bertozzi_contraction_beats_threshold(self, grid, weak_op):
        """Strictly decreasing reactions contract pairs at least at the rate
        beta0 - c1 with c1 from the kernel constants."""
        c1 = 0.5 * (weak_op.r2_est / 4.0 + weak_op.rinf_est) ** 2
        beta0 = c1 + 1.5
        spec = bertozzi_reaction(grid, beta0, 0.6)
        rng = np.random.default_rng(8)
        u01 = rng.uniform(0.1, 0.9, grid.num_nodes)
        u02 = rng.uniform(0.1, 0.9, grid.num_nodes)
        pair = pair_run(u01, u02, spec, weak_op,
                        SolverConfig(dt=0.01, t_end=6.0, record_every=5))
        rate, r2 = fit_exponential_rate(pair.times, pair.dist, (3.0, 6.0))
        assert rate >= beta0 - c1 - 0.1
        assert r2 >= 0.99


class Test2D:
    def test_bounds_and_mass_identity(self):
        grid = build_grid(2, 32, 1.0)
        op = assemble_kernel(gaussian_kernel(0.05, 0.05), grid)
        spec = logistic_reaction(grid, 1.0)
        rng = np.random.default_rng(10)
        u0 = rng.uniform(0.1, 0.9, grid.num_nodes)
        state, rec = run(u0, spec, op, SolverConfig(dt=0.01, t_end=1.0, record_every=10))
        assert min(rec.min_u) >= -1e-8
        assert max(rec.max_u) <= 1.0 + 1e-8
        assert mass_balance_residual(rec) <= 1e-12
        assert np.all(np.diff(rec.step_mass) > 0)

    def test_2d_heat_mode_decay(self):
        grid = build_grid(2, 32, 1.0)
        op = assemble_kernel(zero_kernel(), grid)
        x = grid.axis_coords()
        u0 = (0.5 + 0.2 * np.outer(np.cos(np.pi * x), np.ones(grid.n))).ravel()
        ref = np.full(grid.num_nodes, 0.5)
        spec = zero_reaction(grid)
        _, rec = run(u0, spec, op, SolverConfig(dt=0.002, t_end=0.8, record_every=10),
                     ref=ref)
        rate, r2 = fit_exponential_rate(rec.times, rec.dist_to_ref, (0.1, 0.7))
        assert rate == pytest.approx(np.pi**2, rel=0.10)
        assert r2 > 0.999


class TestRecordShapes:
    def test_series_lengths_and_times(self, grid, weak_op):
        spec = zero_reaction(grid)
        rng = np.random.default_rng(9)
        u0 = rng.uniform(0.2, 0.8, grid.num_nodes)
        _, rec = run(u0, spec, weak_op, SolverConfig(dt=0.01, t_end=0.5, record_every=7))
        arrays = rec.as_arrays()
        n = len(arrays["t"])
        assert all(len(v) == n for v in arrays.values())
        assert np.all(np.diff(arrays["t"]) > 0)
        assert len(rec.step_mass) == 51
        assert len(rec.step_g_mean) == 50

    def test_store_states(self, grid, weak_op):
        spec = zero_reaction(grid)
        u0 = np.full(grid.num_nodes, 0.4)
        _, rec = run(u0, spec, weak_op, SolverConfig(dt=0.01, t_end=0.1),
                     store_states=True)
        assert len(rec.states) == 11

    def test_initial_datum_validation(self, grid, weak_op):
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        bad = np.full(grid.num_nodes, 1.2)
        with pytest.raises(ValueError, match="0 <= u0 <= 1"):
            run(bad, spec, weak_op, cfg)
