"""Observables, rate fitting, and the mass-balance ledger."""

import math

import numpy as np
import pytest
from field_oracles import oracle_energy_terms

from nlch.diagnostics import (
    TrajectoryRecord,
    energy,
    fit_exponential_rate,
    linear_fit_residual_fraction,
    mass,
    mass_balance_residual,
    separation,
)
from nlch.grid import build_grid
from nlch.kernels import assemble_kernel, gaussian_kernel, mollifier_kernel, newton_kernel
from nlch.model import oono_reaction, potential, zero_reaction
from nlch.timestepper import SolverConfig, initial_state, run


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 64, 1.0)


@pytest.fixture(scope="module")
def op(grid):
    return assemble_kernel(gaussian_kernel(0.5, 0.1), grid)


class TestMass:
    def test_constant(self, grid):
        assert mass(np.full(grid.num_nodes, 0.3)) == pytest.approx(0.3)

    def test_half_indicator(self, grid):
        u = np.zeros(grid.num_nodes)
        u[: grid.num_nodes // 2] = 1.0
        assert mass(u) == pytest.approx(0.5)

    def test_linear_profile_exact(self, grid):
        # midpoint rule integrates linears exactly
        u = grid.axis_coords() / grid.length
        assert mass(u) == pytest.approx(0.5, abs=1e-12)


class TestSeparation:
    def test_interior_band(self):
        u = np.array([0.2, 0.4, 0.7])
        assert separation(u) == (pytest.approx(0.2), pytest.approx(0.3))

    def test_pure_phases(self):
        assert separation(np.zeros(5)) == (0.0, 1.0)
        assert separation(np.ones(5)) == (1.0, 0.0)


class TestTrajectoryRecord:
    def test_max_u_is_recorded_as_read(self, grid, op):
        """max u is stored as it is, not as 1 - (1 - max u), which rounds it."""
        rec = TrajectoryRecord(grid, 0.01)
        rec.sample(initial_state(np.linspace(0.1, 0.3, grid.num_nodes), zero_reaction(grid), op),
                   op, None)
        assert rec.min_u == [0.1] and rec.max_u == [0.3]

    def test_decayed_max_u_is_not_rounded_to_zero(self, grid):
        """An Oono decay ends near 1e-18, far below the spacing of 1 - max u."""
        op = assemble_kernel(gaussian_kernel(0.05, 0.05), grid)
        u0 = np.random.default_rng(7).uniform(0.2, 0.8, grid.num_nodes)
        state, rec = run(u0, oono_reaction(grid, 1.0), op,
                         SolverConfig(dt=0.01, t_end=40.0, record_every=4000))
        assert 0.0 < rec.max_u[-1] == np.max(state.u) < 1e-16
        assert rec.min_u[-1] == np.min(state.u)


class TestEnergy:
    def test_constant_state_has_no_pair_energy(self, grid, op):
        """E(u) = int f(u) + kbar u (1-u) + 1/2 int int K (u(x) - u(y))^2:
        a constant state has no pair term, only the local part."""
        c = 0.3
        e = energy(np.full(grid.num_nodes, c), op)
        local = grid.cell_volume * float(np.sum(potential(c) + op.kbar * c * (1.0 - c)))
        assert e == pytest.approx(local, rel=1e-12)

    def test_half_state_value(self, grid, op):
        e = energy(np.full(grid.num_nodes, 0.5), op)
        pair = 0.25 * float(np.sum(op.weights)) * grid.cell_volume
        assert e == pytest.approx(-grid.length ** grid.dim * math.log(2.0) + pair, rel=1e-12)

    def test_pure_phase_energy_vanishes(self, grid, op):
        assert energy(np.zeros(grid.num_nodes), op) == pytest.approx(0.0, abs=1e-12)
        assert energy(np.ones(grid.num_nodes), op) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_double_sum(self, grid, op):
        rng = np.random.default_rng(0)
        u = rng.uniform(0, 1, grid.num_nodes)
        pair = float(np.sum(op.weights * u[:, None] * (1.0 - u[None, :]))) * grid.cell_volume
        bulk = grid.cell_volume * float(np.sum(potential(u)))
        assert energy(u, op) == pytest.approx(pair + bulk, rel=1e-10)

    def test_reaction_free_constant_datum_is_nonincreasing(self):
        """Near the walls the kernel's row sums fall off, so a constant datum
        moves; the energy whose derivative is the step's chemical potential
        f'(u) + K*(1-2u) still never rises."""
        grid = build_grid(1, 64, 1.0)
        op = assemble_kernel(gaussian_kernel(1.0, 0.05), grid)
        _, rec = run(np.full(grid.num_nodes, 0.4), zero_reaction(grid), op,
                     SolverConfig(dt=0.01, t_end=1.0))
        assert rec.max_u[-1] - rec.min_u[-1] > 1e-3
        assert np.max(np.diff(rec.energy)) <= 1e-10

    @pytest.mark.parametrize("w", [0.5, np.full(8, 0.5), np.full((16, 1), 0.5)],
                             ids=["scalar", "short", "column"])
    def test_a_w_of_another_shape_is_rejected(self, w):
        """A w that broadcasts is not the state's K*(1-2u): at u = 0.5 on 1D
        n = 16 with gaussian_kernel(1, 0.05), energy(u, op, 0.5) read -0.4814
        against the true -0.6064."""
        grid = build_grid(1, 16, 1.0)
        op = assemble_kernel(gaussian_kernel(1.0, 0.05), grid)
        u = np.full(grid.num_nodes, 0.5)
        assert energy(u, op) == pytest.approx(-0.6064, abs=1e-4)
        with pytest.raises(ValueError, match=r"w has shape .*, expected u's shape \(16,\)"):
            energy(u, op, w)


ENERGY_CASES = {
    "1d-gaussian": (1, 256, gaussian_kernel(0.05, 0.05)),
    "1d-mollifier": (1, 256, mollifier_kernel(0.05, 0.2)),
    "1d-strong-gaussian": (1, 256, gaussian_kernel(20.0, 0.05)),
    "1d-fft-mollifier": (1, 512, mollifier_kernel(20.0, 0.2)),
    "2d-gaussian": (2, 16, gaussian_kernel(20.0, 0.05)),
    "2d-newton": (2, 16, newton_kernel(0.1)),
}


class TestEnergyFromW:
    @pytest.mark.parametrize("case", list(ENERGY_CASES))
    def test_a_given_w_is_the_computed_one(self, case):
        dim, n, spec = ENERGY_CASES[case]
        op = assemble_kernel(spec, build_grid(dim, n, 1.0))
        u = np.random.default_rng(n).uniform(0.1, 0.9, op.grid.num_nodes)
        e = energy(u, op)
        assert energy(u, op, op.convolve(1.0 - 2.0 * u)) == e
        pair, bulk = oracle_energy_terms(u, op)
        assert abs(e - (pair + bulk)) <= 1e-13 * (abs(pair) + abs(bulk))

    def test_a_sample_reads_the_states_w(self, grid, op, monkeypatch):
        """A recorded run samples the energy from each state's w, with no
        kernel apply of its own."""
        u0 = np.random.default_rng(2).uniform(0.2, 0.8, grid.num_nodes)
        cfg = SolverConfig(dt=0.01, t_end=0.1, record_every=2)
        _, rec = run(u0, oono_reaction(grid, 1.0), op, cfg)
        applies = []
        convolve = type(op).convolve
        monkeypatch.setattr(type(op), "convolve",
                            lambda self, rho: applies.append(1) or convolve(self, rho))
        _, again = run(u0, oono_reaction(grid, 1.0), op, cfg)
        assert again.energy == rec.energy
        assert len(applies) == cfg.n_steps + 1     # one per state, none per sample


class TestRateFitting:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_window_is_error(self, bad):
        t = np.linspace(0, 5, 101)
        v = np.exp(-t)
        v[60] = bad
        with pytest.raises(ValueError, match="non-finite values in fit window"):
            fit_exponential_rate(t, v, (2.5, 5.0))
        # a non-finite value outside the window is not read
        assert fit_exponential_rate(t, v, (0.0, 2.5))[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_the_cli_reports_a_non_finite_window_as_not_fitted(self, bad):
        from nlch.cli import _trailing_rate

        t = np.linspace(0, 5, 101)
        v = np.exp(-t)
        v[-1] = bad
        assert _trailing_rate(t, v) == "not fitted: non-finite values in fit window"

    def test_exact_exponential(self):
        t = np.linspace(0, 5, 101)
        rate, r2 = fit_exponential_rate(t, np.exp(-2.0 * t), (1.0, 5.0))
        assert rate == pytest.approx(2.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        t = np.linspace(0, 5, 101)
        rate, _ = fit_exponential_rate(t, np.full_like(t, 3.0), (0.0, 5.0))
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_floor_hits_zero_is_error(self):
        t = np.linspace(0, 5, 101)
        v = np.exp(-20 * t)
        v[v < 1e-15] = 0.0
        with pytest.raises(ValueError, match="floor"):
            fit_exponential_rate(t, v, (0.0, 5.0))

    def test_short_window_is_error(self):
        t = np.linspace(0, 5, 101)
        with pytest.raises(ValueError, match="need >= 10"):
            fit_exponential_rate(t, np.exp(-t), (4.9, 5.0))

    def test_linear_fit_residual_fraction(self):
        t = np.linspace(0, 5, 50)
        assert linear_fit_residual_fraction(t, -2 * t + 1) < 1e-12
        assert linear_fit_residual_fraction(t, -(t**2)) > 0.05


class TestMassBalance:
    def test_reaction_free_run_conserves(self, grid, op):
        from nlch.model import zero_reaction

        rng = np.random.default_rng(1)
        u0 = rng.uniform(0.2, 0.8, grid.num_nodes)
        _, rec = run(u0, zero_reaction(grid), op, SolverConfig(dt=0.01, t_end=0.5))
        assert mass_balance_residual(rec) <= 1e-12
        m = np.asarray(rec.step_mass)
        assert np.max(np.abs(m - m[0])) <= 1e-12 * abs(m[0])

    def test_oono_geometric_mass_and_l2_collapse_bound(self, grid, op):
        """The sink shrinks mass geometrically; for 0 <= u <= 1 the squared
        L2 norm is bounded by 3 |Omega| mean(u), so vanishing mass forces
        L2 collapse."""
        sigma, dt = 1.0, 0.01
        spec = oono_reaction(grid, sigma)
        rng = np.random.default_rng(2)
        u0 = rng.uniform(0.0, 1.0, grid.num_nodes)
        _, rec = run(u0, spec, op, SolverConfig(dt=dt, t_end=2.0, record_every=10))
        assert mass_balance_residual(rec) <= 1e-12

        oracle = float(np.mean(u0))
        for _ in range(len(rec.step_mass) - 1):
            oracle = oracle * (1.0 - sigma * dt)
        assert rec.step_mass[-1] == pytest.approx(oracle, rel=1e-12)

        vol = grid.length ** grid.dim
        for l2, m in zip(rec.l2_norm, rec.mass):
            assert l2**2 <= 3.0 * vol * m + 1e-15
