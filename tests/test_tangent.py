"""Tangent flow, uniform differentiability, and trace-based dimension bounds."""

import numpy as np
import pytest

from nlch.grid import build_grid, h1_seminorm, inner, l2_norm
from nlch.kernels import assemble_kernel, gaussian_kernel, zero_kernel
from nlch.model import logistic_reaction, oono_reaction, zero_reaction
from nlch.tangent import (
    FrameDegeneracyError,
    TangentFrame,
    cosine_frame,
    dimension_bound,
    propagate_tangent,
    remainder_order,
    tangent_step,
    trace_estimate,
    trace_form,
)
from nlch.timestepper import SolverConfig, initial_state, run, step


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 64, 1.0)


@pytest.fixture(scope="module")
def weak_op(grid):
    return assemble_kernel(gaussian_kernel(0.02, 0.05), grid)


@pytest.fixture(scope="module")
def null_op(grid):
    return assemble_kernel(zero_kernel(), grid)


def cosine_direction(grid, k=1):
    x = grid.axis_coords()
    d = np.cos(k * np.pi * x / grid.length)
    return d / l2_norm(grid, d)


class TestTangentStep:
    def test_zero_stays_zero(self, grid, weak_op):
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        spec = logistic_reaction(grid, 1.0)
        u = np.full(grid.num_nodes, 0.4)
        w = weak_op.convolve(1 - 2 * u)
        out = tangent_step(np.zeros(grid.num_nodes), u, w, spec, weak_op, cfg)
        assert np.all(out == 0.0)

    def test_scaling_linearity(self, grid, weak_op):
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        spec = logistic_reaction(grid, 1.0)
        rng = np.random.default_rng(0)
        u = rng.uniform(0.2, 0.8, grid.num_nodes)
        w = weak_op.convolve(1 - 2 * u)
        U = rng.standard_normal(grid.num_nodes)
        one = tangent_step(U, u, w, spec, weak_op, cfg)
        scaled = tangent_step(3.0 * U, u, w, spec, weak_op, cfg)
        assert np.allclose(scaled, 3.0 * one, rtol=1e-12, atol=1e-13)

    def test_affine_dynamics_linearize_to_themselves(self, grid, null_op):
        """With zero kernel and a linear reaction the solution map is affine,
        so the tangent step must equal a difference of nonlinear steps."""
        spec = oono_reaction(grid, 0.8)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        rng = np.random.default_rng(1)
        u = rng.uniform(0.3, 0.7, grid.num_nodes)
        U = 0.05 * rng.standard_normal(grid.num_nodes)
        s1 = step(initial_state(u, null_op), spec, null_op, cfg)
        s2 = step(initial_state(u + U, null_op), spec, null_op, cfg)
        w = null_op.convolve(1 - 2 * u)
        tangent = tangent_step(U, u, w, spec, null_op, cfg)
        assert np.allclose(s2.u - s1.u, tangent, atol=1e-11)


class TestPropagatedMap:
    def test_linearity_of_propagator(self, grid, weak_op):
        spec = logistic_reaction(grid, 1.0)
        cfg = SolverConfig(dt=0.01, t_end=0.3)
        rng = np.random.default_rng(2)
        u0 = rng.uniform(0.3, 0.7, grid.num_nodes)
        _, rec = run(u0, spec, weak_op, cfg, store_states=True)
        U = rng.standard_normal(grid.num_nodes)
        V = rng.standard_normal(grid.num_nodes)
        a, b = 1.7, -0.6
        combo = propagate_tangent(a * U + b * V, rec, spec, weak_op, cfg)
        parts = (a * propagate_tangent(U, rec, spec, weak_op, cfg)
                 + b * propagate_tangent(V, rec, spec, weak_op, cfg))
        assert l2_norm(grid, combo - parts) <= 1e-10 * max(l2_norm(grid, combo), 1.0)

    def test_amplification_bounded_over_random_directions(self, grid, weak_op):
        spec = logistic_reaction(grid, 1.0)
        cfg = SolverConfig(dt=0.01, t_end=0.5)
        rng = np.random.default_rng(3)
        u0 = rng.uniform(0.3, 0.7, grid.num_nodes)
        _, rec = run(u0, spec, weak_op, cfg, store_states=True)
        ratios = []
        for _ in range(20):
            U0 = rng.standard_normal(grid.num_nodes)
            Ut = propagate_tangent(U0, rec, spec, weak_op, cfg)
            ratios.append(l2_norm(grid, Ut) / l2_norm(grid, U0))
            assert np.isfinite(h1_seminorm(grid, Ut))
        assert np.all(np.isfinite(ratios))
        assert max(ratios) < 10.0   # run constant, reported not asserted sharply

    def test_requires_stored_states(self, grid, weak_op):
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        _, rec = run(np.full(grid.num_nodes, 0.4), spec, weak_op, cfg)
        with pytest.raises(ValueError, match="store_states"):
            propagate_tangent(np.ones(grid.num_nodes), rec, spec, weak_op, cfg)


class TestRemainderOrder:
    def test_affine_flow_is_exact(self, grid, null_op):
        spec = oono_reaction(grid, 1.0)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        rng = np.random.default_rng(4)
        u0 = rng.uniform(0.3, 0.7, grid.num_nodes)
        study = remainder_order(u0, cosine_direction(grid), [1e-2, 3e-3, 1e-3, 3e-4],
                                spec, null_op, cfg, t=0.5)
        assert study.exact
        assert study.order == np.inf
        assert np.all(study.remainders <= 1e-10)

    def test_nonlinear_flow_is_second_order(self, grid, weak_op):
        spec = logistic_reaction(grid, 1.0)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        x = grid.axis_coords()
        u0 = 0.5 + 0.2 * np.cos(np.pi * x / grid.length)
        study = remainder_order(u0, cosine_direction(grid), [1e-2, 3e-3, 1e-3, 3e-4],
                                spec, weak_op, cfg, t=0.5)
        assert not study.exact
        assert study.order >= 1.5
        assert study.r_squared >= 0.98

    def test_needs_three_points(self, grid, null_op):
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        u0 = np.full(grid.num_nodes, 0.5)
        with pytest.raises(ValueError, match="need >= 3 points"):
            remainder_order(u0, cosine_direction(grid), [1e-3], spec, null_op, cfg, t=0.1)

    def test_out_of_bounds_eps_skipped(self, grid, null_op):
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        u0 = np.full(grid.num_nodes, 0.998)   # close to the upper phase
        with pytest.warns(UserWarning, match="out of"):
            study = remainder_order(u0, cosine_direction(grid), [0.5, 1e-3, 3e-4, 1e-4],
                                    spec, null_op, cfg, t=0.1)
        assert study.eps.size == 3


class TestFrames:
    def test_cosine_frame_orthonormal(self, grid):
        frame = cosine_frame(grid, 5)
        gram = grid.cell_volume * frame.vectors.T @ frame.vectors
        assert np.allclose(gram, np.eye(5), atol=1e-10)

    def test_orthonormalize_restores_after_drift(self, grid):
        frame = cosine_frame(grid, 4)
        rng = np.random.default_rng(5)
        frame.vectors = frame.vectors @ (np.eye(4) + 0.1 * rng.standard_normal((4, 4)))
        frame.orthonormalize()
        gram = grid.cell_volume * frame.vectors.T @ frame.vectors
        assert np.allclose(gram, np.eye(4), atol=1e-10)

    def test_degenerate_frame_raises(self, grid):
        cols = np.ones((grid.num_nodes, 2))
        frame = TangentFrame(grid=grid, vectors=cols)
        with pytest.raises(FrameDegeneracyError):
            frame.orthonormalize()

    def test_frame_size_validation(self, grid):
        with pytest.raises(ValueError):
            cosine_frame(grid, 0)


class TestTraceForm:
    def test_constant_mode_reads_reaction_derivative(self, grid, null_op):
        """At u = 1/2 with a zero kernel the constant mode kills every
        gradient term, leaving exactly the reaction derivative -sigma."""
        spec = oono_reaction(grid, 1.0)
        u = np.full(grid.num_nodes, 0.5)
        w = null_op.convolve(1 - 2 * u)
        phi = np.ones(grid.num_nodes)
        phi /= l2_norm(grid, phi)
        c = trace_form(phi[:, None], u, w, spec, null_op)
        assert c[0] == pytest.approx(-1.0, rel=1e-12)

    def test_gradient_terms_are_negative(self, grid, null_op):
        spec = zero_reaction(grid)
        u = np.full(grid.num_nodes, 0.5)
        w = null_op.convolve(1 - 2 * u)
        frame = cosine_frame(grid, 3)
        c = trace_form(frame.vectors, u, w, spec, null_op)
        assert c[0] == pytest.approx(0.0, abs=1e-10)
        assert c[1] < 0 and c[2] < c[1]


class TestTraceEstimates:
    def test_heat_flow_dimension_bound_is_two(self, grid, null_op):
        """Reaction-free, kernel-free flow: the constant mode is neutral and
        the second mode contributes the first Neumann eigenvalue."""
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.01, t_end=3.0, record_every=10)
        u0 = np.full(grid.num_nodes, 0.5)
        scan = dimension_bound(u0, 3, 3.0, spec, null_op, cfg)
        assert scan.n_bound == 2
        lam1 = (2.0 - 2.0 * np.cos(np.pi / grid.n)) / grid.h**2
        assert scan.traces[0] == pytest.approx(0.0, abs=1e-8)
        assert scan.traces[1] == pytest.approx(-lam1, rel=1e-6)

    def test_strong_sink_gives_dimension_one(self, grid, weak_op):
        spec = oono_reaction(grid, 10.0)
        cfg = SolverConfig(dt=0.01, t_end=2.0, record_every=10)
        rng = np.random.default_rng(6)
        u0 = rng.uniform(0.2, 0.8, grid.num_nodes)
        scan = dimension_bound(u0, 2, 2.0, spec, weak_op, cfg)
        assert scan.n_bound == 1
        assert scan.traces[0] == pytest.approx(-10.0, rel=0.05)

    def test_partial_sums_match_individual_estimates(self, grid, weak_op):
        spec = oono_reaction(grid, 1.0)
        cfg = SolverConfig(dt=0.01, t_end=2.0, record_every=10)
        rng = np.random.default_rng(7)
        u0 = rng.uniform(0.2, 0.8, grid.num_nodes)
        scan = dimension_bound(u0, 3, 2.0, spec, weak_op, cfg)
        for n in (1, 2, 3):
            single = trace_estimate(u0, n, 2.0, spec, weak_op, cfg)
            assert single == pytest.approx(scan.traces[n - 1], rel=1e-8, abs=1e-10)

    def test_nested_trace_increment_bounded_by_reaction(self, grid, weak_op):
        # each added column contributes at most max|g'|
        spec = oono_reaction(grid, 1.0)
        cfg = SolverConfig(dt=0.01, t_end=2.0, record_every=10)
        rng = np.random.default_rng(8)
        u0 = rng.uniform(0.2, 0.8, grid.num_nodes)
        scan = dimension_bound(u0, 5, 2.0, spec, weak_op, cfg)
        max_dg = 1.0
        for n in range(1, 5):
            assert scan.traces[n] <= scan.traces[n - 1] + max_dg + 1e-9

    def test_empty_scan_rejected(self, grid, null_op):
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.01, t_end=2.0)
        for n_max in (0, -1):
            with pytest.raises(ValueError, match="n_max must be >= 1"):
                dimension_bound(np.full(grid.num_nodes, 0.5), n_max, 2.0, spec, null_op, cfg)

    @pytest.mark.parametrize("ortho_every", [0, -1])
    def test_ortho_every_must_be_positive(self, grid, null_op, ortho_every):
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.01, t_end=2.0)
        with pytest.raises(ValueError, match="ortho_every"):
            dimension_bound(np.full(grid.num_nodes, 0.5), 2, 2.0, spec, null_op, cfg,
                            ortho_every=ortho_every)

    def test_transient_requires_long_enough_run(self, grid, null_op):
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.01, t_end=0.5)
        with pytest.raises(ValueError, match="transient"):
            trace_estimate(np.full(grid.num_nodes, 0.5), 1, 0.5, spec, null_op, cfg)
