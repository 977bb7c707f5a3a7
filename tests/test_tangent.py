"""Tangent flow, uniform differentiability, and trace-based dimension bounds."""

import math
import re
import warnings
from dataclasses import replace
from itertools import pairwise

import numpy as np
import pytest
from field_oracles import (APPLY_CASES, QR_CASES, apply_op, apply_paths, grid_and_fields,
                           on_every_row, qr_case, rel_max_error, same_bits)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nlch.tangent
from nlch._cores import householder_qr
from nlch.equilibrium import _rhs
from nlch.grid import (build_grid, div_flux, h1_seminorm, integrate, l2_norm, laplacian_neumann,
                       neumann_mode)
from nlch.kernels import (
    KernelOp,
    assemble_kernel,
    gaussian_kernel,
    mollifier_kernel,
    newton_kernel,
    zero_kernel,
)
from nlch.model import (balanced_cubic_reaction, logistic_reaction, mobility, oono_reaction,
                        zero_reaction)
from nlch.solvers import SpdNeumannSolver
from nlch.tangent import (
    DimensionScan,
    FrameDegeneracyError,
    TangentFrame,
    _tangent_rhs_terms,
    cosine_frame,
    dimension_bound,
    propagate_tangent,
    remainder_order,
    tangent_step,
    trace_form,
)
from nlch.timestepper import SolverConfig, _trajectory, initial_state, run, step


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
        s1 = step(initial_state(u, spec, null_op), spec, null_op, cfg)
        s2 = step(initial_state(u + U, spec, null_op), spec, null_op, cfg)
        w = null_op.convolve(1 - 2 * u)
        tangent = tangent_step(U, u, w, spec, null_op, cfg)
        assert np.allclose(s2.u - s1.u, tangent, atol=1e-11)


DERIVATIVE_KERNELS = {
    "1d-n64-gaussian": (1, 64, gaussian_kernel(20.0, 0.05)),
    "1d-n64-mollifier": (1, 64, mollifier_kernel(1.0, 0.25)),
    "2d-n16-newton": (2, 16, newton_kernel(0.1)),
    "2d-n16-gaussian": (2, 16, gaussian_kernel(1.0, 0.1)),
}
DERIVATIVE_REACTIONS = {
    "oono": lambda g: oono_reaction(g, 1.0),
    "logistic": lambda g: logistic_reaction(g, 1.0),
    "balanced_cubic": lambda g: balanced_cubic_reaction(g, 1.0),
    "none": zero_reaction,
}


class TestTangentIsTheDerivative:
    @pytest.mark.parametrize("reaction", list(DERIVATIVE_REACTIONS))
    @pytest.mark.parametrize("kernel", list(DERIVATIVE_KERNELS))
    def test_tangent_terms_match_central_differences_of_the_rhs(self, kernel, reaction):
        """The tangent right-hand side is the derivative of the equilibrium
        right-hand side div(mu(u) grad K*(1 - 2u)) + g(u); with u inside
        [0.2, 0.8] no clamp is active, so central differences agree to
        O(eps^2) plus round-off."""
        dim, n, kernel_spec = DERIVATIVE_KERNELS[kernel]
        g = build_grid(dim, n, 1.0)
        op = assemble_kernel(kernel_spec, g)
        spec = DERIVATIVE_REACTIONS[reaction](g)
        rng = np.random.default_rng(11)
        u = rng.uniform(0.2, 0.8, g.num_nodes)
        U = rng.standard_normal((g.num_nodes, 3))
        eps = 1e-5
        want = np.column_stack([(_rhs(u + eps * U[:, j], spec, op)
                                 - _rhs(u - eps * U[:, j], spec, op)) / (2.0 * eps)
                                for j in range(3)])
        got = _tangent_rhs_terms(U, u, op.convolve(1.0 - 2.0 * u), spec, op)
        assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))


class TestPropagatedMap:
    def test_linearity_of_propagator(self, grid, weak_op):
        spec = logistic_reaction(grid, 1.0)
        cfg = SolverConfig(dt=0.01, t_end=0.3)
        rng = np.random.default_rng(2)
        u0 = rng.uniform(0.3, 0.7, grid.num_nodes)
        U = rng.standard_normal(grid.num_nodes)
        V = rng.standard_normal(grid.num_nodes)
        a, b = 1.7, -0.6
        combo = propagate_tangent(a * U + b * V, u0, spec, weak_op, cfg)
        parts = (a * propagate_tangent(U, u0, spec, weak_op, cfg)
                 + b * propagate_tangent(V, u0, spec, weak_op, cfg))
        assert l2_norm(grid, combo - parts) <= 1e-10 * max(l2_norm(grid, combo), 1.0)

    def test_amplification_bounded_over_random_directions(self, grid, weak_op):
        spec = logistic_reaction(grid, 1.0)
        cfg = SolverConfig(dt=0.01, t_end=0.5)
        rng = np.random.default_rng(3)
        u0 = rng.uniform(0.3, 0.7, grid.num_nodes)
        U0 = rng.standard_normal((grid.num_nodes, 20))
        Ut = propagate_tangent(U0, u0, spec, weak_op, cfg)
        ratios = [l2_norm(grid, Ut[:, j]) / l2_norm(grid, U0[:, j]) for j in range(20)]
        for j in range(20):
            assert np.isfinite(h1_seminorm(grid, Ut[:, j]))
        assert np.all(np.isfinite(ratios))
        assert max(ratios) < 10.0   # run constant, reported not asserted sharply


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
        with pytest.raises(ValueError, match="fewer than 3 usable eps values after bound "
                                             "checks: 1 of 1"):
            remainder_order(u0, cosine_direction(grid), [1e-3], spec, null_op, cfg, t=0.1)

    @pytest.mark.parametrize("eps_list", [[1e-2, 1e-2, 1e-2], [1e-3, 1e-2, 1e-2]])
    def test_a_repeated_eps_is_rejected(self, grid, weak_op, eps_list):
        # the repeats would count as points: 0.01 twice and 0.001 fit a line exactly
        spec = logistic_reaction(grid, 1.0)
        u0 = 0.5 + 0.1 * np.cos(np.pi * grid.axis_coords())
        with pytest.raises(ValueError, match="^eps values must be distinct, 0.01 is repeated$"):
            remainder_order(u0, cosine_direction(grid, 2), eps_list, spec, weak_op,
                            SolverConfig(dt=0.01, t_end=1.0), t=0.5)

    def test_a_zero_direction_is_rejected(self, grid, null_op):
        spec = zero_reaction(grid)
        with pytest.raises(ValueError, match="^direction must be nonzero$"):
            remainder_order(np.full(grid.num_nodes, 0.5), np.zeros(grid.num_nodes),
                            [1e-2, 1e-3, 1e-4], spec, null_op, SolverConfig(dt=0.01, t_end=1.0),
                            t=0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, grid, null_op, bad):
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        u0 = np.full(grid.num_nodes, 0.5)
        with pytest.raises(ValueError, match="positive and finite"):
            remainder_order(u0, cosine_direction(grid), [1e-2, bad, 1e-3, 3e-4],
                            spec, null_op, cfg, t=0.1)

    def test_out_of_bounds_eps_skipped(self, grid, null_op):
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        u0 = np.full(grid.num_nodes, 0.998)   # close to the upper phase
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            study = remainder_order(u0, cosine_direction(grid), [0.5, 1e-3, 3e-4, 1e-4],
                                    spec, null_op, cfg, t=0.1)
        assert study.eps.tolist() == [1e-3, 3e-4, 1e-4]
        assert study.skipped.tolist() == [0.5]

    def test_two_usable_eps_are_not_fitted(self, grid, weak_op):
        # any two points lie on a line: the fit would report r^2 = 1
        spec = logistic_reaction(grid, 1.0)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        u0 = np.full(grid.num_nodes, 0.995)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="fewer than 3 usable eps values after bound "
                                                 "checks: 2 of 4"):
                remainder_order(u0, cosine_direction(grid), [1e-1, 3e-2, 1e-3, 3e-4],
                                spec, weak_op, cfg, t=0.2)

    def test_perturbed_runs_are_sampled_at_their_ends(self, grid, weak_op, monkeypatch):
        samples = []
        sample = nlch.TrajectoryRecord.sample

        def counted(rec, state, *args):
            samples.append(state.t)
            return sample(rec, state, *args)

        spec = logistic_reaction(grid, 1.0)
        u0 = 0.5 + 0.2 * cosine_direction(grid)
        eps = [1e-2, 3e-3, 1e-3, 3e-4]
        want = remainder_order(u0, cosine_direction(grid), eps, spec, weak_op,
                               SolverConfig(dt=0.01, t_end=1.0, record_every=7), t=0.5)
        monkeypatch.setattr(nlch.TrajectoryRecord, "sample", counted)
        study = remainder_order(u0, cosine_direction(grid), eps, spec, weak_op,
                                SolverConfig(dt=0.01, t_end=1.0), t=0.5)
        assert samples == [0.0, 0.5] * 4
        # the remainders do not depend on the configured sampling
        assert np.array_equal(study.remainders, want.remainders)

    def test_too_few_usable_eps_raise_before_any_step(self, grid, weak_op, monkeypatch):
        calls = []

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)
            return wrapper

        for name in ("_propagate", "run"):
            monkeypatch.setattr(nlch.tangent, name, counted(name, getattr(nlch.tangent, name)))
        spec = logistic_reaction(grid, 1.0)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        u0 = np.full(grid.num_nodes, 0.995)
        with pytest.raises(ValueError, match="fewer than 3 usable eps values"):
            remainder_order(u0, cosine_direction(grid), [1e-1, 3e-2, 1e-3, 3e-4],
                            spec, weak_op, cfg, t=0.2)
        assert calls == []
        # the wrappers count: a fitted study calls each of them
        remainder_order(u0, cosine_direction(grid), [1e-3, 3e-4, 1e-4], spec, weak_op, cfg,
                        t=0.2)
        assert calls == ["_propagate", "run", "run", "run"]


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

    @pytest.mark.parametrize("bad", [np.ones, lambda shape: np.full(shape, np.nan),
                                     lambda shape: np.full(shape, np.inf),
                                     lambda shape: _one_entry(shape, np.nan),
                                     lambda shape: _one_entry(shape, -np.inf)],
                             ids=["ones", "nan", "inf", "one-nan", "one-inf"])
    def test_degenerate_frames_raise_without_a_warning(self, grid, bad):
        # the QR gufuncs run without np.linalg.qr's errstate: no RuntimeWarning
        # may leak from them before the rank check
        frame = TangentFrame(grid=grid, vectors=bad((grid.num_nodes, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FrameDegeneracyError, match="tighten ortho_every"):
                frame.orthonormalize()

    @pytest.mark.parametrize("dim,n,m", [(1, 64, 1), (1, 64, 30), (2, 16, 1), (2, 16, 30),
                                         (2, 8, 64)])
    def test_cosine_frame_matches_the_per_dimension_body(self, dim, n, m):
        g = build_grid(dim, n, 1.0)
        got, want = cosine_frame(g, m).vectors, _oracle_cosine_frame(g, m).vectors
        assert got.shape == (g.num_nodes, m) and same_bits(got, want)


def _one_entry(shape, value):
    """A random, finite frame but for ``value`` at one node of its middle column."""
    a = np.random.default_rng(9).standard_normal(shape)
    a[shape[0] // 2, shape[1] // 2] = value
    return a


class TestHouseholderCore:
    """The frame QR sweep against np.linalg.qr, bit for bit."""

    @pytest.mark.parametrize("case", list(QR_CASES))
    def test_orthonormalize_is_the_sign_normalized_numpy_qr(self, case):
        # the sweep runs the core that tests/test_cores.py pins to np.linalg.qr
        assert nlch.tangent.householder_qr is householder_qr
        g, a = build_grid(*QR_CASES[case][:2], 1.7), qr_case(*QR_CASES[case])
        frame = TangentFrame(grid=g, vectors=a)
        frame.orthonormalize()
        assert same_bits(frame.vectors, _oracle_orthonormalized(g, a))
        if "cond" in case:
            # the spread is far below the 14-decade rank rule, and Q stays orthonormal
            assert np.linalg.cond(a) > 1e9
            gram = g.cell_volume * frame.vectors.T @ frame.vectors
            assert np.allclose(gram, np.eye(a.shape[1]), atol=1e-12)


def _oracle_orthonormalized(grid, vectors):
    """orthonormalize's body before it called the QR gufuncs directly."""
    scale = math.sqrt(grid.cell_volume)
    q, r = np.linalg.qr(vectors * scale)
    return (q * np.sign(np.diag(r))) / scale


def _oracle_cosine_frame(grid, n):
    """cosine_frame's body before one mode order served every dimension."""
    if grid.dim == 1:
        modes = [(k,) for k in range(n)]
    else:
        pairs = [(k0, k1) for k0 in range(grid.n) for k1 in range(grid.n)]
        pairs.sort(key=lambda p: (p[0] ** 2 + p[1] ** 2, p[0], p[1]))
        modes = pairs[:n]
    cols = np.column_stack([neumann_mode(grid, m if grid.dim > 1 else m[0]) for m in modes])
    frame = TangentFrame(grid=grid, vectors=cols)
    frame.orthonormalize()
    return frame


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
            single = dimension_bound(u0, n, 2.0, spec, weak_op, cfg).traces[-1]
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

    def test_bound_is_the_first_trace_negative_beyond_round_off(self):
        scan = DimensionScan(traces=np.array([0.5, -1e-28, -0.2, 0.1]))
        assert scan.n_bound == 3 and scan.describe() == "3"
        scan = DimensionScan(traces=np.array([1.0, 0.5, -1e-12]))
        assert scan.n_bound is None and scan.describe() == "none <= 3"

    def test_a_frame_outside_1_to_n_is_rejected(self, grid, null_op):
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.01, t_end=2.0)
        for n_max in (0, -1, grid.num_nodes + 1):
            with pytest.raises(ValueError, match=re.escape(
                    f"n_max must be >= 1 and <= N = {grid.num_nodes}, got {n_max}")):
                dimension_bound(np.full(grid.num_nodes, 0.5), n_max, 2.0, spec, null_op, cfg)

    @pytest.mark.parametrize("ortho_every", [0, -1])
    def test_ortho_every_must_be_positive(self, grid, null_op, ortho_every):
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.01, t_end=2.0)
        with pytest.raises(ValueError, match="ortho_every"):
            dimension_bound(np.full(grid.num_nodes, 0.5), 2, 2.0, spec, null_op, cfg,
                            ortho_every=ortho_every)

    @pytest.mark.parametrize("transient", [1.0, float("nan")])
    def test_transient_requires_long_enough_run(self, grid, null_op, transient):
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.01, t_end=0.5)
        with pytest.raises(ValueError, match=f"must be >= the transient window {transient}"):
            dimension_bound(np.full(grid.num_nodes, 0.5), 1, 0.5, spec, null_op, cfg,
                            transient=transient)

    def test_a_scan_ending_at_its_transient_samples_the_final_state(self, grid, null_op):
        # 3 steps of dt = 0.3 end at t = 0.8999999999999999 < 0.9: the window
        # is read on the step grid, as the float rule from that time reads it
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.3, t_end=0.9)
        u0 = np.random.default_rng(6).uniform(0.3, 0.7, grid.num_nodes)
        assert cfg.first_step_at(0.9) == 3
        assert same_bits(dimension_bound(u0, 2, 0.9, spec, null_op, cfg, transient=0.9).traces,
                         np.cumsum(_oracle_streamed_traces(u0, 2, 0.9, spec, null_op, cfg, 10,
                                                           3 * cfg.dt)))
        # a horizon between two steps is no run's
        with pytest.raises(ValueError, match="^" + re.escape(
                "t_end = 1.0 is not a whole number of steps of dt = 0.3: 3 steps reach "
                "t = 0.9") + "$"):
            dimension_bound(u0, 2, 1.0, spec, null_op, cfg, transient=0.9)


# -- oracle: the per-column frame evolution, kept verbatim ----------------------

def _oracle_trace_form(cols, u, w, spec, op):
    """The per-column trace form before frames were blocks."""
    grid = op.grid
    out = np.empty(cols.shape[1])
    for j in range(cols.shape[1]):
        phi = cols[:, j]
        lphi = laplacian_neumann(grid, phi) + _tangent_rhs_terms(phi, u, w, spec, op)
        out[j] = integrate(grid, lphi * phi)
    return out


def _oracle_frame_traces(u0, n, T, spec, op, cfg, ortho_every=10, transient=1.0):
    """The per-column body of dimension_bound's scan before frames were blocks,
    replaying the (u, w) pairs collected from the trajectory."""
    run_cfg = replace(cfg, t_end=float(T))
    states = list(_trajectory(u0, spec, op, run_cfg))
    frame = cosine_frame(op.grid, n)

    sums = np.zeros(n)
    n_evals = 0
    for k in range(run_cfg.n_steps):
        u_k, w_k = states[k].u, states[k].w
        for j in range(n):
            frame.vectors[:, j] = tangent_step(frame.vectors[:, j], u_k, w_k, spec, op, cfg)
        t = (k + 1) * cfg.dt
        at_record = run_cfg.is_record_step(k + 1)
        if (k + 1) % ortho_every == 0 or at_record:
            frame.orthonormalize()
        if at_record and t >= transient:
            sums += _oracle_trace_form(frame.vectors, states[k + 1].u, states[k + 1].w,
                                       spec, op)
            n_evals += 1
    return sums / n_evals


def _oracle_streamed_traces(u0, n, T, spec, op, cfg, ortho_every=10, transient=1.0):
    """The streamed block loop before a trace form's rhs terms served the next
    step: tangent_step on every step, np.linalg.qr in every sweep and
    trace_form at every record in the window."""
    run_cfg = replace(cfg, t_end=float(T))
    vectors = cosine_frame(op.grid, n).vectors
    sums = np.zeros(n)
    n_evals = 0
    for prev, state in pairwise(_trajectory(u0, spec, op, run_cfg)):
        k = state.step_count
        vectors = tangent_step(vectors, prev.u, prev.w, spec, op, cfg)
        at_record = run_cfg.is_record_step(k)
        if k % ortho_every == 0 or at_record:
            vectors = _oracle_orthonormalized(op.grid, vectors)
        if at_record and state.t >= transient:
            sums += trace_form(vectors, state.u, state.w, spec, op)
            n_evals += 1
    return sums / n_evals


def _oracle_remainders(u0, direction, eps_list, spec, op, cfg, t):
    """Remainders with the tangent replayed over the stored trajectory, one
    vector step per time step."""
    run_cfg = replace(cfg, t_end=float(t))
    states = list(_trajectory(u0, spec, op, run_cfg))
    d = direction / l2_norm(op.grid, direction)
    U = d
    for s in states[:-1]:
        U = tangent_step(U, s.u, s.w, spec, op, run_cfg)
    base = states[-1].u
    return np.array([l2_norm(op.grid, run(u0 + eps * d, spec, op, run_cfg)[0].u
                             - base - eps * U)
                     for eps in sorted(eps_list, reverse=True)])


# four rows of the apply table, one per path of a block
BLOCK_CASES = {"1d-64-dense": "1d-n64-weak-gaussian", "1d-512-fft": "1d-n512-weak-gaussian",
               "2d-24-newton-fft": "2d-n24-weak-newton",
               "2d-24-gaussian-factors": "2d-n24-weak-gaussian"}


@pytest.fixture(scope="module", params=list(BLOCK_CASES))
def block_case(request):
    op = apply_op(BLOCK_CASES[request.param])
    assert apply_paths(op)[1] == request.param.rsplit("-", 1)[1]
    u0 = np.random.default_rng(op.grid.n).uniform(0.3, 0.7, op.grid.num_nodes)
    return op.grid, op, logistic_reaction(op.grid, 1.0), u0


def _row_blocks(name):
    """A row's grid, a 5-column mobility and 5 fields, as ``grid_and_fields`` returns them."""
    g, rng = apply_op(name).grid, np.random.default_rng(11)
    size = (g.num_nodes, 5)
    return g, mobility(rng.uniform(0.0, 1.0, size)), rng.standard_normal(size), None


class TestBlockOperators:
    """Every operator on an (N, m) block against a loop over its columns."""

    @on_every_row(lambda name: {"case": _row_blocks(name), "name": name})
    @settings(max_examples=30, deadline=None)
    @given(case=grid_and_fields(), name=st.sampled_from(list(APPLY_CASES)))
    def test_columns_are_the_field_results(self, case, name):
        """Bit for bit but for the kernel's applies, and those too where a field
        and a block both take the FFT; elsewhere a block's products sum in
        another order than a field's, within 1e-13 (1e-12 propagated)."""
        g, a, p, _ = case
        spec = APPLY_CASES[name][2]
        assume(spec.family != "newton" or g.dim == 2)
        op = KernelOp(g, spec)
        m = max((x.shape[1] for x in (a, p) if x.ndim == 2), default=1)
        A, P = (x if x.ndim == 2 else np.repeat(x[:, None], m, axis=1) for x in (a, p))
        a, p = A[:, 0].copy(), P[:, 0].copy()
        cfg, reaction = SolverConfig(dt=0.01, t_end=0.2), logistic_reaction(g, 1.0)
        u0 = np.random.default_rng(g.n).uniform(0.3, 0.7, g.num_nodes)
        w = op.convolve(1.0 - 2.0 * u0)

        def columns(f, *blocks):
            return np.column_stack([f(*(b[:, j] for b in blocks)) for j in range(m)])

        pairs = [
            (div_flux(g, A, p), columns(lambda c: div_flux(g, c, p), A), 0.0),
            (div_flux(g, a, P), columns(lambda c: div_flux(g, a, c), P), 0.0),
            (div_flux(g, A, P), columns(lambda c, q: div_flux(g, c, q), A, P), 0.0),
            (laplacian_neumann(g, P), columns(lambda c: laplacian_neumann(g, c), P), 0.0),
            *[(solver.solve(P), columns(solver.solve, P), 0.0)
              for solver in (SpdNeumannSolver(g, 0.01), SpdNeumannSolver(g, 2.0))],
            (op.convolve(P), columns(op.convolve, P), 1e-13),
            (tangent_step(P, u0, w, reaction, op, cfg),
             columns(lambda c: tangent_step(c, u0, w, reaction, op, cfg), P), 1e-13),
            (propagate_tangent(P, u0, reaction, op, cfg),
             columns(lambda c: propagate_tangent(c, u0, reaction, op, cfg), P), 1e-12),
        ]
        exact = apply_paths(op) == ("fft", "fft")
        for got, want, tol in pairs:
            assert got.shape == want.shape == P.shape
            assert same_bits(got, want) if exact or not tol else rel_max_error(got, want) <= tol

    def test_trace_form_matches_column_loop(self, block_case):
        g, op, spec, u0 = block_case
        frame = cosine_frame(g, 6)
        w = op.convolve(1.0 - 2.0 * u0)
        got = trace_form(frame.vectors, u0, w, spec, op)
        want = _oracle_trace_form(frame.vectors, u0, w, spec, op)
        assert rel_max_error(got, want) <= 1e-13


class TestStreamedFrames:
    """The streamed block frame against the per-column replay it replaced."""

    @pytest.mark.parametrize("ortho_every", [1, 3])
    def test_traces_match_per_column_oracle(self, block_case, ortho_every):
        g, op, spec, u0 = block_case
        cfg = SolverConfig(dt=0.01, t_end=1.0, record_every=5)
        args = (u0, 6, 0.6, spec, op, cfg, ortho_every, 0.3)
        got = dimension_bound(*args).traces
        want = np.cumsum(_oracle_frame_traces(*args))
        assert rel_max_error(got, want) <= 1e-12

    @pytest.mark.parametrize("ortho_every", [1, 3])
    def test_traces_are_the_unshared_loop_bit_for_bit(self, block_case, ortho_every):
        g, op, spec, u0 = block_case
        cfg = SolverConfig(dt=0.01, t_end=1.0, record_every=5)
        args = (u0, 6, 0.6, spec, op, cfg, ortho_every, 0.3)
        assert same_bits(dimension_bound(*args).traces,
                         np.cumsum(_oracle_streamed_traces(*args)))

    @pytest.mark.parametrize("T, record_every, transient", [
        (0.6, 5, 0.0),      # the initial state is a record state in the window, not sampled
        (0.63, 5, 0.3),     # the final state is a record state only as the last one
        (0.63, 100, 0.3),   # the final state is the only record state after the first step
    ], ids=["no-transient", "final-off-the-interval", "final-only"])
    def test_scan_edges_are_the_unshared_loop_bit_for_bit(self, block_case, T, record_every,
                                                          transient):
        g, op, spec, u0 = block_case
        cfg = SolverConfig(dt=0.01, t_end=1.0, record_every=record_every)
        # at T = 0.63 the 63 steps are no multiple of 4: the final sweep is the record rule's
        args = (u0, 6, T, spec, op, cfg, 4, transient)
        assert same_bits(dimension_bound(*args).traces,
                         np.cumsum(_oracle_streamed_traces(*args)))

    def test_remainders_match_replayed_tangent(self, block_case):
        g, op, spec, u0 = block_case
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        direction = np.cos(np.pi * g.axis_coords()).repeat(g.n ** (g.dim - 1))
        eps_list = [1e-2, 3e-3, 1e-3, 3e-4]
        study = remainder_order(u0, direction, eps_list, spec, op, cfg, t=0.3)
        want = _oracle_remainders(u0, direction, eps_list, spec, op, cfg, 0.3)
        assert not study.exact
        assert rel_max_error(study.remainders, want) <= 1e-12

    def test_base_trajectory_is_the_run(self, grid, weak_op):
        """dimension_bound steps the same trajectory as run, bit for bit."""
        spec = oono_reaction(grid, 1.0)
        cfg = SolverConfig(dt=0.01, t_end=0.5)
        u0 = np.random.default_rng(13).uniform(0.2, 0.8, grid.num_nodes)
        final, _ = run(u0, spec, weak_op, cfg)
        streamed = list(_trajectory(u0, spec, weak_op, cfg))[-1]
        assert np.array_equal(streamed.u, final.u) and np.array_equal(streamed.w, final.w)


class TestOneRhsEvaluationPerStep:
    """Criterion 09's scan, the one the tangent_scan_1d benchmark times."""

    @pytest.fixture(scope="class")
    def scan_case(self):
        g = build_grid(1, 256, 1.0)
        op = assemble_kernel(gaussian_kernel(0.02, 0.05), g)
        u0 = np.random.default_rng(5).uniform(0.2, 0.8, g.num_nodes)
        cfg = SolverConfig(dt=0.01, t_end=4.0, record_every=10)
        return (u0, 30, 4.0, oono_reaction(g, 1.0), op, cfg, 1)

    def test_each_step_evaluates_the_rhs_terms_once(self, scan_case, monkeypatch):
        calls = []
        terms = nlch.tangent._tangent_rhs_terms

        def counted(*args):
            calls.append(None)
            return terms(*args)

        monkeypatch.setattr(nlch.tangent, "_tangent_rhs_terms", counted)
        dimension_bound(*scan_case)
        # a trace form's terms are the next step's, so only the trace form of
        # the final state, which no step follows, adds an evaluation; one
        # evaluation per step and per trace form would make 400 + 31
        assert len(calls) == scan_case[5].n_steps + 1

    def test_traces_are_the_unshared_loop_bit_for_bit(self, scan_case):
        assert same_bits(dimension_bound(*scan_case).traces,
                         np.cumsum(_oracle_streamed_traces(*scan_case)))
