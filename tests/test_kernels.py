"""Kernel assembly, convolution, and operator-norm constants."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from nlch.grid import build_grid, laplacian_neumann
from nlch.kernels import (
    DENSE_MAX_NODES,
    KernelSpec,
    _gradient_row_sums,
    assemble_kernel,
    gaussian_kernel,
    kernel_constants,
    mollifier_kernel,
    newton_kernel,
    newton_self_cell_average,
    zero_kernel,
)


@pytest.fixture(scope="module")
def grid1d():
    return build_grid(1, 64, 1.0)


@pytest.fixture(scope="module")
def gaussian_op(grid1d):
    return assemble_kernel(gaussian_kernel(1.0, 0.1), grid1d)


class TestSpecValidation:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            KernelSpec(family="tophat")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gaussian_kernel(-1.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_kernel(1.0, 0.0)
        with pytest.raises(ValueError):
            mollifier_kernel(1.0, -0.5)

    @pytest.mark.parametrize("spec", [dict(family="gaussian", lam=np.inf),
                                      dict(family="gaussian", lam=np.nan),
                                      dict(family="mollifier", hcut=np.inf),
                                      dict(family="mollifier", hcut=np.nan),
                                      dict(family="newton", kd=np.inf),
                                      dict(family="newton", kd=np.nan)],
                             ids=lambda d: f"{d['family']}-{list(d.values())[1]}")
    def test_rejects_non_finite_parameters(self, spec):
        with pytest.raises(ValueError, match="finite and positive"):
            KernelSpec(**spec)

    @pytest.mark.parametrize("hcut", [1e-300, 1.4e-154, 1.4e154, 1e300])
    def test_rejects_cutoff_whose_square_is_not_a_normal_float(self, hcut):
        # hcut^2 underflows below the normal floats or overflows: the weights'
        # exp(-hcut^2 / (hcut^2 - r^2)) would be 0/0 or inf/inf at r = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mollifier cutoff hcut = .* must have hcut"):
                mollifier_kernel(1.0, hcut)

    def test_rejects_newton_1d(self, grid1d):
        # the kernel takes the grid's dimension, so assembly is the one check
        with pytest.raises(ValueError, match="only on 2D grids, got dim 1"):
            assemble_kernel(newton_kernel(), grid1d)

    def test_rejects_newton_grid_mismatch(self, grid1d):
        # one spec, two grids: the grid alone decides whether it assembles
        spec = newton_kernel(kd=0.5)
        op = assemble_kernel(spec, build_grid(2, 8, 1.0))
        assert op.grid.dim == 2 and np.isfinite(op.generator).all()
        with pytest.raises(ValueError, match="only on 2D grids"):
            assemble_kernel(spec, grid1d)


class TestAssembly:
    def test_gaussian_positive_symmetric(self, gaussian_op):
        w = gaussian_op.weights
        assert np.all(w > 0)
        assert np.array_equal(w, w.T), "weight matrix must be exactly symmetric"

    def test_kbar_row_sums(self, gaussian_op):
        sums = gaussian_op.weights.sum(axis=1)
        assert np.allclose(gaussian_op.kbar, sums, rtol=1e-12, atol=0)

    def test_kbar_interior_exceeds_boundary(self, gaussian_op):
        # mass leaks out of a bounded domain near the boundary
        kbar = gaussian_op.kbar
        n = kbar.size
        assert kbar[n // 2] > kbar[0]
        assert kbar[n // 2] > kbar[-1]

    def test_mollifier_compact_support(self, grid1d):
        op = assemble_kernel(mollifier_kernel(1.0, 0.25), grid1d)
        x = grid1d.axis_coords()
        r = np.abs(x[:, None] - x[None, :])
        assert np.all(op.weights[r >= 0.25] == 0.0)
        assert np.all(op.weights[r < 0.25] > 0.0)

    def test_newton_diagonal_matches_quadrature_oracle(self):
        """Self-cell entry of the 2D Newton kernel equals the cell average of
        -k2 ln|x| over one cell, computed here by adaptive quadrature."""
        g = build_grid(2, 8, 1.0)
        kd = 1.7
        op = assemble_kernel(newton_kernel(kd=kd), g)
        a = 0.5 * g.h
        val, _ = dblquad(lambda y, x: np.log(np.hypot(x, y)), 0, a, 0, a,
                         epsabs=1e-13, epsrel=1e-13)
        oracle_avg = -kd * val / (a * a)
        assert newton_self_cell_average(g.h, kd) == pytest.approx(oracle_avg, rel=1e-12)
        diag = np.diag(op.weights)
        assert np.all(np.isfinite(diag))
        assert diag[0] == pytest.approx(oracle_avg * g.cell_volume, rel=1e-12)

    def test_weights_immutable(self, gaussian_op):
        with pytest.raises(ValueError):
            gaussian_op.weights[0, 0] = 1.0


class TestConvolve:
    def test_ones_gives_kbar(self, gaussian_op):
        out = gaussian_op.convolve(np.ones(gaussian_op.grid.num_nodes))
        assert np.allclose(out, gaussian_op.kbar, rtol=1e-12, atol=0)

    def test_indicator_probe_extracts_kernel_profile(self, grid1d, gaussian_op):
        j = 20
        rho = np.zeros(grid1d.num_nodes)
        rho[j] = 1.0 / grid1d.cell_volume
        out = gaussian_op.convolve(rho)
        x = grid1d.axis_coords()
        profile = np.exp(-((x - x[j]) ** 2) / 0.1)
        assert np.allclose(out, profile, rtol=1e-12)

    def test_symmetric_input_symmetric_output(self, grid1d, gaussian_op):
        x = grid1d.axis_coords()
        rho = np.exp(-((x - 0.5) ** 2) * 3.0)
        out = gaussian_op.convolve(rho)
        assert np.allclose(out, out[::-1], rtol=1e-12)

    def test_linearity(self, grid1d, gaussian_op):
        rng = np.random.default_rng(7)
        r1 = rng.standard_normal(grid1d.num_nodes)
        r2 = rng.standard_normal(grid1d.num_nodes)
        lhs = gaussian_op.convolve(2.5 * r1 - 0.7 * r2)
        rhs = 2.5 * gaussian_op.convolve(r1) - 0.7 * gaussian_op.convolve(r2)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-13)

    def test_grid_mismatch_rejected(self, gaussian_op):
        with pytest.raises(ValueError):
            gaussian_op.convolve(np.ones(12))


class TestQuadratureConvergence:
    def test_refinement_reduces_error(self):
        """Midpoint assembly is second order: halving h cuts the convolution
        error against a fine-quadrature oracle by at least 3.5x."""
        L = 1.0
        lam = 0.1
        rho_fn = lambda x: 0.5 + 0.3 * np.cos(np.pi * x / L)

        fine = build_grid(1, 4096, L)
        yf = fine.axis_coords()
        rho_f = rho_fn(yf)

        errors = []
        for n in (32, 64):
            g = build_grid(1, n, L)
            op = assemble_kernel(gaussian_kernel(1.0, lam), g)
            coarse = op.convolve(rho_fn(g.axis_coords()))
            kmat = np.exp(-((g.axis_coords()[:, None] - yf[None, :]) ** 2) / lam)
            oracle = kmat @ rho_f * fine.h
            errors.append(np.max(np.abs(coarse - oracle)))
        assert errors[0] / errors[1] >= 3.5, f"error ratio {errors[0]/errors[1]:.2f}"


class TestKernelConstants:
    def test_zero_kernel_gives_zeros(self, grid1d):
        op = assemble_kernel(zero_kernel(), grid1d)
        assert kernel_constants(op) == (0.0, 0.0, 0.0)
        assert (op.r2_est, op.rinf_est, op.k2_sup) == (0.0, 0.0, 0.0)

    def test_mollifier_row_sums_approach_analytic_mass(self):
        """The (K2) bound: row sums stay below the full-line kernel mass and
        approach it in the interior of a large domain."""
        hcut = 0.25
        mass, _ = quad(lambda x: np.exp(-hcut**2 / (hcut**2 - x**2)), -hcut, hcut,
                       points=[0.0], limit=200)
        g = build_grid(1, 512, 4.0)
        op = assemble_kernel(mollifier_kernel(1.0, hcut), g)
        assert op.k2_sup <= mass * (1 + 1e-3)
        assert op.k2_sup >= 0.95 * mass

    # the second pair squares to below the smallest double
    @pytest.mark.parametrize("c1,c2", [(0.3, 0.6), (0.3e-200, 0.3)], ids=["double", "tiny"])
    def test_r2_scales_linearly_with_amplitude(self, grid1d, c1, c2):
        op1 = assemble_kernel(gaussian_kernel(c1, 0.1), grid1d)
        op2 = assemble_kernel(gaussian_kernel(c2, 0.1), grid1d)
        assert op2.r2_est == pytest.approx(c2 / c1 * op1.r2_est, rel=1e-10)

    @pytest.mark.parametrize("spec,dims,name", [
        (gaussian_kernel(1e308, 0.05), (1, 16, 1.0), "c = 1e\\+308"),
        (mollifier_kernel(1e308, 0.25), (1, 16, 1.0), "c = 1e\\+308"),
        (newton_kernel(1e305), (2, 8, 1.0), "kd = 1e\\+305"),
    ], ids=["gaussian", "mollifier", "newton"])
    def test_amplitude_whose_constants_overflow_is_rejected_by_name(self, spec, dims, name):
        # W and its row sums are finite (3.96e307 for the gaussian), but rinf_est
        # and the products of the r2 solve would overflow
        op = assemble_kernel(spec, build_grid(*dims))
        assert np.isfinite(op.kbar).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for constant in ("r2_est", "rinf_est", "k2_sup"):
                with pytest.raises(ValueError, match=f"kernel amplitude {name} is too large"):
                    getattr(op, constant)

    @pytest.mark.parametrize("spec,dims,name", [
        (gaussian_kernel(1e308, 1e300), (1, 16, 1.0), "c = 1e\\+308"),
        (gaussian_kernel(1e308, 0.05), (1, 16, 1e100), "c = 1e\\+308"),
        (newton_kernel(1e308), (2, 8, 1.0), "kd = 1e\\+308"),
    ], ids=["row_sums", "weights", "newton"])
    def test_amplitude_whose_row_sums_overflow_is_rejected_by_name(self, spec, dims, name):
        # every weight of the first is finite, but the prefix sums of its
        # row sums kbar overflow; the weights of the other two overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"kernel amplitude {name} is too large: "
                                                 "its weights or their row sums kbar overflow"):
                assemble_kernel(spec, build_grid(*dims))

    def test_large_admitted_amplitude_has_finite_constants(self, grid1d):
        op = assemble_kernel(gaussian_kernel(1e300, 0.1), grid1d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(kernel_constants(op)).all()

    def test_constants_finite_and_reported(self, gaussian_op):
        assert np.isfinite(gaussian_op.k2_sup)
        assert np.isfinite(gaussian_op.r2_est)
        assert np.isfinite(gaussian_op.rinf_est)
        assert gaussian_op.rinf_est >= gaussian_op.k2_sup  # gradient rows add mass

    def test_convolution_smooths_rough_input(self, grid1d, gaussian_op):
        # indirect higher-regularity check: convolving a rough field returns
        # something with bounded curvature, so second-derivative estimates of
        # the output stay controlled by first-order norms of the input
        from nlch.grid import h1_seminorm, l2_norm, laplacian_neumann

        rng = np.random.default_rng(8)
        rho = rng.standard_normal(grid1d.num_nodes)
        out = gaussian_op.convolve(rho)
        curvature = l2_norm(grid1d, laplacian_neumann(grid1d, out))
        assert np.isfinite(curvature)
        assert curvature <= 50.0 * (l2_norm(grid1d, rho) + h1_seminorm(grid1d, rho))
        assert h1_seminorm(grid1d, out) <= gaussian_op.r2_est * l2_norm(grid1d, rho) * (1 + 1e-9)


def test_import_leaves_arpack_unloaded():
    """``import nlch`` does not load scipy.sparse.linalg (about 9 MB resident);
    only the first r2 solve does."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys, nlch; print('scipy.sparse.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# -- dense oracle ---------------------------------------------------------------
# The operator as an explicit N x N matrix W, and the constants computed from W
# row by row: the reference for the matrix-free applies and constants.

def _dense_b(grid, w):
    """W (I - Lap) W as an explicit, symmetrized matrix: its top eigenvalue is
    the squared L2 -> H1 norm."""
    eye = np.eye(grid.num_nodes)
    b = w @ (eye - laplacian_neumann(grid, eye)) @ w
    return 0.5 * (b + b.T)


def _dense_constants(grid, w):
    """(kbar, r2, rinf row sums, k2_sup) from the explicit matrix."""
    absw = np.abs(w)
    k2_sup = float(np.max(absw.sum(axis=1)))
    if grid.dim == 1:
        gmag = np.abs(np.gradient(w, grid.h, axis=0))
    else:
        cube = w.reshape(grid.n, grid.n, grid.num_nodes)
        gx = np.gradient(cube, grid.h, axis=0)
        gy = np.gradient(cube, grid.h, axis=1)
        gmag = np.hypot(gx, gy).reshape(grid.num_nodes, grid.num_nodes)
    r2 = math.sqrt(np.linalg.eigvalsh(_dense_b(grid, w))[-1])
    return w.sum(axis=1), r2, (absw + gmag).sum(axis=1), k2_sup


def _relative(a, b):
    return float(np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b)))


# 1D n = 512 and 2D 24 x 24 lie above DENSE_MAX_NODES, so their r2 solve
# runs on the FFT apply.  On the last two, the top eigenvectors of
# W (I - Lap) W are odd under a reflection of the box, so a solve started
# from a symmetric vector (all ones) reads r2 low.
ORACLE_CASES = {
    "1d-n64-gaussian": (1, 64, gaussian_kernel(1.0, 0.1)),
    "1d-n64-mollifier": (1, 64, mollifier_kernel(1.0, 0.25)),
    "1d-n512-gaussian": (1, 512, gaussian_kernel(0.3, 0.05)),
    "2d-n16-gaussian": (2, 16, gaussian_kernel(1.0, 0.1)),
    "2d-n16-mollifier": (2, 16, mollifier_kernel(1.0, 0.25)),
    "2d-n16-newton": (2, 16, newton_kernel(kd=1.0)),
    "2d-n24-newton": (2, 24, newton_kernel(kd=0.7)),
    "1d-n128-mollifier": (1, 128, mollifier_kernel(1.0, 0.05)),
    "2d-n16-narrow-mollifier": (2, 16, mollifier_kernel(1.0, 0.1)),
}


@pytest.fixture(scope="module", params=list(ORACLE_CASES.values()), ids=list(ORACLE_CASES))
def oracle_case(request):
    dim, n, spec = request.param
    grid = build_grid(dim, n, 1.0)
    op = assemble_kernel(spec, grid)
    return op, _dense_constants(grid, np.array(op.weights))


class TestDenseOracle:
    def test_fft_apply_and_convolve_match_the_matrix(self, oracle_case):
        op, _ = oracle_case
        rng = np.random.default_rng(3)
        for _ in range(3):
            x = rng.standard_normal(op.grid.num_nodes)
            ref = op.weights @ x
            assert _relative(op._apply_fft(x), ref) <= 1e-13
            assert _relative(op.convolve(x), ref) <= 1e-13

    def test_fft_apply_is_self_adjoint(self, oracle_case):
        op, _ = oracle_case
        rng = np.random.default_rng(4)
        u, v = rng.standard_normal((2, op.grid.num_nodes))
        lhs = float(op._apply_fft(u) @ v)
        rhs = float(u @ op._apply_fft(v))
        scale = np.linalg.norm(u) * np.linalg.norm(v) * op.k2_sup
        assert abs(lhs - rhs) <= 1e-14 * scale

    def test_constants_match_dense_formulas(self, oracle_case):
        op, (kbar, r2, rinf_rows, k2_sup) = oracle_case
        assert _relative(op.kbar, kbar) <= 1e-12
        assert op.k2_sup == pytest.approx(k2_sup, rel=1e-12)
        # every row class, not only the row that attains the maximum
        assert _relative(_gradient_row_sums(op), rinf_rows) <= 1e-12
        assert op.rinf_est == pytest.approx(float(np.max(rinf_rows)), rel=1e-12)
        assert op.r2_est == pytest.approx(r2, rel=1e-12)

    def test_weights_exactly_symmetric_and_read_only(self, oracle_case):
        op, _ = oracle_case
        w = op.weights
        assert w.shape == (op.grid.num_nodes,) * 2
        assert np.array_equal(w, w.T)
        assert op.weights is w, "the matrix is built once"
        with pytest.raises(ValueError):
            w[0, 0] = 1.0

    def test_convolve_picks_the_apply_by_kernel_and_size(self, oracle_case):
        """A Gaussian on a 2D grid goes through its Toeplitz factors; every
        other kernel goes by size."""
        op, _ = oracle_case
        x = np.random.default_rng(5).standard_normal(op.grid.num_nodes)
        if op.spec.family == "gaussian" and op.grid.dim == 2:
            assert np.array_equal(op.convolve(x), op._apply_factors(x))
        elif op.grid.num_nodes > DENSE_MAX_NODES:
            assert np.array_equal(op.convolve(x), op._apply_fft(x))
        else:
            assert np.array_equal(op.convolve(x), op.weights @ x)

    def test_r2_is_attained_by_the_top_eigenvector(self):
        """r2 is the norm itself, not a lower estimate: the dense top
        eigenvector v of W (I - Lap) W has ||K v||_H1 = r2 ||v||_L2."""
        from nlch.grid import h1_seminorm, l2_norm

        grid = build_grid(1, 256, 1.0)
        op = assemble_kernel(gaussian_kernel(0.05, 0.05), grid)
        v = np.linalg.eigh(_dense_b(grid, np.array(op.weights)))[1][:, -1]
        kv = op.convolve(v)
        h1 = math.sqrt(l2_norm(grid, kv) ** 2 + h1_seminorm(grid, kv) ** 2)
        assert h1 == pytest.approx(op.r2_est * l2_norm(grid, v), rel=1e-12)


class TestSeparableGaussian:
    """The 2D Gaussian applied by its n x n Toeplitz factors, against W."""

    @pytest.mark.parametrize("n", [8, 16, 23, 64])
    @pytest.mark.parametrize("m", [None, 0, 1, 5], ids=lambda m: "field" if m is None else f"m{m}")
    def test_factors_match_the_matrix(self, n, m):
        op = assemble_kernel(gaussian_kernel(0.7, 0.03), build_grid(2, n, 1.0))
        shape = (op.grid.num_nodes,) if m is None else (op.grid.num_nodes, m)
        x = np.random.default_rng(n).standard_normal(shape)
        got, ref = op.convolve(x), op.weights @ x
        assert got.shape == ref.shape
        if ref.size:
            assert _relative(got, ref) <= 1e-13

    @pytest.mark.parametrize("m", [None, 0, 1, 5])
    def test_zero_amplitude_gives_exact_zeros(self, m):
        op = assemble_kernel(zero_kernel(), build_grid(2, 16, 1.0))
        shape = (op.grid.num_nodes,) if m is None else (op.grid.num_nodes, m)
        out = op.convolve(np.random.default_rng(1).standard_normal(shape))
        assert out.shape == shape and not out.any()

    def test_factor_apply_is_self_adjoint(self):
        op = assemble_kernel(gaussian_kernel(1.0, 0.1), build_grid(2, 23, 1.0))
        rng = np.random.default_rng(4)
        u, v = rng.standard_normal((2, op.grid.num_nodes))
        lhs = float(op._apply_factors(u) @ v)
        rhs = float(u @ op._apply_factors(v))
        scale = np.linalg.norm(u) * np.linalg.norm(v) * op.k2_sup
        assert abs(lhs - rhs) <= 1e-14 * scale

    def test_generator_is_the_kernel_on_the_offsets(self):
        """The product form c e[a] e[b] is K(|d| h) h^2 to round-off."""
        grid = build_grid(2, 32, 1.0)
        op = assemble_kernel(gaussian_kernel(0.7, 0.03), grid)
        d = np.abs(np.arange(1 - grid.n, grid.n)) * grid.h
        r = np.hypot(d[:, None], d[None, :])
        want = 0.7 * np.exp(-(r * r) / 0.03) * grid.cell_volume
        assert _relative(op.generator, want) <= 1e-14

    # a subnormal amplitude leaves W itself with few significant bits
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(8, 40), c=st.one_of(st.just(0.0), st.floats(1e-12, 100.0)),
           lam=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_factors_match_the_matrix_everywhere(self, n, c, lam, seed):
        op = assemble_kernel(gaussian_kernel(c, lam), build_grid(2, n, 1.0))
        x = np.random.default_rng(seed).standard_normal((op.grid.num_nodes, 3))
        got, ref = op.convolve(x), op.weights @ x
        if c == 0.0:
            assert not got.any()
        else:
            assert _relative(got[:, 0], ref[:, 0]) <= 1e-13
            assert _relative(got, ref) <= 1e-13

    def test_1d_apply_is_the_matrix_product(self):
        """In 1D the factor is W itself, so the apply keeps its bits."""
        op = assemble_kernel(gaussian_kernel(0.3, 0.05), build_grid(1, 256, 1.0))
        x = np.random.default_rng(6).standard_normal(op.grid.num_nodes)
        assert np.array_equal(op.convolve(x), op.weights @ x)


class TestMatrixFree:
    def test_newton_256x256_steps_without_the_matrix(self):
        """A 65536-node operator (its N x N matrix would be 34 GB) assembles
        and steps with the per-step mass identity intact."""
        from nlch import SolverConfig, initial_state, logistic_reaction, step
        from nlch.model import reaction_eval

        grid = build_grid(2, 256, 1.0)
        op = assemble_kernel(newton_kernel(kd=0.1), grid)
        spec = logistic_reaction(grid, 1.0)
        cfg = SolverConfig(dt=0.001, t_end=0.003)
        state = initial_state(np.random.default_rng(2).uniform(0.3, 0.7, grid.num_nodes), op)
        for _ in range(3):
            target = float(np.mean(state.u)) + cfg.dt * float(np.mean(reaction_eval(spec, state.u)))
            state = step(state, spec, op, cfg)
            assert abs(float(np.mean(state.u)) - target) <= 1e-12 * abs(target)
        assert 0.0 <= float(np.min(state.u)) and float(np.max(state.u)) <= 1.0
        assert "weights" not in vars(op)

    def test_gaussian_256x256_steps_without_the_matrix(self):
        """A 65536-node Gaussian steps through its 256 x 256 Toeplitz factor,
        building neither the matrix nor the FFT symbol."""
        from nlch import SolverConfig, initial_state, logistic_reaction, step
        from nlch.model import reaction_eval

        grid = build_grid(2, 256, 1.0)
        op = assemble_kernel(gaussian_kernel(0.05, 0.02), grid)
        spec = logistic_reaction(grid, 1.0)
        cfg = SolverConfig(dt=0.001, t_end=0.003)
        state = initial_state(np.random.default_rng(2).uniform(0.3, 0.7, grid.num_nodes), op)
        for _ in range(3):
            target = float(np.mean(state.u)) + cfg.dt * float(np.mean(reaction_eval(spec, state.u)))
            state = step(state, spec, op, cfg)
            assert abs(float(np.mean(state.u)) - target) <= 1e-12 * abs(target)
        assert 0.0 <= float(np.min(state.u)) and float(np.max(state.u)) <= 1.0
        assert "weights" not in vars(op) and "_symbol" not in vars(op)
