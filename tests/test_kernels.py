"""Kernel assembly, convolution, and operator-norm constants."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from field_oracles import rel_max_error
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from nlch.grid import build_grid, laplacian_neumann
from nlch.kernels import (
    DENSE_MAX_NODES,
    KernelOp,
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


class TestKernelOpConstruction:
    def test_takes_only_its_defining_inputs(self):
        assert [f.name for f in dataclasses.fields(KernelOp) if f.init] == ["grid", "spec"]

    @pytest.mark.parametrize("change", ["spec", "grid"])
    def test_replace_derives_generator_and_row_sums(self, gaussian_op, change):
        new = {"spec": gaussian_kernel(20, 0.05), "grid": build_grid(1, 128, 1.0)}[change]
        op = dataclasses.replace(gaussian_op, **{change: new})
        ref = assemble_kernel(op.spec, op.grid)
        assert np.array_equal(op.generator, ref.generator)
        assert np.array_equal(op.kbar, ref.kbar)
        assert not op.generator.flags.writeable and not op.kbar.flags.writeable

    @pytest.mark.parametrize("spec,message", [
        (newton_kernel(), "newton potentials are defined only on 2D grids, got dim 1"),
        (gaussian_kernel(1e308, 1e300), "kernel amplitude c = 1e+308 is too large: its "
                                        "weights or their row sums kbar overflow"),
    ], ids=["newton_1d", "row_sums_overflow"])
    def test_checks_itself(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            KernelOp(build_grid(1, 16, 1.0), spec)


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

    @pytest.mark.parametrize("dims,spec", [
        ((1, 256, 1.0), gaussian_kernel(0.05, 0.05)),
        ((1, 256, 1.0), mollifier_kernel(0.05, 0.2)),
        ((1, 256, 1.0), gaussian_kernel(20.0, 0.05)),
        ((2, 64, 1.0), gaussian_kernel(0.02, 0.02)),
        ((2, 32, 1.0), newton_kernel(0.1)),
    ], ids=["suite-gaussian", "suite-mollifier", "gaussian-c20", "2d-64-gaussian",
            "2d-32-newton"])
    def test_r2_is_the_arpack_eigenvalue(self, dims, spec):
        """The Lanczos solve finds ARPACK's top eigenvalue of B / s^2
        (``eigsh`` from the same start) to 1e-13."""
        from scipy.sparse.linalg import LinearOperator, eigsh

        op = assemble_kernel(spec, build_grid(*dims))
        s = float(np.max(np.abs(op.generator)))

        def apply_b(x):
            v = op.convolve(x) / s
            return op.convolve(v - laplacian_neumann(op.grid, v)) / s

        size = op.grid.num_nodes
        b = LinearOperator((size, size), matvec=apply_b, dtype=float)
        start = np.random.default_rng(12345).standard_normal(size)
        (lam,) = eigsh(b, k=1, which="LA", v0=start, return_eigenvectors=False)
        assert op.r2_est == pytest.approx(s * math.sqrt(lam), rel=1e-13)

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
    """``import nlch``, the kernel constants of a 1D and a 2D kernel and a
    padded-FFT apply load no module of the scipy.fft package but pocketfft's
    extension, which nlch loads by file, and none of scipy.special,
    scipy.sparse (ARPACK) or scipy.linalg."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = """
import sys
import numpy as np
import nlch
ops = [nlch.assemble_kernel(nlch.mollifier_kernel(1.0, 0.2), nlch.build_grid(1, 64, 1.0)),
       nlch.assemble_kernel(nlch.newton_kernel(0.1), nlch.build_grid(2, 24, 1.0))]
for op in ops:
    nlch.kernel_constants(op)
ops[1]._apply_fft(np.ones(ops[1].grid.num_nodes))
heavy = ("scipy.fft", "scipy.special", "scipy.sparse", "scipy.linalg")
print(sorted(m for m in sys.modules if m != "scipy.fft._pocketfft.pypocketfft"
             and any(m == p or m.startswith(p + ".") for p in heavy)))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
            assert rel_max_error(op._apply_fft(x), ref) <= 1e-13
            assert rel_max_error(op.convolve(x), ref) <= 1e-13

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
        assert rel_max_error(op.kbar, kbar) <= 1e-12
        assert op.k2_sup == pytest.approx(k2_sup, rel=1e-12)
        # every row class, not only the row that attains the maximum
        assert rel_max_error(_gradient_row_sums(op), rinf_rows) <= 1e-12
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
        other kernel goes by size, and on a small grid a 1D field goes
        through its taps and a block, or a 2D field, through W."""
        op, _ = oracle_case
        rng = np.random.default_rng(5)
        for x in (rng.standard_normal(op.grid.num_nodes),
                  rng.standard_normal((op.grid.num_nodes, 3))):
            if op.spec.family == "gaussian" and op.grid.dim == 2:
                assert np.array_equal(op.convolve(x), op._apply_factors(x))
            elif op.grid.num_nodes > DENSE_MAX_NODES:
                assert np.array_equal(op.convolve(x), op._apply_fft(x))
            elif x.ndim == 1 and op.grid.dim == 1:
                assert np.array_equal(op.convolve(x), op._apply_taps(x))
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
            assert rel_max_error(got, ref) <= 1e-13

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
        assert rel_max_error(op.generator, want) <= 1e-14

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
            assert rel_max_error(got[:, 0], ref[:, 0]) <= 1e-13
            assert rel_max_error(got, ref) <= 1e-13

    def test_1d_apply_is_the_matrix_product(self):
        """In 1D a Gaussian has no factors: a field goes through its taps and
        a block through W, bit for bit."""
        op = assemble_kernel(gaussian_kernel(0.3, 0.05), build_grid(1, 256, 1.0))
        x = np.random.default_rng(6).standard_normal((op.grid.num_nodes, 2))
        assert np.array_equal(op.convolve(x[:, 0]), op._apply_taps(x[:, 0]))
        assert np.array_equal(op.convolve(x), op.weights @ x)


# the suite's two kernels, a Gaussian whose tails underflow to 0 on every
# grid here, a mollifier wider than most of the boxes, and the zero kernel
TAP_SPECS = {
    "gaussian": gaussian_kernel(0.05, 0.05),
    "mollifier": mollifier_kernel(0.05, 0.2),
    "narrow-gaussian": gaussian_kernel(1.0, 1e-4),
    "wide-mollifier": mollifier_kernel(1.0, 0.9),
    "zero": zero_kernel(),
}


class TestTaps:
    """The 1D field apply over the generator's support, against W."""

    @pytest.mark.parametrize("n", [8, 64, 256, 511])
    @pytest.mark.parametrize("name", list(TAP_SPECS))
    def test_taps_match_the_matrix(self, name, n):
        op = assemble_kernel(TAP_SPECS[name], build_grid(1, n, 1.0))
        x = np.random.default_rng(n).standard_normal(n)
        got, ref = op._apply_taps(x), op.weights @ x
        assert got.shape == (n,)
        if name == "zero":
            assert not got.any() and op._taps.size == 1
        else:
            assert rel_max_error(got, ref) <= 1e-13

    @pytest.mark.parametrize("name", list(TAP_SPECS))
    def test_taps_are_the_nonzero_offsets(self, name):
        n = 256
        op = assemble_kernel(TAP_SPECS[name], build_grid(1, n, 1.0))
        taps, k = op._taps, (op._taps.size - 1) // 2
        assert np.array_equal(taps, op.generator[n - 1 - k:n + k])
        assert not np.delete(op.generator, np.s_[n - 1 - k:n + k]).any()
        assert name == "zero" or (taps[0] != 0.0 and taps[-1] != 0.0)

    def test_both_regimes_are_covered(self):
        """'same' on the taps when they fit in the box, 'valid' on the whole
        generator when they do not."""
        fits = {assemble_kernel(spec, build_grid(1, n, 1.0))._taps.size <= n
                for spec in TAP_SPECS.values() for n in (8, 64, 256, 511)}
        assert fits == {True, False}


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
        state = initial_state(np.random.default_rng(2).uniform(0.3, 0.7, grid.num_nodes), spec, op)
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
        state = initial_state(np.random.default_rng(2).uniform(0.3, 0.7, grid.num_nodes), spec, op)
        for _ in range(3):
            target = float(np.mean(state.u)) + cfg.dt * float(np.mean(reaction_eval(spec, state.u)))
            state = step(state, spec, op, cfg)
            assert abs(float(np.mean(state.u)) - target) <= 1e-12 * abs(target)
        assert 0.0 <= float(np.min(state.u)) and float(np.max(state.u)) <= 1.0
        assert "weights" not in vars(op) and "_symbol" not in vars(op)
