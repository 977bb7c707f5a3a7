"""
Discrete convolution operators rho -> integral of K(|x-y|) rho(y) dy over the box.

The midpoint-quadrature matrix W[i, j] = K(|x_i - x_j|) h^dim of a uniform
grid depends only on the index offset i - j: it is Toeplitz in 1D and block
Toeplitz with Toeplitz blocks in 2D.  The operator is therefore stored as
its generator g[d] = K(|d| h) h^dim on the (2n-1)^dim offsets d; the N x N
matrix is gathered from it only on demand.  The Gaussian generator on a 2D
grid is separable, c exp(-|d|^2 h^2 / lam) h^2 = c e[a] e[b] with
e[d] = exp(-(d h)^2 / lam) h, so its W is the Kronecker product c (F x F) of
the n x n Toeplitz matrix F[i, j] = e[i - j], and ``convolve`` applies it as
c F U F on the n x n view U of the field: two n x n matrix products (Van
Loan, J. Comput. Appl. Math. 123, 2000).  Every other operator is applied
by a matrix-vector product on small grids and, above ``DENSE_MAX_NODES``,
by circulant embedding: zero padding to 2n per axis and one real FFT pair,
which reproduces the box sums exactly rather than a periodic convolution
(Chan & Jin, An Introduction to Iterative Toeplitz Solvers, SIAM 2007).
An (N, m) block of fields takes the same paths: matrix-matrix products, or
one FFT pair batched over the columns.  The kernel is evaluated on |d|, so
g[d] and g[-d] are the same number and the matrix gathered from g is
exactly symmetric.
The 2D Newton kernel, unbounded at r = 0, gets its zero-offset entry from
the analytic cell average of -k2 ln|x| over one cell, which keeps the
quadrature second order and the row sums finite.  The operator-norm
constants are computed on first use, which rejects an amplitude whose
constants would overflow.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import irfftn, rfftn

from .grid import Grid, check_field, laplacian_neumann

# Above this many nodes ``convolve`` uses the padded FFT instead of the dense
# matrix-vector product, for every kernel but the separable 2D Gaussian.
# Measured crossover on a 2-core Xeon VM with 2 MiB of L2 per core (numpy
# 2.4 with OpenBLAS, scipy 1.17): the dense product wins up to N = 448 in 1D
# and N = 484 (22 x 22) in 2D; the FFT wins from N = 512 in 1D (67 vs 78 us,
# where W reaches 2 MiB) and N = 576 (24 x 24) in 2D, a crossover that
# concerns only mollifier and Newton kernels.
DENSE_MAX_NODES = 511


# family -> its parameters as (name, role, whether 0 is admitted), the
# amplitude, which scales the kernel, first
_PARAMETERS = {
    "gaussian": (("c", "amplitude", True), ("lam", "width", False)),
    "mollifier": (("c", "amplitude", True), ("hcut", "cutoff", False)),
    "newton": (("kd", "constant", False),),
}


@dataclass(frozen=True)
class KernelSpec:
    """One of the admissible kernel families with positive parameters.

    family 'gaussian':  K(r) = c exp(-r^2 / lam)
    family 'mollifier': K(r) = c exp(-hcut^2 / (hcut^2 - r^2)) for r < hcut, else 0
    family 'newton':    K(r) = -kd ln r, the 2D Newton potential

    A spec holds no dimension: it takes the grid's when it is assembled, and
    ``assemble_kernel`` rejects a newton kernel on a grid that is not 2D.
    """

    family: str
    c: float = 1.0
    lam: float = 1.0
    hcut: float = 0.25
    kd: float = 1.0

    def __post_init__(self):
        if self.family not in _PARAMETERS:
            raise ValueError(f"unknown kernel family: {self.family!r}")
        for name, role, zero_ok in _PARAMETERS[self.family]:
            value = getattr(self, name)
            if not (np.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
                raise ValueError(f"{self.family} {role} {name} must be finite and "
                                 f"{'>= 0' if zero_ok else 'positive'}")
        # the weights divide by hcut^2 - r^2, so hcut^2 must be a finite
        # normal float, the rule build_grid applies to h^2
        hcut = float(self.hcut)
        if self.family == "mollifier" and not sys.float_info.min <= hcut * hcut < math.inf:
            raise ValueError(f"mollifier cutoff hcut = {hcut:g} must have hcut^2 a finite "
                             "normal float")


def gaussian_kernel(c: float = 1.0, lam: float = 1.0) -> KernelSpec:
    return KernelSpec(family="gaussian", c=c, lam=lam)


def mollifier_kernel(c: float = 1.0, hcut: float = 0.25) -> KernelSpec:
    return KernelSpec(family="mollifier", c=c, hcut=hcut)


def newton_kernel(kd: float = 1.0) -> KernelSpec:
    """The 2D Newton potential -kd ln r; it assembles on 2D grids only."""
    return KernelSpec(family="newton", kd=kd)


def zero_kernel() -> KernelSpec:
    """The null operator, as an amplitude-zero gaussian."""
    return KernelSpec(family="gaussian", c=0.0, lam=1.0)


def newton_self_cell_average(h: float, kd: float) -> float:
    """Analytic average of -kd ln|x| over the square cell [-h/2, h/2]^2."""
    a = 0.5 * h
    return -kd * (math.log(a) + 0.5 * math.log(2.0) - 1.5 + 0.25 * math.pi)


def _evaluate(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    if spec.family == "gaussian":
        return spec.c * np.exp(-(r * r) / spec.lam)
    if spec.family == "mollifier":
        h2 = spec.hcut * spec.hcut
        inside = r < spec.hcut
        out = np.zeros_like(r)
        with np.errstate(over="ignore", divide="ignore"):
            denom = h2 - r[inside] ** 2
            out[inside] = spec.c * np.exp(-h2 / denom)
        return out
    # newton, dim 2: the infinite entries at r == 0 are patched by the caller
    with np.errstate(divide="ignore"):
        return -spec.kd * np.log(r)


@dataclass(frozen=True, eq=False)
class KernelOp:
    """Assembled convolution operator on a grid.

    ``generator`` holds g[d] = K(|d| h) h^dim on the (2n-1)^dim index
    offsets, with offset 0 at index n - 1 on every axis, and ``kbar`` the
    row sums of the operator (the discrete k-bar function).  A Gaussian on
    a 2D grid is applied by its Toeplitz factor ``_factor``, every other
    kernel by ``weights`` or by ``_apply_fft``, by size.  The dense matrix
    ``weights``, the factor and the operator-norm constants ``r2_est``
    (the L2 -> H1 norm, an eigenvalue solve), ``rinf_est`` and ``k2_sup``
    (row sums of the generator) are computed on first use and cached; each
    first checks the amplitude (``_amplitude_scale``).  The constants are
    those of the discrete W, to round-off, not estimates.
    """

    grid: Grid
    spec: KernelSpec
    generator: np.ndarray
    kbar: np.ndarray

    def convolve(self, rho: np.ndarray) -> np.ndarray:
        """(K * rho)(x_i) = sum_j W[i,j] rho_j, for a field (N,) or for each
        column of a block (N, m)."""
        rho = check_field(self.grid, rho, columns=True)
        if _separable(self.spec, self.grid):
            return self._apply_factors(rho)
        if self.grid.num_nodes > DENSE_MAX_NODES:
            return self._apply_fft(rho)
        return self.weights @ rho

    def _apply_factors(self, rho: np.ndarray) -> np.ndarray:
        """W rho = F R F on the n x n view R of rho, with W = F x F the
        Kronecker square of ``_factor``; a block's second product runs over
        its other node axis, one n x m slice at a time."""
        n, f = self.grid.n, self._factor
        if rho.ndim == 1:
            return (f @ rho.reshape(n, n) @ f).reshape(rho.shape)
        first = (f @ rho.reshape(n, -1)).reshape(n, n, -1)
        return (f @ first).reshape(rho.shape)

    @cached_property
    def _factor(self) -> np.ndarray:
        """sqrt(c) F, F[i, j] = e[i - j]: the separable 2D Gaussian's W is
        c (F x F), the Kronecker square of this n x n matrix."""
        toeplitz = _gaussian_profile(self.spec, self.grid)[_offset_index(self.grid.n)]
        return math.sqrt(self.spec.c) * toeplitz

    def _apply_fft(self, rho: np.ndarray) -> np.ndarray:
        n, dim = self.grid.n, self.grid.dim
        shape, axes, cols = (2 * n,) * dim, tuple(range(dim)), rho.shape[1:]
        symbol = self._symbol.reshape(self._symbol.shape + (1,) * len(cols))
        spectrum = rfftn(rho.reshape((n,) * dim + cols), s=shape, axes=axes) * symbol
        out = irfftn(spectrum, s=shape, axes=axes)
        return out[(slice(0, n),) * dim].reshape(rho.shape)

    @cached_property
    def _symbol(self) -> np.ndarray:
        """Spectrum of the 2n-periodic circulant whose leading n^dim block is W."""
        n, dim = self.grid.n, self.grid.dim
        first_column = np.roll(np.pad(self.generator, [(0, 1)] * dim), -(n - 1),
                               axis=tuple(range(dim)))
        return rfftn(first_column)

    @cached_property
    def weights(self) -> np.ndarray:
        """The read-only N x N matrix W[i,j] = g[i - j], exactly symmetric."""
        d = _offset_index(self.grid.n)
        if self.grid.dim == 1:
            w = self.generator[d]
        else:
            w = self.generator[d[:, None, :, None], d[None, :, None, :]]
            w = w.reshape(self.grid.num_nodes, self.grid.num_nodes)
        w.flags.writeable = False
        return w

    def _amplitude_scale(self) -> float:
        """s = max |g|, once it is known that the constants and every
        intermediate of their computation are finite floats.

        All of them are bounded by s (2n)^(2 dim) (1 + 4 dim / h^2): the
        row sums of |g| by N s, those of |g| + |grad g| by
        (2n - 1)^dim s (1 + 2 sqrt(2) / h), and the products in ``r2_est``,
        whose Lanczos vectors have unit norm, by N^2 s (1 + 4 dim / h^2).
        An amplitude that breaks the bound is rejected by name.
        """
        s = float(np.max(np.abs(self.generator)))
        n, h, dim = self.grid.n, self.grid.h, self.grid.dim
        if not math.isfinite(s * (2 * n) ** (2 * dim) * (1.0 + 4.0 * dim / (h * h))):
            raise _amplitude_error(self.spec, "the operator-norm constants of its W overflow")
        return s

    @cached_property
    def k2_sup(self) -> float:
        """max_i sum_j |W[i,j]|, the L-infinity row-sum bound."""
        self._amplitude_scale()
        return float(np.max(_row_sums(np.abs(self.generator), self.grid.n)))

    @cached_property
    def r2_est(self) -> float:
        """The L2 -> H1 operator norm of rho -> K*rho, to round-off.

        Its square is the largest eigenvalue of B = W (I - Lap) W (W is
        symmetric), since the discrete H1 norm of v = W rho is
        <v, v> + <-Lap v, v> by exact summation by parts.  One ARPACK
        Lanczos solve (``eigsh``) applies B / s^2 matrix-free through
        ``convolve``, with s = max |generator|, and the norm is s sqrt(lambda):
        B itself scales as the square of the amplitude, which underflows to
        zero for an amplitude near 1e-200.  It starts from a fixed random
        vector: B commutes with the box's reflections, so a symmetric start
        such as all-ones would never see the odd eigenvectors, which can carry
        the top eigenvalue.
        """
        # ARPACK raises on the zero operator
        if not self.generator.any():
            return 0.0
        # imported here: at module level it would add ~9 MB to every process
        from scipy.sparse.linalg import LinearOperator, eigsh

        s = self._amplitude_scale()

        def apply_b(x: np.ndarray) -> np.ndarray:
            v = self.convolve(x) / s
            return self.convolve(v - laplacian_neumann(self.grid, v)) / s

        size = self.grid.num_nodes
        b = LinearOperator((size, size), matvec=apply_b, dtype=float)
        start = np.random.default_rng(12345).standard_normal(size)
        (lam,) = eigsh(b, k=1, which="LA", v0=start, return_eigenvectors=False)
        return s * math.sqrt(lam)

    @cached_property
    def rinf_est(self) -> float:
        """max_i sum_j (|W[i,j]| + |grad_x W[i,j]|), gradient as np.gradient."""
        self._amplitude_scale()
        return float(np.max(_gradient_row_sums(self)))


def _amplitude_error(spec: KernelSpec, consequence: str) -> ValueError:
    """The error that names the family's amplitude (c, or kd for newton)."""
    name = _PARAMETERS[spec.family][0][0]
    return ValueError(f"kernel amplitude {name} = {getattr(spec, name):g} is too large: "
                      f"{consequence}")


def _separable(spec: KernelSpec, grid: Grid) -> bool:
    """Whether W is the Kronecker square of a Toeplitz factor: a 2D Gaussian."""
    return spec.family == "gaussian" and grid.dim == 2


def _offset_index(n: int) -> np.ndarray:
    """The n x n index i - j + (n - 1) of the offset array entry g[i - j]."""
    idx = np.arange(n)
    return idx[:, None] - idx[None, :] + (n - 1)


def _axis_distances(grid: Grid) -> np.ndarray:
    """|d| h on the 2n - 1 index offsets d of one axis, offset 0 at index n - 1."""
    return np.abs(np.arange(1 - grid.n, grid.n)) * grid.h


def _offset_distances(grid: Grid) -> np.ndarray:
    """|d| h on the (2n-1)^dim index offsets d, offset 0 at index n - 1."""
    d = _axis_distances(grid)
    if grid.dim == 1:
        return d
    return np.hypot(d[:, None], d[None, :])


def _gaussian_profile(spec: KernelSpec, grid: Grid) -> np.ndarray:
    """e[d] = exp(-(d h)^2 / lam) h on one axis: the 2D generator is c e[a] e[b]."""
    d = _axis_distances(grid)
    return np.exp(-(d * d) / spec.lam) * grid.h


def _row_sums(a: np.ndarray, n: int) -> np.ndarray:
    """Row sums of the Toeplitz matrix gathered from the offset array ``a``.

    Along each axis, the offsets i - j of row i (j = 0..n-1) sit at indices
    i..i+n-1 of ``a``: a window of length n, taken as a difference of prefix
    sums.  Returns an (n,)*dim array over the nodes.
    """
    for axis in range(a.ndim):
        c = np.pad(np.cumsum(a, axis=axis), [(1, 0) if k == axis else (0, 0)
                                             for k in range(a.ndim)])
        a = c.take(range(n, 2 * n), axis=axis) - c.take(range(n), axis=axis)
    return a


def assemble_kernel(spec: KernelSpec, grid: Grid) -> KernelOp:
    """Evaluate the generator g[d] = K(|d| h) h^dim and the row sums kbar.

    A weight that overflows makes a row sum non-finite too, so one check on
    kbar rejects both, by the amplitude's name.
    """
    if spec.family == "newton" and grid.dim != 2:
        raise ValueError(f"newton potentials are defined only on 2D grids, got dim {grid.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        if _separable(spec, grid):
            # the product form, so that g, kbar and the constants describe the
            # W that the factors apply
            e = _gaussian_profile(spec, grid)
            g = spec.c * np.multiply.outer(e, e)
        else:
            g = _evaluate(spec, _offset_distances(grid)) * grid.cell_volume
        if spec.family == "newton":
            g[(grid.n - 1,) * grid.dim] = (newton_self_cell_average(grid.h, spec.kd)
                                           * grid.cell_volume)
        kbar = _row_sums(g, grid.n).ravel()
    if not np.isfinite(kbar).all():
        raise _amplitude_error(spec, "its weights or their row sums kbar overflow")
    g.flags.writeable = False
    kbar.flags.writeable = False
    return KernelOp(grid=grid, spec=spec, generator=g, kbar=kbar)


def _gradient_row_sums(op: KernelOp) -> np.ndarray:
    """sum_j (|W[i,j]| + |grad_x W[i,j]|) for every node i, without forming W.

    ``np.gradient`` of W along a node axis is a difference of the generator
    along that axis: forward in the first row, central in the interior
    rows, backward in the last row.  Each of the 3^dim classes of rows
    therefore sums its own array over the offsets.
    """
    g, n, h, dim = op.generator, op.grid.n, op.grid.h, op.grid.dim
    diffs = []
    for axis in range(dim):
        p = np.pad(g, [(1, 1) if a == axis else (0, 0) for a in range(dim)])
        up, down = (p[tuple(slice(k, k + 2 * n - 1) if a == axis else slice(None)
                             for a in range(dim))] for k in (2, 0))
        # np.gradient's own formulas, so each entry matches it bit for bit;
        # entries at the ends of an axis are never summed by their row class
        diffs.append(((up - g) / h, (up - down) / (2.0 * h), (g - down) / h))
    rows = (slice(0, 1), slice(1, n - 1), slice(n - 1, n))
    abs_g = np.abs(g)
    out = np.empty((n,) * dim)
    for cls in itertools.product(range(3), repeat=dim):
        parts = [diffs[axis][c] for axis, c in enumerate(cls)]
        gmag = np.abs(parts[0]) if dim == 1 else np.hypot(*parts)
        sel = tuple(rows[c] for c in cls)
        out[sel] = _row_sums(abs_g + gmag, n)[sel]
    return out.ravel()


def kernel_constants(op: KernelOp) -> tuple[float, float, float]:
    """The operator-norm constants of the discrete operator W.

    Returns (r2_est, rinf_est, k2_sup):
      k2_sup  = max_i sum_j |W[i,j]|            (the L-infinity row-sum bound)
      r2_est  = the L2 -> H1 operator norm, from one ARPACK eigenvalue solve
      rinf_est = max_i sum_j (|W[i,j]| + |grad_x W[i,j]|), with the gradient
                 taken along the rows as np.gradient does, summed from the
                 generator by ``_gradient_row_sums``.
    """
    return op.r2_est, op.rinf_est, op.k2_sup
