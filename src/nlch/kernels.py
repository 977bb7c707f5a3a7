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
Loan, J. Comput. Appl. Math. 123, 2000).  A 1D field of at most
``DENSE_MAX_NODES`` nodes is applied by one call of numpy's convolution
core, the one behind ``np.convolve`` (``nlch._cores.correlate``), over the
generator's nonzero offsets, so a kernel of short support, such as the
mollifier, costs only its support: that beats the matrix-vector product at
every such size, and above it the FFT below wins (at n = 1024, 31 us
against 80 us for a full-support convolution).
Every other operator is applied by a matrix-vector product on small grids
and, above ``DENSE_MAX_NODES``, by circulant embedding: zero padding to 2n
per axis and one real FFT pair, which reproduces the box sums exactly
rather than a periodic convolution (Chan & Jin, An Introduction to
Iterative Toeplitz Solvers, SIAM 2007).  An (N, m) block of fields takes
matrix-matrix products, or one FFT pair batched over the columns: one
convolution per column would cost far more than one matrix product.  The
kernel is evaluated on |d|, so g[d] and g[-d] are the same number and the
matrix gathered from g is exactly symmetric.
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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._cores import correlate, irfftn, rfftn
from .grid import Grid, check_field, laplacian_neumann

# Above this many nodes ``convolve`` uses the padded FFT instead of the dense
# matrix-vector product or, for a 1D field, numpy's convolution core over the
# generator's support, for every kernel but the separable 2D Gaussian.
# Crossovers measured with the FFT cores bound (timeit, best of 7, 2-core VM,
# numpy 2.4, scipy 1.17; us, dense or taps against FFT): a 2D field goes to
# the FFT from about 20 x 20 (22.8 vs 20.5 on a Newton kernel); a 2D block of
# 30 columns stays dense through 24 x 24 (272 vs 636); a 1D field of a
# full-support Gaussian goes to the FFT at n = 384 (taps 16.4 vs 10.4); a 1D
# block stays dense to n = 511 (at n = 512 the FFT takes 185 against 232).
# At n = 511 itself the FFT is slow, because its padded length
# 2n = 1022 = 2 * 7 * 73 has a large prime factor.  No one bound is every
# path's crossover, and no benchmark workload sits near any of them.
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
    ``KernelOp`` rejects a newton kernel on a grid that is not 2D.
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
    kernel by ``_apply_taps`` (a 1D field), ``weights`` or ``_apply_fft``,
    by size.  The dense matrix ``weights``, the taps ``_taps``, the factor
    and the operator-norm constants ``r2_est``
    (the L2 -> H1 norm, an eigenvalue solve), ``rinf_est`` and ``k2_sup``
    (row sums of the generator) are computed on first use and cached; each
    first checks the amplitude (``_amplitude_scale``).  The constants are
    those of the discrete W, to round-off, not estimates.  ``generator`` and
    ``kbar`` are derived, read-only; an overflowing weight makes a row sum
    non-finite too, so one check on kbar rejects both, by the amplitude's name.
    """

    grid: Grid
    spec: KernelSpec
    generator: np.ndarray = field(init=False)
    kbar: np.ndarray = field(init=False)

    def __post_init__(self):
        spec, grid = self.spec, self.grid
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
        self.__dict__.update(generator=g, kbar=kbar)     # the dataclass is frozen

    def convolve(self, rho: np.ndarray) -> np.ndarray:
        """(K * rho)(x_i) = sum_j W[i,j] rho_j, for a field (N,) or for each
        column of a block (N, m)."""
        rho = check_field(self.grid, rho, columns=True)
        return self._applies[rho.ndim - 1](self, rho)

    @cached_property
    def _applies(self) -> tuple:
        """The apply of a field and that of a block, chosen once by kernel
        and size: the Toeplitz factors of a 2D Gaussian, else the padded FFT
        above ``DENSE_MAX_NODES``, else the taps for a 1D field and W for a
        block or a 2D field.  They are plain functions of (op, rho), so the
        operator holds no reference to itself."""
        if _separable(self.spec, self.grid):
            return KernelOp._apply_factors, KernelOp._apply_factors
        if self.grid.num_nodes > DENSE_MAX_NODES:
            return KernelOp._apply_fft, KernelOp._apply_fft
        dense = KernelOp._apply_dense
        return (KernelOp._apply_taps if self.grid.dim == 1 else dense), dense

    def _apply_dense(self, rho: np.ndarray) -> np.ndarray:
        return self.weights @ rho

    def _apply_taps(self, rho: np.ndarray) -> np.ndarray:
        """W rho for a 1D field: (W rho)_i = sum_d g[d] rho_(i-d), by numpy's
        convolution core: the 'same' part over ``_taps`` when they fit in the
        box, else the 'valid' part with the whole generator.  These are
        np.convolve(rho, taps, "same") and np.convolve(rho, generator,
        "valid") bit for bit; the taps are symmetric, and np.convolve swaps a
        generator longer than the field to the front."""
        taps = self._taps
        if taps.size <= rho.size:
            return correlate(rho, taps, 1)
        return correlate(self.generator, rho[::-1], 0)

    @cached_property
    def _taps(self) -> np.ndarray:
        """The 1D generator trimmed to its nonzero offsets -k..k (offset 0
        alone for the zero kernel); g[d] == g[-d], so the trim is symmetric."""
        g, centre = self.generator, self.grid.n - 1
        nonzero = np.flatnonzero(g)
        k = centre - int(nonzero[0]) if nonzero.size else 0
        return g[centre - k:centre + k + 1]

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
        """W rho by the 2n-periodic circulant embedding: rho zero-padded to
        (2n)^dim, one real FFT pair over the node axes, and the leading n^dim
        block of the result."""
        n, dim = self.grid.n, self.grid.dim
        axes, cols = tuple(range(dim)), rho.shape[1:]
        pad = np.zeros((2 * n,) * dim + cols)
        pad[(slice(0, n),) * dim] = rho.reshape((n,) * dim + cols)
        spectrum = rfftn(pad, axes)
        spectrum *= self._symbol.reshape(self._symbol.shape + (1,) * len(cols))
        out = irfftn(spectrum, axes, 2 * n)
        return out[(slice(0, n),) * dim].reshape(rho.shape)

    @cached_property
    def _symbol(self) -> np.ndarray:
        """Spectrum of the 2n-periodic circulant whose leading n^dim block is W."""
        n, dim = self.grid.n, self.grid.dim
        axes = tuple(range(dim))
        first_column = np.roll(np.pad(self.generator, [(0, 1)] * dim), -(n - 1), axis=axes)
        return rfftn(first_column, axes)

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
        <v, v> + <-Lap v, v> by exact summation by parts.  One Lanczos solve
        (``_largest_eigenvalue``) applies B / s^2 matrix-free through
        ``convolve``, with s = max |generator|, and the norm is s sqrt(lambda):
        B itself scales as the square of the amplitude, which underflows to
        zero for an amplitude near 1e-200.  It starts from a fixed random
        vector: B commutes with the box's reflections, so a symmetric start
        such as all-ones would never see the odd eigenvectors, which can carry
        the top eigenvalue.
        """
        # with s = 0 the scaled operator B / s^2 is undefined
        if not self.generator.any():
            return 0.0
        s = self._amplitude_scale()

        def apply_b(x: np.ndarray) -> np.ndarray:
            v = self.convolve(x) / s
            return self.convolve(v - laplacian_neumann(self.grid, v)) / s

        start = np.random.default_rng(12345).standard_normal(self.grid.num_nodes)
        return s * math.sqrt(_largest_eigenvalue(apply_b, start))

    @cached_property
    def rinf_est(self) -> float:
        """max_i sum_j (|W[i,j]| + |grad_x W[i,j]|), gradient as np.gradient."""
        self._amplitude_scale()
        return float(np.max(_gradient_row_sums(self)))


def _largest_eigenvalue(apply, start: np.ndarray) -> float:
    """The largest eigenvalue of the symmetric positive semidefinite operator
    ``apply``, by Lanczos from ``start`` with full reorthogonalization (two
    Gram-Schmidt passes against every earlier vector).  Like ARPACK at its
    default tolerance, it stops once the residual bound beta |y_last| of the
    top Ritz value falls to eps times that value, which also covers an
    invariant Krylov space, or once the space fills the whole grid."""
    basis, diag, off = [start / np.linalg.norm(start)], [], []
    eps = np.finfo(float).eps
    while True:
        w = apply(basis[-1])
        q = np.array(basis)
        first = q @ w
        w -= first @ q
        second = q @ w
        w -= second @ q
        diag.append(first[-1] + second[-1])
        beta = float(np.linalg.norm(w))
        theta, y = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        if beta * abs(y[-1, -1]) <= eps * theta[-1] or len(basis) == start.size:
            return float(theta[-1])
        off.append(beta)
        basis.append(w / beta)


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
    """e[d] = exp(-(d h)^2 / lam) h on one axis: the 2D generator is c e[a] e[b].
    A subnormal lam overflows the quotient to -inf, whose exp is the weight 0."""
    d = _axis_distances(grid)
    with np.errstate(over="ignore"):
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
    return KernelOp(grid, spec)


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
      r2_est  = the L2 -> H1 operator norm, from one Lanczos eigenvalue solve
      rinf_est = max_i sum_j (|W[i,j]| + |grad_x W[i,j]|), with the gradient
                 taken along the rows as np.gradient does, summed from the
                 generator by ``_gradient_row_sums``.
    """
    return op.r2_est, op.rinf_est, op.k2_sup
