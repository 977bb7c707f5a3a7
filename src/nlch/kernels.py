"""
Discrete convolution operators rho -> integral of K(|x-y|) rho(y) dy over the box.

The operator is stored as a dense symmetric matrix W with
W[i, j] = K(|x_i - x_j|) h^dim (midpoint quadrature).  Symmetry holds
exactly because the pairwise distance matrix is exactly symmetric in
floating point and the kernel is evaluated elementwise on it.  The
pointwise-singular 2D Newton kernel gets its self-cell entry from the
analytic cell average of -k2 ln|x| over one cell, which keeps the
quadrature second order and the row sums finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, check_field, laplacian_neumann


@dataclass(frozen=True)
class KernelSpec:
    """One of the admissible kernel families with positive parameters.

    family 'gaussian':  K(r) = c exp(-r^2 / lam)
    family 'mollifier': K(r) = c exp(-hcut^2 / (hcut^2 - r^2)) for r < hcut, else 0
    family 'newton':    K(r) = -kd ln r (dim 2); kd r^(2-dim) for dim > 2
    """

    family: str
    c: float = 1.0
    lam: float = 1.0
    hcut: float = 0.25
    dim: int = 2
    kd: float = 1.0

    def __post_init__(self):
        if self.family not in ("gaussian", "mollifier", "newton"):
            raise ValueError(f"unknown kernel family: {self.family!r}")
        if self.family == "gaussian":
            if self.c < 0 or not np.isfinite(self.c):
                raise ValueError("gaussian amplitude c must be finite and >= 0")
            if self.lam <= 0:
                raise ValueError("gaussian width lam must be positive")
        elif self.family == "mollifier":
            if self.c < 0 or not np.isfinite(self.c):
                raise ValueError("mollifier amplitude c must be finite and >= 0")
            if self.hcut <= 0:
                raise ValueError("mollifier cutoff hcut must be positive")
        else:
            if self.dim < 2:
                raise ValueError("newton potentials are defined only for dim >= 2")
            if self.kd <= 0:
                raise ValueError("newton constant kd must be positive")


def gaussian_kernel(c: float = 1.0, lam: float = 1.0) -> KernelSpec:
    return KernelSpec(family="gaussian", c=c, lam=lam)


def mollifier_kernel(c: float = 1.0, hcut: float = 0.25) -> KernelSpec:
    return KernelSpec(family="mollifier", c=c, hcut=hcut)


def newton_kernel(dim: int = 2, kd: float = 1.0) -> KernelSpec:
    return KernelSpec(family="newton", dim=dim, kd=kd)


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
    # newton, dim 2: singular entries at r == 0 are patched by the caller
    with np.errstate(divide="ignore"):
        if spec.dim == 2:
            return -spec.kd * np.log(r)
        return spec.kd * r ** (2 - spec.dim)


@dataclass(frozen=True, eq=False)
class KernelOp:
    """Assembled convolution operator on a grid.

    ``weights`` is the exactly symmetric N x N quadrature matrix,
    ``kbar`` its row sums (the discrete k-bar function), and
    ``r2_est`` / ``rinf_est`` / ``k2_sup`` the numerically estimated
    operator-norm constants.
    """

    grid: Grid
    spec: KernelSpec
    weights: np.ndarray
    kbar: np.ndarray
    r2_est: float = field(default=float("nan"))
    rinf_est: float = field(default=float("nan"))
    k2_sup: float = field(default=float("nan"))

    def convolve(self, rho: np.ndarray) -> np.ndarray:
        """Matrix-vector product: (K * rho)(x_i) = sum_j W[i,j] rho_j."""
        rho = check_field(self.grid, rho)
        return self.weights @ rho


def assemble_kernel(spec: KernelSpec, grid: Grid) -> KernelOp:
    """Assemble W[i,j] = K(|x_i - x_j|) h^dim and its derived constants."""
    if spec.family == "newton" and spec.dim != grid.dim:
        raise ValueError(
            f"newton kernel dimension {spec.dim} does not match grid dimension {grid.dim}"
        )
    pts = grid.coords()
    if grid.dim == 1:
        r = np.abs(pts[:, 0][:, None] - pts[:, 0][None, :])
    else:
        dx = pts[:, 0][:, None] - pts[:, 0][None, :]
        dy = pts[:, 1][:, None] - pts[:, 1][None, :]
        r = np.hypot(dx, dy)
    w = _evaluate(spec, r) * grid.cell_volume
    if spec.family == "newton":
        np.fill_diagonal(w, newton_self_cell_average(grid.h, spec.kd) * grid.cell_volume)
    if not np.all(np.isfinite(w)):
        raise ValueError("kernel evaluation produced non-finite weights")
    kbar = w.sum(axis=1)
    w.flags.writeable = False
    kbar.flags.writeable = False
    op = KernelOp(grid=grid, spec=spec, weights=w, kbar=kbar)
    r2, rinf, k2 = kernel_constants(op)
    return KernelOp(grid=grid, spec=spec, weights=w, kbar=kbar,
                    r2_est=r2, rinf_est=rinf, k2_sup=k2)


def _power_iteration_l2_h1(op: KernelOp, max_iter: int = 300, tol: float = 1e-12) -> float:
    """Largest singular value of rho -> K*rho as a map L2 -> H1.

    Power iteration on B = W (I - Lap) W (W is symmetric); the discrete H1
    norm of v = W rho is  <v, v> + <-Lap v, v>  by exact summation by parts.
    """
    grid = op.grid
    w = op.weights
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(grid.num_nodes)
    x /= np.linalg.norm(x)
    lam_old = 0.0
    for _ in range(max_iter):
        v = w @ x
        bx = w @ (v - laplacian_neumann(grid, v))
        nrm = np.linalg.norm(bx)
        if nrm == 0.0:
            return 0.0
        x_new = bx / nrm
        lam = float(x_new @ (w @ ((w @ x_new) - laplacian_neumann(grid, w @ x_new))))
        if abs(lam - lam_old) <= tol * max(abs(lam), 1e-300):
            x = x_new
            lam_old = lam
            break
        x = x_new
        lam_old = lam
    return math.sqrt(max(lam_old, 0.0))


def kernel_constants(op: KernelOp) -> tuple[float, float, float]:
    """Numerical estimates of the operator-norm constants.

    Returns (r2_est, rinf_est, k2_sup):
      k2_sup  = max_i sum_j |W[i,j]|            (the L-infinity row-sum bound)
      r2_est  = power-iteration estimate of the L2 -> H1 operator norm
      rinf_est = max_i sum_j (|W[i,j]| + |grad_x W[i,j]|), with the gradient
                 of each indicator-probe response taken node-centered.
    """
    grid = op.grid
    absw = np.abs(op.weights)
    k2_sup = float(np.max(absw.sum(axis=1)))
    if k2_sup == 0.0:
        return 0.0, 0.0, 0.0
    r2 = _power_iteration_l2_h1(op)
    if grid.dim == 1:
        gmag = np.abs(np.gradient(op.weights, grid.h, axis=0))
    else:
        cube = op.weights.reshape(grid.n, grid.n, grid.num_nodes)
        gx = np.gradient(cube, grid.h, axis=0)
        gy = np.gradient(cube, grid.h, axis=1)
        gmag = np.hypot(gx, gy).reshape(grid.num_nodes, grid.num_nodes)
    rinf = float(np.max((absw + gmag).sum(axis=1)))
    return r2, rinf, k2_sup
