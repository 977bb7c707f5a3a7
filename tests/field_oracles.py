"""
Oracles for the field path of a time step: the bodies of
``grid.laplacian_neumann``, ``grid.div_flux``, ``SpdNeumannSolver.solve``
and ``_residual`` as they were before a 1D field skipped their reshapes, the
step built its right-hand side in place and the residual skipped its product
by a unit mass coefficient.  They are kept verbatim, except that the solve
and its residual take the live solver as ``self`` and call the oracle bodies
here, and that the residual, written for (a I - b Lap), is the same body for
(I - tau Lap): a = 1 and b = tau.  ``model.potential`` is pinned to its
plain numpy form: each log of an argument floored at the smallest
subnormal, so that 0 log 0 = 0, and NaN outside [0, 1].  The new bodies must
keep every bit.  The H1 seminorm oracle and the two comparison helpers,
``bits`` and ``rel_max_error``, are shared by several test modules.
"""

import math

import numpy as np

from nlch._cores import dctn, idctn
from nlch.grid import Grid, _face_slices
from nlch.solvers import BACKWARD_ERROR_TOL, SolverError, _column_norms


def oracle_laplacian_neumann(grid: Grid, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)      # the in-place flux needs a float difference
    vf = f.reshape((grid.n,) * grid.dim + f.shape[1:])
    out = np.zeros(vf.shape)
    scale = 0.5 / grid.h**2
    for lo, hi in _face_slices(grid.dim):
        flux = vf[hi] - vf[lo]
        flux += flux
        flux *= scale
        out_lo, out_hi = out[lo], out[hi]
        out_lo += flux
        out_hi -= flux
    return out.reshape(f.shape)


def oracle_div_flux(grid: Grid, a: np.ndarray, p: np.ndarray) -> np.ndarray:
    nodes = (grid.n,) * grid.dim
    va = a.reshape(nodes + a.shape[1:] + (1,) * (p.ndim - a.ndim))
    vp = p.reshape(nodes + p.shape[1:] + (1,) * (a.ndim - p.ndim))
    cols = a.shape[1:] or p.shape[1:]
    out = np.zeros(nodes + cols)
    scale = 0.5 / grid.h**2
    for lo, hi in _face_slices(grid.dim):
        flux = (va[lo] + va[hi]) * (vp[hi] - vp[lo])
        flux *= scale
        out_lo, out_hi = out[lo], out[hi]
        out_lo += flux
        out_hi -= flux
    return out.reshape((grid.num_nodes,) + cols)


def oracle_residual(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    r = oracle_laplacian_neumann(self.grid, x)
    r *= -self.tau      # -(b / a) at a = 1
    r += x
    r *= 1.0            # the product by a = 1 that the live residual skips
    return np.subtract(b, r, out=r)


def oracle_solve(self, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    diag, cols = self._diag, b.shape[1:]
    coef = dctn(b.reshape(diag.shape + cols), self._axes)
    coef /= diag.reshape(diag.shape + (1,) * len(cols))
    x = idctn(coef, self._axes).reshape(b.shape)
    r = oracle_residual(self, b, x)
    # a field's norms are Python floats: numpy scalars cost more than the sums
    if b.ndim == 1:
        resid = math.sqrt(r.dot(r))
        scale = self._norm * math.sqrt(x.dot(x)) + math.sqrt(b.dot(b))
        certified = resid <= BACKWARD_ERROR_TOL * scale     # False for NaN
    else:
        resid = _column_norms(r)
        scale = self._norm * _column_norms(x) + _column_norms(b)
        certified = (resid <= BACKWARD_ERROR_TOL * scale).all()
    if not certified:
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = np.max(np.divide(resid, scale))
        raise SolverError(
            f"direct solve failed its certificate: backward error "
            f"{eta:.3e} exceeds {BACKWARD_ERROR_TOL:.0e}"
        )
    return x


def oracle_potential(s: np.ndarray | float) -> np.ndarray | float:
    s = np.asarray(s, dtype=float)
    t = 1.0 - s
    out = np.log(np.maximum(s, 5e-324)) * s + np.log(np.maximum(t, 5e-324)) * t
    out = np.where((s >= 0.0) & (t >= 0.0), out, np.nan)
    return out if out.ndim else float(out)


def oracle_h1_seminorm(grid: Grid, f: np.ndarray) -> float:
    v = grid.reshape(f)
    total = 0.0
    for axis in range(grid.dim):
        d = np.diff(v, axis=axis) / grid.h
        total += float(np.sum(d * d))
    return float(np.sqrt(grid.cell_volume * total))


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


def rel_max_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
