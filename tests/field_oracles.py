"""
Oracles for the field path of a time step: the bodies of
``grid.laplacian_neumann``, ``grid.div_flux``, ``SpdNeumannSolver.solve``
and ``_residual``, and ``model.potential`` as they were before a 1D field
skipped their reshapes, the step built its right-hand side in place and the
residual skipped its product by a unit mass coefficient.  They are kept
verbatim, except that the solve and its residual take the live solver as
``self`` and call the oracle bodies here.  The new bodies must keep every bit.
"""

import math

import numpy as np
from scipy.special import xlogy

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
    r *= -(self.diff_coef / self.mass_coef)
    r += x
    r *= self.mass_coef
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
    out = xlogy(s, s) + xlogy(1.0 - s, 1.0 - s)
    return out if out.ndim else float(out)
