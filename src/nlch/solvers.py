"""
Direct solves for the SPD Neumann operators (a I - b Lap), a > 0, b >= 0.

Every implicit operator in the package has constant coefficients, so the
DCT-II diagonalizes it exactly: a solve is one forward transform, a
division by the eigenvalues, and one inverse transform.  Each result is
certified by its normwise backward error

    eta = ||b - A x|| / (||A||_2 ||x|| + ||b||),

which is scale-free and sits at machine epsilon for a backward-stable
solve however ill-conditioned A is (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 7).  An (N, m) block of right sides is solved by
one batched transform pair, and each column is certified on its own, so a
small wrong column cannot hide behind large right ones.

``neumann_solver`` keeps one solver per (grid, coefficients) for the life
of the process and every call shares it, so its eigenvalues are read-only.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

# bound here by name: perfbench traces solvers.dctn and solvers.idctn
from ._cores import dctn, idctn
from .grid import Grid, laplacian_eigenvalues, laplacian_neumann

# about 400x the largest eta measured in stepping, tangent and equilibrium solves
BACKWARD_ERROR_TOL = 1e-13


class SolverError(RuntimeError):
    """Raised when an inner linear solve or a time step cannot be completed."""


class SpdNeumannSolver:
    """Direct DCT solver for (mass_coef * I - diff_coef * Lap) with zero-flux
    boundary, mass_coef > 0 and diff_coef >= 0."""

    def __init__(self, grid: Grid, mass_coef: float, diff_coef: float):
        if not (mass_coef > 0 and diff_coef >= 0):
            raise ValueError("need mass_coef > 0 and diff_coef >= 0")
        self.grid = grid
        self.mass_coef = float(mass_coef)
        self.diff_coef = float(diff_coef)
        diag = mass_coef + diff_coef * laplacian_eigenvalues(grid)
        self._norm = float(np.max(diag))      # ||A||_2 of the symmetric operator
        self._diag = diag.reshape((grid.n,) * grid.dim)
        self._diag.flags.writeable = False
        self._axes = tuple(range(grid.dim))

    def _residual(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """b - A x with A x = mass_coef (x - (diff_coef / mass_coef) Lap x),
        built in the Laplacian's output array with no other temporary; at
        mass_coef = 1 it rounds as b - (x - diff_coef Lap x)."""
        r = laplacian_neumann(self.grid, x)
        r *= -(self.diff_coef / self.mass_coef)
        r += x
        r *= self.mass_coef
        return np.subtract(b, r, out=r)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Return x with A x = b for a field b (N,) or each column of a block
        (N, m), raising SolverError if a column's backward error is too large.
        ``b`` is read as float64, whatever its type."""
        b = np.asarray(b, dtype=float)
        diag, cols = self._diag, b.shape[1:]
        coef = dctn(b.reshape(diag.shape + cols), self._axes)
        coef /= diag.reshape(diag.shape + (1,) * len(cols))
        x = idctn(coef, self._axes).reshape(b.shape)
        r = self._residual(b, x)
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


@cache
def neumann_solver(grid: Grid, mass_coef: float, diff_coef: float) -> SpdNeumannSolver:
    """The shared solver of (mass_coef * I - diff_coef * Lap) on ``grid``."""
    return SpdNeumannSolver(grid, mass_coef, diff_coef)


def _column_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of a field, or of each column of a block."""
    return np.vecdot(v, v, axis=0) ** 0.5
