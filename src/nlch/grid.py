"""
Cell-centered uniform grids on a box with zero-flux (Neumann) boundary.

Fields are plain 1D numpy arrays of length ``grid.num_nodes`` (row-major
flattening in 2D); an (N, m) array is a block of m fields, one per column,
and the operators below act on each column.  Both spatial operators, the
Laplacian and the coefficient-weighted flux divergence, are face-flux
sums: each interior face flux is added to one neighbour and subtracted
from the other, and boundary faces carry none, so their weighted sums
telescope to zero up to round-off.  The Laplacian is its own stencil and
has the bits of the flux divergence with a unit coefficient.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cache, reduce

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [0, length]^dim with dim in {1, 2}.

    Node coordinates are cell centers, x_i = (i + 1/2) h, so the quadrature
    weight per node is h^dim and the midpoint rule is exact for linears.
    h = length / n and num_nodes = n^dim are derived; construction rejects a dim
    not in {1, 2}, an n not an int or numpy integer, n < 8 and h^2 not a normal float.
    """

    dim: int
    n: int
    length: float
    h: float = field(init=False)
    num_nodes: int = field(init=False, repr=False)      # operators check lengths against it

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"unsupported dimension: {self.dim} (must be 1 or 2)")
        try:
            n = operator.index(self.n)
        except TypeError:
            raise ValueError(f"n must be an integer, got {self.n!r}") from None
        if n < 8:
            raise ValueError(f"n must be >= 8 per axis, got {n}")
        h = float(self.length) / n
        # the stencils compute 0.5 / h**2 in Python floats: h**2 raises on
        # overflow, and the quotient raises on 0 and is inf on a subnormal, so
        # h^2 must be a finite normal float
        if not (h > 0 and sys.float_info.min <= h * h < math.inf):
            raise ValueError(f"length must be positive and finite, with (length / n)^2 a "
                             f"finite normal float, got {self.length}")
        # past the frozen dataclass's __setattr__
        self.__dict__.update(dim=int(self.dim), n=n, length=float(self.length), h=h,
                             num_nodes=n ** int(self.dim))

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    def axis_coords(self) -> np.ndarray:
        """Cell-center coordinates along one axis (all axes are identical)."""
        return (np.arange(self.n) + 0.5) * self.h

    def reshape(self, f: np.ndarray) -> np.ndarray:
        """View a flat field as (n,) in 1D or (n, n) in 2D."""
        return f.reshape((self.n,) * self.dim)


def build_grid(dim: int, n: int, length: float) -> Grid:
    """The grid ``Grid(dim, n, length)``, checked as ``Grid`` checks it."""
    return Grid(dim, n, length)


def check_field(grid: Grid, f: np.ndarray, columns: bool = False) -> np.ndarray:
    """Validate a nodal field: right length, all entries finite.

    With ``columns`` an (N, m) block of fields is accepted as well.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[:1] != (grid.num_nodes,) or f.ndim > 1 + columns:
        raise _length_error(grid, f.shape, "(N,) or (N, m)" if columns else "(N,)")
    if not np.isfinite(f).all():
        raise ValueError("field contains non-finite entries")
    return f


def check_rows(grid: Grid, shape: tuple[int, ...]) -> None:
    """Raise a ValueError naming N unless ``shape`` is that of a field (N,)
    or a block (N, m).  The operators and norms below call it on every
    argument instead of ``check_field``: they read the entries, they do not
    validate them."""
    if shape[:1] != (grid.num_nodes,):
        raise _length_error(grid, shape, "(N,) or (N, m)")


def _length_error(grid: Grid, shape: tuple[int, ...], expected: str) -> ValueError:
    return ValueError(f"field has shape {shape}, expected {expected} with N = {grid.num_nodes}")


# -- quadrature and norms -----------------------------------------------------

# The reductions below call the ufuncs that np.sum, np.mean and
# np.linalg.norm call, with the same summation order and so the same bits,
# but without their Python wrappers, which cost more than the arithmetic on
# a 1D field.

def integrate(grid: Grid, f: np.ndarray) -> float:
    """Midpoint-rule integral h^dim * sum(f)."""
    check_rows(grid, np.shape(f))
    return grid.cell_volume * float(np.add.reduce(f, axis=None))


def mean(f: np.ndarray) -> np.floating | np.ndarray:
    """Node average of a field, or of each column of a block (N, m):
    ``np.mean(f, axis=0)`` bit for bit."""
    return np.add.reduce(f) / f.shape[0]


def l2_norm(grid: Grid, f: np.ndarray) -> float:
    """Discrete L2 norm sqrt(h^dim * sum(f^2)) of a field, or of a block as one vector."""
    v = np.asarray(f, dtype=float)
    check_rows(grid, v.shape)
    v = v.ravel(order="K")
    return math.sqrt(grid.cell_volume) * math.sqrt(v.dot(v))


def h1_seminorm(grid: Grid, f: np.ndarray) -> float:
    """Discrete H1 seminorm from face-centered differences.

    Consistent with the conservative operators below: for any field, the
    L2 product of -laplacian_neumann(f) with f is h1_seminorm(f)**2 exactly
    (summation by parts with zero boundary flux).
    """
    f = np.asarray(f, dtype=float)
    check_rows(grid, f.shape)
    v = grid.reshape(f)
    total = 0.0
    for lo, hi in _face_slices(grid.dim):
        d = (v[hi] - v[lo]) / grid.h
        total += float(np.add.reduce(d * d, axis=None))
    return math.sqrt(grid.cell_volume * total)


# -- conservative operators ---------------------------------------------------

@cache
def _face_slices(dim: int) -> tuple[tuple[tuple[slice, ...], tuple[slice, ...]], ...]:
    """Per axis, the index of the lower and of the upper node of every
    interior face."""
    return tuple(((slice(None),) * axis + (slice(None, -1),),
                  (slice(None),) * axis + (slice(1, None),)) for axis in range(dim))


def laplacian_neumann(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Second-order centered Laplacian with zero flux through the boundary.

    A stencil of its own with the same face fluxes and scatters as
    ``div_flux``: the flux d + d, d = p_hi - p_lo, is exactly the
    unit-coefficient flux (1 + 1) d, overflow included, so the result is
    bit for bit ``div_flux(grid, ones, f)``.  ``f`` is a field (N,) or a
    block (N, m).
    """
    f = np.asarray(f, dtype=float)      # the in-place flux needs a float difference
    check_rows(grid, f.shape)
    # on a 1D grid a field or block is already node-shaped, and the reshapes
    # would be identity views
    vf = f if grid.dim == 1 else f.reshape((grid.n,) * grid.dim + f.shape[1:])
    out = np.zeros(vf.shape)
    scale = 0.5 / grid.h**2
    for lo, hi in _face_slices(grid.dim):
        flux = vf[hi] - vf[lo]
        flux += flux
        flux *= scale
        out_lo, out_hi = out[lo], out[hi]
        out_lo += flux
        out_hi -= flux
    return out if grid.dim == 1 else out.reshape(f.shape)


def div_flux(grid: Grid, a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Conservative divergence of a coefficient-weighted gradient.

    Returns div(a grad p) in flux form: the flux on the face between nodes
    i and j is mean(a_i, a_j) * (p_j - p_i) / h, and boundary faces carry
    zero flux.  Arithmetic face averaging keeps the face coefficient zero
    whenever both neighbors have a == 0 and makes the operator linear in a
    (the tangent flow relies on that linearity).  Either ``a`` or ``p`` (or
    both) may be an (N, m) block; the result is then one column per column.
    """
    check_rows(grid, a.shape)
    check_rows(grid, p.shape)
    if grid.dim == 1 and a.ndim == p.ndim:      # the reshapes would be identity views
        va, vp, out = a, p, np.zeros(a.shape)
    else:
        nodes = (grid.n,) * grid.dim
        va = a.reshape(nodes + a.shape[1:] + (1,) * (p.ndim - a.ndim))
        vp = p.reshape(nodes + p.shape[1:] + (1,) * (a.ndim - p.ndim))
        out = np.zeros(nodes + (a.shape[1:] or p.shape[1:]))
    scale = 0.5 / grid.h**2
    for lo, hi in _face_slices(grid.dim):
        flux = (va[lo] + va[hi]) * (vp[hi] - vp[lo])
        flux *= scale
        out_lo, out_hi = out[lo], out[hi]
        out_lo += flux
        out_hi -= flux
    return out if grid.dim == 1 else out.reshape((grid.num_nodes,) + out.shape[2:])


# -- spectral helpers (exact for the constant-coefficient Neumann stencil) ----

def laplacian_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of -laplacian_neumann on the DCT-II basis, as a flat array
    aligned with dctn coefficient ordering."""
    k = np.arange(grid.n)
    lam = (2.0 - 2.0 * np.cos(np.pi * k / grid.n)) / grid.h**2
    return reduce(np.add.outer, (lam,) * grid.dim).ravel()


def neumann_mode(grid: Grid, modes: int | tuple[int, ...]) -> np.ndarray:
    """Discrete Neumann cosine mode, an exact eigenvector of the stencil.

    ``modes`` is an integer in 1D, or one index per axis in [0, n - 1], each a
    Python or numpy integer but not a bool; mode 0 is the constant.  An index
    outside would alias: mode 2n - k is mode k negated, mode -k is mode k, and
    mode n vanishes up to round-off.  Not normalized.
    """
    modes = modes if np.ndim(modes) else (modes,)
    for k in modes:
        # what operator.index admits, but not a bool
        if isinstance(k, (bool, np.bool_)) or not hasattr(type(k), "__index__"):
            raise ValueError(f"mode indices must be integers, got {type(k).__name__} {k!r}")
    modes = tuple(map(operator.index, modes))
    if len(modes) != grid.dim:
        raise ValueError("one mode index per axis required")
    if not all(0 <= k < grid.n for k in modes):
        raise ValueError(f"mode indices {tuple(modes)} must lie in [0, {grid.n - 1}]")
    x = np.arange(grid.n) + 0.5
    return reduce(np.multiply.outer, [np.cos(k * np.pi * x / grid.n) for k in modes]).ravel()
