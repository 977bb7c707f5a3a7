"""
The past bodies of the operations whose rewrites kept every bit, each
operation's side by side, the cases and the comparison helpers that the
test modules share.  A bit-preserving rewrite adds its previous body here,
beside its operation's others, and at most one case to that operation's one
test in ``test_bit_identity.py``; a new kernel-apply path, or a moved size
rule, changes rows of the one table of apply cases.  The bodies are
verbatim, except that the solve and its residual take the live solver as
``self`` and call the bodies here, and that the residual, written for
(a I - b Lap), serves (I - tau Lap): a = 1 and b = tau.
"""

import math

import numpy as np
from hypothesis import example
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlch._cores import dctn, idctn
from nlch.grid import Grid, _face_slices, build_grid, check_field
from nlch.kernels import KernelOp, gaussian_kernel, mollifier_kernel, newton_kernel, zero_kernel
from nlch.model import potential
from nlch.solvers import BACKWARD_ERROR_TOL, SolverError, _column_norms


# -- the grid helpers: the per-dimension bodies that one formula replaced ------

def oracle_reshape(grid: Grid, f: np.ndarray) -> np.ndarray:
    if grid.dim == 1:
        return f.reshape(grid.n)
    return f.reshape(grid.n, grid.n)


def oracle_laplacian_eigenvalues(grid: Grid) -> np.ndarray:
    k = np.arange(grid.n)
    lam = (2.0 - 2.0 * np.cos(np.pi * k / grid.n)) / grid.h**2
    if grid.dim == 1:
        return lam
    return (lam[:, None] + lam[None, :]).ravel()


def oracle_neumann_mode(grid: Grid, modes) -> np.ndarray:
    if isinstance(modes, int):
        modes = (modes,)
    x = np.arange(grid.n) + 0.5
    axes = [np.cos(k * np.pi * x / grid.n) for k in modes]
    if grid.dim == 1:
        return axes[0].copy()
    return np.outer(axes[0], axes[1]).ravel()


# -- the Laplacian: the ghost-padded stencil before the face flux, then the
# face flux, which is oracle_div_flux with a unit coefficient ----------------

def oracle_laplacian_ghost_padded(grid: Grid, f: np.ndarray) -> np.ndarray:
    v = grid.reshape(f)
    out = np.zeros_like(v)
    for axis in range(grid.dim):
        p = np.pad(v, [(1, 1) if a == axis else (0, 0) for a in range(grid.dim)], mode="edge")
        sl = [slice(None)] * grid.dim
        sl_lo, sl_mid, sl_hi = list(sl), list(sl), list(sl)
        sl_lo[axis] = slice(0, -2)
        sl_mid[axis] = slice(1, -1)
        sl_hi[axis] = slice(2, None)
        out += (p[tuple(sl_lo)] - 2.0 * p[tuple(sl_mid)] + p[tuple(sl_hi)]) / grid.h**2
    return out.ravel()


# -- div_flux: the pad/take body, then the face flux before a 1D field
# skipped its reshapes -----------------------------------------------------

def oracle_div_flux_pad_take(grid: Grid, a: np.ndarray, p: np.ndarray) -> np.ndarray:
    va = grid.reshape(a)
    vp = grid.reshape(p)
    out = np.zeros_like(vp)
    for axis in range(grid.dim):
        a_face = 0.5 * (np.take(va, range(1, grid.n), axis=axis)
                        + np.take(va, range(0, grid.n - 1), axis=axis))
        dp = np.diff(vp, axis=axis) / grid.h
        flux = a_face * dp
        pad = [(1, 1) if ax == axis else (0, 0) for ax in range(grid.dim)]
        flux = np.pad(flux, pad, mode="constant")          # zero boundary fluxes
        out += np.diff(flux, axis=axis) / grid.h
    return out.ravel()


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


# -- the H1 seminorm before it dropped np.diff --------------------------------

def oracle_h1_seminorm(grid: Grid, f: np.ndarray) -> float:
    v = grid.reshape(f)
    total = 0.0
    for axis in range(grid.dim):
        d = np.diff(v, axis=axis) / grid.h
        total += float(np.sum(d * d))
    return float(np.sqrt(grid.cell_volume * total))


# -- the energy: its pair and bulk terms before the pair term read w, then
# the body that computed w itself; its potential's clip changes no bit ------

def oracle_energy_terms(u, op):
    """h^dim (kbar . u - u . W u) and h^dim sum f(u)."""
    pair = (float(op.kbar @ u) - float(u @ (op.weights @ u))) * op.grid.cell_volume
    return pair, op.grid.cell_volume * float(np.sum(potential(u)))


def oracle_energy(u, op):
    """The pair term from w = K*(1-2u) = kbar - 2 W u, as h^dim/2 (kbar + w) . u."""
    grid = op.grid
    u = check_field(grid, u)
    w = op.convolve(1.0 - 2.0 * u)
    pair = 0.5 * grid.cell_volume * float((op.kbar + w) @ u)
    bulk = grid.cell_volume * float(np.sum(oracle_potential(u)))
    return pair + bulk


# -- SpdNeumannSolver.solve before its residual skipped the product by a = 1 --

def oracle_residual(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    r = oracle_div_flux(self.grid, np.ones(self.grid.num_nodes), x)
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


# -- the pointwise functions: the np.where / np.clip bodies before the ufunc
# rewrite; the potential's is this plain form after a clip that changes no
# bit on [0, 1] (each log's argument floored at the smallest subnormal, so
# that 0 log 0 = 0, and NaN outside [0, 1]) ----------------------------------

def oracle_mobility(s):
    s = np.asarray(s, dtype=float)
    out = np.where((s >= 0.0) & (s <= 1.0), s * (1.0 - s), 0.0)
    return out if out.ndim else float(out)


def oracle_potential(s: np.ndarray | float) -> np.ndarray | float:
    s = np.asarray(s, dtype=float)
    t = 1.0 - s
    out = np.log(np.maximum(s, 5e-324)) * s + np.log(np.maximum(t, 5e-324)) * t
    out = np.where((s >= 0.0) & (t >= 0.0), out, np.nan)
    return out if out.ndim else float(out)


def oracle_reaction_eval(spec, u):
    u = np.asarray(u, dtype=float)
    return spec.g_fn(np.clip(u, 0.0, 1.0))


def oracle_mobility_deriv(s):
    s = np.asarray(s, dtype=float)
    out = np.where((s >= 0.0) & (s <= 1.0), 1.0 - 2.0 * s, 0.0)
    return out if out.ndim else float(out)


def oracle_reaction_deriv(spec, u):
    u = np.asarray(u, dtype=float)
    out = spec.dg_fn(np.clip(u, 0.0, 1.0))
    return np.where((u >= 0.0) & (u <= 1.0), out, 0.0)


# -- the line fits before they shared one (checks elided) ---------------------

def oracle_fit_exponential_rate(times, values, window):
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    sel = (times >= window[0]) & (times <= window[1])
    t = times[sel]
    v = values[sel]
    y = np.log(v)
    slope, intercept = np.polyfit(t, y, 1)
    fit = slope * t + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return -float(slope), r2


def oracle_linear_fit_residual_fraction(times, log_values):
    t = np.asarray(times, dtype=float)
    y = np.asarray(log_values, dtype=float)
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    spread = max(float(np.max(y) - np.min(y)), 1e-300)
    return float(np.max(np.abs(resid))) / spread


# -- the comparison helpers ----------------------------------------------------

def same_bits(got, want) -> bool:
    """Same type and shape, NaN at the same entries, and the same bit pattern
    at every other entry, the sign of zero included; a complex entry is read
    as two words."""
    if type(got) is not type(want) or np.shape(got) != np.shape(want):
        return False
    got, want = (np.ravel(x).astype(complex if np.iscomplexobj(x) else float).view(float)
                 for x in (got, want))
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


def rel_max_error(got, want) -> float:
    """max |got - want| / max |want|; 0 where they are equal, empty or zero arrays too."""
    diff = np.max(np.abs(np.asarray(got) - want), initial=0.0)
    return float(diff and diff / np.max(np.abs(want)))


# -- the cases that two modules share -----------------------------------------

# (dim, n, m[, cond]): the frame QR sweep's and householder_qr's matrices
QR_CASES = {"1d-64-1": (1, 64, 1), "1d-64-30": (1, 64, 30), "1d-256-1": (1, 256, 1),
            "1d-256-30": (1, 256, 30), "2d-16-30": (2, 16, 30), "1d-256-30-cond1e10":
            (1, 256, 30, 1e10)}


def qr_case(dim, n, m, cond=None) -> np.ndarray:
    """m random columns on n^dim nodes, or with ``cond``, their singular values
    spread evenly over log10(cond) decades."""
    rng = np.random.default_rng(n + m)
    a = rng.standard_normal((n**dim, m))
    if cond is not None:
        left, _ = np.linalg.qr(a)
        right, _ = np.linalg.qr(rng.standard_normal((m, m)))
        a = (left * np.logspace(0.0, -math.log10(cond), m)) @ right.T
    return a


# -- the kernel's applies: which one ``convolve`` takes, case by case ----------

# the suite's two kernels, a Gaussian whose tails underflow to 0 on every
# grid here, a mollifier wider than most of the boxes, and the zero kernel
TAP_SPECS = {
    "gaussian": gaussian_kernel(0.05, 0.05),
    "mollifier": mollifier_kernel(0.05, 0.2),
    "narrow-gaussian": gaussian_kernel(1.0, 1e-4),
    "wide-mollifier": mollifier_kernel(1.0, 0.9),
    "zero": zero_kernel(),
}

# (dim, n, kernel, the paths of a field's and a block's apply) on a box of
# length 1.  A 2D Gaussian takes its Toeplitz factors at every size; every other
# kernel the padded FFT above 511 nodes (1D n = 512, 2D 23 x 23) and below it
# the taps for a 1D field, trimmed to the generator's support where that fits
# in the box and whole where it does not, and W for a block or a 2D field.
APPLY_CASES = {
    "1d-n64-gaussian": (1, 64, gaussian_kernel(1.0, 0.1), ("taps", "dense")),
    "1d-n64-mollifier": (1, 64, mollifier_kernel(1.0, 0.25), ("taps", "dense")),
    "1d-n64-weak-gaussian": (1, 64, gaussian_kernel(0.02, 0.05), ("taps", "dense")),
    "1d-n128-mollifier": (1, 128, mollifier_kernel(1.0, 0.05), ("taps", "dense")),
    "1d-n256-gaussian": (1, 256, gaussian_kernel(0.3, 0.05), ("taps", "dense")),
    **{f"1d-n{n}-taps-{name}": (1, n, spec, ("taps", "dense"))
       for name, spec in TAP_SPECS.items() for n in (8, 64, 256, 511)},
    "1d-n512-gaussian": (1, 512, gaussian_kernel(0.3, 0.05), ("fft", "fft")),
    "1d-n512-weak-gaussian": (1, 512, gaussian_kernel(0.02, 0.05), ("fft", "fft")),
    "2d-n16-mollifier": (2, 16, mollifier_kernel(1.0, 0.25), ("dense", "dense")),
    "2d-n16-narrow-mollifier": (2, 16, mollifier_kernel(1.0, 0.1), ("dense", "dense")),
    "2d-n16-newton": (2, 16, newton_kernel(kd=1.0), ("dense", "dense")),
    "2d-n22-newton": (2, 22, newton_kernel(kd=0.7), ("dense", "dense")),
    "2d-n23-newton": (2, 23, newton_kernel(kd=0.7), ("fft", "fft")),
    "2d-n24-newton": (2, 24, newton_kernel(kd=0.7), ("fft", "fft")),
    "2d-n24-weak-newton": (2, 24, newton_kernel(kd=0.05), ("fft", "fft")),
    "2d-n16-gaussian": (2, 16, gaussian_kernel(1.0, 0.1), ("factors", "factors")),
    "2d-n23-gaussian": (2, 23, gaussian_kernel(1.0, 0.1), ("factors", "factors")),
    **{f"2d-n{n}-sharp-gaussian": (2, n, gaussian_kernel(0.7, 0.03), ("factors", "factors"))
       for n in (8, 16, 23, 64)},
    "2d-n24-weak-gaussian": (2, 24, gaussian_kernel(0.02, 0.05), ("factors", "factors")),
    "2d-n16-zero": (2, 16, zero_kernel(), ("factors", "factors")),
}


def apply_op(name: str) -> KernelOp:
    dim, n, spec, _ = APPLY_CASES[name]
    return KernelOp(build_grid(dim, n, 1.0), spec)


def apply_paths(op: KernelOp) -> tuple[str, ...]:
    """The (field, block) paths of ``op.convolve``, read from ``op._applies``."""
    return tuple(f.__name__.removeprefix("_apply_") for f in op._applies)


def on_every_row(args):
    """Hypothesis runs the test on every row first, with the arguments ``args(name)``."""
    def decorate(test):
        for name in APPLY_CASES:
            test = example(**args(name))(test)
        return test
    return decorate


_values = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
_coefs = st.one_of(st.just(0.0), st.floats(0.0, 10.0, allow_subnormal=False))


@st.composite
def grid_and_fields(draw):
    """A random grid (lengths 0.1 to 10), a nonnegative coefficient (zeros
    likely) and two fields.

    The coefficient and the pair of fields are each a single field (N,) or
    a block (N, m) of m fields, with one m for both.
    """
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(8, 64 if dim == 1 else 16))
    length = draw(st.floats(0.1, 10.0))
    g = build_grid(dim, n, length)
    m = draw(st.integers(1, 3))
    shapes = [(g.num_nodes,), (g.num_nodes, m)]
    a = draw(hnp.arrays(float, draw(st.sampled_from(shapes)), elements=_coefs))
    field = hnp.arrays(float, draw(st.sampled_from(shapes)), elements=_values)
    return g, a, draw(field), draw(field)
