"""
Tangent (linearized) flow streamed with the trajectory, and the trace-based
attractor-dimension machinery.

The tangent step uses the same semi-implicit splitting and the same
flux-form operators as the nonlinear step, so the propagated map is the
exact derivative of the discrete solution map away from clamping events.
Tangent vectors ride along with the base trajectory: at step k the base
state advances from (u_k, w_k) and the whole (N, m) block of tangent
vectors advances with it, through the same block operators, so no state
is stored and memory is O(N m) (the frame methods of Benettin et al.,
Meccanica 15, 1980).  Frames of tangent vectors are kept orthonormal in
the discrete L2 inner product by QR sweeps (re-orthonormalization prevents
collapse onto the leading direction); traces of the linearized operator
over the spanned rank-n projectors are evaluated with the instantaneous
quadratic form, not from stretching rates, so they match the trace
functional literally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import pairwise, product

import numpy as np

from ._cores import householder_qr
from .diagnostics import _fit_line
from .grid import Grid, check_field, div_flux, l2_norm, laplacian_neumann, neumann_mode
from .kernels import KernelOp
from .model import ReactionSpec, check_datum, mobility, mobility_deriv, reaction_deriv
from .solvers import SolverError, neumann_solver
from .timestepper import SolverConfig, State, _trajectory, run

EXACT_REMAINDER_FLOOR = 1e-10


class FrameDegeneracyError(SolverError):
    """QR rank loss while propagating a tangent frame."""


def _tangent_rhs_terms(U: np.ndarray, u: np.ndarray, w: np.ndarray,
                       spec: ReactionSpec, op: KernelOp) -> np.ndarray:
    """div(mu'(u) U grad w + mu(u) grad K*(-2U)) + g'(u) U, for U of shape
    (N,) or (N, m)."""
    grid = op.grid
    per_node = (1,) * (U.ndim - 1)      # nodal coefficients scale every column
    w_tilde = op.convolve(-2.0 * U)
    flux = (div_flux(grid, mobility_deriv(u).reshape(u.shape + per_node) * U, w)
            + div_flux(grid, mobility(u), w_tilde))
    return flux + reaction_deriv(spec, u).reshape(u.shape + per_node) * U


def tangent_step(U: np.ndarray, u: np.ndarray, w: np.ndarray, spec: ReactionSpec,
                 op: KernelOp, cfg: SolverConfig) -> np.ndarray:
    """One semi-implicit step of the linearized equation at base state (u, w).

    ``U`` is one tangent vector (N,) or a block (N, m) of them, one per
    column; the result has the shape of ``U``.  The implicit solve is the
    nonlinear step's own, the shared (I - dt Lap) solver of the grid and dt.
    """
    return _step_from_terms(U, _tangent_rhs_terms(U, u, w, spec, op), op.grid, cfg)


def _step_from_terms(U: np.ndarray, terms: np.ndarray, grid: Grid,
                     cfg: SolverConfig) -> np.ndarray:
    """The tangent step from U, given ``_tangent_rhs_terms`` at U and the base state."""
    return neumann_solver(grid, cfg.dt).solve(U + cfg.dt * terms)


def _propagate(U0: np.ndarray, u0: np.ndarray, spec: ReactionSpec, op: KernelOp,
               cfg: SolverConfig) -> tuple[State, np.ndarray]:
    """The final base state of the run from u0 and the tangent map applied to U0."""
    U = np.asarray(U0, dtype=float)
    for prev, state in pairwise(_trajectory(u0, spec, op, cfg)):
        U = tangent_step(U, prev.u, prev.w, spec, op, cfg)
    return state, U


def propagate_tangent(U0: np.ndarray, u0: np.ndarray, spec: ReactionSpec,
                      op: KernelOp, cfg: SolverConfig) -> np.ndarray:
    """Apply the derivative of the discrete solution map S(t_end) at u0 to U0.

    ``U0`` is one tangent vector (N,) or a block (N, m) of them; the block
    is advanced together with the base trajectory, which is never stored.
    """
    return _propagate(U0, u0, spec, op, cfg)[1]


@dataclass
class TangentFrame:
    """An evolving set of tangent vectors (the columns of ``vectors``),
    orthonormal in discrete L2."""

    grid: Grid
    vectors: np.ndarray

    def orthonormalize(self) -> None:
        """QR sweep in the L2 inner product; raises on rank loss."""
        scale = math.sqrt(self.grid.cell_volume)
        q, diag = householder_qr(self.vectors * scale)
        mags = np.abs(diag)
        top, low = float(np.maximum.reduce(mags)), float(np.minimum.reduce(mags))
        # a NaN in the diagonal makes both extremes NaN, and both tests false
        if not (0.0 < top < math.inf and low >= 1e-14 * top):
            raise FrameDegeneracyError(
                "tangent frame lost rank (stretching factors span more than "
                "14 decades between sweeps; tighten ortho_every): "
                f"QR diagonal {diag}"
            )
        # multiplying by +-1 is exact, so this keeps the bits of (q * signs) / scale
        q /= scale
        q *= np.sign(diag)
        self.vectors = q


def cosine_frame(grid: Grid, n: int) -> TangentFrame:
    """Initial frame from the lowest Neumann cosine modes (constant first).

    These are exact discrete eigenvectors of the stencil, so reaction-free
    dynamics leaves the frame invariant and the trace hierarchy matches the
    analytic Neumann spectrum.
    """
    if n < 1 or n > grid.num_nodes:
        raise ValueError(f"frame size must be in [1, {grid.num_nodes}], got {n}")
    # by squared wavenumber; the sort is stable, so ties keep product's
    # lexicographic order of the mode indices
    modes = sorted(product(range(grid.n), repeat=grid.dim), key=lambda m: sum(k * k for k in m))[:n]
    cols = np.column_stack([neumann_mode(grid, m) for m in modes])
    frame = TangentFrame(grid=grid, vectors=cols)
    frame.orthonormalize()
    return frame


def trace_form(cols: np.ndarray, u: np.ndarray, w: np.ndarray, spec: ReactionSpec,
               op: KernelOp) -> np.ndarray:
    """Per-column values (L phi_j, phi_j) of the linearized operator at (u, w),
    for an (N, m) block of columns phi_j."""
    return _form_from_terms(cols, _tangent_rhs_terms(cols, u, w, spec, op), op.grid)


def _form_from_terms(cols: np.ndarray, terms: np.ndarray, grid: Grid) -> np.ndarray:
    """The trace form of the columns, given ``_tangent_rhs_terms`` at them and
    the base state."""
    lphi = laplacian_neumann(grid, cols) + terms
    return grid.cell_volume * np.einsum("ij,ij->j", lphi, cols)


@dataclass
class DimensionScan:
    """Time-averaged traces over the nested rank-n projectors, n = 1..len(traces)."""

    traces: np.ndarray

    @property
    def n_bound(self) -> int | None:
        """Smallest n (1-based) with a strictly negative trace, with a round-off
        margin so a neutral mode averaging to -1e-28 does not count as negative."""
        tol = 1e-10 * max(1.0, float(np.max(np.abs(self.traces), initial=0.0)))
        negative = np.nonzero(self.traces < -tol)[0]
        return int(negative[0]) + 1 if negative.size else None

    def describe(self) -> str:
        n_bound = self.n_bound
        return f"none <= {len(self.traces)}" if n_bound is None else str(n_bound)


def dimension_bound(u0: np.ndarray, n_max: int, T: float, spec: ReactionSpec,
                    op: KernelOp, cfg: SolverConfig, ortho_every: int = 10,
                    transient: float = 1.0) -> DimensionScan:
    """Smallest n with a negative time-averaged trace, plus the trace curve.

    A single n_max-column frame rides along with the run from u0 to T, and
    the traces (L phi_j, phi_j) are averaged over the record states after the
    first step that lie in [transient, T], read on the step grid: state k is
    in the window when k dt reaches transient (``SolverConfig.first_step_at``).
    T is a whole number of steps (``SolverConfig``), so the final state
    always is.
    Nested partial sums over its leading columns reproduce the individual
    trace estimates exactly because QR orthonormalization is
    column-sequential.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not transient <= T:      # a NaN transient too
        raise ValueError(f"T = {T} must be >= the transient window {transient}")
    if ortho_every < 1:
        raise ValueError(f"ortho_every must be >= 1, got {ortho_every}")
    run_cfg = replace(cfg, t_end=float(T))
    frame = cosine_frame(op.grid, n_max)

    first = max(1, cfg.first_step_at(transient))

    def sampled(s: State) -> bool:
        return s.step_count >= first and run_cfg.is_record_step(s.step_count)

    sums = np.zeros(n_max)
    n_evals = 0
    # a step's rhs terms, at the frame and the state before the step, also
    # give that state's trace form if it is sampled; the final state, which
    # no step follows, takes trace_form
    for prev, state in pairwise(_trajectory(u0, spec, op, run_cfg)):
        terms = _tangent_rhs_terms(frame.vectors, prev.u, prev.w, spec, op)
        if sampled(prev):
            sums += _form_from_terms(frame.vectors, terms, op.grid)
            n_evals += 1
        frame.vectors = _step_from_terms(frame.vectors, terms, op.grid, cfg)
        k = state.step_count
        if k % ortho_every == 0 or run_cfg.is_record_step(k):
            frame.orthonormalize()
    if sampled(state):
        sums += trace_form(frame.vectors, state.u, state.w, spec, op)
        n_evals += 1
    return DimensionScan(traces=np.cumsum(sums / n_evals))


@dataclass
class RemainderStudy:
    """Remainders of the first-order tangent approximation at several eps,
    and the eps whose datum u0 + eps d leaves [0, 1] (``skipped``)."""

    eps: np.ndarray
    remainders: np.ndarray
    order: float
    r_squared: float
    exact: bool
    skipped: np.ndarray

    def __str__(self) -> str:
        if self.exact:
            return f"remainder exact (all <= {EXACT_REMAINDER_FLOOR:g})"
        return f"fitted order {self.order:.3f} (r^2 = {self.r_squared:.4f})"


def remainder_order(u0: np.ndarray, direction: np.ndarray, eps_list, spec: ReactionSpec,
                    op: KernelOp, cfg: SolverConfig, t: float) -> RemainderStudy:
    """Observed order of || S(t)(u0+eps d) - S(t)u0 - eps Lambda(t) d ||.

    Fits the slope of log remainder against log eps over the eps whose datum
    u0 + eps d lies in [0, 1]; the others are ``skipped``, before any step.
    If every remainder sits below the noise floor the flow is affine along
    this direction and the study reports order = inf with ``exact`` set.
    """
    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    if not (np.isfinite(eps_arr) & (eps_arr > 0)).all():
        raise ValueError("eps values must be positive and finite")
    # sorted, so a repeat is its neighbour; it would count as a second point
    if (repeats := eps_arr[1:][eps_arr[1:] == eps_arr[:-1]]).size:
        raise ValueError(f"eps values must be distinct, {float(repeats[0])!r} is repeated")
    grid = op.grid
    u0 = check_datum(u0, spec, op, "initial datum")
    direction = check_field(grid, direction)
    nrm = l2_norm(grid, direction)
    if nrm == 0:
        raise ValueError("direction must be nonzero")
    direction = direction / nrm

    data = u0 + eps_arr[:, None] * direction
    leaves = (data.min(axis=1) < 0.0) | (data.max(axis=1) > 1.0)
    # any two points lie on a line
    if (usable := np.count_nonzero(~leaves)) < 3:
        raise ValueError(f"fewer than 3 usable eps values after bound checks: {usable} of "
                         f"{eps_arr.size} keep u0 + eps d in [0, 1]")
    eps_used = eps_arr[~leaves]
    run_cfg = replace(cfg, t_end=float(t))
    base_state, lam_dir = _propagate(direction, u0, spec, op, run_cfg)
    end_cfg = replace(run_cfg, record_every=run_cfg.n_steps)   # only the final states are used
    remainders = np.array([l2_norm(grid, run(v0, spec, op, end_cfg)[0].u - base_state.u
                                   - eps * lam_dir)
                           for eps, v0 in zip(eps_used, data[~leaves])])

    if np.all(remainders <= EXACT_REMAINDER_FLOOR):
        return RemainderStudy(eps=eps_used, remainders=remainders, order=float("inf"),
                              r_squared=1.0, exact=True, skipped=eps_arr[leaves])
    slope, _, r2 = _fit_line(np.log(eps_used), np.log(np.maximum(remainders, 1e-300)))
    return RemainderStudy(eps=eps_used, remainders=remainders, order=float(slope),
                          r_squared=r2, exact=False, skipped=eps_arr[leaves])
