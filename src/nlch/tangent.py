"""
Tangent (linearized) flow along stored trajectories and the trace-based
attractor-dimension machinery.

The tangent step uses the same semi-implicit splitting and the same
flux-form operators as the nonlinear step, so the propagated map is the
exact derivative of the discrete solution map away from clamping events.
Frames of tangent vectors are kept orthonormal in the discrete L2 inner
product by QR sweeps (re-orthonormalization prevents collapse onto the
leading direction); traces of the linearized operator over the spanned
rank-n projectors are evaluated with the instantaneous quadratic form, not
from stretching rates, so they match the trace functional literally.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import TrajectoryRecord
from .grid import Grid, div_flux, inner, l2_norm, laplacian_neumann, neumann_mode
from .kernels import KernelOp
from .model import ReactionSpec, mobility, mobility_deriv, reaction_deriv
from .solvers import SpdNeumannSolver
from .timestepper import SolverConfig, run

EXACT_REMAINDER_FLOOR = 1e-10


class FrameDegeneracyError(RuntimeError):
    """QR rank loss while propagating a tangent frame."""


def _tangent_rhs_terms(U: np.ndarray, u: np.ndarray, w: np.ndarray,
                       spec: ReactionSpec, op: KernelOp) -> np.ndarray:
    """div(mu'(u) U grad w + mu(u) grad K*(-2U)) + g'(u) U."""
    grid = op.grid
    w_tilde = op.convolve(-2.0 * U)
    flux = div_flux(grid, mobility_deriv(u) * U, w) + div_flux(grid, mobility(u), w_tilde)
    return flux + reaction_deriv(spec, u) * U


def tangent_step(U: np.ndarray, u: np.ndarray, w: np.ndarray, spec: ReactionSpec,
                 op: KernelOp, cfg: SolverConfig,
                 solver: SpdNeumannSolver | None = None) -> np.ndarray:
    """One semi-implicit step of the linearized equation at base state (u, w)."""
    if solver is None:
        solver = SpdNeumannSolver(op.grid, 1.0, cfg.dt)
    rhs = U + cfg.dt * _tangent_rhs_terms(U, u, w, spec, op)
    return solver.solve(rhs)


def propagate_tangent(U0: np.ndarray, rec: TrajectoryRecord, spec: ReactionSpec,
                      op: KernelOp, cfg: SolverConfig) -> np.ndarray:
    """Apply the tangent propagator along a stored trajectory.

    ``rec`` must come from a run with ``store_states=True``; the result is
    the derivative of the discrete solution map applied to U0.
    """
    if rec.states is None or rec.w_states is None:
        raise ValueError("trajectory record does not store states; rerun with store_states=True")
    solver = SpdNeumannSolver(op.grid, 1.0, cfg.dt)
    U = np.asarray(U0, dtype=float).copy()
    for u, w in zip(rec.states[:-1], rec.w_states[:-1]):
        U = tangent_step(U, u, w, spec, op, cfg, solver=solver)
    return U


@dataclass
class TangentFrame:
    """An evolving set of tangent vectors (the columns of ``vectors``),
    orthonormal in discrete L2."""

    grid: Grid
    vectors: np.ndarray

    def orthonormalize(self) -> None:
        """QR sweep in the L2 inner product; raises on rank loss."""
        scale = math.sqrt(self.grid.cell_volume)
        q, r = np.linalg.qr(self.vectors * scale)
        diag = np.diag(r).copy()
        top = float(np.max(np.abs(diag)))
        if top == 0.0 or not np.all(np.isfinite(diag)) or np.any(np.abs(diag) < 1e-14 * top):
            raise FrameDegeneracyError(
                "tangent frame lost rank (stretching factors span more than "
                "14 decades between sweeps; tighten ortho_every): "
                f"QR diagonal {diag}"
            )
        signs = np.sign(diag)
        self.vectors = (q * signs) / scale


def cosine_frame(grid: Grid, n: int) -> TangentFrame:
    """Initial frame from the lowest Neumann cosine modes (constant first).

    These are exact discrete eigenvectors of the stencil, so reaction-free
    dynamics leaves the frame invariant and the trace hierarchy matches the
    analytic Neumann spectrum.
    """
    if n < 1 or n > grid.num_nodes:
        raise ValueError(f"frame size must be in [1, {grid.num_nodes}], got {n}")
    if grid.dim == 1:
        modes = [(k,) for k in range(n)]
    else:
        pairs = [(k0, k1) for k0 in range(grid.n) for k1 in range(grid.n)]
        pairs.sort(key=lambda p: (p[0] ** 2 + p[1] ** 2, p[0], p[1]))
        modes = pairs[:n]
    cols = np.column_stack([neumann_mode(grid, m if grid.dim > 1 else m[0]) for m in modes])
    frame = TangentFrame(grid=grid, vectors=cols)
    frame.orthonormalize()
    return frame


def trace_form(cols: np.ndarray, u: np.ndarray, w: np.ndarray, spec: ReactionSpec,
               op: KernelOp) -> np.ndarray:
    """Per-column values (L phi_j, phi_j) of the linearized operator at (u, w)."""
    grid = op.grid
    out = np.empty(cols.shape[1])
    for j in range(cols.shape[1]):
        phi = cols[:, j]
        lphi = laplacian_neumann(grid, phi) + _tangent_rhs_terms(phi, u, w, spec, op)
        out[j] = inner(grid, lphi, phi)
    return out


def _evolve_frame_traces(u0: np.ndarray, n: int, T: float, spec: ReactionSpec,
                         op: KernelOp, cfg: SolverConfig, ortho_every: int = 10,
                         transient: float = 1.0) -> np.ndarray:
    """Per-column time-averaged trace contributions (L phi_j, phi_j) on [transient, T]."""
    if T < transient:
        raise ValueError(f"T = {T} must be >= the transient window {transient}")
    if ortho_every < 1:
        raise ValueError(f"ortho_every must be >= 1, got {ortho_every}")
    run_cfg = replace(cfg, t_end=float(T))
    _, rec = run(u0, spec, op, run_cfg, store_states=True)
    solver = SpdNeumannSolver(op.grid, 1.0, cfg.dt)
    frame = cosine_frame(op.grid, n)

    sums = np.zeros(n)
    n_evals = 0
    for k in range(run_cfg.n_steps):
        u_k, w_k = rec.states[k], rec.w_states[k]
        for j in range(n):
            frame.vectors[:, j] = tangent_step(frame.vectors[:, j], u_k, w_k,
                                               spec, op, cfg, solver=solver)
        t = (k + 1) * cfg.dt
        at_record = run_cfg.is_record_step(k + 1)
        if (k + 1) % ortho_every == 0 or at_record:
            frame.orthonormalize()
        if at_record and t >= transient:
            sums += trace_form(frame.vectors, rec.states[k + 1], rec.w_states[k + 1],
                               spec, op)
            n_evals += 1
    if not n_evals:
        raise ValueError("no evaluation times fell inside [transient, T]; "
                         "increase T or lower record_every")
    return sums / n_evals


def trace_estimate(u0: np.ndarray, n: int, T: float, spec: ReactionSpec,
                   op: KernelOp, cfg: SolverConfig, ortho_every: int = 10,
                   transient: float = 1.0) -> float:
    """Time-averaged trace of the linearized operator over a rank-n projector.

    Evolves an n-column frame from the lowest cosine modes along the
    trajectory of u0, re-orthonormalizing periodically, and averages the
    instantaneous quadratic form over record times in [transient, T].
    """
    return float(np.sum(_evolve_frame_traces(u0, n, T, spec, op, cfg, ortho_every, transient)))


@dataclass
class DimensionScan:
    """Result of scanning traces upward in n."""

    n_bound: int | None
    traces: np.ndarray
    contributions: np.ndarray

    def describe(self) -> str:
        if self.n_bound is None:
            return f"none <= {len(self.traces)}"
        return str(self.n_bound)


def first_negative_trace(traces: np.ndarray) -> int | None:
    """Index (1-based) of the first strictly negative trace, with a round-off
    margin so a neutral mode averaging to -1e-28 does not count as negative."""
    traces = np.asarray(traces)
    if traces.size == 0:
        return None
    tol = 1e-10 * max(1.0, float(np.max(np.abs(traces))))
    negative = np.nonzero(traces < -tol)[0]
    return int(negative[0]) + 1 if negative.size else None


def dimension_bound(u0: np.ndarray, n_max: int, T: float, spec: ReactionSpec,
                    op: KernelOp, cfg: SolverConfig, ortho_every: int = 10,
                    transient: float = 1.0) -> DimensionScan:
    """Smallest n with a negative time-averaged trace, plus the trace curve.

    A single n_max-column frame is evolved; nested partial sums over its
    leading columns reproduce the individual trace estimates exactly because
    QR orthonormalization is column-sequential.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    contributions = _evolve_frame_traces(u0, n_max, T, spec, op, cfg, ortho_every, transient)
    traces = np.cumsum(contributions)
    return DimensionScan(n_bound=first_negative_trace(traces), traces=traces,
                         contributions=contributions)


@dataclass
class RemainderStudy:
    """Remainders of the first-order tangent approximation at several eps."""

    eps: np.ndarray
    remainders: np.ndarray
    order: float
    r_squared: float
    exact: bool

    def __str__(self) -> str:
        if self.exact:
            return f"remainder exact (all <= {EXACT_REMAINDER_FLOOR:g})"
        return f"fitted order {self.order:.3f} (r^2 = {self.r_squared:.4f})"


def remainder_order(u0: np.ndarray, direction: np.ndarray, eps_list, spec: ReactionSpec,
                    op: KernelOp, cfg: SolverConfig, t: float) -> RemainderStudy:
    """Observed order of || S(t)(u0+eps d) - S(t)u0 - eps Lambda(t) d ||.

    Fits the slope of log remainder against log eps.  If every remainder
    sits below the noise floor the flow is affine along this direction and
    the study reports order = inf with ``exact`` set.
    """
    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    if eps_arr.size < 3:
        raise ValueError(f"need >= 3 points to fit, got {eps_arr.size}")
    if np.any(eps_arr <= 0):
        raise ValueError("eps values must be positive")
    grid = op.grid
    direction = np.asarray(direction, dtype=float)
    nrm = l2_norm(grid, direction)
    if nrm == 0:
        raise ValueError("direction must be nonzero")
    direction = direction / nrm

    run_cfg = replace(cfg, t_end=float(t))
    base_state, base_rec = run(u0, spec, op, run_cfg, store_states=True)
    lam_dir = propagate_tangent(direction, base_rec, spec, op, run_cfg)

    eps_used, remainders = [], []
    for eps in eps_arr:
        v0 = u0 + eps * direction
        if float(np.min(v0)) < 0.0 or float(np.max(v0)) > 1.0:
            warnings.warn(f"eps = {eps:g} drives the initial datum out of [0,1]; skipped",
                          stacklevel=2)
            continue
        pert_state, _ = run(v0, spec, op, run_cfg)
        r = l2_norm(grid, pert_state.u - base_state.u - eps * lam_dir)
        eps_used.append(eps)
        remainders.append(r)
    if len(eps_used) < 2:
        raise ValueError("fewer than 2 usable eps values after bound checks")
    eps_used = np.asarray(eps_used)
    remainders = np.asarray(remainders)

    if np.all(remainders <= EXACT_REMAINDER_FLOOR):
        return RemainderStudy(eps=eps_used, remainders=remainders,
                              order=float("inf"), r_squared=1.0, exact=True)
    x = np.log(eps_used)
    y = np.log(np.maximum(remainders, 1e-300))
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RemainderStudy(eps=eps_used, remainders=remainders,
                          order=float(slope), r_squared=r2, exact=False)
