"""
Semi-implicit time stepping for the parabolic rewrite of the nonlocal
Cahn-Hilliard system with reaction:

    u_t - Lap u - div(mu(u) grad w) = g(u),     w = K * (1 - 2u).

Each step solves (I - dt Lap) u_new = u + dt div(mu(u) grad w) + dt g(u)
directly in the DCT-II basis; the nonlocal flux and the reaction are explicit.
The per-step mass identity mean(u_new) = mean(u) + dt mean(g(u)) is enforced
exactly by a zero-mean correction of the solve (both divergence terms have
zero mean by construction).  The explicit flux can carry u_new out of [0, 1]:
an excursion up to BOUND_TOL is round-off, clipped and counted in
``clamp_events``; a larger one raises SolverError, because clipping it would
break the mass identity.  So every completed run keeps both.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import attrgetter

import numpy as np

from ._cores import clip
from .diagnostics import TrajectoryRecord
from .grid import div_flux, mean
from .kernels import KernelOp
from .model import ReactionSpec, check_datum, mobility, reaction_eval
from .solvers import SolverError, neumann_solver

BOUND_TOL = 1e-8   # the largest phase-bound excursion clipped; larger ones abort
# The most steps a run may take.  ``record`` keeps two Python floats per step
# (``step_mass`` and ``step_g_mean``), about 64 bytes, so this caps that ledger
# at about 64 MB.  A ``run`` step on 1D 256 nodes (Gaussian c = 20, Oono)
# took 34 us when sampled every 2000th step and 52 us when sampled every step
# (``step`` alone 33 us; timeit best of 7, 2-core VM), so this is also a run
# of about 35 to 55 s, far longer than any study here needs (4000 steps).
MAX_STEPS = 10**6
# a time within this relative distance of a step's time k dt is that step's
STEP_RTOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    record_every: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not (math.isfinite(self.t_end / self.dt) and 1 <= self.n_steps <= MAX_STEPS):
            raise ValueError(f"t_end / dt = {self.t_end / self.dt:.3g} must round to "
                             f"a number of steps >= 1 and <= MAX_STEPS = {MAX_STEPS}")
        # a run's length is its step count: a horizon between two steps is no run's
        reached = self.n_steps * self.dt
        if abs(reached - self.t_end) > STEP_RTOL * self.t_end:
            raise ValueError(f"t_end = {self.t_end!r} is not a whole number of steps of "
                             f"dt = {self.dt!r}: {self.n_steps} steps reach t = {reached:.10g}")
        try:
            admitted = operator.index(self.record_every) >= 1
        except TypeError:       # a float, even an integral one, or a string
            admitted = False
        if not admitted:
            raise ValueError("record_every must be an integer >= 1")

    @cached_property
    def n_steps(self) -> int:
        # cached in the instance's __dict__, which the frozen dataclass keeps;
        # ``replace`` builds a new instance and so counts afresh
        return int(round(self.t_end / self.dt))

    def first_step_at(self, t: float) -> int:
        """The first step k whose time k dt reaches t, to STEP_RTOL relative
        (0 for t <= 0): a time on the step grid is its own step's."""
        return math.ceil((1.0 - STEP_RTOL) * max(t, 0.0) / self.dt)

    def is_record_step(self, k: int) -> bool:
        """Whether the state after k steps is sampled: every record_every-th
        state, counting the initial one, and the final one."""
        return k % self.record_every == 0 or k == self.n_steps


@dataclass
class State:
    """Solver state: time, phase field, and the cached convolution w.  Its
    ``mass``, float(mean(u)), is computed once, when the state is built: the
    mass ledger of ``record`` and the next step's target mean both read it."""

    t: float
    u: np.ndarray
    w: np.ndarray
    step_count: int = 0
    clamp_events: int = 0
    mass: float = field(init=False)

    def __post_init__(self):
        self.mass = float(mean(self.u))


def initial_state(u0: np.ndarray, spec: ReactionSpec, op: KernelOp) -> State:
    """The state at t = 0 of a run of ``spec`` under ``op``, on ``check_datum``'s copy of u0."""
    u = check_datum(u0, spec, op, "initial datum")
    return State(t=0.0, u=u, w=op.convolve(1.0 - 2.0 * u))


def step(state: State, spec: ReactionSpec, op: KernelOp, cfg: SolverConfig) -> State:
    """Advance one semi-implicit step, preserving the discrete mass identity;
    the (I - dt Lap) solve is the shared one of the grid and dt."""
    grid = op.grid
    u, w = state.u, state.w
    g_vals = reaction_eval(spec, u)
    # u + dt F + dt g, built in F's array: the sums and products commute
    # exactly, so the bits are those of the three-temporary expression
    rhs = div_flux(grid, mobility(u), w)
    rhs *= cfg.dt
    rhs += u
    rhs += cfg.dt * g_vals
    target_mean = state.mass + cfg.dt * float(mean(g_vals))
    u_new = neumann_solver(grid, cfg.dt).solve(rhs)
    u_new += target_mean - float(mean(u_new))

    lo, hi = float(np.minimum.reduce(u_new)), float(np.maximum.reduce(u_new))
    excursion = max(0.0 - lo, hi - 1.0, 0.0)
    clamped = 0
    if excursion > BOUND_TOL:
        raise SolverError(
            f"phase bound excursion {excursion:.3e} exceeds {BOUND_TOL:.0e} "
            f"at t = {state.t + cfg.dt:.6g}: reduce dt or refine the grid"
        )
    if excursion > 0.0:
        clamped = int(np.sum((u_new < 0.0) | (u_new > 1.0)))
        clip(u_new, 0.0, 1.0, out=u_new)

    return State(
        t=state.t + cfg.dt,
        u=u_new,
        w=op.convolve(1.0 - 2.0 * u_new),
        step_count=state.step_count + 1,
        clamp_events=state.clamp_events + clamped,
    )


def _user_stacklevel() -> int:
    """The ``stacklevel`` that makes a warning raised in the calling frame
    name the first frame outside the nlch package, walking back from the
    frame that called or drew the calling one."""
    level, frame = 2, sys._getframe(2)
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        level, frame = level + 1, frame.f_back
    return level


def _trajectory(u0: np.ndarray, spec: ReactionSpec, op: KernelOp,
                cfg: SolverConfig) -> Iterator[State]:
    """Yield the states after k = 0..n_steps steps, at t = k dt exactly,
    making every check on the datum as the first state is drawn.  A
    pure-phase mean that the reaction does not move warns, naming the first
    line outside nlch that led to the first draw."""
    state = initial_state(u0, spec, op)
    if cfg.dt * spec.lipschitz_s >= 0.5:
        raise ValueError(
            f"dt * L_g = {cfg.dt * spec.lipschitz_s:.3g} >= 0.5: the explicit "
            f"reaction is unstable, reduce dt below {0.5 / spec.lipschitz_s:.3g}"
        )
    mean0 = state.mass
    if not (0.0 < mean0 < 1.0) and float(mean(reaction_eval(spec, state.u))) == 0.0:
        warnings.warn(f"mean(u0) = {mean0} is a pure phase and the reaction does not move "
                      "mass there; the run will remain stationary", stacklevel=_user_stacklevel())
    yield state
    for k in range(1, cfg.n_steps + 1):
        state = step(state, spec, op, cfg)
        state.t = k * cfg.dt      # avoid accumulation drift
        yield state


def record(states: Iterator[State], refs: Iterable[np.ndarray | None], spec: ReactionSpec,
           op: KernelOp, cfg: SolverConfig) -> tuple[State, TrajectoryRecord]:
    """Consume a ``_trajectory`` state stream as it is stepped, keeping no
    state; return the final state and the diagnostics record.  ``refs``
    holds each state's reference field for ``dist_to_ref`` (nan for None),
    and is drawn first: a reference trajectory's datum is checked first."""
    if isinstance(refs, np.ndarray):
        raise TypeError("refs is a stream of fields: pass repeat(ref) for one field")
    rec = TrajectoryRecord(grid=op.grid, dt=cfg.dt)
    for ref, state in zip(refs, states):
        k = state.step_count
        rec.step_mass.append(state.mass)
        if cfg.is_record_step(k):
            rec.sample(state, op, ref)
        if k < cfg.n_steps:
            rec.step_g_mean.append(float(mean(reaction_eval(spec, state.u))))
    if len(rec.step_mass) != cfg.n_steps + 1:
        raise ValueError(f"refs ended after {len(rec.step_mass)} of {cfg.n_steps + 1} states")
    return state, rec


def run(u0: np.ndarray, spec: ReactionSpec, op: KernelOp, cfg: SolverConfig,
        ref: np.ndarray | None = None) -> tuple[State, TrajectoryRecord]:
    """Integrate from u0 to t_end, recording diagnostics against ``ref`` (see ``record``)."""
    return record(_trajectory(u0, spec, op, cfg), repeat(ref), spec, op, cfg)


@dataclass
class PairRecord:
    """L2 distance series between two trajectories run in lockstep."""

    times: np.ndarray
    dist: np.ndarray


def pair_run(u01: np.ndarray, u02: np.ndarray, spec: ReactionSpec, op: KernelOp,
             cfg: SolverConfig) -> PairRecord:
    """Evolve two initial data side by side and record their L2 distance.

    Used for the continuous-dependence bound (the fitted growth constant is
    reported, never asserted against a specific value) and for the
    contraction checks of strictly decreasing reactions.
    """
    # the second datum's states as references
    _, rec = record(_trajectory(u01, spec, op, cfg),
                    map(attrgetter("u"), _trajectory(u02, spec, op, cfg)), spec, op, cfg)
    return PairRecord(times=np.asarray(rec.times), dist=np.asarray(rec.dist_to_ref))
