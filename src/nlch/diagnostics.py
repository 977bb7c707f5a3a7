"""
Long-time observables: mass, separation, norms, nonlocal energy,
mass-balance residuals, and exponential-rate fits.

The energy is the flow's Lyapunov functional when g == 0.  With a
reaction term the dynamics has no known decaying functional, so there the
energy is a monitor and no monotonicity is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, check_field, h1_seminorm, integrate, l2_norm, mean
from .model import potential


def mass(u: np.ndarray) -> float:
    """Spatial mean of u (uniform node weights; midpoint rule)."""
    return float(mean(u))


def separation(u: np.ndarray) -> tuple[float, float]:
    """Distances (k1, k2) = (min u, 1 - max u) from the pure phases."""
    return float(np.minimum.reduce(u, axis=None)), 1.0 - float(np.maximum.reduce(u, axis=None))


def energy(u: np.ndarray, op, w: np.ndarray | None = None) -> float:
    """The free energy E(u) = int f(u) + int int K(x - y) u(x) (1 - u(y)).

    Its variational derivative f'(u) + K*(1-2u) is the chemical potential
    of the flow, so E is its Lyapunov functional when g = 0.  Discretely
    E(u) = h^dim sum_i u_i (kbar_i - (W u)_i) + h^dim sum_i f(u_i), with W
    the assembled kernel, kbar its row sums and the potential extended
    continuously by f(0) = f(1) = 0.  Since w = W (1 - 2u) = kbar - 2 W u,
    the pair term is h^dim/2 (kbar + w) . u, so a state's energy needs no
    kernel apply of its own: ``w`` is the state's K*(1-2u), and it is
    computed from u when not given.
    """
    grid = op.grid
    u = check_field(grid, u)
    if w is None:
        w = op.convolve(1.0 - 2.0 * u)
    elif np.shape(w) != u.shape:
        raise ValueError(f"w has shape {np.shape(w)}, expected u's shape {u.shape}")
    pair = 0.5 * grid.cell_volume * float((op.kbar + w) @ u)
    bulk = integrate(grid, potential(u))
    return pair + bulk


@dataclass
class TrajectoryRecord:
    """Time series emitted by a run.

    The sampled series (every ``record_every`` steps plus the final state)
    share a common length.  ``step_mass`` and ``step_g_mean`` are per-step
    ledgers used by the exact mass-balance check: step_mass has one entry
    per state (steps + 1) and step_g_mean one entry per step.
    """

    grid: Grid
    dt: float
    times: list[float] = field(default_factory=list)
    mass: list[float] = field(default_factory=list)
    min_u: list[float] = field(default_factory=list)
    max_u: list[float] = field(default_factory=list)
    l2_norm: list[float] = field(default_factory=list)
    h1_seminorm: list[float] = field(default_factory=list)
    energy: list[float] = field(default_factory=list)
    dist_to_ref: list[float] = field(default_factory=list)
    clamp_events: list[int] = field(default_factory=list)
    step_mass: list[float] = field(default_factory=list)
    step_g_mean: list[float] = field(default_factory=list)

    def sample(self, state, op, ref: np.ndarray | None) -> None:
        """Append one sample of a ``State``, reading its t, mass and w."""
        u = state.u
        self.times.append(float(state.t))
        self.mass.append(state.mass)
        self.min_u.append(float(np.minimum.reduce(u, axis=None)))
        self.max_u.append(float(np.maximum.reduce(u, axis=None)))
        self.l2_norm.append(l2_norm(self.grid, u))
        self.h1_seminorm.append(h1_seminorm(self.grid, u))
        self.energy.append(energy(u, op, state.w))
        self.dist_to_ref.append(l2_norm(self.grid, u - ref) if ref is not None else float("nan"))
        self.clamp_events.append(int(state.clamp_events))

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {
            "t": np.asarray(self.times),
            "mass": np.asarray(self.mass),
            "min_u": np.asarray(self.min_u),
            "max_u": np.asarray(self.max_u),
            "l2_norm": np.asarray(self.l2_norm),
            "h1_seminorm": np.asarray(self.h1_seminorm),
            "energy": np.asarray(self.energy),
            "dist_to_ref": np.asarray(self.dist_to_ref),
            "clamp_events": np.asarray(self.clamp_events, dtype=int),
        }


def mass_balance_residual(rec: TrajectoryRecord) -> float:
    """Largest per-step defect of mean(u_{n+1}) - mean(u_n) - dt * mean(g(u_n)).

    Returned relative to the largest mass magnitude seen on the run; the
    scheme contract is <= 1e-12.
    """
    m = np.asarray(rec.step_mass)
    g = np.asarray(rec.step_g_mean)
    if len(m) < 2:
        return 0.0
    res = np.abs(np.diff(m) - rec.dt * g)
    scale = max(float(np.max(np.abs(m))), 1e-300)
    return float(np.max(res)) / scale


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Least-squares line through the points (x, y): its slope, its values at
    x, and its coefficient of determination r^2 (1 for a constant y)."""
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return slope, fit, 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def fit_exponential_rate(times, values, window: tuple[float, float]) -> tuple[float, float]:
    """Least-squares exponential rate of a positive series on a time window.

    Fits log(values) ~ a - rate * t for window samples and returns
    (rate, r_squared).  Non-finite or nonpositive values inside the window
    are an error; callers fitting a distance-to-limit that has hit its floor
    should report that instead of fitting.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    sel = (times >= window[0]) & (times <= window[1])
    if int(np.sum(sel)) < 10:
        raise ValueError(f"window ({window[0]:g}, {window[1]:g}) contains "
                         f"{int(np.sum(sel))} samples, need >= 10")
    t = times[sel]
    v = values[sel]
    if not np.isfinite(v).all():
        raise ValueError("non-finite values in fit window")
    if np.any(v <= 0.0):
        raise ValueError("nonpositive values in fit window (converged below floor?)")
    slope, _, r2 = _fit_line(t, np.log(v))
    return -float(slope), r2


def linear_fit_residual_fraction(times, log_values) -> float:
    """Max deviation of a linear fit of log-values, relative to their range.

    Used by the continuous-dependence check: a value well below 1 means the
    log-distance grows (or decays) at most linearly, i.e. no
    super-exponential separation of trajectories.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(log_values, dtype=float)
    resid = y - _fit_line(t, y)[1]
    spread = max(float(np.max(y) - np.min(y)), 1e-300)
    return float(np.max(np.abs(resid))) / spread
