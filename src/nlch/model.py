"""
Pointwise physics: degenerate mobility, logarithmic potential, reaction terms.

The mobility mu(s) = s(1-s), the potential f and the reaction g are
evaluated on the phase interval [0,1] only, where the dynamics keeps every
state: ``_trajectory`` and ``solve_equilibrium`` reject data outside it,
``step`` clips a round-off excursion or aborts, each Picard sweep clips its
iterate and ``remainder_order`` skips perturbations that leave it.  The
reaction family carries its s-derivative explicitly because the tangent
flow needs it with uniform accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import xlogy

from .grid import Grid, check_field


def mobility(s: np.ndarray | float) -> np.ndarray | float:
    """mu(s) = s(1-s) on [0,1], degenerate at the pure phases."""
    s = np.asarray(s, dtype=float)
    out = s * (1.0 - s)
    return out if out.ndim else float(out)


def mobility_deriv(s: np.ndarray | float) -> np.ndarray | float:
    """mu'(s) = 1-2s on [0,1]."""
    s = np.asarray(s, dtype=float)
    out = 1.0 - 2.0 * s
    return out if out.ndim else float(out)


def potential(s: np.ndarray | float) -> np.ndarray | float:
    """f(s) = s log s + (1-s) log(1-s) on [0,1], with f(0) = f(1) = 0."""
    s = np.asarray(s, dtype=float)
    t = 1.0 - s
    out = xlogy(s, s) + xlogy(t, t)
    return out if out.ndim else float(out)


# distance from the pure phases at which f' is evaluated
F_PRIME_GUARD = 1e-12


def f_prime(s: np.ndarray | float) -> np.ndarray | float:
    """f'(s) = log(s/(1-s)) evaluated at s clamped to [F_PRIME_GUARD,
    1 - F_PRIME_GUARD].

    Clamping is the contract: callers that need to detect the raw divergence
    check |result| >= log((1 - F_PRIME_GUARD)/F_PRIME_GUARD).
    """
    sc = np.clip(np.asarray(s, dtype=float), F_PRIME_GUARD, 1.0 - F_PRIME_GUARD)
    out = np.log(sc / (1.0 - sc))
    return out if out.ndim else float(out)


def chemical_potential(u: np.ndarray, op) -> np.ndarray:
    """Diagnostic chemical potential v = f'(u) + K*(1-2u).

    Diagnostic only: near the pure phases the guard dominates f', mirroring
    the fact that the continuum potential is not well defined there.
    """
    u = check_field(op.grid, u)
    return f_prime(u) + op.convolve(1.0 - 2.0 * u)


@dataclass(frozen=True, eq=False)
class ReactionSpec:
    """A reaction term g(x, s) with its s-derivative and validity checks.

    ``g_fn`` and ``dg_fn`` map a nodal state array with entries in [0,1]
    to nodal values.  ``lipschitz_s`` is the uniform Lipschitz constant
    in s, stored for stability guards and reports.
    """

    grid: Grid
    name: str
    g_fn: Callable[[np.ndarray], np.ndarray]
    dg_fn: Callable[[np.ndarray], np.ndarray]
    lipschitz_s: float

    def __post_init__(self):
        ones = np.ones(self.grid.num_nodes)
        g0 = self.g_fn(0.0 * ones)
        g1 = self.g_fn(1.0 * ones)
        # sign condition at the pure phases: sources at 0, sinks at 1
        if np.any(g0 < 0.0) or np.any(g1 > 0.0):
            raise ValueError(
                f"reaction '{self.name}' violates the sign condition: "
                f"min g(.,0) = {np.min(g0):.3e} (needs >= 0), "
                f"max g(.,1) = {np.max(g1):.3e} (needs <= 0)"
            )
        if not np.isfinite(self.lipschitz_s) or self.lipschitz_s < 0:
            raise ValueError("lipschitz_s must be finite and nonnegative")


def reaction_eval(spec: ReactionSpec, u: np.ndarray) -> np.ndarray:
    """Pointwise g(x_i, u_i) for u in [0,1]."""
    return spec.g_fn(np.asarray(u, dtype=float))


def reaction_deriv(spec: ReactionSpec, u: np.ndarray) -> np.ndarray:
    """Pointwise d_s g(x_i, u_i) for u in [0,1]."""
    return spec.dg_fn(np.asarray(u, dtype=float))


def _as_field(grid: Grid, value, name: str, lo=None, hi=None) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.ndim == 0:
        v = np.full(grid.num_nodes, float(v))
    try:
        v = check_field(grid, v)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if lo is not None and np.any(v < lo):
        raise ValueError(f"{name} must be >= {lo} everywhere")
    if hi is not None and np.any(v > hi):
        raise ValueError(f"{name} must be <= {hi} everywhere")
    return v


def logistic_reaction(grid: Grid, alpha) -> ReactionSpec:
    """g = alpha(x) u (1-u), the space-dependent logistic source (g >= 0)."""
    a = _as_field(grid, alpha, "alpha", lo=0.0)
    return ReactionSpec(
        grid=grid, name="logistic",
        g_fn=lambda s: a * s * (1.0 - s),
        dg_fn=lambda s: a * (1.0 - 2.0 * s),
        lipschitz_s=float(np.max(a)),
    )


def bertozzi_reaction(grid: Grid, beta, h_target) -> ReactionSpec:
    """g = beta(x) (h(x) - u), the inpainting relaxation toward h <= 1."""
    b = _as_field(grid, beta, "beta", lo=0.0)
    ht = _as_field(grid, h_target, "h", lo=0.0, hi=1.0)
    return ReactionSpec(
        grid=grid, name="bertozzi",
        g_fn=lambda s: b * (ht - s),
        dg_fn=lambda s: -b * np.ones_like(s),
        lipschitz_s=float(np.max(b)),
    )


def oono_reaction(grid: Grid, sigma) -> ReactionSpec:
    """g = -sigma(x) u, the diblock-copolymer sink (g <= 0)."""
    s0 = _as_field(grid, sigma, "sigma", lo=0.0)
    return ReactionSpec(
        grid=grid, name="oono",
        g_fn=lambda s: -s0 * s,
        dg_fn=lambda s: -s0 * np.ones_like(s),
        lipschitz_s=float(np.max(s0)),
    )


def custom_reaction(grid: Grid, g_fn, dg_fn, lipschitz_s: float,
                    name: str = "custom") -> ReactionSpec:
    """Wrap user-supplied g and d_s g (both required, vectorized over nodes)
    with the uniform Lipschitz constant ``lipschitz_s`` of g in s."""
    if g_fn is None or dg_fn is None:
        raise ValueError("custom reactions require both g and its s-derivative")
    return ReactionSpec(grid=grid, name=name, g_fn=g_fn, dg_fn=dg_fn,
                        lipschitz_s=float(lipschitz_s))


def zero_reaction(grid: Grid) -> ReactionSpec:
    """g = 0: the mass-conserving, reaction-free dynamics."""
    return custom_reaction(grid, lambda s: np.zeros_like(s), lambda s: np.zeros_like(s),
                           lipschitz_s=0.0, name="none")


def balanced_cubic_reaction(grid: Grid, scale=1.0) -> ReactionSpec:
    """g = scale * u (1-u) (1/2 - u): vanishes at 0, 1/2, and 1.

    The canonical example of non-unique equilibria: all three constant
    states solve the stationary problem.
    """
    c = _as_field(grid, scale, "scale", lo=0.0)
    return ReactionSpec(
        grid=grid, name="balanced_cubic",
        g_fn=lambda s: c * s * (1.0 - s) * (0.5 - s),
        dg_fn=lambda s: c * (0.5 - 3.0 * s + 3.0 * s * s),
        lipschitz_s=float(np.max(c)) * 0.5,
    )
