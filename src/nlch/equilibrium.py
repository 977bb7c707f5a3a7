"""
Steady states of the reacting nonlocal Cahn-Hilliard system by Anderson-
accelerated damped Picard iteration on the semi-implicit step: each sweep
is the time step without its mass correction at the pseudo-time
tau = 1 / (rho + EQ_SHIFT), rho the reaction's Lipschitz constant in s,

    (I - tau Lap) u_next = z + tau (div(mu(z) grad K*(1-2z)) + g(z)),

which is pseudo-transient continuation (Kelley & Keyes, SIAM J. Numer.
Anal. 35, 1998).  Every true equilibrium is a fixed point of this map at
every tau (the z terms cancel at a fixed point), so one tau serves: the
rho part keeps the map contractive for stiff monotone reactions where no
fixed damping could, and EQ_SHIFT keeps tau finite when the reaction
vanishes.  A solve is certified by the strong residual falling below
RESIDUAL_TOL, not by the map; multistart counts limits within DEDUP_TOL
as one.  The compatibility defect |mean(g(u))| is reported, since no
steady state exists when the reaction pumps net mass.  Iterates are
clamped to [0,1]: the existence construction proves the bounds by
truncation, and the pure phases are reachable limits.

The damped map G(u) = clip((1 - DAMPING) u + DAMPING u_next) contracts slowly
(0.75-0.9 per sweep), so the iteration mixes its last few values by
Anderson acceleration (Anderson, J. ACM 12, 1965): the next iterate is the
combination of the recent G-values whose residuals G(u) - u have the least
norm, clamped to [0,1].  Mixing changes only the path, not the fixed
points.  The certificate is the one stopping rule: each sweep reads the
residual of its iterate off the right-hand side it evaluates for the step,
so every sweep both checks and mixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._cores import cholesky_lo, clip, linalg_errstate, solve1
from .grid import div_flux, l2_norm, laplacian_neumann, mean
from .kernels import KernelOp
from .model import ReactionSpec, check_datum, mobility, reaction_eval
from .solvers import neumann_solver

# the sweep's pseudo-time is 1 / (rho + EQ_SHIFT); any positive value has
# the same fixed points.  On the 1D n = 64 test cases 0.5 keeps the mixed
# limits within 1e-9 of the plain loop's (1.0 does not) and the mixed sweeps
# under half of its (0.3 does not, on oono)
EQ_SHIFT = 0.5
# weight of the solve u_next in the damped step
DAMPING = 0.5
# the strong-form residual below which a solve converges
RESIDUAL_TOL = 1e-9
# converged limits closer than this in L2 are one equilibrium
DEDUP_TOL = 1e-6
# steps after which a solve that has not converged stops, flagged
MAX_SWEEPS = 10000


@dataclass
class EquilibriumResult:
    """A solve's last iterate, its residual, the residuals taken and mean |g(u)|."""

    u: np.ndarray
    residual: float
    iterations: int
    mass_defect: float = 0.0

    @property
    def converged(self) -> bool:
        """The residual the solve stopped on is below RESIDUAL_TOL."""
        return self.residual < RESIDUAL_TOL

    @property
    def certified(self) -> bool:
        """The same as converged: that residual certifies the limit."""
        return self.converged


def _rhs(z: np.ndarray, spec: ReactionSpec, op: KernelOp) -> np.ndarray:
    w = op.convolve(1.0 - 2.0 * z)
    return div_flux(op.grid, mobility(z), w) + reaction_eval(spec, z)


# Anderson mixing keeps the differences of the last ANDERSON_DEPTH map values;
# a column whose direction lies within sine ANDERSON_SIN_TOL of the span of
# the older ones makes the least-squares fit ill-posed, and the oldest column
# is dropped until none does and the fit's Gram system solves.  The fit calls
# numpy's LAPACK cores, which mark a failed factorization or solve by NaNs
# where np.linalg would raise LinAlgError, so a NaN fails either test
ANDERSON_DEPTH = 5
ANDERSON_SIN_TOL = 1e-7


def _columns(fields: list[np.ndarray]) -> np.ndarray:
    """The C-ordered (N, k) stack of k fields, as np.stack(fields, axis=1)
    lays it out, at less cost; a transposed view would change the bits of
    the Gram matrix."""
    return np.array(fields).T.copy()


class _AndersonHistory:
    """Differences of consecutive map values g and residuals f = g - u over
    the last ANDERSON_DEPTH sweeps (Walker & Ni, SIAM J. Numer. Anal. 49,
    2011), each pair scaled to a unit residual difference."""

    def __init__(self):
        self.dg: list[np.ndarray] = []
        self.df: list[np.ndarray] = []
        self._last: tuple[np.ndarray, np.ndarray] | None = None

    def mix(self, g: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Record the map value g and its residual f, then return the mixed
        iterate g - dG c with c = argmin ||f - dF c||, clamped to [0, 1]; g
        itself while no column is left."""
        if self._last is not None:
            df = f - self._last[1]
            norm = math.sqrt(df.dot(df))
            # a zero column adds nothing to the fit and cannot be scaled
            if norm > 0.0:
                self.dg.append((g - self._last[0]) / norm)
                self.df.append(df / norm)
                if len(self.df) > ANDERSON_DEPTH:
                    del self.dg[0], self.df[0]
        self._last = (g, f)
        while self.df:
            F = _columns(self.df)
            gram = F.T @ F
            # the Cholesky diagonal of the unit-diagonal Gram matrix holds
            # each column's sine to the span of the older ones
            with linalg_errstate():
                fits = np.minimum.reduce(cholesky_lo(gram).diagonal()) > ANDERSON_SIN_TOL
                c = solve1(gram, F.T @ f) if fits else None
            if fits and np.isfinite(c).all():
                u = g - _columns(self.dg) @ c
                return clip(u, 0.0, 1.0, out=u)
            del self.dg[0], self.df[0]
        return g


def equilibrium_residual(u: np.ndarray, spec: ReactionSpec, op: KernelOp) -> float:
    """Discrete L2 norm of -Lap u - div(mu grad w) - g(u) at w = K*(1-2u).

    Equals the weak residual against the full nodal test basis because the
    discretization is conservative.
    """
    u = check_datum(u, spec, op, "equilibrium point")
    r = -laplacian_neumann(op.grid, u) - _rhs(u, spec, op)
    return l2_norm(op.grid, r)


def solve_equilibrium(u_init: np.ndarray, spec: ReactionSpec, op: KernelOp) -> EquilibriumResult:
    """Damped Picard iteration on the semi-implicit step at the pseudo-time
    1 / (rho + EQ_SHIFT) with Anderson mixing; its first step is plain.

    Each sweep evaluates the right-hand side at the current iterate once.
    The iterate's strong-form residual comes from it, and the solve
    converges on the first iterate whose residual is below RESIDUAL_TOL;
    otherwise the same right-hand side makes the next mixed step.  After
    MAX_SWEEPS steps the solve stops on the last iterate's residual, so
    ``iterations`` counts the residuals taken, one kernel apply each.
    Non-convergence is a flagged outcome, not an error: the underlying
    existence proof is a compactness argument and does not claim the
    iteration converges.
    """
    grid = op.grid
    tau = 1.0 / (spec.lipschitz_s + EQ_SHIFT)
    u = check_datum(u_init, spec, op, "equilibrium seed")
    solver = neumann_solver(grid, tau)
    mixer = _AndersonHistory()
    # a stiff reaction (sigma = 1e308) can give an iterate a residual whose
    # norm overflows to inf, which is not below RESIDUAL_TOL: the sweeps go on
    with np.errstate(over="ignore"):
        for sweeps in range(1, MAX_SWEEPS + 2):
            rhs = _rhs(u, spec, op)
            # equilibrium_residual(u) bit for bit: negating both terms is exact
            resid = l2_norm(grid, laplacian_neumann(grid, u) + rhs)
            if resid < RESIDUAL_TOL or sweeps > MAX_SWEEPS:
                break
            g = (1.0 - DAMPING) * u + DAMPING * solver.solve(u + tau * rhs)
            clip(g, 0.0, 1.0, out=g)
            u = mixer.mix(g, g - u)

        return EquilibriumResult(
            u=u,
            residual=resid,
            iterations=sweeps,
            mass_defect=abs(float(mean(reaction_eval(spec, u)))),
        )


def multistart_equilibria(seeds, spec: ReactionSpec, op: KernelOp) -> list[EquilibriumResult]:
    """Solve from every seed and deduplicate converged limits.

    Uniqueness of equilibria is not guaranteed in general, so the full list
    of distinct limits (pairwise L2 distance > DEDUP_TOL) is returned;
    non-converged solves are dropped.
    """
    grid = op.grid
    found: list[EquilibriumResult] = []
    for seed in seeds:
        res = solve_equilibrium(seed, spec, op)
        if not res.converged:
            continue
        if any(l2_norm(grid, res.u - other.u) <= DEDUP_TOL for other in found):
            continue
        found.append(res)
    return found
