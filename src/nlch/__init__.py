"""
nlch: a numerical laboratory for the nonlocal Cahn-Hilliard equation with
reaction.  Degenerate-mobility dynamics under convolution-kernel
interactions, certified steady states, tangent linear flow, and the
long-time diagnostics that make the convergence and dimension statements
checkable at desk scale.
"""

from .diagnostics import (
    TrajectoryRecord,
    energy,
    fit_exponential_rate,
    mass,
    mass_balance_residual,
    separation,
)
from .equilibrium import (
    EquilibriumResult,
    equilibrium_residual,
    multistart_equilibria,
    solve_equilibrium,
)
from .grid import (
    Grid,
    build_grid,
    h1_seminorm,
    inner,
    integrate,
    l2_norm,
    laplacian_neumann,
)
from .kernels import (
    KernelOp,
    KernelSpec,
    assemble_kernel,
    gaussian_kernel,
    kernel_constants,
    mollifier_kernel,
    newton_kernel,
    zero_kernel,
)
from .model import (
    ReactionSpec,
    balanced_cubic_reaction,
    bertozzi_reaction,
    chemical_potential,
    custom_reaction,
    f_prime,
    logistic_reaction,
    mobility,
    mobility_deriv,
    oono_reaction,
    potential,
    reaction_deriv,
    reaction_eval,
    zero_reaction,
)
from .solvers import SolverError, SpdNeumannSolver
from .tangent import (
    DimensionScan,
    FrameDegeneracyError,
    RemainderStudy,
    TangentFrame,
    cosine_frame,
    dimension_bound,
    propagate_tangent,
    remainder_order,
    tangent_step,
)
from .timestepper import PairRecord, SolverConfig, State, initial_state, pair_run, run, step

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
