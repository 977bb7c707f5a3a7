"""
nlch: a numerical laboratory for the nonlocal Cahn-Hilliard equation with
reaction.  Degenerate-mobility dynamics under convolution-kernel
interactions, certified steady states, tangent linear flow, and the
long-time diagnostics that make the convergence and dimension statements
checkable at desk scale.
"""

from types import ModuleType as _ModuleType

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
    custom_reaction,
    logistic_reaction,
    mobility,
    oono_reaction,
    potential,
    zero_reaction,
)
from .solvers import SolverError, SpdNeumannSolver
from .tangent import (
    DimensionScan,
    FrameDegeneracyError,
    RemainderStudy,
    TangentFrame,
    dimension_bound,
    propagate_tangent,
    remainder_order,
)
from .timestepper import PairRecord, SolverConfig, State, initial_state, pair_run, run, step

# the names imported above, as the README's "Public API" lists them; not the submodules
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
