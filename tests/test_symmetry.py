"""Symmetry tier: the scheme's exact symmetries, which need no oracle.

On a cell-centred Neumann grid with an even kernel, the equation commutes
with the reflection x -> L - x of each axis and, on a 2D grid with an
isotropic kernel, with the swap of the axes.  It commutes with u -> 1 - u
when g(1 - u) = -g(u), as for no reaction and the balanced cubic:
mu(1 - u) = mu(u), and K * (1 - 2u) changes sign.  The discrete scheme keeps
all of them to round-off, through phase separation and on every apply of
the kernel, so a flux or a stencil that leans to one side shows here.  In
mutated copies of the code, the face mobility taken from the lower node
broke the reflection by 0.17 at 1D n = 128, 0.032 at n = 600 and 2.5e-8 on
the 2D dense Newton case, and drove the 2D Gaussian out of [0, 1]; a taps
window shifted by one offset broke it by 1.8e-5 on the mollifier.  Both
pass the acceptance and strong-kernel tiers.

Each run takes 500 steps of dt = 1e-3 in 1D and 200 in 2D from
0.5 + 0.01 U(-1, 1) data.  The Gaussian runs phase-separate (max u - min u
reaches 0.97 in 1D and 0.997 in 2D), and round-off grows with the
separating modes: the largest error measured is 3.0e-12, on the 2D
Gaussian with the balanced cubic, against 6.5e-14 in 1D and 1.8e-13
(relative) for the tangent map.  ``SYMMETRY_TOL`` is 33x the largest.

On the 1D taps Gaussian the reflection also keeps ``pair_run``'s distance
series, which grows from 0.0088 to 0.81 as the data phase-separate, and
``dimension_bound``'s trace curve over 4 columns and 300 steps.  Their
largest errors, relative to the largest distance or trace, are 4.4e-14 and
1.0e-13, so ``SYMMETRY_TOL`` is 1000x above both; the lower-node face
mobility broke them by 1.3e-3 and 3.6e-2.

The equilibria keep the symmetries only to ``solve_equilibrium``'s stopping
error, not to round-off: a solve stops on the first iterate whose residual
is below RESIDUAL_TOL = 1e-9, and a mapped seed takes another path (127
against 147 sweeps, say) to another such iterate.  At 1D n = 128 with a
Gaussian at c = 20, from four uniform(0.1, 0.9) seeds, the reflected seed's
limit was the reflected limit within 4.4e-10 in the max norm, and 1 - u0's
limit was 1 - limit within 1.3e-9, with no reaction, Bertozzi's fidelity
(beta = 5, h = 0.6; reflection only) and the balanced cubic.
``EQUILIBRIUM_TOL`` is 7.7x the larger.  The lower-node face mobility broke
the reflection by 1e-4 to 8.6e-3.
"""

from dataclasses import replace

import numpy as np
import pytest

from nlch.equilibrium import multistart_equilibria, solve_equilibrium
from nlch.grid import build_grid
from nlch.kernels import assemble_kernel, gaussian_kernel, mollifier_kernel, newton_kernel
from nlch.model import balanced_cubic_reaction, bertozzi_reaction, zero_reaction
from nlch.tangent import dimension_bound, propagate_tangent
from nlch.timestepper import SolverConfig, pair_run, run

SYMMETRY_TOL = 1e-10    # max norm; 33x the largest error measured
EQUILIBRIUM_TOL = 1e-8  # max norm; 7.7x the largest stopping error measured

# one case per apply of the kernel: the 1D taps (the whole generator at
# n = 128, the trimmed taps at n = 256), the 1D FFT, the 2D Gaussian's
# Toeplitz factors, the 2D dense W and the 2D FFT
APPLY_CASES = {
    "1d-taps-gaussian": (1, 128, gaussian_kernel(20.0, 0.05)),
    "1d-taps-mollifier": (1, 256, mollifier_kernel(20.0, 0.1)),
    "1d-fft-gaussian": (1, 600, gaussian_kernel(20.0, 0.05)),
    "2d-factors-gaussian": (2, 32, gaussian_kernel(80.0, 0.05)),
    "2d-dense-newton": (2, 16, newton_kernel(10.0)),
    "2d-fft-newton": (2, 32, newton_kernel(10.0)),
}

# both satisfy g(1 - u) = -g(u)
REACTIONS = {"none": zero_reaction, "balanced_cubic": balanced_cubic_reaction}


def _symmetries(dim: int, n: int) -> dict:
    """The maps of a field (N,) or a block (N, m) that the scheme commutes with."""
    def on_nodes(view):
        return lambda f: view(f.reshape((n,) * dim + f.shape[1:])).reshape(f.shape)

    maps = {f"reflect axis {a}": on_nodes(lambda v, a=a: np.flip(v, axis=a))
            for a in range(dim)}
    if dim == 2:
        maps["swap axes"] = on_nodes(lambda v: np.swapaxes(v, 0, 1))
    maps["u -> 1 - u"] = lambda u: 1.0 - u
    return maps


def _setup(case: str):
    dim, n, kernel = APPLY_CASES[case]
    grid = build_grid(dim, n, 1.0)
    u0 = 0.5 + 0.01 * np.random.default_rng(n + dim).uniform(-1.0, 1.0, grid.num_nodes)
    cfg = SolverConfig(dt=1e-3, t_end=0.5 if dim == 1 else 0.2, record_every=100)
    return grid, assemble_kernel(kernel, grid), u0, cfg


@pytest.mark.parametrize("reaction", list(REACTIONS))
@pytest.mark.parametrize("case", list(APPLY_CASES))
def test_run_commutes_with_the_symmetries(case, reaction):
    grid, op, u0, cfg = _setup(case)
    spec = REACTIONS[reaction](grid)
    final = run(u0, spec, op, cfg)[0].u
    errors = {name: float(np.max(np.abs(run(s(u0), spec, op, cfg)[0].u - s(final))))
              for name, s in _symmetries(grid.dim, grid.n).items()}
    assert max(errors.values()) <= SYMMETRY_TOL, errors


@pytest.mark.parametrize("case", ["1d-taps-gaussian", "1d-taps-mollifier"])
def test_tangent_map_commutes_with_the_reflection(case):
    # a 1D block of tangent vectors is applied by the dense W
    grid, op, u0, cfg = _setup(case)
    spec = balanced_cubic_reaction(grid)
    reflect = _symmetries(1, grid.n)["reflect axis 0"]
    block = np.random.default_rng(7).standard_normal((grid.num_nodes, 3))
    got = propagate_tangent(reflect(block), reflect(u0), spec, op, cfg)
    want = reflect(propagate_tangent(block, u0, spec, op, cfg))
    assert np.max(np.abs(got - want)) <= SYMMETRY_TOL * np.max(np.abs(want))


@pytest.mark.parametrize("reaction", list(REACTIONS))
def test_pair_distance_commutes_with_the_reflection(reaction):
    # an isometry of the grid's L2 norm: reflecting both data keeps every distance
    grid, op, u0, cfg = _setup("1d-taps-gaussian")
    spec = REACTIONS[reaction](grid)
    reflect = _symmetries(1, grid.n)["reflect axis 0"]
    second = 0.5 + 0.01 * np.random.default_rng(1).uniform(-1.0, 1.0, grid.num_nodes)
    want = pair_run(u0, second, spec, op, cfg).dist
    got = pair_run(reflect(u0), reflect(second), spec, op, cfg).dist
    assert np.max(np.abs(got - want)) <= SYMMETRY_TOL * np.max(want)


@pytest.mark.parametrize("reaction", list(REACTIONS))
def test_trace_curve_commutes_with_the_reflection(reaction):
    # the reflection maps cosine mode k to (-1)^k times itself, and a trace
    # form is quadratic in its column: the curve keeps its values
    grid, op, u0, cfg = _setup("1d-taps-gaussian")
    spec = REACTIONS[reaction](grid)
    reflect = _symmetries(1, grid.n)["reflect axis 0"]
    cfg = replace(cfg, record_every=10)
    want = dimension_bound(u0, 4, 0.3, spec, op, cfg, transient=0.1).traces
    got = dimension_bound(reflect(u0), 4, 0.3, spec, op, cfg, transient=0.1).traces
    assert np.max(np.abs(got - want)) <= SYMMETRY_TOL * np.max(np.abs(want))


# Bertozzi's fidelity maps h to 1 - h, so it keeps only the reflection
EQUILIBRIUM_REACTIONS = {**REACTIONS, "bertozzi": lambda grid: bertozzi_reaction(grid, 5.0, 0.6)}


@pytest.mark.parametrize("reaction", list(EQUILIBRIUM_REACTIONS))
def test_equilibria_commute_with_the_symmetries(reaction):
    grid = build_grid(1, 128, 1.0)
    op = assemble_kernel(gaussian_kernel(20.0, 0.05), grid)
    spec = EQUILIBRIUM_REACTIONS[reaction](grid)
    maps = _symmetries(1, grid.n)
    if reaction == "bertozzi":
        del maps["u -> 1 - u"]
    errors = {}
    for seed in range(4):
        u0 = np.random.default_rng(seed).uniform(0.1, 0.9, grid.num_nodes)
        limit = solve_equilibrium(u0, spec, op)
        for name, s in maps.items():
            mapped = solve_equilibrium(s(u0), spec, op)
            assert limit.converged and mapped.converged, (seed, name)
            errors[seed, name] = float(np.max(np.abs(mapped.u - s(limit.u))))
    assert max(errors.values()) <= EQUILIBRIUM_TOL, errors


def test_criterion_07_constant_states_are_closed_under_the_flip():
    """u -> 1 - u maps the balanced cubic's three constant equilibria, 0, 1/2
    and 1, onto each other: it reverses the order of their means."""
    grid = build_grid(1, 256, 1.0)
    op = assemble_kernel(gaussian_kernel(0.05, 0.05), grid)
    seeds = [np.full(grid.num_nodes, c) for c in (0.0, 0.5, 1.0)]
    found = multistart_equilibria(seeds, balanced_cubic_reaction(grid, 1.0), op)
    assert len(found) == 3
    states = sorted((res.u for res in found), key=np.mean)
    flip = _symmetries(1, grid.n)["u -> 1 - u"]
    for u, partner in zip(states, states[::-1]):
        assert np.max(np.abs(flip(u) - partner)) <= EQUILIBRIUM_TOL
