"""The field path of a time step keeps the bits of the oracle bodies in
``field_oracles``: the stencils, the certified solve and the potential, on
fields and blocks, 1D and 2D, with signed zeros and subnormals among the
values."""

import numpy as np
import pytest
from field_oracles import (
    oracle_div_flux,
    oracle_laplacian_neumann,
    oracle_potential,
    oracle_solve,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from nlch.grid import build_grid, div_flux, laplacian_neumann
from nlch.model import potential
from nlch.solvers import SolverError, SpdNeumannSolver

# signed zeros, the smallest subnormals, a mid-range subnormal and the
# smallest normal float
SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308])


def _mixed(rng: np.random.Generator, shape: tuple[int, ...], lo: float, hi: float) -> np.ndarray:
    """Uniform values in [lo, hi] with about a quarter of the entries replaced
    by special values, those of them that lie in [lo, hi]."""
    x = rng.uniform(lo, hi, shape)
    specials = SPECIALS[(SPECIALS >= lo) & (SPECIALS <= hi)]
    return np.where(rng.random(shape) < 0.25, rng.choice(specials, shape), x)


@st.composite
def _case(draw):
    """A grid (1D up to 600 nodes, 2D up to 24 x 24), a seed, and the shapes of
    two arguments, each a field (N,) or a block (N, m) with one m for both."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(8, 600 if dim == 1 else 24))
    g = build_grid(dim, n, draw(st.floats(0.1, 10.0)))
    shapes = [(g.num_nodes,), (g.num_nodes, draw(st.integers(1, 3)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return g, rng, draw(st.sampled_from(shapes)), draw(st.sampled_from(shapes))


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestStencils:
    @settings(max_examples=80, deadline=None)
    @given(_case())
    def test_laplacian(self, case):
        g, rng, shape, _ = case
        f = _mixed(rng, shape, -1e3, 1e3)
        assert _same_bits(laplacian_neumann(g, f), oracle_laplacian_neumann(g, f))

    @settings(max_examples=80, deadline=None)
    @given(_case())
    def test_div_flux(self, case):
        """A coefficient and a potential, each a field or a block."""
        g, rng, a_shape, p_shape = case
        a, p = _mixed(rng, a_shape, 0.0, 0.25), _mixed(rng, p_shape, -1e3, 1e3)
        assert _same_bits(div_flux(g, a, p), oracle_div_flux(g, a, p))

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_strided_arguments(self, dim, n):
        """Column views and reversed fields, which a reshape may copy."""
        g = build_grid(dim, n, 1.0)
        rng = np.random.default_rng(n)
        block = _mixed(rng, (g.num_nodes, 4), -1.0, 1.0)
        for f in (block[:, 1], block[::-1, 0], block[:, ::2]):
            assert _same_bits(laplacian_neumann(g, f), oracle_laplacian_neumann(g, f))
            a = np.abs(f)
            assert _same_bits(div_flux(g, a, f), oracle_div_flux(g, a, f))


def _outcome(solve, solver, b):
    """The solution, or the message of the SolverError the solve raised."""
    try:
        return solve(solver, b)
    except SolverError as err:
        return str(err)


def _same_solve(solver, b) -> bool:
    """The live solve and the oracle body return the same bits, or raise the
    same message."""
    got, want = _outcome(SpdNeumannSolver.solve, solver, b), _outcome(oracle_solve, solver, b)
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return _same_bits(got, want)


class TestSolve:
    @settings(max_examples=80, deadline=None)
    @given(_case(), st.sampled_from([1e-3, 0.5, 2.0, 1e3, 1.0 / (1.7e308 + 0.5)]))
    def test_matches_the_oracle_body(self, case, tau):
        """The step's dt and the equilibrium sweep's pseudo-times, the last
        subnormal; a right side the certificate rejects is rejected with the
        same message."""
        g, rng, shape, _ = case
        solver = SpdNeumannSolver(g, tau)
        assert _same_solve(solver, _mixed(rng, shape, -1.0, 1.0))

    def test_a_subnormal_right_side_keeps_its_verdict(self):
        g = build_grid(1, 32, 1.0)
        solver = SpdNeumannSolver(g, 1e-3)
        for b in (np.full(g.num_nodes, 5e-324), np.zeros(g.num_nodes), -np.zeros(g.num_nodes),
                  _mixed(np.random.default_rng(1), (g.num_nodes,), -1e-300, 1e-300)):
            assert _same_solve(solver, b)


class TestPotential:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 600), st.integers(0, 2**32 - 1))
    def test_field(self, n, seed):
        rng = np.random.default_rng(seed)
        s = _mixed(rng, (n,), 0.0, 1.0)
        s[rng.random(n) < 0.1] = 1.0 - 2.0**-53
        s[rng.random(n) < 0.1] = 1.0
        assert _same_bits(potential(s), oracle_potential(s))

    @pytest.mark.parametrize("s", [0.0, -0.0, 5e-324, 1e-310, 0.5, 1.0 - 2.0**-53, 1.0])
    def test_scalar(self, s):
        got = potential(s)
        assert type(got) is float and _same_bits(got, oracle_potential(s))
