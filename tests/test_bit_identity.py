"""Bit identity: the grid helpers and operators, the certified solve, the
pointwise functions and the line fits keep every bit of their past bodies
in ``field_oracles``.  One test asserts each operation's contract over the
union of the cases its rewrites brought: fields and blocks, 1D and 2D,
zero-heavy coefficients, signed zeros and subnormals.  A test of its own
stays only for a case no draw reaches: values past overflow, strided
arguments, a subnormal right side and a dense sample of the potential."""

from functools import reduce
from itertools import product

import numpy as np
import pytest
from field_oracles import (grid_and_fields, oracle_div_flux,
                           oracle_fit_exponential_rate, oracle_h1_seminorm,
                           oracle_laplacian_eigenvalues, oracle_linear_fit_residual_fraction,
                           oracle_mobility, oracle_mobility_deriv, oracle_neumann_mode,
                           oracle_potential, oracle_reaction_deriv, oracle_reaction_eval,
                           oracle_reshape, oracle_solve, same_bits)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlch.diagnostics import fit_exponential_rate, linear_fit_residual_fraction
from nlch.grid import (build_grid, div_flux, h1_seminorm, integrate, l2_norm,
                       laplacian_eigenvalues, laplacian_neumann, mean, neumann_mode)
from nlch.model import (balanced_cubic_reaction, bertozzi_reaction, logistic_reaction, mobility,
                        mobility_deriv, oono_reaction, potential, reaction_deriv, reaction_eval,
                        zero_reaction)
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
def _mixed_args(draw, *ranges):
    """A grid (1D up to 600 nodes, 2D up to 24 x 24) and, for each range, an
    argument of ``_mixed`` values in it, a field (N,) or a block (N, m) with
    one m for all."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(8, 600 if dim == 1 else 24))
    g = build_grid(dim, n, draw(st.floats(0.1, 10.0)))
    shapes = [(g.num_nodes,), (g.num_nodes, draw(st.integers(1, 3)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (g, *(_mixed(rng, draw(st.sampled_from(shapes)), lo, hi) for lo, hi in ranges))


def _examples(*cases):
    """Hypothesis's ``example`` for each tuple of arguments."""
    return lambda test: reduce(lambda t, case: example(*case)(t), cases, test)


# -- the grid helpers and operators ------------------------------------------------

class TestOneFormulaForAnyDimension:
    @pytest.mark.parametrize("dim,n,length", [(1, 8, 1.0), (1, 64, 2.5), (2, 8, 1.0),
                                              (2, 16, 0.7)])
    def test_helpers_match_the_per_dimension_bodies(self, dim, n, length):
        g = build_grid(dim, n, length)
        assert same_bits(laplacian_eigenvalues(g), oracle_laplacian_eigenvalues(g))
        f = np.random.default_rng(n).standard_normal(g.num_nodes)
        assert same_bits(g.reshape(f), oracle_reshape(g, f))
        for modes in product(range(n), repeat=dim):
            got = neumann_mode(g, modes if dim > 1 else modes[0])
            assert same_bits(got, oracle_neumann_mode(g, modes))
        if dim == 1:
            assert same_bits(neumann_mode(g, (3,)), neumann_mode(g, 3))


class TestStencils:
    @settings(max_examples=220, deadline=None)
    @given(st.one_of(grid_and_fields().map(lambda case: case[:3]),
                     _mixed_args((0.0, 0.25), (-1e3, 1e3))))
    def test_face_flux_operators(self, case):
        """div_flux, and laplacian_neumann as div_flux with a unit coefficient:
        the coefficient zero-heavy, or with signed zeros and subnormals."""
        g, a, p = case
        assert same_bits(div_flux(g, a, p), oracle_div_flux(g, a, p))
        assert same_bits(laplacian_neumann(g, p), oracle_div_flux(g, np.ones(g.num_nodes), p))

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_laplacian_keeps_the_unit_flux_bits_past_overflow(self, dim, n):
        # d + d and (1 + 1) d agree where d or 2 d overflows, and on inf and nan
        g = build_grid(dim, n, 1.0)
        rng = np.random.default_rng(n)
        values = np.array([1e308, -1e308, 8e307, np.inf, -np.inf, np.nan, 1.0, -3.0])
        for p in (rng.choice(values, g.num_nodes), rng.choice(values, (g.num_nodes, 3))):
            with np.errstate(all="ignore"):
                got = laplacian_neumann(g, p)
                want = oracle_div_flux(g, np.ones(g.num_nodes), p)
            assert same_bits(got, want)

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_strided_arguments(self, dim, n):
        """Column views and reversed fields, which a reshape may copy."""
        g = build_grid(dim, n, 1.0)
        rng = np.random.default_rng(n)
        block = _mixed(rng, (g.num_nodes, 4), -1.0, 1.0)
        for f in (block[:, 1], block[::-1, 0], block[:, ::2]):
            assert same_bits(laplacian_neumann(g, f), oracle_div_flux(g, np.ones(g.num_nodes), f))
            a = np.abs(f)
            assert same_bits(div_flux(g, a, f), oracle_div_flux(g, a, f))

    @settings(max_examples=60, deadline=None)
    @given(grid_and_fields())
    def test_reductions(self, case):
        g, _, p, _ = case
        f = p if p.ndim == 1 else p[:, 0]
        assert same_bits(integrate(g, f), g.cell_volume * float(np.sum(f)))
        assert same_bits(mean(p), np.mean(p, axis=0))
        assert same_bits(l2_norm(g, f), float(np.sqrt(g.cell_volume) * np.linalg.norm(f)))
        assert same_bits(l2_norm(g, p[::-1]),
                         float(np.sqrt(g.cell_volume) * np.linalg.norm(p[::-1])))
        assert same_bits(h1_seminorm(g, f), oracle_h1_seminorm(g, f))


# -- the certified solve -------------------------------------------------------------

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
    return same_bits(got, want)


# the step's dt and the equilibrium sweep's pseudo-times, the last subnormal
SOLVE_TAUS = [1e-3, 0.01, 0.5, 2.0, 1e3, 1.0 / (1.7e308 + 0.5)]


# 1D n = 16 and 2D 8 x 8, and a field and a block of 3 from standard normal
# values, at every tau
SOLVE_EXAMPLES = [((build_grid(dim, n, 1.0),
                    np.random.default_rng(dim + n).standard_normal((n**dim,) + cols)),)
                  for dim, n in [(1, 16), (2, 8)] for cols in [(), (3,)]]


class TestSolve:
    @pytest.mark.parametrize("tau", SOLVE_TAUS)
    @settings(max_examples=80, deadline=None)
    @_examples(*SOLVE_EXAMPLES)
    @given(_mixed_args((-1.0, 1.0)))
    def test_matches_the_oracle_body(self, tau, case):
        """Each tau draws its own right sides.  A right side the certificate
        rejects is rejected with the same message."""
        g, b = case
        assert _same_solve(SpdNeumannSolver(g, tau), b)

    def test_a_subnormal_right_side_keeps_its_verdict(self):
        g = build_grid(1, 32, 1.0)
        solver = SpdNeumannSolver(g, 1e-3)
        for b in (np.full(g.num_nodes, 5e-324), np.zeros(g.num_nodes), -np.zeros(g.num_nodes),
                  _mixed(np.random.default_rng(1), (g.num_nodes,), -1e-300, 1e-300)):
            assert _same_solve(solver, b)


# -- the pointwise functions ----------------------------------------------------------

# the phase interval [0, 1] is the domain; its edges, -0.0 included
_edges = st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 1.0 - 2.0**-53])
_phase_values = st.one_of(st.floats(0.0, 1.0), _edges)
# lengths from 1 to 40 reach both the vector loops and their scalar tails
_phase_arrays = hnp.arrays(float, st.integers(1, 40), elements=_phase_values)
_scalars = st.one_of(_phase_values, _phase_arrays.map(lambda a: a[0]))


@st.composite
def _phase_field(draw):
    """Up to 600 values in [0, 1]: about a quarter zeros or subnormals, and a
    tenth each 1 - 2^-53 and 1."""
    n = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = _mixed(rng, (n,), 0.0, 1.0)
    s[rng.random(n) < 0.1] = 1.0 - 2.0**-53
    s[rng.random(n) < 0.1] = 1.0
    return s


# each preset of the CLI's reaction.preset, built from a drawn coefficient
REACTIONS = {
    "logistic": lambda g, coef: logistic_reaction(g, coef),
    "bertozzi": lambda g, coef: bertozzi_reaction(g, coef, np.minimum(coef, 1.0)),
    "oono": lambda g, coef: oono_reaction(g, coef),
    "balanced_cubic": lambda g, coef: balanced_cubic_reaction(g, coef),
    "none": lambda g, coef: zero_reaction(g),
}


def _reaction_spec(data, reaction):
    g = build_grid(1, data.draw(st.integers(8, 40)), 1.0)
    coef = data.draw(hnp.arrays(float, g.num_nodes, elements=st.floats(0.0, 5.0)))
    return REACTIONS[reaction](g, coef)


class TestPointwise:
    """On [0, 1], mobility, potential, reaction_eval and the two derivatives
    keep the bits of the np.where / np.clip bodies, which extended them
    outside it, and the potential those of its plain numpy form."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_phase_arrays, _scalars))
    def test_mobility(self, s):
        assert same_bits(mobility(s), oracle_mobility(s))

    @settings(max_examples=260, deadline=None)
    @_examples(*[(s,) for s in (0.0, -0.0, 5e-324, 1e-310, 0.5, 1.0 - 2.0**-53, 1.0)])
    @given(st.one_of(_phase_field(), _phase_arrays, _scalars))
    def test_potential(self, s):
        assert same_bits(potential(s), oracle_potential(s))

    @pytest.mark.parametrize("reaction", list(REACTIONS))
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_reaction_eval(self, reaction, data):
        spec = _reaction_spec(data, reaction)
        u = data.draw(hnp.arrays(float, spec.grid.num_nodes, elements=_phase_values))
        assert same_bits(reaction_eval(spec, u), oracle_reaction_eval(spec, u))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_phase_arrays, _scalars))
    def test_mobility_deriv(self, s):
        assert same_bits(mobility_deriv(s), oracle_mobility_deriv(s))

    @pytest.mark.parametrize("reaction", list(REACTIONS))
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_reaction_deriv(self, reaction, data):
        spec = _reaction_spec(data, reaction)
        u = data.draw(hnp.arrays(float, spec.grid.num_nodes, elements=_phase_values))
        assert same_bits(reaction_deriv(spec, u), oracle_reaction_deriv(spec, u))

    def test_potential_on_a_dense_sample(self):
        """One fixed sample that reaches the ~0.2% of entries where numpy's
        vector log and libm's differ by an ulp, which the 40-value draws above
        seldom do: 10^6 uniform values, geomspace runs toward 0 and toward 1,
        both zeros, subnormals and 1 - 2^-53."""
        rng = np.random.default_rng(38)
        s = np.concatenate([rng.uniform(0.0, 1.0, 10**6), np.geomspace(5e-324, 0.5, 20_000),
                            1.0 - np.geomspace(2.0**-53, 0.5, 20_000),
                            [0.0, -0.0, 5e-324, 1e-310, 2.0**-1022, 1.0 - 2.0**-53, 1.0]])
        assert same_bits(potential(s), oracle_potential(s))

    def test_mobility_propagates_nan(self):
        """A NaN phase value has no mobility: it stays NaN (the np.where body
        returned 0.0) and leaves the entries in [0, 1] alone."""
        out = mobility(np.array([0.5, np.nan, 1.0, -0.0]))
        assert np.isnan(mobility(np.nan)) and np.isnan(out[1])
        assert same_bits(out[[0, 2, 3]], oracle_mobility(np.array([0.5, 1.0, -0.0])))


# -- the line fits ---------------------------------------------------------------------

class TestSharedLineFit:
    @pytest.mark.parametrize("seed", range(12))
    def test_fits_equal_their_old_bodies_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 10.0, 40))
        values = np.exp(-rng.uniform(0.1, 3.0) * t + 0.3 * rng.standard_normal(40))
        window = (2.0, 9.0)
        assert same_bits(fit_exponential_rate(t, values, window),
                         oracle_fit_exponential_rate(t, values, window))
        log_values = np.log(values)
        assert same_bits(linear_fit_residual_fraction(t, log_values),
                         oracle_linear_fit_residual_fraction(t, log_values))
