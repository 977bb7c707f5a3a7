"""Mobility, singular potential, chemical potential, and reaction terms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import xlogy

from nlch.grid import build_grid
from nlch.kernels import assemble_kernel, gaussian_kernel, zero_kernel
from nlch.model import (
    F_PRIME_GUARD,
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


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 32, 1.0)


class TestMobility:
    def test_vertex(self):
        assert mobility(0.5) == 0.25

    def test_degenerate_at_pure_phases(self):
        assert mobility(0.0) == 0.0
        assert mobility(1.0) == 0.0

    def test_nonnegative_and_bounded_by_quarter(self):
        s = np.linspace(0, 1, 1001)
        m = mobility(s)
        assert np.all(m >= 0)
        assert np.max(m) == pytest.approx(0.25, abs=1e-6)

    def test_derivative_matches_difference_quotient(self):
        s = np.linspace(0.05, 0.95, 50)
        eps = 1e-7
        fd = (mobility(s + eps) - mobility(s - eps)) / (2 * eps)
        assert np.allclose(mobility_deriv(s), fd, atol=1e-6)


class TestFPrime:
    def test_symmetry_point(self):
        assert f_prime(0.5) == 0.0

    def test_logistic_inverse(self):
        s = math.e / (1.0 + math.e)
        assert f_prime(s) == pytest.approx(1.0, abs=1e-12)

    def test_clamp_contract_at_zero(self):
        got = f_prime(0.0)
        want = math.log(F_PRIME_GUARD / (1.0 - F_PRIME_GUARD))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(-27.631, abs=1e-3)

    def test_potential_continuous_extension(self):
        assert potential(0.0) == 0.0
        assert potential(1.0) == 0.0
        assert potential(0.5) == pytest.approx(-math.log(2.0))


class TestChemicalPotential:
    def test_double_symmetry_gives_zero(self, grid):
        op = assemble_kernel(gaussian_kernel(1.0, 0.1), grid)
        v = chemical_potential(np.full(grid.num_nodes, 0.5), op)
        assert np.max(np.abs(v)) < 1e-12

    def test_constant_shift_with_zero_kernel(self, grid):
        op = assemble_kernel(zero_kernel(), grid)
        delta = 0.1
        v = chemical_potential(np.full(grid.num_nodes, 0.5 + delta), op)
        want = math.log((0.5 + delta) / (0.5 - delta))
        assert np.allclose(v, want, rtol=1e-12)

    def test_pure_phase_is_guarded(self, grid):
        op = assemble_kernel(gaussian_kernel(1.0, 0.1), grid)
        v = chemical_potential(np.zeros(grid.num_nodes), op)
        bound = f_prime(F_PRIME_GUARD) + op.kbar
        assert np.all(v <= bound + 1e-12)
        assert np.all(np.isfinite(v))


class TestReactionPresets:
    def test_logistic_value(self, grid):
        spec = logistic_reaction(grid, 2.0)
        g = reaction_eval(spec, np.full(grid.num_nodes, 0.5))
        assert np.allclose(g, 0.5)

    def test_oono_value_and_derivative(self, grid):
        spec = oono_reaction(grid, 3.0)
        u = np.full(grid.num_nodes, 0.2)
        assert np.allclose(reaction_eval(spec, u), -0.6)
        assert np.allclose(reaction_deriv(spec, u), -3.0)

    def test_bertozzi_fixed_point(self, grid):
        spec = bertozzi_reaction(grid, 1.0, 0.7)
        g = reaction_eval(spec, np.full(grid.num_nodes, 0.7))
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_bertozzi_case2_hypothesis(self, grid):
        # the strict-monotonicity hypothesis is a direct inequality on beta
        beta0 = 2.5
        spec = bertozzi_reaction(grid, 3.0, 0.5)
        u = np.linspace(0, 1, grid.num_nodes)
        assert np.all(reaction_deriv(spec, u) <= -beta0)

    def test_parameter_validation(self, grid):
        with pytest.raises(ValueError, match="alpha"):
            logistic_reaction(grid, -1.0)
        with pytest.raises(ValueError, match="h must be"):
            bertozzi_reaction(grid, 1.0, 1.5)
        with pytest.raises(ValueError, match="^h: field contains non-finite entries"):
            bertozzi_reaction(grid, 1.0, np.nan)
        with pytest.raises(ValueError, match="^alpha: field has shape"):
            logistic_reaction(grid, np.ones(3))
        with pytest.raises(ValueError, match="sigma"):
            oono_reaction(grid, -0.1)


class TestSignCondition:
    def test_all_presets_satisfy_it(self, grid):
        zeros = np.zeros(grid.num_nodes)
        ones = np.ones(grid.num_nodes)
        for spec in (logistic_reaction(grid, 1.3), bertozzi_reaction(grid, 2.0, 0.4),
                     oono_reaction(grid, 0.7), balanced_cubic_reaction(grid, 1.0)):
            assert np.all(reaction_eval(spec, zeros) >= 0.0)
            assert np.all(reaction_eval(spec, ones) <= 0.0)

    def test_violating_custom_reaction_rejected(self, grid):
        with pytest.raises(ValueError, match="sign condition"):
            custom_reaction(grid, lambda s: s - 0.5, lambda s: np.ones_like(s), 1.0)

    def test_custom_requires_derivative(self, grid):
        with pytest.raises(ValueError, match="derivative"):
            custom_reaction(grid, lambda s: np.zeros_like(s), None, 0.0)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("maker", [
        lambda g: logistic_reaction(g, 1.7),
        lambda g: bertozzi_reaction(g, 2.2, 0.6),
        lambda g: oono_reaction(g, 0.9),
        lambda g: balanced_cubic_reaction(g, 1.4),
    ])
    def test_matches_centered_differences(self, grid, maker):
        """d_s g agrees with centered finite differences of g at 100 random
        (node, s) samples inside the phase interval."""
        spec = maker(grid)
        rng = np.random.default_rng(42)
        eps = 1e-5
        for _ in range(100):
            s = rng.uniform(0.01, 0.99)
            u = np.full(grid.num_nodes, s)
            fd = (reaction_eval(spec, u + eps) - reaction_eval(spec, u - eps)) / (2 * eps)
            node = rng.integers(grid.num_nodes)
            assert reaction_deriv(spec, u)[node] == pytest.approx(fd[node], abs=1e-6)


# -- oracle: the np.where / np.clip bodies before the ufunc rewrite, verbatim --

def _oracle_mobility(s):
    s = np.asarray(s, dtype=float)
    out = np.where((s >= 0.0) & (s <= 1.0), s * (1.0 - s), 0.0)
    return out if out.ndim else float(out)


def _oracle_potential(s):
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    out = xlogy(s, s) + xlogy(1.0 - s, 1.0 - s)
    return out if out.ndim else float(out)


def _oracle_reaction_eval(spec, u):
    u = np.asarray(u, dtype=float)
    return spec.g_fn(np.clip(u, 0.0, 1.0))


def _oracle_mobility_deriv(s):
    s = np.asarray(s, dtype=float)
    out = np.where((s >= 0.0) & (s <= 1.0), 1.0 - 2.0 * s, 0.0)
    return out if out.ndim else float(out)


def _oracle_reaction_deriv(spec, u):
    u = np.asarray(u, dtype=float)
    out = spec.dg_fn(np.clip(u, 0.0, 1.0))
    return np.where((u >= 0.0) & (u <= 1.0), out, 0.0)


def _same_bits(got, want) -> bool:
    """Same type, shape and bit pattern, sign of zero included; NaN entries
    need only be NaN on both sides."""
    if type(got) is not type(want):
        return False
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


# the phase interval [0, 1] is the domain; its edges, -0.0 included
_edges = st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 1.0 - 2.0**-53])
_phase_values = st.one_of(st.floats(0.0, 1.0), _edges)
# lengths from 1 to 40 reach both the vector loops and their scalar tails
_phase_arrays = hnp.arrays(float, st.integers(1, 40), elements=_phase_values)
_scalars = st.one_of(_phase_values, _phase_arrays.map(lambda a: a[0]))


def _reaction_specs(data):
    g = build_grid(1, data.draw(st.integers(8, 40)), 1.0)
    coef = data.draw(hnp.arrays(float, g.num_nodes, elements=st.floats(0.0, 5.0)))
    return data.draw(st.sampled_from([
        lambda: logistic_reaction(g, coef),
        lambda: bertozzi_reaction(g, coef, np.minimum(coef, 1.0)),
        lambda: oono_reaction(g, coef),
        lambda: balanced_cubic_reaction(g, coef),
        lambda: zero_reaction(g),
    ]))()


class TestPointwiseBitIdentity:
    """On [0, 1], mobility, potential, reaction_eval and the two derivatives
    keep the bits of the np.where / np.clip bodies, which extended them
    outside it."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_phase_arrays, _scalars))
    def test_mobility(self, s):
        assert _same_bits(mobility(s), _oracle_mobility(s))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_phase_arrays, _scalars))
    def test_potential(self, s):
        assert _same_bits(potential(s), _oracle_potential(s))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_reaction_eval(self, data):
        spec = _reaction_specs(data)
        u = data.draw(hnp.arrays(float, spec.grid.num_nodes, elements=_phase_values))
        assert _same_bits(reaction_eval(spec, u), _oracle_reaction_eval(spec, u))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_phase_arrays, _scalars))
    def test_mobility_deriv(self, s):
        assert _same_bits(mobility_deriv(s), _oracle_mobility_deriv(s))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_reaction_deriv(self, data):
        spec = _reaction_specs(data)
        u = data.draw(hnp.arrays(float, spec.grid.num_nodes, elements=_phase_values))
        assert _same_bits(reaction_deriv(spec, u), _oracle_reaction_deriv(spec, u))

    def test_mobility_propagates_nan(self):
        """A NaN phase value has no mobility: it stays NaN (the np.where body
        returned 0.0) and leaves the entries in [0, 1] alone."""
        assert math.isnan(mobility(math.nan))
        out = mobility(np.array([0.5, math.nan, 1.0, -0.0]))
        assert math.isnan(out[1])
        assert _same_bits(out[[0, 2, 3]], _oracle_mobility(np.array([0.5, 1.0, -0.0])))
