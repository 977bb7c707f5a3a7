"""Grid construction and the conservative Neumann operators."""

import dataclasses
import re

import numpy as np
import pytest
from field_oracles import (grid_and_fields, oracle_div_flux_pad_take,
                           oracle_laplacian_ghost_padded, rel_max_error, same_bits)
from hypothesis import given, settings

from nlch.grid import (
    Grid,
    build_grid,
    check_field,
    div_flux,
    h1_seminorm,
    inner,
    integrate,
    l2_norm,
    laplacian_neumann,
    neumann_mode,
)
from nlch.model import mobility
from nlch.solvers import SpdNeumannSolver


class TestBuildGrid:
    def test_1d_spacing(self):
        g = build_grid(1, 8, 1.0)
        assert g.h == pytest.approx(0.125)
        assert g.num_nodes == 8

    def test_2d_node_count(self):
        g = build_grid(2, 16, 2.0)
        assert g.num_nodes == 256
        assert g.h == pytest.approx(0.125)

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="unsupported dimension"):
            build_grid(3, 16, 1.0)

    def test_rejects_coarse(self):
        with pytest.raises(ValueError, match="n must be"):
            build_grid(1, 4, 1.0)

    @pytest.mark.parametrize("n", [8.7, 16.0, np.float64(16.0), "16", None])
    def test_rejects_a_node_count_that_is_not_an_integer(self, n):
        """A fractional n is not truncated: 8.7 would build 8 nodes."""
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
            build_grid(1, n, 1.0)

    @pytest.mark.parametrize("n", [16, np.int64(16), np.int32(16)])
    def test_accepts_an_int_or_a_numpy_integer(self, n):
        g = build_grid(2, n, 1.0)
        assert type(g.n) is int and g == build_grid(2, 16, 1.0)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            build_grid(1, 16, -1.0)

    # h = length / 16: h^2 underflows to 0 or below the normal range, or overflows
    @pytest.mark.parametrize("length", [1e-300, 16e-154, 1e300, 32e154])
    def test_rejects_length_whose_mesh_width_squared_is_not_normal(self, length):
        # in Python floats the flux stencil's h**2 overflows or 0.5 / h**2 divides by 0
        with pytest.raises(ValueError, match="length must be positive and finite"):
            build_grid(1, 16, length)

    @pytest.mark.parametrize("length", [16 * 1.5e-154, 16 * 1.3e154], ids=["small", "large"])
    def test_extreme_admitted_lengths_run_the_stencil(self, length):
        g = build_grid(1, 16, length)
        assert np.isfinite(laplacian_neumann(g, neumann_mode(g, 1))).all()

    def test_grid_takes_only_its_defining_inputs(self):
        assert [f.name for f in dataclasses.fields(Grid) if f.init] == ["dim", "n", "length"]
        with pytest.raises(TypeError):
            Grid(1, 16, 1.0, 0.5)

    @pytest.mark.parametrize("args,message", [
        ((1, 4, 1.0), "n must be >= 8 per axis, got 4"),
        ((3, 16, 1.0), "unsupported dimension: 3 (must be 1 or 2)"),
        ((1, 16.0, 1.0), "n must be an integer, got 16.0"),
        ((1, 16, 1e-300), "length must be positive and finite"),
    ], ids=["coarse", "3d", "float_n", "tiny_length"])
    def test_grid_checks_itself(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Grid(*args)

    def test_replace_derives_the_mesh_width(self):
        g = dataclasses.replace(build_grid(1, 128, 1.0), n=256)
        assert g.h == 1 / 256 and g == build_grid(1, 256, 1.0)
        with pytest.raises(ValueError, match="n must be >= 8"):
            dataclasses.replace(g, n=4)

    def test_cell_centers(self):
        g = build_grid(1, 8, 1.0)
        assert g.axis_coords()[0] == pytest.approx(0.0625)
        assert g.axis_coords()[-1] == pytest.approx(1.0 - 0.0625)

    def test_check_field_validates(self):
        g = build_grid(1, 8, 1.0)
        with pytest.raises(ValueError, match="shape"):
            check_field(g, np.zeros(7))
        bad = np.zeros(8)
        bad[3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            check_field(g, bad)


class TestLaplacian:
    def test_constant_maps_to_zero(self):
        g = build_grid(1, 32, 1.0)
        lap = laplacian_neumann(g, np.full(g.num_nodes, 3.7))
        assert np.max(np.abs(lap)) < 1e-12

    def test_cosine_eigenfunction_accuracy(self):
        """cos(pi x / L) is a Neumann eigenfunction; the stencil must hit its
        eigenvalue to second order."""
        L = 1.0
        errors = []
        for n in (64, 128):
            g = build_grid(1, n, L)
            x = g.axis_coords()
            f = np.cos(np.pi * x / L)
            exact = -((np.pi / L) ** 2) * f
            errors.append(np.max(np.abs(laplacian_neumann(g, f) - exact)))
        order = np.log2(errors[0] / errors[1])
        assert order >= 1.9, f"observed order {order:.3f} below 1.9"

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    def test_conservative(self, dim, n):
        g = build_grid(dim, n, 1.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            f = rng.standard_normal(g.num_nodes)
            lap = laplacian_neumann(g, f)
            scale = integrate(g, np.abs(lap)) + 1e-300
            assert abs(integrate(g, lap)) <= 1e-12 * scale

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    def test_symmetric_operator(self, dim, n):
        g = build_grid(dim, n, 1.0)
        rng = np.random.default_rng(1)
        f = rng.standard_normal(g.num_nodes)
        q = rng.standard_normal(g.num_nodes)
        a = inner(g, laplacian_neumann(g, f), q)
        b = inner(g, f, laplacian_neumann(g, q))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_matches_h1_seminorm(self):
        # summation by parts: <-lap f, f> == |f|_H1^2 exactly
        g = build_grid(2, 12, 1.0)
        rng = np.random.default_rng(2)
        f = rng.standard_normal(g.num_nodes)
        assert inner(g, -laplacian_neumann(g, f), f) == pytest.approx(
            h1_seminorm(g, f) ** 2, rel=1e-12)


class TestDivMuGrad:
    def test_constant_half_reduces_to_quarter_laplacian(self):
        g = build_grid(1, 64, 1.0)
        rng = np.random.default_rng(3)
        w = rng.standard_normal(g.num_nodes)
        u = np.full(g.num_nodes, 0.5)
        got = div_flux(g, mobility(u), w)
        want = 0.25 * laplacian_neumann(g, w)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)

    def test_degenerate_mobility_kills_flux(self):
        g = build_grid(1, 32, 1.0)
        w = np.sin(np.arange(32) * 0.7)
        out = div_flux(g, mobility(np.zeros(32)), w)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    def test_conservative(self, dim, n):
        g = build_grid(dim, n, 1.0)
        rng = np.random.default_rng(4)
        u = rng.uniform(0, 1, g.num_nodes)
        w = rng.standard_normal(g.num_nodes)
        out = div_flux(g, mobility(u), w)
        scale = integrate(g, np.abs(out)) + 1e-300
        assert abs(integrate(g, out)) <= 1e-12 * scale

    def test_2d_constant_half_case(self):
        g = build_grid(2, 16, 1.0)
        rng = np.random.default_rng(5)
        w = rng.standard_normal(g.num_nodes)
        got = div_flux(g, mobility(np.full(g.num_nodes, 0.5)), w)
        want = 0.25 * laplacian_neumann(g, w)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_div_flux_adjoint_identity(self):
        # <div_flux(a, p), q> is symmetric in (p, q): the flux form is the
        # negative adjoint of the coefficient-weighted face gradient
        g = build_grid(1, 48, 1.0)
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 1, g.num_nodes)
        p = rng.standard_normal(g.num_nodes)
        q = rng.standard_normal(g.num_nodes)
        assert inner(g, div_flux(g, a, p), q) == pytest.approx(
            inner(g, div_flux(g, a, q), p), rel=1e-11, abs=1e-12)


class TestNeumannModes:
    def test_mode_is_discrete_eigenvector(self):
        g = build_grid(1, 32, 1.0)
        f = neumann_mode(g, 3)
        lam = (2.0 - 2.0 * np.cos(3 * np.pi / g.n)) / g.h**2
        assert np.allclose(laplacian_neumann(g, f), -lam * f, atol=1e-9)

    def test_2d_mode_shape(self):
        g = build_grid(2, 12, 1.0)
        f = neumann_mode(g, (1, 2))
        assert f.shape == (g.num_nodes,)
        with pytest.raises(ValueError):
            neumann_mode(g, (1,))

    @pytest.mark.parametrize("dim,modes", [(1, 16), (1, -1), (1, 32), (2, (1, 16))],
                             ids=["n", "minus_one", "two_n", "2d_second_axis_n"])
    def test_index_outside_the_grid_is_rejected(self, dim, modes):
        """At n = 16 mode 2n - k would be mode k negated, mode -k mode k, and
        mode n a round-off vector (entries of order 1e-15)."""
        g = build_grid(dim, 16, 1.0)
        with pytest.raises(ValueError, match=re.escape("must lie in [0, 15]")):
            neumann_mode(g, modes)

    def test_numpy_integers_are_indices(self):
        g1, g2 = build_grid(1, 16, 1.0), build_grid(2, 12, 1.0)
        assert same_bits(neumann_mode(g1, np.int64(3)), neumann_mode(g1, 3))
        assert same_bits(neumann_mode(g2, (np.int64(1), np.int32(2))), neumann_mode(g2, (1, 2)))

    @pytest.mark.parametrize("dim,modes,named", [(1, 3.0, "float 3.0"), (1, True, "bool True"),
                                                 (2, (1, 2.0), "float 2.0")])
    def test_a_bool_or_a_non_integer_is_rejected_by_type(self, dim, modes, named):
        g = build_grid(dim, 16, 1.0)
        with pytest.raises(ValueError, match=f"mode indices must be integers, got {named}$"):
            neumann_mode(g, modes)


# each of the seven functions with the field of the wrong length in one of
# its field arguments; ``ok`` is a field of the right length
_WRONG_LENGTH_CALLS = {
    "integrate": lambda g, ok, bad: integrate(g, bad),
    "inner(f)": lambda g, ok, bad: inner(g, bad, ok),
    "inner(g)": lambda g, ok, bad: inner(g, ok, bad),
    "l2_norm": lambda g, ok, bad: l2_norm(g, bad),
    "h1_seminorm": lambda g, ok, bad: h1_seminorm(g, bad),
    "laplacian_neumann": lambda g, ok, bad: laplacian_neumann(g, bad),
    "div_flux(a)": lambda g, ok, bad: div_flux(g, bad, ok),
    "div_flux(p)": lambda g, ok, bad: div_flux(g, ok, bad),
    "solve": lambda g, ok, bad: SpdNeumannSolver(g, 0.01).solve(bad),
}


@pytest.mark.parametrize("norm", [integrate, l2_norm, h1_seminorm,
                                  lambda g, f: inner(g, f, f)],
                         ids=["integrate", "l2_norm", "h1_seminorm", "inner"])
def test_a_norm_takes_a_list(norm):
    g = build_grid(1, 16, 1.0)
    values = list(np.linspace(0.1, 0.9, 16))
    assert norm(g, values) == norm(g, np.array(values))


class TestLengthCheck:
    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    @pytest.mark.parametrize("call", list(_WRONG_LENGTH_CALLS))
    def test_a_field_of_the_wrong_length_is_rejected_naming_n(self, call, dim, n):
        """A half-length field, which a 1D grid's operators read without a
        reshape, is named with N, as ``check_field`` names it."""
        g = build_grid(dim, n, 1.0)
        ok, bad = np.linspace(0.1, 0.9, g.num_nodes), np.linspace(0.1, 0.9, g.num_nodes // 2)
        msg = f"field has shape ({g.num_nodes // 2},), expected (N,) or (N, m) with N = {g.num_nodes}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            _WRONG_LENGTH_CALLS[call](g, ok, bad)

    @pytest.mark.parametrize("call", ["l2_norm", "laplacian_neumann", "div_flux(p)", "solve"])
    def test_a_block_of_the_wrong_length_is_rejected(self, call):
        g = build_grid(1, 16, 1.0)
        ok = np.full((g.num_nodes, 2), 0.5)
        with pytest.raises(ValueError, match=re.escape("with N = 16")):
            _WRONG_LENGTH_CALLS[call](g, ok, np.full((8, 2), 0.5))


# -- the bodies the face flux replaced, which round differently ----------------

def _degenerate_coefficient(grid: Grid, rng) -> np.ndarray:
    """Mobility of a random field with pure-phase patches: a == 0 on blocks
    touching a corner, the centre and a far edge."""
    u = grid.reshape(rng.uniform(0.0, 1.0, grid.num_nodes).copy())
    q = max(grid.n // 4, 2)
    corner = (slice(0, q),) * grid.dim
    centre = (slice(grid.n // 2 - q // 2, grid.n // 2 + q // 2),) * grid.dim
    edge = (slice(grid.n - q, None),) + (slice(None),) * (grid.dim - 1)
    u[corner] = 0.0
    u[centre] = 1.0
    u[edge] = 0.0
    return mobility(u.ravel())


ORACLE_GRIDS = [(1, 8), (1, 64), (1, 256), (2, 8), (2, 16), (2, 64)]


class TestFaceFluxOracle:
    """The shared face-flux routine against the ghost-padded Laplacian and the
    pad/take flux divergence it replaced, which round differently."""

    @pytest.mark.parametrize("dim,n", ORACLE_GRIDS)
    def test_laplacian_matches_ghost_padded_stencil(self, dim, n):
        g = build_grid(dim, n, 1.7)
        rng = np.random.default_rng(10 + n)
        for _ in range(3):
            f = rng.standard_normal(g.num_nodes)
            want = oracle_laplacian_ghost_padded(g, f)
            assert rel_max_error(laplacian_neumann(g, f), want) <= 1e-13

    @pytest.mark.parametrize("dim,n", ORACLE_GRIDS)
    def test_div_flux_matches_pad_take_stencil(self, dim, n):
        g = build_grid(dim, n, 1.7)
        rng = np.random.default_rng(20 + n)
        for _ in range(3):
            a = _degenerate_coefficient(g, rng)
            assert np.count_nonzero(a == 0.0) >= g.num_nodes // 8
            p = rng.standard_normal(g.num_nodes)
            want = oracle_div_flux_pad_take(g, a, p)
            got = div_flux(g, a, p)
            assert rel_max_error(got, want) <= 1e-13
            # faces with a zero coefficient on both sides carry exactly nothing
            assert np.all(got[want == 0.0] == 0.0)


# -- properties over random grids, coefficients and fields ---------------------

def _flux_scale(g: Grid, a: np.ndarray, *fields: np.ndarray) -> float:
    """Size of a face-flux sum over the whole domain: round-off is relative to it."""
    scale = g.domain_volume * max(float(np.max(a)), 1.0) / g.h**2
    for f in fields:
        scale *= max(float(np.max(np.abs(f))), 1.0)
    return scale


def _column_integrals(g: Grid, f: np.ndarray) -> np.ndarray:
    """Midpoint-rule integral of a field, or of each column of a block."""
    return g.cell_volume * np.sum(f, axis=0)


def _column_inner(g: Grid, f: np.ndarray, q: np.ndarray) -> np.ndarray:
    """L2 inner product of each column of f with q, a field or a like block."""
    return g.cell_volume * np.sum(f * q.reshape(q.shape + (1,) * (f.ndim - q.ndim)), axis=0)


class TestFaceFluxProperties:
    @settings(max_examples=60, deadline=None)
    @given(grid_and_fields())
    def test_div_flux_conserves_mass(self, case):
        g, a, p, _ = case
        total = _column_integrals(g, div_flux(g, a, p))
        assert np.all(np.abs(total) <= 1e-13 * _flux_scale(g, a, p))

    @settings(max_examples=60, deadline=None)
    @given(grid_and_fields())
    def test_laplacian_conserves_mass(self, case):
        g, _, p, _ = case
        one = np.ones(g.num_nodes)
        total = _column_integrals(g, laplacian_neumann(g, p))
        assert np.all(np.abs(total) <= 1e-13 * _flux_scale(g, one, p))

    @settings(max_examples=60, deadline=None)
    @given(grid_and_fields())
    def test_div_flux_symmetric_in_p_and_q(self, case):
        g, a, p, q = case
        lhs = _column_inner(g, div_flux(g, a, p), q)
        rhs = _column_inner(g, div_flux(g, a, q), p)
        assert np.all(np.abs(lhs - rhs) <= 1e-13 * _flux_scale(g, a, p, q))

    @settings(max_examples=30, deadline=None)
    @given(grid_and_fields())
    def test_laplacian_is_unit_coefficient_div_flux(self, case):
        # one stencil: 0.5 (1 + 1) = 1 exactly, so the results are bitwise equal
        g, _, p, _ = case
        assert np.array_equal(laplacian_neumann(g, p), div_flux(g, np.ones(g.num_nodes), p))
