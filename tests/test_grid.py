"""Grid construction and the conservative Neumann operators."""

import numpy as np
import pytest

from nlch.grid import (
    build_grid,
    check_field,
    div_flux,
    h1_seminorm,
    inner,
    integrate,
    laplacian_neumann,
    neumann_mode,
)
from nlch.model import mobility


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

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            build_grid(1, 16, -1.0)

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
