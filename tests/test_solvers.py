"""Direct DCT solves against a dense oracle of (I - tau Lap)."""

import numpy as np
import pytest
from scipy.fftpack import dctn, idctn

from nlch import solvers
from nlch.grid import build_grid, laplacian_neumann, neumann_mode
from nlch.solvers import SolverError, SpdNeumannSolver, neumann_solver

GRIDS = [(1, 16), (2, 8)]
# a time step's dt, and a pseudo-time far above 1 where the constant mode's
# eigenvalue 1 is tiny next to the others: (1e-3 I - Lap) x = y is
# (I - 1e3 Lap) x = y / 1e-3
TAUS = [0.01, 1e3]


def dense_operator(grid, tau):
    """Dense I - tau Lap, assembled column by column from the stencil."""
    eye = np.eye(grid.num_nodes)
    lap = np.column_stack([laplacian_neumann(grid, e) for e in eye])
    return eye - tau * lap


def oracle_solve(grid, tau, b):
    """Dense LU solve plus one refinement sweep with the stencil residual.

    Assembling the matrix rounds its diagonal (1 + 5.12e5 at n = 16 and
    tau = 1e3 loses about 3e-11), which moves the smallest eigenvalue, 1,
    by about 3e-11 relative; the refinement sweep removes that error.
    """
    a = dense_operator(grid, tau)
    x = np.linalg.solve(a, b)
    resid = b - (x - tau * laplacian_neumann(grid, x))
    return x + np.linalg.solve(a, resid)


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("dim,n", GRIDS)
def test_matches_dense_oracle(dim, n, tau):
    grid = build_grid(dim, n, 1.0)
    b = np.random.default_rng(n + dim).uniform(0.0, 1.0, grid.num_nodes)
    x = SpdNeumannSolver(grid, tau).solve(b)
    want = oracle_solve(grid, tau, b)
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


def transform_pair_solve(solver, b):
    """The solve's transform pair as it was before the wrapper-cost rewrite
    (``axes`` always given), without the certificate."""
    diag, cols = solver._diag, b.shape[1:]
    coef = dctn(b.reshape(diag.shape + cols), type=2, norm="ortho", axes=solver._axes)
    coef /= diag.reshape(diag.shape + (1,) * len(cols))
    return idctn(coef, type=2, norm="ortho", axes=solver._axes).reshape(b.shape)


@pytest.mark.parametrize("cols", [(), (3,)])
@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("dim,n", GRIDS)
def test_bit_identical_to_the_transform_pair_with_axes(dim, n, tau, cols):
    grid = build_grid(dim, n, 1.0)
    solver = SpdNeumannSolver(grid, tau)
    b = np.random.default_rng(dim + n).standard_normal((grid.num_nodes,) + cols)
    assert np.array_equal(solver.solve(b), transform_pair_solve(solver, b))


@pytest.mark.parametrize("cols", [(), (3,)])
@pytest.mark.parametrize("dim,n", GRIDS)
def test_solve_makes_one_transform_pair_and_leaves_b_alone(monkeypatch, dim, n, cols):
    calls = {"dctn": 0, "idctn": 0}

    def counted(name):
        inner = getattr(solvers, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(solvers, name, counted(name))
    grid = build_grid(dim, n, 1.0)
    b = np.random.default_rng(7).standard_normal((grid.num_nodes,) + cols)
    kept = b.copy()
    x = SpdNeumannSolver(grid, 0.01).solve(b)
    assert calls == {"dctn": 1, "idctn": 1}
    assert np.array_equal(b, kept)
    assert not np.shares_memory(x, b)


@pytest.mark.parametrize("convert", [
    lambda b: np.rint(1e3 * b).astype(np.int64),
    lambda b: b.astype(np.float32),
    lambda b: np.rint(1e3 * b).astype(np.int64).tolist(),
], ids=["int64", "float32", "list"])
@pytest.mark.parametrize("cols", [(), (3,)])
def test_right_side_of_another_type_is_solved_in_float64(convert, cols):
    """Every right side is transformed in float64: single-precision transforms
    would fail the certificate (eta about 3e-8), and the pocketfft core takes
    no integer arrays and no lists."""
    grid = build_grid(1, 16, 1.0)
    solver = SpdNeumannSolver(grid, 0.01)
    b = convert(np.random.default_rng(5).uniform(0.0, 1.0, (grid.num_nodes,) + cols))
    x = solver.solve(b)
    assert x.dtype == np.float64
    assert np.array_equal(x, solver.solve(np.array(b, dtype=np.float64)))


@pytest.mark.parametrize("tau", TAUS)
def test_nan_right_side_raises(tau):
    grid = build_grid(1, 16, 1.0)
    b = np.ones(grid.num_nodes)
    b[5] = np.nan
    with pytest.raises(SolverError, match="backward error"):
        SpdNeumannSolver(grid, tau).solve(b)


def test_zero_right_side_gives_zero():
    grid = build_grid(1, 16, 1.0)
    x = SpdNeumannSolver(grid, 0.01).solve(np.zeros(grid.num_nodes))
    assert np.all(x == 0.0)


@pytest.mark.parametrize("tau", [-1.0, -5e-324, np.nan, np.inf, -np.inf])
def test_rejects_degenerate_coefficients(tau):
    """A negative tau loses definiteness; an infinite one would give the
    constant mode the eigenvalue 1 + inf * 0 = NaN."""
    with pytest.raises(ValueError, match="need a finite tau >= 0"):
        SpdNeumannSolver(build_grid(1, 16, 1.0), tau)


def test_certificate_rejects_a_wrong_inverse():
    grid = build_grid(1, 16, 1.0)
    solver = SpdNeumannSolver(grid, 0.01)
    solver._diag = solver._diag * (1.0 + 1e-6)
    with pytest.raises(SolverError, match="backward error"):
        solver.solve(np.random.default_rng(3).uniform(0.0, 1.0, grid.num_nodes))


@pytest.mark.parametrize("dim,n", GRIDS)
def test_a_field_whose_solve_returns_nan_raises(dim, n):
    """The field certificate compares Python floats, and a NaN fails it."""
    grid = build_grid(dim, n, 1.0)
    solver = SpdNeumannSolver(grid, 0.01)
    solver._diag = solver._diag.copy()
    solver._diag[(1,) * dim] = np.nan
    with pytest.raises(SolverError, match="backward error nan exceeds"):
        solver.solve(np.random.default_rng(3).uniform(0.0, 1.0, grid.num_nodes))


def test_block_with_a_nan_column_raises():
    grid = build_grid(1, 16, 1.0)
    b = np.random.default_rng(4).uniform(0.0, 1.0, (grid.num_nodes, 3))
    b[5, 1] = np.nan
    with pytest.raises(SolverError, match="backward error"):
        SpdNeumannSolver(grid, 0.01).solve(b)


@pytest.mark.parametrize("dim,n", GRIDS)
def test_certificate_checks_each_column_on_its_own(dim, n):
    """A wrong inverse on one cosine mode spoils only the column made of it.

    The other column is 1e9 times larger, so one certificate over the whole
    block would pass; the per-column certificate must not.
    """
    grid = build_grid(dim, n, 1.0)
    good, bad = (2,) * dim, (3,) * dim

    def mode(k):
        return neumann_mode(grid, k if dim > 1 else k[0])

    b = np.column_stack([1e9 * mode(good), mode(bad)])
    exact = SpdNeumannSolver(grid, 0.01).solve(b)
    solver = SpdNeumannSolver(grid, 0.01)
    solver._diag = solver._diag.copy()
    solver._diag[bad] *= 1.0 + 1e-6
    wrong = exact / np.array([1.0, 1.0 + 1e-6])     # what the wrong inverse returns
    whole = np.linalg.norm(solver._residual(b, wrong))
    assert whole <= 1e-13 * (solver._norm * np.linalg.norm(wrong) + np.linalg.norm(b))
    assert np.allclose(solver.solve(b[:, :1]), exact[:, :1], rtol=1e-13, atol=0.0)
    with pytest.raises(SolverError, match="backward error"):
        solver.solve(b)


def test_one_shared_solver_per_grid_and_coefficients():
    grid = build_grid(1, 16, 1.0)
    solver = neumann_solver(grid, 0.01)
    assert neumann_solver(build_grid(1, 16, 1.0), 0.01) is solver
    assert neumann_solver(grid, 2) is neumann_solver(grid, 2.0)
    others = [neumann_solver(grid, 0.02), neumann_solver(grid, 2.0),
              neumann_solver(build_grid(1, 16, 2.0), 0.01),
              neumann_solver(build_grid(2, 16, 1.0), 0.01)]
    assert all(s is not solver for s in others) and len({id(s) for s in others}) == 4
    b = np.random.default_rng(6).uniform(0.0, 1.0, grid.num_nodes)
    assert np.array_equal(solver.solve(b), SpdNeumannSolver(grid, 0.01).solve(b))


def test_shared_solver_eigenvalues_reject_writes():
    solver = neumann_solver(build_grid(2, 8, 1.0), 0.01)
    with pytest.raises(ValueError, match="read-only"):
        solver._diag[1, 2] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        solver._diag *= 2.0
