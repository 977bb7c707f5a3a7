"""Mobility, singular potential, chemical potential, and reaction terms."""

import math
import re
import sys

import numpy as np
import pytest
from field_oracles import same_bits
from scipy.special import xlogy

from nlch.equilibrium import equilibrium_residual, multistart_equilibria, solve_equilibrium
from nlch.grid import build_grid, neumann_mode
from nlch.kernels import assemble_kernel, gaussian_kernel, zero_kernel
from nlch.model import (
    F_PRIME_GUARD,
    balanced_cubic_reaction,
    bertozzi_reaction,
    chemical_potential,
    check_datum,
    custom_reaction,
    f_prime,
    logistic_reaction,
    mobility,
    mobility_deriv,
    oono_reaction,
    potential,
    reaction_deriv,
    reaction_eval,
)
from nlch.tangent import dimension_bound, propagate_tangent, remainder_order
from nlch.timestepper import SolverConfig, initial_state, pair_run, run, step


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

    def test_potential_is_xlogy_to_two_ulp(self):
        """The numpy form of f is scipy.special.xlogy's to 2 ulp per entry on
        [0, 1] (numpy's vector log and libm's differ by an ulp in about 0.2%
        of entries), exact at 0 and 1, and NaN, with no warning, outside."""
        rng = np.random.default_rng(0)
        s = np.concatenate([rng.uniform(0.0, 1.0, 100_000), np.logspace(-323.5, 0.0, 5000),
                            1.0 - np.logspace(-16.0, 0.0, 5000), [5e-324, 0.5, 1.0 - 2.0**-53]])
        got, want = potential(s), xlogy(s, s) + xlogy(1.0 - s, 1.0 - s)
        assert (got <= 0.0).all() and (want <= 0.0).all()
        assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 2
        edges = np.array([0.0, -0.0, 1.0])
        assert np.array_equal(potential(edges), np.zeros(3))
        outside = np.array([-1.0, -1e-300, -5e-324, 1.0 + 2.0**-52, 2.0, np.inf, -np.inf, np.nan])
        assert np.isnan(potential(outside)).all()
        assert np.isnan(xlogy(outside, outside) + xlogy(1.0 - outside, 1.0 - outside)).all()


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

    @pytest.mark.parametrize("make", [
        oono_reaction,
        logistic_reaction,
        lambda grid, c: bertozzi_reaction(grid, c, 0.5 * c),
        balanced_cubic_reaction,
    ], ids=["oono", "logistic", "bertozzi", "balanced_cubic"])
    def test_a_later_write_to_the_coefficient_leaves_the_spec_alone(self, grid, make):
        """The spec keeps a copy: its g stays the one its lipschitz_s bounds,
        and a negative coefficient written after the lo = 0 check stays out."""
        c = np.linspace(0.5, 1.0, grid.num_nodes)
        spec = make(grid, c)
        u = np.linspace(0.0, 1.0, grid.num_nodes)
        g, lipschitz = reaction_eval(spec, u), spec.lipschitz_s
        c[:] = -100.0
        assert np.array_equal(reaction_eval(spec, u), g)
        assert spec.lipschitz_s == lipschitz


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

    @pytest.mark.parametrize("lipschitz", [-1.0, math.nan])
    def test_custom_lipschitz_must_be_finite_and_nonnegative(self, grid, lipschitz):
        with pytest.raises(ValueError, match="^lipschitz_s must be finite and nonnegative$"):
            custom_reaction(grid, np.zeros_like, np.zeros_like, lipschitz)


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


# -- the datum gate: every entry point of a trajectory or a solve -------------

_GATE_CFG = SolverConfig(dt=0.01, t_end=0.05)

# entry point -> (the name its datum gets, a call on the datum u)
_GATED = {
    "run": ("initial datum", lambda u, spec, op: run(u, spec, op, _GATE_CFG)),
    "pair_run_first": ("initial datum",
                       lambda u, spec, op: pair_run(u, np.full_like(u, 0.5), spec, op, _GATE_CFG)),
    "pair_run_second": ("initial datum",
                        lambda u, spec, op: pair_run(np.full_like(u, 0.5), u, spec, op,
                                                     _GATE_CFG)),
    "propagate_tangent": ("initial datum", lambda u, spec, op: propagate_tangent(
        np.ones_like(u), u, spec, op, _GATE_CFG)),
    "dimension_bound": ("initial datum", lambda u, spec, op: dimension_bound(
        u, 2, 0.05, spec, op, _GATE_CFG, transient=0.0)),
    "remainder_order": ("initial datum", lambda u, spec, op: remainder_order(
        u, neumann_mode(op.grid, 1), [1e-3, 3e-4, 1e-4], spec, op, _GATE_CFG, t=0.05)),
    "initial_state": ("initial datum", initial_state),
    "solve_equilibrium": ("equilibrium seed", solve_equilibrium),
    "multistart_equilibria": ("equilibrium seed",
                              lambda u, spec, op: multistart_equilibria([u], spec, op)),
    "equilibrium_residual": ("equilibrium point", equilibrium_residual),
}


class TestCheckDatum:
    """``check_datum`` is the one gate of a trajectory's datum and of an
    equilibrium seed: the reaction's grid must be the kernel's, and the datum
    must lie in [0, 1]."""

    @pytest.fixture(scope="class")
    def grid(self):
        return build_grid(1, 64, 1.0)

    @pytest.fixture(scope="class")
    def op(self, grid):
        return assemble_kernel(gaussian_kernel(0.05, 0.05), grid)

    @pytest.fixture(scope="class")
    def spec(self, grid):
        # alpha = 1 on x < 0.5
        return logistic_reaction(grid, (grid.axis_coords() < 0.5).astype(float))

    @pytest.mark.parametrize("entry", _GATED)
    def test_a_reaction_on_another_grid_is_rejected(self, spec, entry):
        op = assemble_kernel(gaussian_kernel(0.05, 0.05), build_grid(1, 64, 2.0))
        message = f"the reaction's grid {spec.grid} is not the kernel's {op.grid}"
        with pytest.raises(ValueError, match=re.escape(message)):
            _GATED[entry][1](np.full(64, 0.5), spec, op)

    @pytest.mark.parametrize("entry", _GATED)
    def test_a_datum_outside_the_phase_interval_is_rejected(self, spec, op, entry):
        what, call = _GATED[entry]
        u = np.full(64, 0.5)
        u[17] = 1.2
        message = f"{what} must satisfy 0 <= u <= 1 nodewise, got values in [0.5, 1.2]"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(u, spec, op)

    def test_returns_a_checked_copy(self, spec, op):
        u = np.linspace(0.0, 1.0, 64)
        got = check_datum(u, spec, op, "datum")
        assert not np.shares_memory(got, u)
        assert same_bits(got, u)
        with pytest.raises(ValueError, match="field contains non-finite entries"):
            check_datum(np.full(64, np.nan), spec, op, "datum")
        with pytest.raises(ValueError, match=re.escape("field has shape (32,)")):
            check_datum(np.full(32, 0.5), spec, op, "datum")

    def test_a_datum_above_one_is_rejected_before_any_step(self, grid, op):
        spec = oono_reaction(grid, 1.0)
        message = "initial datum must satisfy 0 <= u <= 1 nodewise, got values in [1.2, 1.2]"
        with pytest.raises(ValueError, match=re.escape(message)):
            step(initial_state(np.full(64, 1.2), spec, op), spec, op, _GATE_CFG)
        message = "equilibrium point must satisfy 0 <= u <= 1 nodewise, got values in [1.2, 1.2]"
        with pytest.raises(ValueError, match=re.escape(message)):
            equilibrium_residual(np.full(64, 1.2), spec, op)

    @pytest.mark.parametrize("entry, calls", [
        ("run", 1), ("pair_run_first", 2), ("propagate_tangent", 1), ("dimension_bound", 1),
        ("initial_state", 1), ("solve_equilibrium", 1), ("equilibrium_residual", 1),
    ])
    def test_the_gate_runs_once_per_trajectory_or_call(self, spec, op, monkeypatch, entry,
                                                       calls):
        seen = []

        def counted(*args):
            seen.append(args[-1])
            return check_datum(*args)

        bound = [m for name, m in sys.modules.items()
                 if name.split(".")[0] == "nlch" and vars(m).get("check_datum") is check_datum]
        for module in bound:                    # every module that binds the gate
            monkeypatch.setattr(module, "check_datum", counted)
        _GATED[entry][1](np.full(64, 0.5), spec, op)
        assert seen == [_GATED[entry][0]] * calls
