"""Semi-implicit stepping: bounds, mass identity, decay, and guards."""

import inspect
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from field_oracles import (apply_paths, oracle_div_flux, oracle_energy, oracle_h1_seminorm,
                           oracle_solve, same_bits)

import nlch
from nlch.diagnostics import TrajectoryRecord, fit_exponential_rate, mass_balance_residual
from nlch.grid import build_grid, check_field, l2_norm, mean
from nlch.kernels import (
    assemble_kernel,
    gaussian_kernel,
    mollifier_kernel,
    newton_kernel,
    zero_kernel,
)
from nlch.model import (
    bertozzi_reaction,
    logistic_reaction,
    mobility,
    oono_reaction,
    reaction_eval,
    zero_reaction,
)
from nlch.solvers import SolverError, SpdNeumannSolver
from nlch.tangent import dimension_bound, propagate_tangent, remainder_order
from nlch.timestepper import (
    BOUND_TOL,
    MAX_STEPS,
    SolverConfig,
    State,
    _trajectory,
    initial_state,
    pair_run,
    record,
    run,
    step,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 128, 1.0)


@pytest.fixture(scope="module")
def weak_op(grid):
    return assemble_kernel(gaussian_kernel(0.05, 0.05), grid)


@pytest.fixture(scope="module")
def null_op(grid):
    return assemble_kernel(zero_kernel(), grid)


class TestConfigValidation:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            SolverConfig(dt=-0.1, t_end=1.0)

    @pytest.mark.parametrize("dt,t_end,match", [
        (float("nan"), 1.0, "dt must be positive and finite"),
        (float("inf"), 1.0, "dt must be positive and finite"),
        (0.01, float("inf"), "t_end must be positive and finite"),
        (0.01, float("nan"), "t_end must be positive and finite"),
        (0.01, 0.004, "steps >= 1"),
        (1e-320, 1e300, "steps >= 1"),
        (1e-300, 0.1, "t_end / dt = 1e\\+299 must round to a number of steps >= 1 and <= "
                      "MAX_STEPS"),
    ])
    def test_rejects_nonfinite_or_stepless_runs(self, dt, t_end, match):
        with pytest.raises(ValueError, match=match):
            SolverConfig(dt=dt, t_end=t_end)

    @pytest.mark.parametrize("every", [2.5, 2.0, 0, -1, "2", None])
    def test_record_every_must_be_an_integer_at_least_one(self, every):
        """A fractional record_every would sample at k % 2.5 == 0: k = 0, 5, 10."""
        with pytest.raises(ValueError, match="record_every must be an integer >= 1"):
            SolverConfig(dt=0.01, t_end=0.1, record_every=every)

    @pytest.mark.parametrize("every", [1, 3, np.int64(3)])
    def test_record_every_accepts_integers(self, every):
        cfg = SolverConfig(dt=0.01, t_end=0.1, record_every=every)
        assert [k for k in range(cfg.n_steps + 1) if cfg.is_record_step(k)] == \
            ([0, 3, 6, 9, 10] if every == 3 else list(range(11)))

    def test_step_count_is_counted_once_per_config(self):
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        assert cfg.n_steps == 10 and cfg.__dict__["n_steps"] == 10
        # replace builds a new config, which counts its own steps
        assert replace(cfg, t_end=0.2).n_steps == 20 and cfg.n_steps == 10
        assert cfg == SolverConfig(dt=0.01, t_end=0.1)

    def test_single_step_run_accepted(self):
        assert SolverConfig(dt=0.01, t_end=0.01).n_steps == 1

    def test_step_count_bounded_by_max_steps(self):
        assert SolverConfig(dt=1.0, t_end=float(MAX_STEPS)).n_steps == MAX_STEPS
        with pytest.raises(ValueError, match="MAX_STEPS"):
            SolverConfig(dt=1.0, t_end=float(MAX_STEPS + 1))

    def test_a_horizon_off_the_step_grid_is_rejected(self):
        # a run's length is its step count, and 3 steps of dt = 0.3 reach 0.9
        with pytest.raises(ValueError, match="^" + re.escape(
                "t_end = 1.0 is not a whole number of steps of dt = 0.3: 3 steps reach "
                "t = 0.9") + "$"):
            SolverConfig(dt=0.3, t_end=1.0)

    # 3 steps of dt = 0.3 reach t = 0.8999999999999999, the step of t = 0.9
    @pytest.mark.parametrize("t,k", [(-1.0, 0), (0.0, 0), (0.6, 2), (0.9, 3), (0.90000001, 4),
                                     (0.95, 4)])
    def test_first_step_at_reads_a_time_on_the_step_grid(self, t, k):
        assert SolverConfig(dt=0.3, t_end=0.9).first_step_at(t) == k

    @pytest.mark.parametrize("dt,t_end", [(0.01, 0.1), (0.005, 0.5), (0.01, 4.0), (1e-3, 0.7)])
    def test_a_whole_number_of_steps_runs_without_a_warning(self, grid, weak_op, dt, t_end):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(np.full(grid.num_nodes, 0.5), oono_reaction(grid, 1.0), weak_op,
                SolverConfig(dt=dt, t_end=t_end, record_every=100))

    def test_reaction_stability_guard(self, grid, null_op):
        spec = oono_reaction(grid, 10.0)
        cfg = SolverConfig(dt=0.1, t_end=1.0)   # dt * L = 1 >= 0.5
        with pytest.raises(ValueError, match="explicit"):
            run(np.full(grid.num_nodes, 0.5), spec, null_op, cfg)


class TestSingleStep:
    def test_half_is_fixed_point_of_pure_diffusion(self, grid, null_op):
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        state = initial_state(np.full(grid.num_nodes, 0.5), spec, null_op)
        new = step(state, spec, null_op, cfg)
        assert np.max(np.abs(new.u - 0.5)) < 1e-14
        assert new.t == pytest.approx(0.01)

    def test_w_cache_consistent(self, grid, weak_op):
        spec = logistic_reaction(grid, 1.0)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        rng = np.random.default_rng(0)
        state = initial_state(rng.uniform(0.2, 0.8, grid.num_nodes), spec, weak_op)
        for _ in range(5):
            state = step(state, spec, weak_op, cfg)
        want = weak_op.convolve(1.0 - 2.0 * state.u)
        assert np.allclose(state.w, want, rtol=1e-12, atol=1e-14)

    def test_instability_aborts(self, grid):
        # a huge time step with a strong kernel must trip the excursion guard
        op = assemble_kernel(gaussian_kernel(40.0, 0.02), grid)
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.2, t_end=2.0)
        x = grid.axis_coords()
        u0 = 0.5 + 0.49 * np.cos(np.pi * x)
        with pytest.raises(SolverError, match="excursion|unstable"):
            run(u0, spec, op, cfg)

    def test_round_off_excursions_are_clamped_and_counted(self):
        """A jump from the pure phase 0 overshoots below 0 by round-off:
        the excursions are clamped and counted, and the mass identity holds."""
        grid = build_grid(1, 64, 1.0)
        op = assemble_kernel(gaussian_kernel(0.05, 0.05), grid)
        u0 = np.where(grid.axis_coords() < 0.5, 0.0, 0.9)
        state, rec = run(u0, zero_reaction(grid), op, SolverConfig(dt=1e-4, t_end=50e-4))
        assert state.step_count == 50
        assert state.clamp_events > 0
        assert mass_balance_residual(rec) <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_excursions_beyond_the_tolerance_abort(self):
        """At c = 160 the overshoot is O(dt): the first excursion beyond
        BOUND_TOL aborts the run, with no warning before it, instead of a
        clip that would move the mass off the per-step identity."""
        grid = build_grid(1, 128, 1.0)
        op = assemble_kernel(gaussian_kernel(160.0, 0.05), grid)
        u0 = np.random.default_rng(1).uniform(0.1, 0.9, grid.num_nodes)
        with pytest.raises(SolverError, match=r"^phase bound excursion 1\.751e-06 exceeds "
                           r"1e-08 at t = 0\.00762: reduce dt or refine the grid$"):
            run(u0, zero_reaction(grid), op, SolverConfig(dt=1e-5, t_end=0.01))

    @pytest.mark.parametrize("c,dt,completes", [
        (40.0, 1.6e-3, True), (40.0, 2.5e-3, False),
        (80.0, 2.56e-4, True), (80.0, 4e-4, False),
    ])
    def test_step_size_cliff(self, c, dt, completes):
        """Two points on each side of the largest clean dt of a smooth datum:
        below it the run stays inside [0, 1] with no clamp, above it it aborts."""
        grid = build_grid(1, 128, 1.0)
        op = assemble_kernel(gaussian_kernel(c, 0.05), grid)
        u0 = 0.5 + 0.05 * np.cos(3 * np.pi * grid.axis_coords())
        # the whole number of steps nearest t = 0.5
        cfg = SolverConfig(dt=dt, t_end=dt * round(0.5 / dt))
        if completes:
            assert run(u0, zero_reaction(grid), op, cfg)[0].clamp_events == 0
        else:
            with pytest.raises(SolverError, match="phase bound excursion"):
                run(u0, zero_reaction(grid), op, cfg)


class TestMassIdentity:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dt", [1e-5, 2e-4, 5e-4])
    @pytest.mark.parametrize("c", [80.0, 160.0])
    def test_every_completed_run_keeps_the_mass_identity(self, c, dt):
        """A stiff kernel either aborts on the phase bounds or completes with
        the per-step mass identity intact: no run ends with a drifted mass."""
        grid = build_grid(1, 128, 1.0)
        op = assemble_kernel(gaussian_kernel(c, 0.05), grid)
        u0 = np.random.default_rng(1).uniform(0.1, 0.9, grid.num_nodes)
        try:
            _, rec = run(u0, zero_reaction(grid), op, SolverConfig(dt=dt, t_end=0.01))
        except SolverError:
            return
        assert mass_balance_residual(rec) <= 1e-12

    @pytest.mark.parametrize("driver,leading,kwargs,warns", [
        (run, lambda u0: (u0,), {}, 1),
        (pair_run, lambda u0: (u0, u0), {}, 2),
        (propagate_tangent, lambda u0: (np.ones_like(u0), u0), {}, 1),
        (dimension_bound, lambda u0: (u0, 2, 0.2), {"transient": 0.1}, 1),
        (remainder_order, lambda u0: (u0, np.ones_like(u0), [1e-1, 1e-2, 1e-3]), {"t": 0.1}, 1),
    ], ids=["run", "pair_run", "propagate_tangent", "dimension_bound", "remainder_order"])
    def test_every_pure_phase_warning_names_the_callers_line(self, grid, weak_op, driver,
                                                             leading, kwargs, warns):
        spec = logistic_reaction(grid, 1.0)
        args = leading(np.zeros(grid.num_nodes))
        with pytest.warns(UserWarning, match="pure phase") as caught:
            line = inspect.currentframe().f_lineno + 1
            driver(*args, spec, weak_op, SolverConfig(dt=0.01, t_end=0.1), **kwargs)
        assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)] * warns

    def test_a_module_level_call_names_the_scripts_line(self, tmp_path):
        # a script's module frame has no caller: a walk past it would name sys:1
        script = tmp_path / "scan.py"
        script.write_text(
            "import numpy as np\n"
            "from nlch.grid import build_grid\n"
            "from nlch.kernels import assemble_kernel, gaussian_kernel\n"
            "from nlch.model import logistic_reaction\n"
            "from nlch.tangent import dimension_bound\n"
            "from nlch.timestepper import SolverConfig, run\n"
            "grid = build_grid(1, 32, 1.0)\n"
            "args = (logistic_reaction(grid, 1.0), assemble_kernel(gaussian_kernel(0.05, 0.05), "
            "grid), SolverConfig(dt=0.01, t_end=0.1))\n"
            "run(np.zeros(32), *args)\n"
            "dimension_bound(np.zeros(32), 2, 0.2, *args, transient=0.1)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(nlch.__file__).parents[1]),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-W", "always::UserWarning", str(script)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert [ln.split(": UserWarning")[0] for ln in proc.stderr.splitlines()
                if "UserWarning" in ln] == [f"{script}:9", f"{script}:10"]


class TestDecay:
    def test_heat_mode_decay_rate(self, grid, null_op):
        """Reaction-free, kernel-free dynamics is the heat equation; the
        lowest cosine mode decays at the analytic Neumann rate."""
        L = grid.length
        x = grid.axis_coords()
        u0 = 0.5 + 0.3 * np.cos(np.pi * x / L)
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.001, t_end=1.5, record_every=10)
        ref = np.full(grid.num_nodes, 0.5)
        _, rec = run(u0, spec, null_op, cfg, ref=ref)
        rate, r2 = fit_exponential_rate(rec.times, rec.dist_to_ref, (0.25, 1.25))
        want = (np.pi / L) ** 2
        assert rate == pytest.approx(want, rel=0.10)
        assert r2 > 0.999
        assert abs(rec.mass[-1] - 0.5) < 1e-12

class TestPhaseBoundsAndSeparation:
    def test_logistic_running_minimum_does_not_decrease(self, grid, weak_op):
        """With a nonnegative reaction and data away from 0, the separation
        from the lower phase persists after a unit transient."""
        spec = logistic_reaction(grid, 1.0)
        rng = np.random.default_rng(4)
        u0 = rng.uniform(0.2, 0.8, grid.num_nodes)
        _, rec = run(u0, spec, weak_op, SolverConfig(dt=0.01, t_end=4.0, record_every=5))
        t = np.asarray(rec.times)
        mins = np.asarray(rec.min_u)[t >= 1.0]
        assert np.all(np.diff(mins) >= -1e-12)

    def test_gradient_norm_stays_bounded(self, grid, weak_op):
        spec = logistic_reaction(grid, 1.0)
        rng = np.random.default_rng(5)
        u0 = rng.uniform(0.1, 0.9, grid.num_nodes)
        _, rec = run(u0, spec, weak_op, SolverConfig(dt=0.01, t_end=3.0, record_every=5))
        h1 = np.asarray(rec.h1_seminorm)
        assert np.all(np.isfinite(h1))
        tail = h1[np.asarray(rec.times) >= 1.0]
        assert np.max(tail) <= max(10.0 * h1[0], 10.0)


class TestPairRuns:
    def test_identical_data_identical_trajectories(self, grid, weak_op):
        spec = logistic_reaction(grid, 1.0)
        rng = np.random.default_rng(6)
        u0 = rng.uniform(0.2, 0.8, grid.num_nodes)
        pair = pair_run(u0, u0.copy(), spec, weak_op, SolverConfig(dt=0.01, t_end=0.5))
        assert np.all(pair.dist == 0.0)

    def test_heat_contraction(self, grid, null_op):
        spec = zero_reaction(grid)
        rng = np.random.default_rng(7)
        u01 = rng.uniform(0.2, 0.8, grid.num_nodes)
        u02 = rng.uniform(0.2, 0.8, grid.num_nodes)
        pair = pair_run(u01, u02, spec, null_op, SolverConfig(dt=0.01, t_end=1.0))
        assert np.all(np.diff(pair.dist) <= 1e-14)

    def test_bertozzi_contraction_beats_threshold(self, grid, weak_op):
        """Strictly decreasing reactions contract pairs at least at the rate
        beta0 - c1 with c1 from the kernel constants."""
        c1 = 0.5 * (weak_op.r2_est / 4.0 + weak_op.rinf_est) ** 2
        beta0 = c1 + 1.5
        spec = bertozzi_reaction(grid, beta0, 0.6)
        rng = np.random.default_rng(8)
        u01 = rng.uniform(0.1, 0.9, grid.num_nodes)
        u02 = rng.uniform(0.1, 0.9, grid.num_nodes)
        pair = pair_run(u01, u02, spec, weak_op,
                        SolverConfig(dt=0.01, t_end=6.0, record_every=5))
        rate, r2 = fit_exponential_rate(pair.times, pair.dist, (3.0, 6.0))
        assert rate >= beta0 - c1 - 0.1
        assert r2 >= 0.99


    @pytest.mark.parametrize("dim,n,paths", [(1, 64, ("taps", "dense")), (1, 512, ("fft", "fft")),
                                             (2, 16, ("factors", "factors"))],
                             ids=["dense_1d", "fft_1d", "factors_2d"])
    def test_pair_run_is_the_lockstep_distance(self, dim, n, paths):
        """pair_run, which records against the second datum's states, gives
        the distances of the two trajectories stepped side by side, bit for
        bit, on each kernel apply."""
        grid = build_grid(dim, n, 1.0)
        op = assemble_kernel(gaussian_kernel(0.05, 0.05), grid)
        assert apply_paths(op) == paths
        spec = oono_reaction(grid, 1.0)
        u01, u02 = np.random.default_rng(11).uniform(0.2, 0.8, (2, grid.num_nodes))
        cfg = SolverConfig(dt=0.01, t_end=0.3, record_every=4)
        pair = pair_run(u01, u02, spec, op, cfg)
        times, dist = [], []
        for s1, s2 in zip(_trajectory(u01, spec, op, cfg), _trajectory(u02, spec, op, cfg)):
            if cfg.is_record_step(s1.step_count):
                times.append(s1.t)
                dist.append(l2_norm(grid, s1.u - s2.u))
        assert len(pair.times) == 9 and np.all(pair.dist > 0)
        assert np.array_equal(pair.times, times)
        assert np.array_equal(pair.dist, dist)

    def test_record_rejects_a_reference_stream_that_is_not_one(self, grid, weak_op):
        spec = logistic_reaction(grid, 1.0)
        u0 = np.full(grid.num_nodes, 0.5)
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        # a stream shorter than the run would truncate it silently
        for refs, drawn in [([None] * 4, 4), ([], 0)]:
            with pytest.raises(ValueError, match=f"refs ended after {drawn} of 11 states"):
                record(_trajectory(u0, spec, weak_op, cfg), refs, spec, weak_op, cfg)
        # a field would be drawn node by node
        with pytest.raises(TypeError, match="pass repeat"):
            record(_trajectory(u0, spec, weak_op, cfg), u0, spec, weak_op, cfg)


class Test2D:
    def test_bounds_and_mass_identity(self):
        grid = build_grid(2, 32, 1.0)
        op = assemble_kernel(gaussian_kernel(0.05, 0.05), grid)
        spec = logistic_reaction(grid, 1.0)
        rng = np.random.default_rng(10)
        u0 = rng.uniform(0.1, 0.9, grid.num_nodes)
        state, rec = run(u0, spec, op, SolverConfig(dt=0.01, t_end=1.0, record_every=10))
        assert min(rec.min_u) >= -1e-8
        assert max(rec.max_u) <= 1.0 + 1e-8
        assert mass_balance_residual(rec) <= 1e-12
        assert np.all(np.diff(rec.step_mass) > 0)

    def test_2d_heat_mode_decay(self):
        grid = build_grid(2, 32, 1.0)
        op = assemble_kernel(zero_kernel(), grid)
        x = grid.axis_coords()
        u0 = (0.5 + 0.2 * np.outer(np.cos(np.pi * x), np.ones(grid.n))).ravel()
        ref = np.full(grid.num_nodes, 0.5)
        spec = zero_reaction(grid)
        _, rec = run(u0, spec, op, SolverConfig(dt=0.002, t_end=0.8, record_every=10),
                     ref=ref)
        rate, r2 = fit_exponential_rate(rec.times, rec.dist_to_ref, (0.1, 0.7))
        assert rate == pytest.approx(np.pi**2, rel=0.10)
        assert r2 > 0.999


class TestRecordShapes:
    def test_series_lengths_and_times(self, grid, weak_op):
        spec = zero_reaction(grid)
        rng = np.random.default_rng(9)
        u0 = rng.uniform(0.2, 0.8, grid.num_nodes)
        _, rec = run(u0, spec, weak_op, SolverConfig(dt=0.01, t_end=0.5, record_every=7))
        arrays = rec.as_arrays()
        n = len(arrays["t"])
        assert all(len(v) == n for v in arrays.values())
        assert np.all(np.diff(arrays["t"]) > 0)
        assert len(rec.step_mass) == 51
        assert len(rec.step_g_mean) == 50

    def test_trajectory_states(self, grid, weak_op):
        spec = zero_reaction(grid)
        u0 = np.full(grid.num_nodes, 0.4)
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        states = list(_trajectory(u0, spec, weak_op, cfg))
        assert len(states) == 11
        # consumers such as the snapshot writer keep a yielded u uncopied,
        # so each must own its memory
        for i, a in enumerate(states):
            assert not np.shares_memory(a.u, u0)
            for b in states[i + 1:]:
                assert not np.shares_memory(a.u, b.u)
        _assert_same_states(states, _oracle_trajectory(u0, spec, weak_op, cfg))

    def test_initial_datum_validation(self, grid, weak_op):
        spec = zero_reaction(grid)
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        bad = np.full(grid.num_nodes, 1.2)
        with pytest.raises(ValueError, match="0 <= u <= 1"):
            run(bad, spec, weak_op, cfg)


# -- oracle: step, _trajectory, run and TrajectoryRecord.sample as they were
# before the wrapper-cost rewrite (np.mean, np.min, np.clip, np.linalg.norm),
# verbatim except that the flux, the solve, the H1 seminorm and the energy are
# their old bodies in field_oracles, and the L2 norm is l2_norm, which
# test_bit_identity pins to the old expression -------------------------------

def _oracle_step(state, spec, op, cfg, solver=None):
    grid = op.grid
    if solver is None:
        solver = SpdNeumannSolver(grid, cfg.dt)
    u, w = state.u, state.w
    g_vals = reaction_eval(spec, u)
    rhs = u + cfg.dt * oracle_div_flux(grid, mobility(u), w) + cfg.dt * g_vals
    target_mean = float(np.mean(u)) + cfg.dt * float(np.mean(g_vals))
    u_new = oracle_solve(solver, rhs)
    u_new += target_mean - float(np.mean(u_new))

    lo, hi = float(np.min(u_new)), float(np.max(u_new))
    excursion = max(0.0 - lo, hi - 1.0, 0.0)
    clamped = 0
    if excursion > BOUND_TOL:
        raise SolverError(
            f"phase bound excursion {excursion:.3e} exceeds {BOUND_TOL:.0e} "
            f"at t = {state.t + cfg.dt:.6g}: reduce dt or refine the grid"
        )
    if excursion > 0.0:
        clamped = int(np.sum((u_new < 0.0) | (u_new > 1.0)))
        np.clip(u_new, 0.0, 1.0, out=u_new)

    return State(
        t=state.t + cfg.dt,
        u=u_new,
        w=op.convolve(1.0 - 2.0 * u_new),
        step_count=state.step_count + 1,
        clamp_events=state.clamp_events + clamped,
    )


def _oracle_trajectory(u0, spec, op, cfg):
    u0 = check_field(op.grid, u0)
    if np.min(u0) < 0.0 or np.max(u0) > 1.0:
        raise ValueError("initial datum must satisfy 0 <= u0 <= 1 nodewise")
    if cfg.dt * spec.lipschitz_s >= 0.5:
        raise ValueError(
            f"dt * L_g = {cfg.dt * spec.lipschitz_s:.3g} >= 0.5: the explicit "
            f"reaction is unstable, reduce dt below {0.5 / max(spec.lipschitz_s, 1e-300):.3g}"
        )
    solver = SpdNeumannSolver(op.grid, cfg.dt)
    state = State(t=0.0, u=u0.copy(), w=op.convolve(1.0 - 2.0 * u0))
    yield state
    for k in range(1, cfg.n_steps + 1):
        state = _oracle_step(state, spec, op, cfg, solver=solver)
        state.t = k * cfg.dt      # avoid accumulation drift
        yield state


def _oracle_run(u0, spec, op, cfg, ref=None):
    states = _oracle_trajectory(u0, spec, op, cfg)
    state = next(states)
    mean0 = float(np.mean(state.u))
    if not (0.0 < mean0 < 1.0) and float(np.mean(reaction_eval(spec, state.u))) == 0.0:
        warnings.warn(
            f"mean(u0) = {mean0} is a pure phase and the reaction does not "
            f"move mass there; the run will remain stationary", stacklevel=2,
        )

    rec = TrajectoryRecord(grid=op.grid, dt=cfg.dt)
    for state in chain([state], states):
        k = state.step_count
        rec.step_mass.append(float(np.mean(state.u)))
        if cfg.is_record_step(k):
            _oracle_sample(rec, state.t, state.u, op, state.clamp_events, ref)
        if k < cfg.n_steps:
            rec.step_g_mean.append(float(np.mean(reaction_eval(spec, state.u))))
    return state, rec


def _oracle_sample(rec, t, u, op, clamp_events, ref):
    rec.times.append(float(t))
    rec.mass.append(float(np.mean(u)))
    rec.min_u.append(float(np.min(u)))
    rec.max_u.append(float(np.max(u)))
    rec.l2_norm.append(l2_norm(rec.grid, u))
    rec.h1_seminorm.append(oracle_h1_seminorm(rec.grid, u))
    rec.energy.append(oracle_energy(u, op))
    rec.dist_to_ref.append(l2_norm(rec.grid, u - ref) if ref is not None else float("nan"))
    rec.clamp_events.append(int(clamp_events))


def _assert_same_states(got, want):
    """Every state of two streams is equal: u and w bit for bit, time, step
    count and clamp events exactly."""
    n = 0
    for a, b in zip(got, want, strict=True):
        assert (a.t, a.step_count, a.clamp_events) == (b.t, b.step_count, b.clamp_events)
        assert same_bits(a.u, b.u) and same_bits(a.w, b.w), a.step_count
        n += 1
    assert n > 1


def _assert_same_run(got, want):
    (state, rec), (state0, rec0) = got, want
    assert (state.t, state.step_count, state.clamp_events) == \
        (state0.t, state0.step_count, state0.clamp_events)
    assert same_bits(state.u, state0.u) and same_bits(state.w, state0.w)
    assert same_bits(rec.step_mass, rec0.step_mass)
    assert same_bits(rec.step_g_mean, rec0.step_g_mean)
    series, series0 = rec.as_arrays(), rec0.as_arrays()
    assert series.keys() == series0.keys()
    for name in series:
        assert same_bits(series[name], series0[name]), name


SUITE_REACTIONS = {
    "logistic": lambda g: logistic_reaction(g, 1.0),
    "bertozzi": lambda g: bertozzi_reaction(g, 2.0, 0.7),
    "oono": lambda g: oono_reaction(g, 1.0),
}
SUITE_KERNELS = {"gaussian": gaussian_kernel(0.05, 0.05), "mollifier": mollifier_kernel(0.05, 0.2)}


@pytest.fixture(scope="module")
def suite_grid():
    return build_grid(1, 256, 1.0)


class TestBitIdentity:
    """The stepping path keeps every bit of the oracle above."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kname", list(SUITE_KERNELS))
    @pytest.mark.parametrize("rname", list(SUITE_REACTIONS))
    def test_acceptance_suite_run(self, suite_grid, rname, kname, seed):
        """The 18 runs of the acceptance suite, 1000 steps each."""
        op = assemble_kernel(SUITE_KERNELS[kname], suite_grid)
        spec = SUITE_REACTIONS[rname](suite_grid)
        u0 = np.random.default_rng(seed).uniform(0.1, 0.9, suite_grid.num_nodes)
        cfg = SolverConfig(dt=0.01, t_end=10.0, record_every=5)
        _assert_same_run(run(u0, spec, op, cfg), _oracle_run(u0, spec, op, cfg))

    def test_clamping_run(self):
        grid = build_grid(1, 64, 1.0)
        op = assemble_kernel(gaussian_kernel(0.05, 0.05), grid)
        u0 = np.where(grid.axis_coords() < 0.5, 0.0, 0.9)
        spec, cfg = zero_reaction(grid), SolverConfig(dt=1e-4, t_end=50e-4)
        got = run(u0, spec, op, cfg)
        assert got[0].clamp_events > 0
        _assert_same_run(got, _oracle_run(u0, spec, op, cfg))
        _assert_same_states(_trajectory(u0, spec, op, cfg),
                            _oracle_trajectory(u0, spec, op, cfg))

    @pytest.mark.parametrize("case", ["suite", "clamping", "2d"])
    def test_each_state_carries_its_mass(self, suite_grid, case):
        """``State.mass`` is float(mean(u)) of the state's final u, after the
        clip of a clamped step too, and the ledger is those masses."""
        if case == "suite":
            grid, u0, spec, cfg = (suite_grid,
                                   np.random.default_rng(5).uniform(0.1, 0.9, suite_grid.num_nodes),
                                   SUITE_REACTIONS["bertozzi"](suite_grid),
                                   SolverConfig(dt=0.01, t_end=1.0))
        elif case == "clamping":
            grid = build_grid(1, 64, 1.0)
            u0 = np.where(grid.axis_coords() < 0.5, 0.0, 0.9)
            spec, cfg = zero_reaction(grid), SolverConfig(dt=1e-4, t_end=50e-4)
        else:
            grid = build_grid(2, 16, 1.0)
            u0 = np.random.default_rng(3).uniform(0.2, 0.8, grid.num_nodes)
            spec, cfg = oono_reaction(grid, 1.0), SolverConfig(dt=0.01, t_end=0.2)
        op = assemble_kernel(gaussian_kernel(0.05, 0.05), grid)
        states = list(_trajectory(u0, spec, op, cfg))
        assert len(states) == cfg.n_steps + 1
        for state in states:
            assert state.mass == float(mean(state.u)) == float(np.mean(state.u))
        if case == "clamping":
            assert states[-1].clamp_events > 0
        _, rec = run(u0, spec, op, cfg)
        assert rec.step_mass == [state.mass for state in states]

    def test_2d_newton_run(self):
        grid = build_grid(2, 16, 1.0)
        op = assemble_kernel(newton_kernel(0.1), grid)
        u0 = np.random.default_rng(3).uniform(0.2, 0.8, grid.num_nodes)
        ref = np.full(grid.num_nodes, 0.3)
        spec, cfg = oono_reaction(grid, 1.0), SolverConfig(dt=0.01, t_end=1.0, record_every=3)
        _assert_same_run(run(u0, spec, op, cfg, ref=ref), _oracle_run(u0, spec, op, cfg, ref=ref))
