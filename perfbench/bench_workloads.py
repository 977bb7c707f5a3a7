"""
The four benchmark workloads, built only from the public nlch API.

Each workload's ``setup(seed, workdir)`` makes the grid, the kernel
operators, the reaction specs and every initial datum from the workload
seed, and returns a ``Study``: an ordered list of operations, each a timed
library call plus the correctness checks on its result.  Seed 0 reproduces
the acceptance-test data (``tests/test_acceptance.py``) and demo 06: the
datum offsets below are those tests' seeds.

The tolerances are the ones pinned in the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import nlch
import nlch.io

BOUND_TOL = 1e-8          # phase bounds, criterion 01
MASS_TOL = 1e-12          # per-step mass identity, criterion 02
ENERGY_TOL = 1e-10        # energy increments without reaction, criterion 10
TRACE_TOL = 0.05          # constant-mode trace within 5% of -sigma, criterion 09

Checks = list[tuple[str, bool]]


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Checks]
    cost_class: str = ""    # ops of one class do the same work on other data

    def __post_init__(self):
        self.cost_class = self.cost_class or self.name


@dataclass
class Study:
    ops: list[Op]
    kernels: list           # the assembled KernelOps, for the matrix size
    num_nodes: int


def _bounds(lo: float, hi: float) -> Checks:
    return [(f"min u = {lo:.3e} >= -{BOUND_TOL:g}", lo >= -BOUND_TOL),
            (f"max u = {hi:.12f} <= 1 + {BOUND_TOL:g}", hi <= 1.0 + BOUND_TOL)]


def _run_checks(rec) -> Checks:
    res = nlch.mass_balance_residual(rec)
    return _bounds(min(rec.min_u), max(rec.max_u)) + [
        (f"per-step mass residual {res:.2e} <= {MASS_TOL:g}", res <= MASS_TOL)]


# -- suite_1d: the 18-run acceptance fixture ----------------------------------

SUITE_CFG = dict(dt=0.01, t_end=10.0, record_every=5)
OONO_SIGMA = 1.0


def _suite_check(u0, geometric_mass: bool):
    def check(result) -> Checks:
        _, rec = result
        checks = _run_checks(rec)
        if geometric_mass:
            oracle = float(np.mean(u0))
            worst = 0.0
            for m in rec.step_mass[1:]:
                oracle *= 1.0 - OONO_SIGMA * SUITE_CFG["dt"]
                worst = max(worst, abs(m - oracle) / abs(oracle))
            checks.append((f"oono geometric mean error {worst:.2e} <= {MASS_TOL:g}",
                           worst <= MASS_TOL))
        return checks
    return check


def setup_suite_1d(seed: int, workdir: Path) -> Study:
    grid = nlch.build_grid(1, 256, 1.0)
    kernels = {"gaussian": nlch.assemble_kernel(nlch.gaussian_kernel(0.05, 0.05), grid),
               "mollifier": nlch.assemble_kernel(nlch.mollifier_kernel(0.05, 0.2), grid)}
    reactions = {"logistic": nlch.logistic_reaction(grid, 1.0),
                 "bertozzi": nlch.bertozzi_reaction(grid, 2.0, 0.7),
                 "oono": nlch.oono_reaction(grid, OONO_SIGMA)}
    data = [np.random.default_rng(seed + k).uniform(0.1, 0.9, grid.num_nodes)
            for k in range(3)]
    cfg = nlch.SolverConfig(**SUITE_CFG)
    ops = []
    for rname, spec in reactions.items():
        for kname, op in kernels.items():
            for k, u0 in enumerate(data):
                ops.append(Op(
                    f"run {rname}/{kname}/{seed + k}",
                    lambda u0=u0, spec=spec, op=op: nlch.run(u0, spec, op, cfg),
                    _suite_check(u0, rname == "oono"), f"run {rname}/{kname}"))
    return Study(ops, list(kernels.values()), grid.num_nodes)


# -- field_2d: demo 06 plus a snapshot round trip ------------------------------

def setup_field_2d(seed: int, workdir: Path) -> Study:
    grid = nlch.build_grid(2, 64, 1.0)
    op = nlch.assemble_kernel(nlch.gaussian_kernel(0.02, 0.02), grid)
    spec = nlch.zero_reaction(grid)
    u0 = np.random.default_rng(seed + 11).uniform(0.3, 0.7, grid.num_nodes)
    cfg = nlch.SolverConfig(dt=0.005, t_end=0.5, record_every=10)
    last = {}

    def run():
        state, rec = nlch.run(u0, spec, op, cfg)
        last["state"] = state
        return state, rec

    def check_run(result) -> Checks:
        _, rec = result
        inc = float(np.max(np.diff(rec.energy)))
        return _run_checks(rec) + [
            (f"max energy increment {inc:.2e} <= {ENERGY_TOL:g}", inc <= ENERGY_TOL)]

    def round_trip():
        state = last["state"]
        snaps = [(u0, 0.0), (state.u, state.t), (state.w, state.t)]
        out = []
        for k, (values, t) in enumerate(snaps):
            path = workdir / f"snapshot_{k}.nlch"
            nlch.io.write_field(path, grid, values, t)
            out.append((values, t, nlch.io.read_field(path)))
        return out

    def check_round_trip(result) -> Checks:
        return [(f"snapshot {k} round trip is bit-exact",
                 g2 == grid and t2 == t and np.array_equal(v2, values))
                for k, (values, t, (g2, v2, t2)) in enumerate(result)]

    ops = [Op("run 2d/gaussian", run, check_run),
           Op("io round trip", round_trip, check_round_trip)]
    return Study(ops, [op], grid.num_nodes)


# -- tangent_scan_1d: criterion 09 ---------------------------------------------

def setup_tangent_scan_1d(seed: int, workdir: Path) -> Study:
    grid = nlch.build_grid(1, 256, 1.0)
    op = nlch.assemble_kernel(nlch.gaussian_kernel(0.02, 0.05), grid)
    spec = nlch.oono_reaction(grid, OONO_SIGMA)
    u0 = np.random.default_rng(seed + 5).uniform(0.2, 0.8, grid.num_nodes)
    cfg = nlch.SolverConfig(dt=0.01, t_end=4.0, record_every=10)

    def check(scan) -> Checks:
        checks = [(f"finite dimension bound, N = {scan.describe()}", scan.n_bound is not None)]
        if scan.n_bound is not None:
            checks.append((f"trace negative for all n >= {scan.n_bound}",
                           bool(np.all(scan.traces[scan.n_bound - 1:] < 0.0))))
        err = abs(scan.traces[0] + OONO_SIGMA)
        checks.append((f"n = 1 trace {scan.traces[0]:.4f} within 5% of -sigma",
                       err <= TRACE_TOL * OONO_SIGMA))
        return checks

    ops = [Op("dimension_bound n_max=30",
              lambda: nlch.dimension_bound(u0, 30, 4.0, spec, op, cfg, ortho_every=1),
              check)]
    return Study(ops, [op], grid.num_nodes)


# -- equilibria_1d: multistart steady states -------------------------------------

# distinct limits from the constant seeds 0, 1/2, 1: balanced_cubic keeps all
# three, bertozzi has a unique equilibrium, logistic keeps 0 and sends 1/2 to
# 1, oono sends everything to 0
CONSTANT_SEEDS = (0.0, 0.5, 1.0)
EXPECTED_DISTINCT = {"balanced_cubic": 3, "bertozzi": 1, "logistic": 2, "oono": 1}
RANDOM_ROUNDS = 3


def _certified(res) -> Checks:
    return [(f"certified (converged {res.converged}, residual {res.residual:.2e})",
             res.certified)] + _bounds(float(np.min(res.u)), float(np.max(res.u)))


def setup_equilibria_1d(seed: int, workdir: Path) -> Study:
    grid = nlch.build_grid(1, 256, 1.0)
    op = nlch.assemble_kernel(nlch.gaussian_kernel(0.05, 0.05), grid)
    # criterion 07 draws its oono datum first and its bertozzi datum second
    specs = {"oono": nlch.oono_reaction(grid, 1.0),
             "bertozzi": nlch.bertozzi_reaction(grid, 5.0, 0.6),
             "balanced_cubic": nlch.balanced_cubic_reaction(grid, 1.0),
             "logistic": nlch.logistic_reaction(grid, 1.0)}
    rng = np.random.default_rng(seed + 3)
    random_data = [(name, k, rng.uniform(0.1, 0.9, grid.num_nodes))
                   for k in range(RANDOM_ROUNDS) for name in specs]
    constants = [np.full(grid.num_nodes, c) for c in CONSTANT_SEEDS]

    def check_multistart(name):
        def check(found) -> Checks:
            want = EXPECTED_DISTINCT[name]
            checks = [(f"{name}: {len(found)} distinct equilibria from constants, want {want}",
                       len(found) == want)]
            for res in found:
                checks += _certified(res)
            return checks
        return check

    ops = [Op(f"multistart {name}/constants",
              lambda spec=spec: nlch.multistart_equilibria(constants, spec, op),
              check_multistart(name))
           for name, spec in specs.items()]
    ops += [Op(f"solve {name}/random {k}",
               lambda u=u, spec=specs[name]: nlch.solve_equilibrium(u, spec, op),
               _certified, f"solve {name}/random")
            for name, k, u in random_data]
    return Study(ops, [op], grid.num_nodes)


# why each workload is there: the "workloads" entries of BENCHMARK.json
WORKLOADS: dict[str, Callable[[int, Path], Study]] = {
    "suite_1d": setup_suite_1d,
    "field_2d": setup_field_2d,
    "tangent_scan_1d": setup_tangent_scan_1d,
    "equilibria_1d": setup_equilibria_1d,
}
