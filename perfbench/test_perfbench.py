"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

The count test runs every workload's traced study twice, so it takes a few
minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)

nlch = run.import_package()

import bench_trace  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir(request):
    """A working directory inside the checkout, removed afterwards."""
    path = run.OUT_DIR / "test" / request.node.name
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_tracing_wraps_every_binding_and_restores_them():
    pristine = bench_trace.namespace_snapshot()
    assert bench_trace.snapshot_matches(pristine)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        import nlch.equilibrium
        import nlch.solvers
        import nlch.tangent
        import nlch.timestepper
        for fn in (nlch.grid.div_flux, nlch.timestepper.div_flux, nlch.tangent.div_flux,
                   nlch.equilibrium.div_flux, nlch.solvers.laplacian_neumann,
                   nlch.kernels.laplacian_neumann, nlch.laplacian_neumann, nlch.run,
                   nlch.tangent.run, nlch.KernelOp.convolve, nlch.solvers.dctn):
            assert hasattr(fn, bench_trace.MARK)
        assert not bench_trace.snapshot_matches(pristine)
    finally:
        tracer.restore()
    assert bench_trace.snapshot_matches(pristine)
    # installing again reuses the same wrappers and span names
    names = list(tracer.names)
    tracer.install()
    tracer.restore()
    assert tracer.names == names and bench_trace.snapshot_matches(pristine)


def test_untraced_package_is_the_checkout_source():
    src = (HERE.parent / "src" / "nlch").resolve()
    for m in bench_trace._nlch_modules():
        assert Path(m.__file__).resolve().parent == src
    assert not any(hasattr(v, bench_trace.MARK)
                   for v in bench_trace.namespace_snapshot().values())


def test_spans_nest_and_count_solver_matvecs():
    tracer = bench_trace.Tracer()
    grid = nlch.build_grid(1, 32, 1.0)
    op = nlch.assemble_kernel(nlch.gaussian_kernel(0.05, 0.05), grid)
    spec = nlch.oono_reaction(grid, 1.0)
    u0 = nlch.grid.neumann_mode(grid, 1) * 0.1 + 0.5
    tracer.install()
    try:
        nlch.run(u0, spec, op, nlch.SolverConfig(dt=0.01, t_end=0.05))
    finally:
        tracer.restore()
    totals = tracer.layer_totals(0, len(tracer))
    assert totals["timestepper.step_calls"] == 5
    assert totals["solvers.solve_calls"] == 5
    assert totals["solvers.matvecs"] >= 5
    assert totals["model.reaction_calls"] == 10       # once in run, once in step
    assert 0.0 < totals["timestepper.step_self_s"] < totals["timestepper.step_s"]


def test_failed_check_and_exception_count_as_failures():
    from bench_workloads import Op
    ledger = run.Ledger()
    ledger.execute(Op("passes", lambda: 1, lambda r: [("one", r == 1)]))
    ledger.execute(Op("misses", lambda: 2, lambda r: [("one", r == 1)]))
    ledger.execute(Op("raises", lambda: 1 / 0, lambda r: []))
    assert (ledger.attempted, ledger.failed) == (3, 2)


@pytest.mark.parametrize("measure", [run.measure_untraced, run.measure_traced])
def test_an_op_that_always_fails_ends_the_run(measure, workdir):
    from bench_workloads import Op, Study

    def setup(seed, workdir):
        return Study([Op("passes", lambda: 1, lambda r: [("one", r == 1)]),
                      Op("misses", lambda: 2, lambda r: [("one", r == 1)])], [], 1)

    ledger = run.Ledger()
    metrics, _ = measure("failing", setup, 0, 1e9, workdir, ledger,
                         bench_trace.namespace_snapshot())
    assert metrics is None
    assert ledger.failed > 0 and ledger.attempted > ledger.failed


def test_benchmark_json_lists_what_the_runner_reports(workdir):
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in bench_trace.LAYER_METRICS]
    ledger = run.Ledger()
    metrics, _ = run.measure_untraced("equilibria_1d", WORKLOADS["equilibria_1d"], 0, 0.0,
                                      workdir, ledger, bench_trace.namespace_snapshot())
    assert ledger.failed == 0
    assert {name: unit for name, (_, unit) in metrics.items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly_with_one_seed(name, monkeypatch, workdir):
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    pristine = bench_trace.namespace_snapshot()
    runs = []
    for _ in range(2):
        ledger = run.Ledger()
        metrics, _ = run.measure_traced(name, WORKLOADS[name], 0, 0.0, workdir,
                                        ledger, pristine)
        assert ledger.failed == 0
        runs.append({k: v for k, (v, _) in metrics.items() if k in bench_trace.COUNT_METRICS})
    assert runs[0] == runs[1]
    assert bench_trace.snapshot_matches(pristine)


def test_exits_nonzero_without_the_package(workdir):
    shutil.copy(HERE.parent / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "suite_1d",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 2
    assert proc.stdout == ""
