"""
nlch benchmark: times studies end to end and, in a separate traced run,
layer by layer.

    python3 perfbench/run.py --workload suite_1d --seed 0 --trace 0
    python3 perfbench/run.py              # every workload, each in a fresh process

One run sets the workload up several times (``setup_s`` is the median; a
cheap set-up is also repeated between operations), then repeats the study's
operations until the run length has passed and at least one whole study has
run.  The run length is ``run_seconds`` from BENCHMARK.json unless
``--seconds`` is given.  ``solve_s`` sums, over the study's operations, the
median time of each.  Every execution is checked against the acceptance
tolerances; a failed check or an exception counts as a failed operation and
makes the exit status 1.  With ``--trace 1`` each operation runs once
untraced and once traced, and the traced layer metrics plus the tracing
overhead are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status 2 means
the benchmark could not run (for example, no ``src/nlch`` next to it).
"""

from __future__ import annotations

import os

# Fixed for every workload, and set before numpy loads its BLAS: two
# threads (one on a single-CPU machine) let the bandwidth-bound 2D matvecs
# use both cores of a small box, and keep the count the same on a larger one.
BLAS_THREADS = min(2, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import bench_trace
from bench_trace import LAYER_METRICS, OpSamples, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in BENCHMARK["workloads"])
MIN_SETUPS = 3
MIN_SAMPLES = 3           # per cost class, so every median has three samples
SETUP_SHARE = 0.1         # of the run, for set-ups repeated between ops
WORKLOAD_TIMEOUT_S = 600  # per workload process when running them all


def import_package():
    """Import nlch from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "nlch" / "__init__.py").is_file():
        raise ImportError(f"no nlch package under {src}")
    sys.path.insert(0, str(src))
    import nlch
    if Path(nlch.__file__).resolve().parent != src / "nlch":
        raise ImportError(f"nlch was imported from {nlch.__file__}, not {src}")
    return nlch


# -- environment ----------------------------------------------------------------

def _blas_threads() -> list[dict]:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return []
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    out = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        threads = None
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        out.append({"library": Path(lib).name, "threads": threads})
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nlch").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = {}
    for name, mod in (("numpy", np), ("scipy", scipy)):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[name] = {"name": info.get("name"), "version": info.get("version")}
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# -- measurement ------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Ledger:
    """Attempted and failed operations, with the first failure reports."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def execute(self, op, before=None, after=None) -> tuple[float, bool]:
        """Time one call of ``op``; check its result outside the timed region."""
        self.attempted += 1
        if before:
            before()
        try:
            t0 = time.perf_counter()
            result = op.call()
            wall = time.perf_counter() - t0
        except Exception:
            wall = float("nan")
            failed = [f"raised:\n{traceback.format_exc()}"]
        else:
            failed = None
        finally:
            if after:
                after()
        if failed is None:
            failed = [desc for desc, ok in op.check(result) if not ok]
        if failed:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {op.name}: " + "; ".join(failed), file=sys.stderr)
        return wall, not failed


def run_setups(setup, seed: int, workdir: Path) -> tuple[list[float], object]:
    times, study = [], None
    for _ in range(MIN_SETUPS):
        study = None            # release the previous operators first
        t0 = time.perf_counter()
        study = setup(seed, workdir)
        times.append(time.perf_counter() - t0)
    return times, study


def repeat_ops(study, seconds: float, ledger: Ledger, samples: list[OpSamples],
               run_op, between=None) -> int:
    """Call ``run_op(i, op)`` on the study's ops in turn, then ``between()``,
    until one whole study has run, ``seconds`` have passed and every cost
    class has ``MIN_SAMPLES`` passing samples in each of ``samples``.  Once an
    op has failed, the loop ends with the first whole study: the run has
    failed anyway, and an op that always fails would never give its class a
    sample.  Returns the number of op runs."""
    n = len(study.ops)
    start = time.perf_counter()
    i = 0
    while i < n or not ledger.failed and (
            min(s.fewest_per_class() for s in samples) < MIN_SAMPLES
            or time.perf_counter() - start < seconds):
        run_op(i, study.ops[i % n])
        if between:
            between()
        i += 1
    return i


def measure_untraced(name, setup, seed, seconds, workdir, ledger, pristine):
    setups, study = run_setups(setup, seed, workdir)
    samples = OpSamples([op.cost_class for op in study.ops])

    def run_op(i, op):
        wall, ok = ledger.execute(op)
        if ok:
            samples.add(i % len(study.ops), wall)

    # A cheap set-up is repeated between ops through the whole run, taking
    # SETUP_SHARE of its time, so that its median does not rest on one moment.
    cheap = statistics.median(setups) * MIN_SETUPS < SETUP_SHARE * seconds
    extra = {"spent": 0.0, "start": time.perf_counter()}

    def between():
        if cheap and extra["spent"] < SETUP_SHARE * (time.perf_counter() - extra["start"]):
            t0 = time.perf_counter()
            setup(seed, workdir)
            setups.append(time.perf_counter() - t0)
            extra["spent"] += setups[-1]

    runs = repeat_ops(study, seconds, ledger, [samples], run_op, between)
    if not bench_trace.snapshot_matches(pristine):
        raise RuntimeError("the nlch namespaces changed during an untraced run")
    if not all(samples.samples):
        return None, {}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (samples.study_total(), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "pass_ratio": ((ledger.attempted - ledger.failed) / ledger.attempted, "ratio"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "solve_s": f"sum over {len(study.ops)} ops of each op's median; {runs} op runs",
        "peak_rss_mb": "peak resident memory of this process",
        "pass_ratio": f"{ledger.attempted - ledger.failed} of {ledger.attempted} "
                      f"op runs passed; fail_ratio = {ledger.failed / ledger.attempted:.6g}",
    }
    return metrics, notes


def measure_traced(name, setup, seed, seconds, workdir, ledger, pristine):
    tracer = Tracer()
    install = tracer.install

    def restore():
        tracer.restore()
        if not bench_trace.snapshot_matches(pristine):
            raise RuntimeError("tracing left a wrapper or changed an nlch binding")

    bounds = []
    install()
    try:
        lo = len(tracer)
        study = setup(seed, workdir)
    finally:
        restore()
    setup_totals = tracer.layer_totals(lo, len(tracer))
    bounds.append(("setup", lo, len(tracer)))

    classes = [op.cost_class for op in study.ops]
    untraced, traced = OpSamples(classes), OpSamples(classes)

    def run_op(i, op):
        k = i % len(study.ops)
        # alternate which variant runs first, so warm caches favour neither
        for with_trace in ((False, True) if (i // len(study.ops)) % 2 == 0 else (True, False)):
            if not with_trace:
                wall, ok = ledger.execute(op)
                if ok:
                    untraced.add(k, wall)
                continue
            lo = len(tracer)
            wall, ok = ledger.execute(op, install, restore)
            hi = len(tracer)
            bounds.append((op.name, lo, hi))
            if ok:
                totals = tracer.layer_totals(lo, hi)
                totals["wall_s"] = wall
                traced.add(k, totals)

    repeat_ops(study, seconds, ledger, [untraced, traced], run_op)
    if not (all(untraced.samples) and all(traced.samples)):
        return None, {}
    matrix_bytes = sum(op.weights.nbytes for op in study.kernels)
    values = bench_trace.layer_metrics(setup_totals, traced, untraced,
                                       study.num_nodes, matrix_bytes)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans_{name}.npz", bounds)
    units = {name: unit for name, unit, *_ in LAYER_METRICS}
    metrics = {name: (value, units[name]) for name, value in values.items()}
    notes = {name: f"-> {moves}" for name, _, _, moves in LAYER_METRICS}
    notes["kernels.apply_bytes"] += " (computed: calls * N^2 * 8, not measured traffic)"
    notes["trace.overhead_pct"] = (f"traced {traced.study_total('wall_s'):.6g} s vs "
                                   f"untraced {untraced.study_total():.6g} s per study")
    return metrics, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS

    pristine = bench_trace.namespace_snapshot()
    if not bench_trace.snapshot_matches(pristine):
        print("perfbench: nlch is already wrapped before the run", file=sys.stderr)
        return 2
    env = environment(seed)
    print(f"env {json.dumps(env, sort_keys=True)}")
    if any(b["threads"] not in (None, BLAS_THREADS) for b in env["blas_threads"]):
        print(f"perfbench: BLAS does not run {BLAS_THREADS} thread(s): {env['blas_threads']}",
              file=sys.stderr)
        return 2

    workdir = OUT_DIR / f"work_{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    measure = measure_traced if trace else measure_untraced
    try:
        metrics, notes = measure(name, WORKLOADS[name], seed, seconds, workdir, ledger, pristine)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics is None:
        print("perfbench: some operation never passed, so no metrics", file=sys.stderr)
        metrics = {}

    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"ops {ledger.attempted}  failed {ledger.failed}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:30s} {value:>16.6g} {unit:12s} {notes.get(key, '')}")
    correct = ledger.failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result_{name}_{seed}_{int(trace)}.json").write_text(
        json.dumps({"workload": name, "env": env, **result}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=WORKLOAD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {name} ran longer than {WORKLOAD_TIMEOUT_S} s", file=sys.stderr)
            return 2
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode == 2 or not lines:
            print(f"perfbench: {name} could not run", file=sys.stderr)
            return 2
        res = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, metric in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
