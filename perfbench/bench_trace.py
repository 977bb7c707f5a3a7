"""
Outside-in layer tracing for the benchmark.

The benchmark never edits the package.  For a traced run it replaces each
layer's entry points with span-recording wrappers, in every ``nlch`` module
namespace that binds them (the package re-exports names, and modules import
each other with ``from .grid import div_flux``), and in the class
dictionaries for methods.  ``restore`` puts every original back, and
``namespace_snapshot``/``snapshot_matches`` prove that untraced runs see the
unmodified package.

A span is (name id, parent span index, start, end); spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
from array import array
import statistics
import sys
import time
from pathlib import Path

import numpy as np

MARK = "__perfbench_span__"


def _eq_probe(args, res):
    return {"equilibrium.sweeps": res.iterations,
            "equilibrium.converged": int(res.converged)}


def _clamp_probe(args, res):
    return {"timestepper.clamp_events": res[0].clamp_events}


def _bytes_probe(args, res):
    return {"io.bytes_written": Path(args[0]).stat().st_size}


# (span name, owner, attribute, result probe).  A string owner is a module
# whose function is wrapped wherever an nlch module binds it; a class owner
# has its method replaced in the class dictionary.
def layer_targets():
    import nlch
    return [
        ("kernels.assemble", "nlch.kernels", "assemble_kernel", None),
        ("kernels.constants", "nlch.kernels", "kernel_constants", None),
        ("kernels.apply", nlch.KernelOp, "convolve", None),
        ("grid.div_flux", "nlch.grid", "div_flux", None),
        ("grid.laplacian", "nlch.grid", "laplacian_neumann", None),
        ("model.reaction", "nlch.model", "reaction_eval", None),
        ("solvers.solve", nlch.SpdNeumannSolver, "solve", None),
        ("solvers.dctn", "nlch.solvers", "dctn", None),
        ("solvers.idctn", "nlch.solvers", "idctn", None),
        ("timestepper.run", "nlch.timestepper", "run", _clamp_probe),
        ("timestepper.step", "nlch.timestepper", "step", None),
        ("diagnostics.sample", nlch.TrajectoryRecord, "sample", None),
        ("diagnostics.energy", "nlch.diagnostics", "energy", None),
        ("tangent.dimension_bound", "nlch.tangent", "dimension_bound", None),
        ("tangent.step", "nlch.tangent", "tangent_step", None),
        ("tangent.qr", nlch.TangentFrame, "orthonormalize", None),
        ("tangent.trace_form", "nlch.tangent", "trace_form", None),
        ("equilibrium.solve", "nlch.equilibrium", "solve_equilibrium", _eq_probe),
        ("equilibrium.residual", "nlch.equilibrium", "equilibrium_residual", None),
        ("io.write", "nlch.io", "write_field", _bytes_probe),
        ("io.read", "nlch.io", "read_field", None),
    ]


def _nlch_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "nlch" or name.startswith("nlch."))]


def _traced_classes():
    return [owner for _, owner, _, _ in layer_targets() if isinstance(owner, type)]


def namespace_snapshot() -> dict:
    """Every binding in every loaded nlch module and traced class."""
    snap = {}
    for m in _nlch_modules():
        for key, value in vars(m).items():
            snap[(m.__name__, key)] = value
    for cls in _traced_classes():
        for key, value in vars(cls).items():
            snap[(cls.__qualname__, key)] = value
    return snap


def snapshot_matches(snap: dict) -> bool:
    """True when every binding is the very object recorded in ``snap`` and
    none of them is a tracing wrapper."""
    now = namespace_snapshot()
    return (now.keys() == snap.keys()
            and all(now[k] is snap[k] for k in snap)
            and not any(hasattr(v, MARK) for v in now.values()))


class Tracer:
    """Span recorder that installs and removes the layer wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: list[tuple[int, dict]] = []
        self._stack = [-1]
        self._targets: list = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, probe):
        nid = len(self.names)
        self.names.append(name)
        # parallel typed arrays: no per-span object for the garbage collector
        # to traverse, which would make long traces quadratic
        name_id, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_id.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if probe is not None:
                counters.append((idx, probe(args, out)))
            return out

        setattr(traced, MARK, name)
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def install(self) -> None:
        """Bind every wrapper in place of its original; wrappers are built
        once, so span name ids stay stable across installs."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        if not self._targets:
            for name, owner, attr, probe in layer_targets():
                orig = vars(owner)[attr] if isinstance(owner, type) else \
                    getattr(importlib.import_module(owner), attr)
                self._targets.append((owner, attr, orig, self._wrap(name, orig, probe)))
        modules = _nlch_modules()
        for owner, attr, orig, wrapper in self._targets:
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, orig))
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, orig))

    def restore(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def save(self, path, op_bounds: list[tuple[str, int, int]]) -> None:
        """Write all spans, in index order, plus the op each range belongs to."""
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end),
                 op_names=np.array([b[0] for b in op_bounds]),
                 op_ranges=np.array([b[1:] for b in op_bounds], dtype=np.int64).reshape(-1, 2))

    def layer_totals(self, lo: int, hi: int) -> dict[str, float]:
        """Raw per-layer sums over the spans with index in [lo, hi)."""
        names, name_id, parents = self.names, self.name_id, self.parent
        dur: dict[str, float] = {}
        calls: dict[str, int] = {}
        step_children = 0.0
        matvecs = 0
        base_run = 0.0
        for i in range(lo, hi):
            name = names[name_id[i]]
            parent = parents[i]
            d = self.end[i] - self.start[i]
            dur[name] = dur.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                continue
            pname = names[name_id[parent]]
            if pname == "timestepper.step":
                step_children += d
            elif pname == "solvers.solve" and name == "grid.laplacian":
                matvecs += 1
            elif pname == "tangent.dimension_bound" and name == "timestepper.run":
                base_run += d
        out = {
            "kernels.assemble_s": dur.get("kernels.assemble", 0.0),
            "kernels.constants_s": dur.get("kernels.constants", 0.0),
            "kernels.apply_s": dur.get("kernels.apply", 0.0),
            "kernels.apply_calls": calls.get("kernels.apply", 0),
            "grid.div_flux_s": dur.get("grid.div_flux", 0.0),
            "grid.div_flux_calls": calls.get("grid.div_flux", 0),
            "grid.laplacian_s": dur.get("grid.laplacian", 0.0),
            "grid.laplacian_calls": calls.get("grid.laplacian", 0),
            "model.reaction_s": dur.get("model.reaction", 0.0),
            "model.reaction_calls": calls.get("model.reaction", 0),
            "solvers.solve_s": dur.get("solvers.solve", 0.0),
            "solvers.solve_calls": calls.get("solvers.solve", 0),
            "solvers.matvecs": matvecs,
            "solvers.dct_s": dur.get("solvers.dctn", 0.0) + dur.get("solvers.idctn", 0.0),
            "timestepper.step_s": dur.get("timestepper.step", 0.0),
            "timestepper.step_calls": calls.get("timestepper.step", 0),
            "timestepper.step_self_s": dur.get("timestepper.step", 0.0) - step_children,
            "timestepper.clamp_events": 0,
            "diagnostics.sample_s": dur.get("diagnostics.sample", 0.0),
            "diagnostics.sample_calls": calls.get("diagnostics.sample", 0),
            "diagnostics.energy_s": dur.get("diagnostics.energy", 0.0),
            "tangent.step_s": dur.get("tangent.step", 0.0),
            "tangent.step_calls": calls.get("tangent.step", 0),
            "tangent.qr_s": dur.get("tangent.qr", 0.0),
            "tangent.qr_calls": calls.get("tangent.qr", 0),
            "tangent.trace_form_s": dur.get("tangent.trace_form", 0.0),
            "tangent.base_run_s": base_run,
            "equilibrium.solve_s": dur.get("equilibrium.solve", 0.0),
            "equilibrium.solves": calls.get("equilibrium.solve", 0),
            "equilibrium.sweeps": 0,
            "equilibrium.converged": 0,
            "equilibrium.residual_checks": calls.get("equilibrium.residual", 0),
            "io.write_s": dur.get("io.write", 0.0),
            "io.read_s": dur.get("io.read", 0.0),
            "io.bytes_written": 0,
            "trace.spans": hi - lo,
        }
        for idx, counts in self.counters:
            if lo <= idx < hi:
                for key, value in counts.items():
                    out[key] += value
        return out


# name, unit, better, the end-to-end metric and workloads it should move
LAYER_METRICS = [
    ("kernels.eval_s", "s", "lower", "setup_s on field_2d"),
    ("kernels.constants_s", "s", "lower", "setup_s on field_2d"),
    ("kernels.apply_s", "s", "lower", "solve_s on field_2d; no move on suite_1d"),
    ("kernels.apply_calls", "count", "lower", "solve_s on field_2d; no move on suite_1d"),
    ("kernels.apply_bytes", "B_computed", "lower", "solve_s on field_2d; no move on suite_1d"),
    ("kernels.matrix_mb", "MB", "lower", "peak_rss_mb on field_2d"),
    ("grid.div_flux_s", "s", "lower", "solve_s on suite_1d, tangent_scan_1d"),
    ("grid.div_flux_calls", "count", "lower", "solve_s on suite_1d, tangent_scan_1d"),
    ("grid.laplacian_s", "s", "lower", "solve_s on suite_1d, tangent_scan_1d"),
    ("grid.laplacian_calls", "count", "lower", "solve_s on suite_1d, tangent_scan_1d"),
    ("model.reaction_s", "s", "lower", "solve_s on suite_1d"),
    ("model.reaction_calls", "count", "lower", "solve_s on suite_1d"),
    ("solvers.solve_s", "s", "lower", "solve_s on suite_1d, tangent_scan_1d, equilibria_1d"),
    ("solvers.solve_calls", "count", "lower", "solve_s on suite_1d, tangent_scan_1d, equilibria_1d"),
    ("solvers.matvecs_per_solve", "matvec/solve", "lower",
     "solve_s on suite_1d, tangent_scan_1d, equilibria_1d"),
    ("solvers.dct_s", "s", "lower", "solve_s on suite_1d, tangent_scan_1d, equilibria_1d"),
    ("timestepper.step_s", "s", "lower", "solve_s on suite_1d, field_2d"),
    ("timestepper.step_calls", "count", "lower", "solve_s on suite_1d, field_2d"),
    ("timestepper.step_self_s", "s", "lower", "solve_s on suite_1d, field_2d"),
    ("timestepper.clamp_events", "count", "lower", "solve_s on suite_1d, field_2d"),
    ("diagnostics.sample_s", "s", "lower", "solve_s on field_2d"),
    ("diagnostics.sample_calls", "count", "lower", "solve_s on field_2d"),
    ("diagnostics.energy_s", "s", "lower", "solve_s on field_2d"),
    ("tangent.step_s", "s", "lower", "solve_s on tangent_scan_1d"),
    ("tangent.step_calls", "count", "lower", "solve_s on tangent_scan_1d"),
    ("tangent.qr_s", "s", "lower", "solve_s on tangent_scan_1d"),
    ("tangent.qr_calls", "count", "lower", "solve_s on tangent_scan_1d"),
    ("tangent.trace_form_s", "s", "lower", "solve_s on tangent_scan_1d"),
    ("tangent.base_run_s", "s", "lower", "solve_s on tangent_scan_1d"),
    ("equilibrium.solve_s", "s", "lower", "solve_s on equilibria_1d"),
    ("equilibrium.sweeps", "count", "lower", "solve_s on equilibria_1d"),
    ("equilibrium.converged_ratio", "ratio", "higher", "solve_s on equilibria_1d"),
    ("equilibrium.residual_checks", "count", "lower", "solve_s on equilibria_1d"),
    ("io.write_s", "s", "lower", "solve_s on field_2d"),
    ("io.read_s", "s", "lower", "solve_s on field_2d"),
    ("io.bytes_written", "B", "lower", "solve_s on field_2d"),
    ("trace.overhead_pct", "%", "lower", "none: traced minus untraced study time"),
    ("trace.spans", "count", "lower", "none: spans recorded per study"),
]

COUNT_METRICS = [name for name, unit, _, _ in LAYER_METRICS
                 if unit in ("count", "B", "B_computed", "matvec/solve", "ratio", "MB")]


class OpSamples:
    """Repetitions of a study's operations.

    Ops that share a cost class do the same work on different data (the
    seeds of one reaction and kernel, say), so a time is estimated from the
    median over the whole class; counts are summed per op, exactly.
    """

    def __init__(self, classes: list[str]):
        self.classes = classes
        self.samples: list[list] = [[] for _ in classes]

    def add(self, op_index: int, value) -> None:
        self.samples[op_index].append(value)

    def fewest_per_class(self) -> int:
        return min(sum(len(self.samples[j]) for j, c in enumerate(self.classes) if c == cls)
                   for cls in self.classes)

    def study_total(self, key=None, pooled: bool = True) -> float:
        """Sum over the study's ops of each op's median sample, taken over
        the op's whole cost class when ``pooled``."""
        total = 0.0
        for k, cls in enumerate(self.classes):
            pool = [j for j, c in enumerate(self.classes) if c == cls] if pooled else [k]
            reps = [r for j in pool for r in self.samples[j]]
            total += statistics.median(reps if key is None else [r[key] for r in reps])
        return total


def layer_metrics(setup: dict, study: OpSamples, untraced: OpSamples,
                  num_nodes: int, matrix_bytes: int) -> dict[str, float]:
    """Per-study layer metrics from the traced set-up and traced op samples."""
    keys = study.samples[0][0].keys()
    tot = {k: study.study_total(k, pooled=k.endswith("_s")) for k in keys}
    base = untraced.study_total()
    traced = study.study_total("wall_s")
    solves = tot["solvers.solve_calls"]
    eq_solves = tot["equilibrium.solves"]
    out = dict(tot)
    out.update({
        "kernels.eval_s": setup["kernels.assemble_s"] - setup["kernels.constants_s"],
        "kernels.constants_s": setup["kernels.constants_s"],
        "kernels.apply_bytes": tot["kernels.apply_calls"] * num_nodes * num_nodes * 8,
        "kernels.matrix_mb": matrix_bytes / 1e6,
        "solvers.matvecs_per_solve": tot["solvers.matvecs"] / solves if solves else 0.0,
        "equilibrium.converged_ratio":
            tot["equilibrium.converged"] / eq_solves if eq_solves else 0.0,
        "trace.overhead_pct": 100.0 * (traced - base) / base,
    })
    return {name: out[name] for name, *_ in LAYER_METRICS}
