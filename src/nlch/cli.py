"""
Configuration-driven entry point.

Configs are flat ``section.key = value`` lines with ``#`` comments; unknown
keys are rejected with their line number (silent misconfiguration is the
dominant failure mode of config-driven solvers).  Each choice key has one
table of names, which builds the object and against which ``parse_config``
checks the name.  Commands: run, pair, equilibrium, remainder, trace.  Every
output directory receives report.txt with the fully resolved config (where
``--seed s`` shows as init.seed = s, init2.seed = s + 1), the kernel
constants, and the command's results, so any run can be reproduced exactly.
Bad values and unreadable dumps exit 2, never with a traceback.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import diagnostics
from .equilibrium import multistart_equilibria
from .grid import Grid, build_grid, neumann_mode
from .io import read_field, write_field
from .kernels import (KernelOp, assemble_kernel, gaussian_kernel, kernel_constants,
                      mollifier_kernel, newton_kernel, zero_kernel)
from .model import (
    ReactionSpec,
    balanced_cubic_reaction,
    bertozzi_reaction,
    logistic_reaction,
    oono_reaction,
    zero_reaction,
)
from .solvers import SolverError
from .tangent import DimensionScan, dimension_bound, remainder_order
from .timestepper import BOUND_TOL, SolverConfig, _trajectory, record

CSV_HEADER = "t,mass,min_u,max_u,l2_norm,h1_seminorm,energy,clamp_events"


# -- value types: each converts a config string, or raises ValueError -------------

def _count(val: str) -> int:
    """An int >= 0 (seeds, counts)."""
    if (n := int(val)) < 0:
        raise ValueError
    return n


def _floats(val: str) -> tuple[float, ...]:
    """Comma-separated finite floats; the empty string is the empty list."""
    vals = tuple(float(v) for v in val.split(",")) if val else ()
    if not np.isfinite(vals).all():
        raise ValueError
    return vals


_NEEDS = {str: "str", int: "int", float: "float", _count: "non-negative int",
          _floats: "comma-separated list of finite floats"}


def _convert(name: str, typ: Callable[[str], object], val: str):
    """``typ(val)``, or a ValueError naming the key or option and what its value needs."""
    try:
        return typ(val)
    except ValueError:
        raise ValueError(f"{name} needs a {_NEEDS[typ]}, got {val!r}") from None


# the keys of an initial datum section -> (type, default); init2 unsets kind
# and draws from seed 1
_DATUM = {"kind": (str, "constant"), "value": (float, 0.5), "amplitude": (float, 0.1),
          "mode": (int, 1), "lo": (float, 0.0), "hi": (float, 1.0), "seed": (_count, 0),
          "path": (str, "")}

# key -> (type, default)
_SCHEMA: dict[str, tuple[Callable[[str], object], object]] = {
    "grid.dim": (int, 1),
    "grid.n": (int, 256),
    "grid.length": (float, 1.0),
    "kernel.family": (str, "gaussian"),
    "kernel.c": (float, 1.0),
    "kernel.lam": (float, 1.0),
    "kernel.hcut": (float, 0.25),
    "kernel.kd": (float, 1.0),
    "reaction.preset": (str, "none"),
    "reaction.alpha": (float, 1.0),
    "reaction.beta": (float, 1.0),
    "reaction.h": (float, 0.5),
    "reaction.sigma": (float, 1.0),
    "reaction.scale": (float, 1.0),
    "solver.dt": (float, 0.01),
    "solver.t_end": (float, 1.0),
    "solver.record_every": (int, 1),
    **{f"init.{k}": v for k, v in _DATUM.items()},
    **{f"init2.{k}": v for k, v in (_DATUM | {"kind": (str, ""), "seed": (_count, 1)}).items()},
    "output.directory": (str, "nlch_out"),
    "output.snapshot_every": (_count, 0),
    "equilibrium.seed_values": (_floats, ()),
    "equilibrium.random_seeds": (_count, 0),
    "remainder.eps_list": (_floats, (1e-2, 3e-3, 1e-3, 3e-4)),
    "remainder.t": (float, 0.5),
    "remainder.mode": (int, 1),
    "trace.n_max": (int, 10),
    "trace.t": (float, 3.0),
    "trace.ortho_every": (int, 10),
    "trace.transient": (float, 1.0),
    "trace.samples": (int, 3),
}


def echo(cfg: dict) -> str:
    """The configuration as config lines that parse back to it, sorted by key."""
    return "\n".join(f"{k} = {_fmt_value(v)}" for k, v in sorted(cfg.items()))


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, tuple):
        return ",".join(map(_fmt_value, v))
    return str(v)


def parse_config(text: str) -> dict:
    """Parse and validate config text into a value for every key of the
    schema; unknown or malformed keys are errors."""
    values = dict((k, d) for k, (_, d) in _SCHEMA.items())
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        values[key] = _convert(f"line {lineno}: key {key!r}", _SCHEMA[key][0], val)
    # a key's default is always admitted: "" leaves init2.kind unset
    for key, table in _CHOICES.items():
        if values[key] != _SCHEMA[key][1] and values[key] not in table:
            raise ValueError(f"unknown {key}: {values[key]!r} (one of {', '.join(table)})")
    return values


# -- scenario construction: one table per choice key ------------------------------

_KERNELS = {
    "gaussian": lambda cfg: gaussian_kernel(cfg["kernel.c"], cfg["kernel.lam"]),
    "mollifier": lambda cfg: mollifier_kernel(cfg["kernel.c"], cfg["kernel.hcut"]),
    "newton": lambda cfg: newton_kernel(cfg["kernel.kd"]),
    "zero": lambda cfg: zero_kernel(),
}

_REACTIONS = {
    "logistic": lambda cfg, grid: logistic_reaction(grid, cfg["reaction.alpha"]),
    "bertozzi": lambda cfg, grid: bertozzi_reaction(grid, cfg["reaction.beta"],
                                                    cfg["reaction.h"]),
    "oono": lambda cfg, grid: oono_reaction(grid, cfg["reaction.sigma"]),
    "balanced_cubic": lambda cfg, grid: balanced_cubic_reaction(grid, cfg["reaction.scale"]),
    "none": lambda cfg, grid: zero_reaction(grid),
}


def _random_datum(cfg: dict, grid: Grid, section: str, seed: int) -> np.ndarray:
    """Node values uniform on [<section>.lo, <section>.hi], drawn from ``seed``."""
    lo, hi = cfg[f"{section}.lo"], cfg[f"{section}.hi"]
    # false for a nan or infinite bound and for an overflowing width
    if not 0.0 <= hi - lo < np.inf:
        raise ValueError(f"{section}.lo = {lo:g} and {section}.hi = {hi:g} must be finite, "
                         f"with {section}.lo <= {section}.hi")
    return np.random.default_rng(seed).uniform(lo, hi, grid.num_nodes)


def _dump_datum(cfg: dict, grid: Grid, section: str) -> np.ndarray:
    """The field of the NLCH dump at <section>.path, which must fit the grid."""
    path = cfg[f"{section}.path"]
    if not path:
        raise ValueError(f"{section}.path is not set ({section}.kind = file)")
    try:
        fgrid, u0, _ = read_field(path)
    except OSError as exc:
        raise ValueError(f"{section}.path {path!r} cannot be read: {exc.strerror}") from None
    if fgrid != grid:
        raise ValueError(f"{section}.path field does not match the configured grid")
    return u0


def _cosine_mode(cfg: dict, grid: Grid, key: str) -> np.ndarray:
    """The Neumann cosine mode of index cfg[key] along every axis of the grid."""
    try:
        return neumann_mode(grid, (cfg[key],) * grid.dim)
    except ValueError as exc:
        raise ValueError(f"{key} = {cfg[key]}: {exc}") from None


_INITIALS = {
    "constant": lambda cfg, grid, s: np.full(grid.num_nodes, float(cfg[f"{s}.value"])),
    "cosine": lambda cfg, grid, s: cfg[f"{s}.value"] + cfg[f"{s}.amplitude"] * _cosine_mode(
        cfg, grid, f"{s}.mode"),
    "random": lambda cfg, grid, s: _random_datum(cfg, grid, s, cfg[f"{s}.seed"]),
    "file": _dump_datum,
}


# the keys whose values a constant or cosine datum is computed from; a random
# datum checks its bounds as it is drawn, and a dump its nodes as it is read
_FORMULA_KEYS = {"constant": ("value",), "cosine": ("value", "amplitude")}


def build_initial(cfg: dict, grid: Grid, section: str = "init") -> np.ndarray:
    """The initial datum of ``section`` (init or init2), built by its kind;
    a non-finite entry is an error that names the section's keys."""
    kind = cfg[f"{section}.kind"]
    with np.errstate(over="ignore", invalid="ignore"):
        u0 = _INITIALS[kind](cfg, grid, section)
    if not np.isfinite(u0).all():
        keys = " and ".join(f"{section}.{k} = {cfg[f'{section}.{k}']:g}"
                            for k in _FORMULA_KEYS[kind])
        raise ValueError(f"{keys} must give a finite datum")
    return u0


@dataclass
class Scenario:
    op: KernelOp
    spec: ReactionSpec
    solver_cfg: SolverConfig
    u0: np.ndarray
    u0_second: np.ndarray | None = None


def build_scenario(cfg: dict, command: str = "run") -> Scenario:
    """The scenario a configuration describes, its solver run for the length
    of the command's key in ``_RUN_LENGTHS`` (one step for a command that
    takes none); a bad length, or an array too large to allocate, is a
    ValueError that names the keys which set it."""
    grid = build_grid(cfg["grid.dim"], cfg["grid.n"], cfg["grid.length"])
    solver = SolverConfig(dt=cfg["solver.dt"], t_end=cfg["solver.dt"],
                          record_every=cfg["solver.record_every"])
    if key := _RUN_LENGTHS.get(command):
        try:
            solver = replace(solver, t_end=cfg[key])
        except ValueError as exc:
            raise ValueError(f"{key} = {cfg[key]}: {exc}") from None
    try:
        return Scenario(
            op=assemble_kernel(_KERNELS[cfg["kernel.family"]](cfg), grid),
            spec=_REACTIONS[cfg["reaction.preset"]](cfg, grid),
            solver_cfg=solver,
            u0=build_initial(cfg, grid, "init"),
            u0_second=build_initial(cfg, grid, "init2") if cfg["init2.kind"] else None,
        )
    except MemoryError as exc:
        raise ValueError(f"grid.dim = {grid.dim}, grid.n = {grid.n}: {exc}") from None


# -- output writers -------------------------------------------------------------

def _write_csv(path: Path, header: str, columns) -> None:
    """One row per entry of the columns: integers as they are, floats with 17
    significant digits, so that every value reads back exactly."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(str(v) if isinstance(v, np.integer) else format(float(v), ".17g")
                              for v in row) + "\n")


def _trailing_rate(times, values) -> str:
    """Fitted exponential rate over the trailing half, or the floor report."""
    window = (0.5 * (times[0] + times[-1]), times[-1])
    try:
        rate, r2 = diagnostics.fit_exponential_rate(times, values, window)
        return f"rate = {rate:.6g} (r^2 = {r2:.6f}) on window [{window[0]:g}, {window[1]:g}]"
    except ValueError as exc:
        return f"not fitted: {exc}"


class Report:
    def __init__(self):
        self.lines: list[str] = []
        self.failures: list[str] = []

    def add(self, text: str = "") -> None:
        self.lines.append(text)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.add(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        if not ok:
            self.failures.append(name)

    def write(self, path: Path) -> None:
        path.write_text("\n".join(self.lines) + "\n")


def execute(cfg: dict, out_dir, command: str,
            seed_override: int | None = None) -> int:
    """Run a command, write series/snapshots/report, return the exit status.

    ``seed_override`` s runs a copy of ``cfg`` with init.seed = s and
    init2.seed = s + 1; the echoed configuration records both.  A failure
    before the command (the scenario, the kernel constants) is reported as
    a configuration error and one inside it as an abort, both with status
    2, and so is an array too large to allocate in either phase; every
    report ends with its ``warning: <message>`` lines and the resolved
    configuration.
    """
    if command not in _COMMANDS:
        raise ValueError(f"unknown command: {command!r}")
    cfg = dict(cfg)
    if seed_override is not None:
        cfg.update({"init.seed": seed_override, "init2.seed": seed_override + 1})
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {str(out)!r}: {exc.strerror}") from None

    report = Report()
    report.add(f"nlch {command}")
    report.add()
    failure = "configuration error"
    # the filters stay as they are, so a warning turned into an error escapes
    with warnings.catch_warnings(record=True) as caught:
        try:
            scen = build_scenario(cfg, command)
            r2, rinf, k2 = kernel_constants(scen.op)
            report.add(f"seed = {cfg['init.seed']}")
            report.add(f"kernel constants: r2_est = {r2:.6g}, rinf_est = {rinf:.6g}, "
                       f"k2_sup = {k2:.6g}")
            if scen.op.spec.family == "newton":
                report.add(f"newton constant kd = {scen.op.spec.kd:.6g}")
            report.add()
            failure = "aborted"
            _COMMANDS[command](cfg, scen, out, report)
            status = 1 if report.failures else 0
        except (SolverError, ValueError, MemoryError) as exc:
            report.add(f"{failure}: {exc}")
            status = 2
    for w in caught:
        report.add(f"warning: {w.message}")

    report.add()
    report.add("resolved configuration:")
    report.add(echo(cfg))
    report.write(out / "report.txt")
    return status


def _snapshots(states, out: Path, grid: Grid, every: int):
    """Pass a state stream through, writing u_<k>.nlch every ``every`` steps (0: none)."""
    for state in states:
        if every and state.step_count % every == 0:
            write_field(out / f"u_{state.step_count:06d}.nlch", grid, state.u, state.t)
        yield state


def _report_trajectory(refs, cfg: dict, scen: Scenario, out: Path, report: Report) -> dict:
    """Record the first datum's trajectory against ``refs`` (see ``record``)
    as it is stepped, writing its snapshots, series.csv and u_final.nlch;
    report its invariant checks and return the record's series."""
    states = _snapshots(_trajectory(scen.u0, scen.spec, scen.op, scen.solver_cfg), out,
                        scen.op.grid, cfg["output.snapshot_every"])
    state, rec = record(states, refs, scen.spec, scen.op, scen.solver_cfg)
    arrays = rec.as_arrays()
    _write_csv(out / "series.csv", CSV_HEADER, [arrays[c] for c in CSV_HEADER.split(",")])
    write_field(out / "u_final.nlch", scen.op.grid, state.u, state.t)

    report.add(f"steps = {state.step_count}, t_end = {state.t:g}, "
               f"clamp events = {state.clamp_events}")
    report.add(f"final mass = {arrays['mass'][-1]:.12g}")
    lo, hi = float(np.min(arrays["min_u"])), float(np.max(arrays["max_u"]))
    report.check("phase bounds", lo >= -BOUND_TOL and hi <= 1.0 + BOUND_TOL,
                 f"min u = {lo:.3e}, max u = {hi:.6f}")
    resid = diagnostics.mass_balance_residual(rec)
    report.check("mass identity", resid <= 1e-12, f"per-step residual = {resid:.3e}")
    if scen.spec.lipschitz_s == 0.0:
        d_energy = np.diff(arrays["energy"])
        report.check("energy monotone (g = 0)", bool(np.all(d_energy <= 1e-10)),
                     f"max energy increment = {np.max(d_energy):.3e}")
    grad_tail = arrays["h1_seminorm"][arrays["t"] >= 1.0]
    if grad_tail.size:
        report.add(f"gradient norm bound for t >= 1: {np.max(grad_tail):.6g}")
    report.add(f"l2 norm decay: {_trailing_rate(arrays['t'], arrays['l2_norm'])}")
    return arrays


def _cmd_run(cfg: dict, scen: Scenario, out: Path, report: Report) -> None:
    _report_trajectory(repeat(None), cfg, scen, out, report)


def _cmd_pair(cfg: dict, scen: Scenario, out: Path, report: Report) -> None:
    """Run's report for the first datum against the second's states, then the pair's distance."""
    if scen.u0_second is None:
        raise ValueError("pair command needs an init2 section")
    # the record steps' times k dt are known before the first step.  The first
    # quarter is a transient (fast modes of the initial difference die first);
    # linearity is judged on the remainder, and any two points lie on a line
    solver = scen.solver_cfg
    times = np.array([k * solver.dt for k in range(solver.n_steps + 1)
                      if solver.is_record_step(k)])
    sel = times >= times[0] + 0.25 * (times[-1] - times[0])
    if (kept := np.count_nonzero(sel)) < 3:
        raise ValueError(f"{kept} recorded distances after the first "
                         "quarter, need >= 3 to judge linearity: raise solver.t_end or "
                         "lower solver.record_every")
    second = (s.u for s in _trajectory(scen.u0_second, scen.spec, scen.op, solver))
    dist = _report_trajectory(second, cfg, scen, out, report)["dist_to_ref"]
    _write_csv(out / "pair_distance.csv", "t,distance", [times, dist])
    report.add(f"initial distance = {dist[0]:.6g}, final distance = {dist[-1]:.6g}")
    if np.all(dist > 0):
        slope = diagnostics._fit_line(times, np.log(dist))[0]
        report.add(f"fitted continuous-dependence constant C = {slope:.6g} per unit time")
        frac = diagnostics.linear_fit_residual_fraction(times[sel], np.log(dist[sel]))
        report.check("no super-exponential growth (post-transient)", frac <= 0.10,
                     f"linear-fit residual fraction = {frac:.3f}")
        report.add(f"distance decay: {_trailing_rate(times, dist)}")
    else:
        report.add("distance hit zero; trajectories coincide")


def _cmd_equilibrium(cfg: dict, scen: Scenario, out: Path, report: Report) -> None:
    seeds = ([np.full(scen.op.grid.num_nodes, v) for v in cfg["equilibrium.seed_values"]]
             + [_random_datum(cfg, scen.op.grid, "init", cfg["init.seed"] + k)
                for k in range(cfg["equilibrium.random_seeds"])]) or [scen.u0]

    results = multistart_equilibria(seeds, scen.spec, scen.op)
    report.add(f"seeds = {len(seeds)}, distinct converged equilibria = {len(results)}")
    report.check("some seed converged", bool(results),
                 f"{len(results)} distinct converged equilibria from {len(seeds)} seeds")
    for i, res in enumerate(results):
        write_field(out / f"equilibrium_{i:02d}.nlch", scen.op.grid, res.u, 0.0)
        report.check(
            f"equilibrium {i} certified",
            res.certified and float(np.min(res.u)) >= -BOUND_TOL
            and float(np.max(res.u)) <= 1.0 + BOUND_TOL,
            f"residual = {res.residual:.3e}, mass = {np.mean(res.u):.6g}, "
            f"iterations = {res.iterations}, mass defect = {res.mass_defect:.3e}",
        )


def _cmd_remainder(cfg: dict, scen: Scenario, out: Path, report: Report) -> None:
    mode = cfg["remainder.mode"]
    direction = _cosine_mode(cfg, scen.op.grid, "remainder.mode")
    study = remainder_order(scen.u0, direction, cfg["remainder.eps_list"], scen.spec, scen.op,
                            scen.solver_cfg, t=scen.solver_cfg.t_end)
    report.add(f"tangent remainder study at t = {cfg['remainder.t']:g}, "
               f"direction = cosine mode {mode}")
    for e, r in zip(study.eps, study.remainders):
        report.add(f"  eps = {e:.3e}   remainder = {r:.6e}")
    for e in study.skipped:
        report.add(f"  eps = {e:.3e}   skipped: u0 + eps d leaves [0, 1]")
    report.add(f"result: {study}")


def _cmd_trace(cfg: dict, scen: Scenario, out: Path, report: Report) -> None:
    samples = cfg["trace.samples"]
    if samples < 1:
        raise ValueError(f"trace.samples must be >= 1, got {samples}")
    t, transient = scen.solver_cfg.t_end, cfg["trace.transient"]
    if not transient <= t:      # a NaN transient too
        raise ValueError(f"trace.t = {t} must be >= trace.transient = {transient}")
    curves = []
    for k in range(samples):
        u0 = scen.u0 if k == 0 else _random_datum(cfg, scen.op.grid, "init", cfg["init.seed"] + k)
        curves.append(dimension_bound(u0, cfg["trace.n_max"], t, scen.spec,
                                      scen.op, scen.solver_cfg,
                                      ortho_every=cfg["trace.ortho_every"],
                                      transient=transient).traces)
    # the trace functional is a sup over initial data: take the worst case
    scan = DimensionScan(traces=np.max(np.vstack(curves), axis=0))
    report.add(f"trace curve over {samples} initial data (worst case), "
               f"time average on [{cfg['trace.transient']:g}, {cfg['trace.t']:g}]:")
    for n, trace in enumerate(scan.traces, start=1):
        report.add(f"  n = {n:3d}   trace = {trace:.6e}")
    report.add(f"attractor dimension bound N = {scan.describe()}")
    report.check("trace negativity reached", scan.n_bound is not None,
                 f"N = {scan.describe()}")


_COMMANDS = {"run": _cmd_run, "pair": _cmd_pair, "equilibrium": _cmd_equilibrium,
             "remainder": _cmd_remainder, "trace": _cmd_trace}
COMMANDS = tuple(_COMMANDS)
# the key of the run length each command steps for; equilibrium takes no step
_RUN_LENGTHS = {"run": "solver.t_end", "pair": "solver.t_end", "remainder": "remainder.t",
                "trace": "trace.t"}

# parse_config admits a name for a choice key only if it is in the key's table
_CHOICES = {"kernel.family": _KERNELS, "reaction.preset": _REACTIONS,
            "init.kind": _INITIALS, "init2.kind": _INITIALS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlch",
        description="Nonlocal Cahn-Hilliard laboratory: runs, pair studies, "
                    "equilibria, tangent remainders, and trace-based dimension bounds.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a section.key = value config file")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument("--seed", default=None,
                        help="set init.seed = SEED and init2.seed = SEED + 1 (SEED >= 0)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_text())
        seed = None if args.seed is None else _convert("--seed", _count, args.seed)
        out_dir = args.out if args.out is not None else cfg["output.directory"]
        status = execute(cfg, out_dir, command=args.command, seed_override=seed)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if status != 0:
        print(f"nlch {args.command}: finished with status {status} "
              f"(see {Path(out_dir) / 'report.txt'})", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
