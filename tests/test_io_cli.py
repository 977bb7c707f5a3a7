"""Field dumps, config parsing, and the command-line entry point."""

import dataclasses
import os
import re
import resource
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import nlch.cli
import nlch.model
import nlch.timestepper
from nlch.cli import (COMMANDS, CSV_HEADER, Scenario, build_scenario, echo, execute, main,
                      parse_config)
from nlch.grid import build_grid, l2_norm
from nlch.io import read_field, write_field
from nlch.kernels import assemble_kernel, gaussian_kernel
from nlch.model import zero_reaction
from nlch.timestepper import SolverConfig, _trajectory

OONO_CFG = """
# oono decay scenario
grid.dim = 1
grid.n = 64
grid.length = 1.0
kernel.family = gaussian
kernel.c = 0.05
kernel.lam = 0.05
reaction.preset = oono
reaction.sigma = 1.0
solver.dt = 0.01
solver.t_end = 2.0
solver.record_every = 5
init.kind = random
init.lo = 0.2
init.hi = 0.8
init.seed = 7
"""

INIT2 = """
init2.kind = random
init2.lo = 0.2
init2.hi = 0.8
init2.seed = 8
"""

EQ_CFG = """
grid.dim = 1
grid.n = 64
kernel.family = gaussian
kernel.c = 0.05
kernel.lam = 0.05
reaction.preset = balanced_cubic
equilibrium.seed_values = 0,0.5,1
"""



def _dump_bytes(dim: int, n: int, length: float, values: np.ndarray, t: float = 0.0) -> bytes:
    """The bytes of an NLCH dump with this header, whether or not it makes a grid."""
    header = struct.pack(f"<4sBI{dim}I{dim}dd", b"NLCH", 1, dim, *[n] * dim, *[length] * dim, t)
    return header + np.asarray(values, dtype="<f8").tobytes()


class TestFieldDumps:
    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_roundtrip_bit_exact(self, tmp_path, dim, n):
        grid = build_grid(dim, n, 2.5)
        rng = np.random.default_rng(0)
        values = rng.standard_normal(grid.num_nodes)
        path = tmp_path / "field.nlch"
        write_field(path, grid, values, 1.25)
        g2, v2, t2 = read_field(path)
        assert (g2.dim, g2.n, g2.length) == (dim, n, 2.5)
        assert t2 == 1.25
        assert np.array_equal(v2, values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.nlch"
        path.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            read_field(path)

    def test_header_layout(self, tmp_path):
        grid = build_grid(1, 16, 1.0)
        path = tmp_path / "field.nlch"
        write_field(path, grid, np.zeros(16), 0.0)
        raw = path.read_bytes()
        assert raw == _dump_bytes(1, 16, 1.0, np.zeros(16))
        assert raw[:4] == b"NLCH"
        assert raw[4] == 1
        assert int.from_bytes(raw[5:9], "little") == 1      # dim
        assert int.from_bytes(raw[9:13], "little") == 16    # n
        assert len(raw) == 13 + 8 + 8 + 16 * 8

    @pytest.mark.parametrize("dim", [1, 2])
    def test_every_truncation_rejected(self, tmp_path, dim):
        grid = build_grid(dim, 8, 1.0)
        path = tmp_path / "field.nlch"
        write_field(path, grid, np.linspace(0.0, 1.0, grid.num_nodes), 0.5)
        raw = path.read_bytes()
        cut = tmp_path / "cut.nlch"
        for k in range(len(raw)):
            cut.write_bytes(raw[:k])
            with pytest.raises(ValueError, match="truncated"):
                read_field(cut)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_trailing_bytes_rejected(self, tmp_path, dim):
        grid = build_grid(dim, 8, 1.0)
        path = tmp_path / "field.nlch"
        write_field(path, grid, np.zeros(grid.num_nodes), 0.0)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="1 trailing bytes"):
            read_field(path)

    @pytest.mark.parametrize("length", [1e-300, 1e300, float("nan")])
    def test_length_outside_the_grid_range_rejected(self, tmp_path, length):
        dump = tmp_path / "far.nlch"
        dump.write_bytes(_dump_bytes(1, 16, length, np.full(16, 0.5)))
        with pytest.raises(ValueError, match="^" + re.escape(f"{dump}: length must be "
                                                             "positive and finite")):
            read_field(dump)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_node_rejected_naming_it(self, tmp_path, value):
        values = np.full(16, 0.5)
        values[[3, 7]] = value          # the first bad node is named
        dump = tmp_path / "bad.nlch"
        dump.write_bytes(_dump_bytes(1, 16, 1.0, values))
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{dump}: node 3 holds the non-finite value {value}") + "$"):
            read_field(dump)

    def test_coarse_header_rejected_naming_the_dump(self, tmp_path):
        dump = tmp_path / "coarse.nlch"
        dump.write_bytes(_dump_bytes(1, 4, 1.0, np.full(4, 0.5)))
        with pytest.raises(ValueError, match="^" + re.escape(f"{dump}: n must be >= 8 per "
                                                             "axis, got 4")):
            read_field(dump)

    def test_corrupt_dimension_rejected(self, tmp_path):
        path = tmp_path / "field.nlch"
        write_field(path, build_grid(1, 8, 1.0), np.zeros(8), 0.0)
        raw = bytearray(path.read_bytes())
        raw[5:9] = (3).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unsupported dump dimension 3"):
            read_field(path)

    def test_another_version_rejected(self, tmp_path):
        path = tmp_path / "field.nlch"
        raw = bytearray(_dump_bytes(1, 8, 1.0, np.zeros(8)))
        raw[4] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: unsupported dump "
                                                             "version 2") + "$"):
            read_field(path)

    def test_anisotropic_header_rejected(self, tmp_path):
        path = tmp_path / "field.nlch"
        path.write_bytes(struct.pack("<4sBI2I2dd", b"NLCH", 1, 2, 8, 9, 1.0, 1.0, 0.0)
                         + bytes(8 * 72))
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: anisotropic dumps are "
                                                             "not supported") + "$"):
            read_field(path)


@st.composite
def _dumps(draw):
    """A grid, finite node values (subnormals and -0.0 included) and a time."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(8, 40 if dim == 1 else 12))
    length = draw(st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    grid = build_grid(dim, n, length)
    values = draw(hnp.arrays(float, grid.num_nodes,
                             elements=st.floats(allow_nan=False, allow_infinity=False)))
    t = draw(st.floats(allow_nan=False, allow_infinity=False))
    return grid, values, t


class TestFieldDumpProperties:
    @settings(max_examples=50, deadline=None)
    @given(case=_dumps(), data=st.data())
    def test_round_trip_is_bit_exact_and_any_other_length_is_rejected(
            self, tmp_path_factory, case, data):
        grid, values, t = case
        path = tmp_path_factory.mktemp("dump") / "field.nlch"
        write_field(path, grid, values, t)
        g2, v2, t2 = read_field(path)
        assert g2 == grid
        assert v2.tobytes() == values.tobytes()
        assert struct.pack("<d", t2) == struct.pack("<d", t)

        raw = path.read_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="truncated"):
            read_field(path)
        extra = data.draw(st.binary(min_size=1, max_size=24), label="extra")
        path.write_bytes(raw + extra)
        with pytest.raises(ValueError, match=f"{len(extra)} trailing bytes"):
            read_field(path)


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(OONO_CFG)
        assert cfg["output.directory"] == "nlch_out"
        assert cfg["reaction.sigma"] == 1.0
        assert cfg["init.seed"] == 7

    def test_negative_dt_rejected(self):
        # SolverConfig is the one place that validates dt
        with pytest.raises(ValueError, match="dt must be positive"):
            build_scenario(parse_config("solver.dt = -0.1"))

    def test_unknown_key_named_with_line(self):
        with pytest.raises(ValueError, match=r"line 2: unknown key 'solvr.dt'"):
            parse_config("grid.n = 64\nsolvr.dt = 0.1")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config("grid.n = 64\ngrid.n = 32")

    def test_type_errors_are_descriptive(self):
        with pytest.raises(ValueError, match="needs a int"):
            parse_config("grid.n = 64.5")
        with pytest.raises(ValueError, match="needs a float"):
            parse_config("solver.dt = fast")

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("this is not a config")

    def test_list_keys_are_parsed_once_and_echoed_like_float_keys(self):
        cfg = parse_config("equilibrium.seed_values = 0.3, 0.6\nremainder.eps_list = 1e-2,3e-3")
        assert cfg["equilibrium.seed_values"] == (0.3, 0.6)
        assert cfg["remainder.eps_list"] == (1e-2, 3e-3)
        lines = echo(cfg).split("\n")
        assert "equilibrium.seed_values = 0.29999999999999999,0.59999999999999998" in lines
        assert "remainder.eps_list = 0.01,0.0030000000000000001" in lines
        assert parse_config(echo(cfg)) == cfg
        empty = parse_config("")
        assert empty["equilibrium.seed_values"] == ()
        assert parse_config(echo(empty)) == empty

    def test_scenario_holds_one_grid(self):
        # its grid is op.grid; the reaction's is held to it by check_datum
        assert "grid" not in [f.name for f in dataclasses.fields(Scenario)]
        scen = build_scenario(parse_config(OONO_CFG))
        assert scen.spec.grid == scen.op.grid

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# full-line comment\n\ngrid.n = 32  # trailing\n")
        assert cfg["grid.n"] == 32

    def test_scenario_construction(self):
        cfg = parse_config(OONO_CFG)
        scen = build_scenario(cfg)
        assert scen.op.grid.n == 64
        assert scen.spec.name == "oono"
        assert 0.2 <= scen.u0.min() and scen.u0.max() <= 0.8


class TestExecuteRun:
    def test_outputs_and_exit_status(self, tmp_path):
        cfg = parse_config(OONO_CFG)
        status = execute(cfg, tmp_path / "out", command="run")
        assert status == 0
        series = (tmp_path / "out" / "series.csv").read_text().splitlines()
        assert series[0] == CSV_HEADER
        assert len(series) > 10
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "seed = 7" in report
        assert "kernel constants" in report
        assert "resolved configuration:" in report
        assert "[PASS] phase bounds" in report
        assert "[PASS] mass identity" in report
        assert (tmp_path / "out" / "u_final.nlch").exists()

    def test_mass_column_monotone_for_oono(self, tmp_path):
        cfg = parse_config(OONO_CFG)
        execute(cfg, tmp_path / "out", command="run")
        rows = (tmp_path / "out" / "series.csv").read_text().splitlines()[1:]
        masses = [float(r.split(",")[1]) for r in rows]
        assert all(b < a for a, b in zip(masses, masses[1:]))

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(OONO_CFG)
        execute(cfg, tmp_path / "a", command="run")
        execute(cfg, tmp_path / "b", command="run")
        assert (tmp_path / "a" / "series.csv").read_bytes() == \
               (tmp_path / "b" / "series.csv").read_bytes()

    def test_seed_override_changes_series(self, tmp_path):
        cfg = parse_config(OONO_CFG)
        execute(cfg, tmp_path / "a", command="run")
        execute(cfg, tmp_path / "b", command="run", seed_override=99)
        assert (tmp_path / "a" / "series.csv").read_bytes() != \
               (tmp_path / "b" / "series.csv").read_bytes()
        assert "seed = 99" in (tmp_path / "b" / "report.txt").read_text()

    def test_seed_override_leaves_config_unchanged(self, tmp_path):
        cfg = parse_config(OONO_CFG + INIT2)
        before = dict(cfg)
        assert execute(cfg, tmp_path / "b", command="run", seed_override=99) == 0
        assert cfg == before
        report = (tmp_path / "b" / "report.txt").read_text()
        assert "\nseed = 99\n" in report
        assert "\ninit.seed = 99\n" in report and "\ninit2.seed = 100\n" in report

    def test_snapshots_written(self, tmp_path):
        cfg = parse_config(OONO_CFG + "output.snapshot_every = 100\n")
        execute(cfg, tmp_path / "out", command="run")
        dumps = sorted((tmp_path / "out").glob("u_0*.nlch"))
        assert len(dumps) == 3   # steps 0, 100, 200

    def test_snapshots_are_the_trajectory_states(self, tmp_path):
        """A cadence that does not divide the 200 steps: u_<k>.nlch holds the
        state after k steps, with its time stamp, for k = 0, 7, ..., 196."""
        cfg = parse_config(OONO_CFG + "output.snapshot_every = 7\n")
        assert execute(cfg, tmp_path / "out", command="run") == 0
        scen = build_scenario(cfg)
        want = tmp_path / "want"
        want.mkdir()
        for state in _trajectory(scen.u0, scen.spec, scen.op, scen.solver_cfg):
            if state.step_count % 7 == 0:
                write_field(want / f"u_{state.step_count:06d}.nlch", scen.op.grid, state.u,
                            state.t)
        got = sorted(p.name for p in (tmp_path / "out").glob("u_[0-9]*.nlch"))
        assert got == sorted(p.name for p in want.iterdir())
        assert got[0] == "u_000000.nlch" and got[-1] == "u_000196.nlch" and len(got) == 29
        for name in got:
            assert (tmp_path / "out" / name).read_bytes() == (want / name).read_bytes()
            assert read_field(tmp_path / "out" / name)[2] == int(name[2:8]) * 0.01

    def test_snapshot_memory_does_not_grow_with_the_run(self, tmp_path):
        """Snapshots are written as the run steps: a 2000-step n = 256 run with
        snapshots peaks within 1 MB of the same run without them and of a
        200-step run (holding every state would take 4 MB)."""
        base = OONO_CFG.replace("grid.n = 64", "grid.n = 256")
        execute(parse_config(base.replace("solver.t_end = 2.0", "solver.t_end = 0.1")),
                tmp_path / "warm", command="run")
        peaks = {}
        for t_end, every in ((2.0, 0), (20.0, 0), (20.0, 500)):
            text = base.replace("solver.t_end = 2.0", f"solver.t_end = {t_end}")
            tracemalloc.start()
            try:
                cfg = parse_config(text + f"output.snapshot_every = {every}\n")
                assert execute(cfg, tmp_path / f"s{t_end}_{every}", command="run") == 0
                peaks[t_end, every] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(list((tmp_path / "s20.0_500").glob("u_[0-9]*.nlch"))) == 5
        assert peaks[20.0, 500] - peaks[20.0, 0] <= 1 << 20, peaks
        assert peaks[20.0, 500] - peaks[2.0, 0] <= 1 << 20, peaks

    def test_file_initial_condition(self, tmp_path):
        grid = build_grid(1, 64, 1.0)
        u = np.linspace(0.2, 0.8, grid.num_nodes)
        dump = tmp_path / "ic.nlch"
        write_field(dump, grid, u, 0.0)
        cfg_text = OONO_CFG.replace("init.kind = random", "init.kind = file") + \
            f"init.path = {dump}\n"
        cfg = parse_config(cfg_text)
        scen = build_scenario(cfg)
        assert np.array_equal(scen.u0, u)


class TestOtherCommands:
    def test_equilibrium_command(self, tmp_path):
        status = execute(parse_config(EQ_CFG), tmp_path / "eq", command="equilibrium")
        assert status == 0
        report = (tmp_path / "eq" / "report.txt").read_text()
        assert "distinct converged equilibria = 3" in report
        # each constant seed is a fixed point: one sweep
        assert report.count("iterations = 1,") == 3
        assert len(list((tmp_path / "eq").glob("equilibrium_*.nlch"))) == 3

    def test_pair_command(self, tmp_path):
        status = execute(parse_config(OONO_CFG + INIT2), tmp_path / "p", command="pair")
        assert status == 0
        lines = (tmp_path / "p" / "pair_distance.csv").read_text().splitlines()
        assert lines[0] == "t,distance"
        report = (tmp_path / "p" / "report.txt").read_text()
        assert "continuous-dependence constant" in report

    def test_pair_series_is_the_run_of_the_first_datum(self, tmp_path):
        cfg = parse_config(OONO_CFG + INIT2)
        assert execute(cfg, tmp_path / "p", command="pair") == 0
        assert execute(cfg, tmp_path / "r", command="run") == 0
        assert (tmp_path / "p" / "series.csv").read_bytes() == \
               (tmp_path / "r" / "series.csv").read_bytes()
        # the distance is taken at the recorded times, from the initial data on
        t, dist = np.loadtxt(tmp_path / "p" / "pair_distance.csv", delimiter=",",
                             skiprows=1).T
        assert np.array_equal(t, np.loadtxt(tmp_path / "r" / "series.csv", delimiter=",",
                                            skiprows=1)[:, 0])
        scen = build_scenario(cfg)
        assert dist[0] == l2_norm(scen.op.grid, scen.u0 - scen.u0_second)

    def test_pair_reports_through_the_run_path(self, tmp_path):
        """pair writes run's snapshots and final state of the first datum,
        byte for byte, and reports run's checks before its distance."""
        cfg = parse_config(OONO_CFG + INIT2 + "output.snapshot_every = 50\n")
        assert execute(cfg, tmp_path / "p", command="pair") == 0
        assert execute(cfg, tmp_path / "r", command="run") == 0
        dumps = sorted(p.name for p in (tmp_path / "r").glob("u_*.nlch"))
        assert "u_final.nlch" in dumps and "u_000050.nlch" in dumps and len(dumps) == 6
        assert sorted(p.name for p in (tmp_path / "p").glob("u_*.nlch")) == dumps
        for name in dumps:
            assert (tmp_path / "p" / name).read_bytes() == (tmp_path / "r" / name).read_bytes()
        run_report = (tmp_path / "r" / "report.txt").read_text()
        checks = run_report.split("\n\n")[2]
        assert "[PASS] phase bounds" in checks and "[PASS] mass identity" in checks
        assert (tmp_path / "p" / "report.txt").read_text().split("\n\n")[2].startswith(
            checks + "\ninitial distance = ")

    def test_pair_steps_each_trajectory_once(self, tmp_path, monkeypatch):
        calls = []
        step = nlch.timestepper.step

        def counted(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(nlch.timestepper, "step", counted)
        cfg = parse_config(OONO_CFG + INIT2)
        assert execute(cfg, tmp_path / "p", command="pair") == 0
        assert len(calls) == 2 * 200   # two trajectories of t_end / dt steps

    def test_remainder_command_linear_preset(self, tmp_path):
        text = """
grid.dim = 1
grid.n = 64
kernel.family = zero
reaction.preset = oono
reaction.sigma = 1.0
solver.dt = 0.01
init.kind = random
init.lo = 0.3
init.hi = 0.7
init.seed = 2
remainder.t = 0.5
"""
        status = execute(parse_config(text), tmp_path / "r", command="remainder")
        assert status == 0
        assert "remainder exact" in (tmp_path / "r" / "report.txt").read_text()

    def test_trace_command(self, tmp_path):
        text = """
grid.dim = 1
grid.n = 64
kernel.family = gaussian
kernel.c = 0.02
kernel.lam = 0.05
reaction.preset = oono
reaction.sigma = 1.0
solver.dt = 0.01
solver.t_end = 2.0
solver.record_every = 10
init.kind = random
init.lo = 0.2
init.hi = 0.8
init.seed = 3
trace.n_max = 3
trace.t = 2.0
trace.samples = 2
"""
        status = execute(parse_config(text), tmp_path / "t", command="trace")
        assert status == 0
        report = (tmp_path / "t" / "report.txt").read_text()
        assert "attractor dimension bound N = 1" in report
        assert "n =   1" in report and "n =   3" in report

    def test_an_unknown_command_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=re.escape("unknown command: 'jump'")):
            execute(parse_config(OONO_CFG), tmp_path / "o", command="jump")
        assert not (tmp_path / "o").exists()


# -- the command-line contract: one row per case ---------------------------------

@dataclasses.dataclass(frozen=True)
class Case:
    """``nlch <command>`` on ``base`` with ``edits`` (each line replaces the
    base's line of its key) and then ``argv`` ends with ``status`` and writes
    ``text`` to report.txt (``where = "report"``) or as its one stderr line
    (``"stderr"``).  The output directory then holds exactly ``files``, or is
    no directory (None).  "{tmp}" in ``edits``, ``text`` and ``argv`` is the
    case's directory, which holds the files of ``INPUTS``.  ``warning`` is the
    report's one ``warning:`` line, "" for none (checked in a process)."""
    id: str
    command: str
    edits: str
    status: int
    text: str
    where: str = "report"
    files: tuple[str, ...] | None = ("report.txt",)
    argv: tuple[str, ...] = ()
    base: str = OONO_CFG
    warning: str = ""


RUN_FILES = ("report.txt", "series.csv", "u_final.nlch")
NO_REPORT = {"where": "stderr", "files": None}


def _half(dim: int, n: int, length: float = 1.0) -> bytes:
    """The dump of the field 0.5 under this header."""
    return _dump_bytes(dim, n, length, np.full(n ** dim, 0.5))


# the files of every case's directory: dumps the grid or the reader rejects,
# and a file where an output directory is asked for
INPUTS = {
    "header.nlch": _half(1, 64)[:20], "payload.nlch": _half(1, 64)[:-8],
    "coarse.nlch": _half(1, 4),
    "nan.nlch": _dump_bytes(1, 16, 1.0, np.r_[np.full(3, 0.5), np.nan, np.full(12, 0.5)]),
    "n32.nlch": _half(1, 32), "dim2.nlch": _half(2, 8), "length2.nlch": _half(1, 64, 2.0),
    "taken": b"not a directory",
}

CASES = [
    Case("run_and_exit_codes", "run", "", 0, "[PASS] mass identity", files=RUN_FILES),
    Case("bad_config", "run", "solver.dt = -1", 2,
         "configuration error: dt must be positive and finite", base=""),
    Case("infinite_t_end", "run", "solver.t_end = inf", 2, "t_end must be positive and finite"),
    # the dump ends inside its header, or inside its payload
    *[Case(f"truncated_init_file-{keep}", "run",
           f"init.kind = file\ninit.path = {{tmp}}/{name}", 2, "truncated dump")
      for keep, name in [(20, "header.nlch"), (-8, "payload.nlch")]],
    Case("init_file_the_grid_rejects", "run", "init.kind = file\ninit.path = {tmp}/coarse.nlch",
         2, "configuration error: {tmp}/coarse.nlch: n must be >= 8 per axis, got 4\n"),
    *[Case(f"init_file_with_a_nan_node-{command}", command,
           "grid.n = 16\ninit.kind = file\ninit.path = {tmp}/nan.nlch", 2,
           "configuration error: {tmp}/nan.nlch: node 3 holds the non-finite value nan\n")
      for command in ["run", "equilibrium", "trace", "remainder"]],
    *[Case(f"bad_study_time-{id_}", command,
           f"grid.n = 16\ntrace.n_max = 2\ntrace.samples = 1\n{line}", 2, text)
      for id_, command, line, text in [
          ("trace", "trace", "trace.t = 1e5",
           "aborted: trace.t = 100000.0: t_end / dt = 1e+07 must round to a number of steps "
           ">= 1 and <= MAX_STEPS = 1000000\n"),
          ("remainder", "remainder", "remainder.t = 0",
           "aborted: remainder.t = 0.0: t_end must be positive and finite, got 0.0\n"),
          # a run's length is a whole number of steps of solver.dt = 0.01
          *[(f"{key}_off_the_step_grid", key, f"{key}.t = 2.004",
             f"aborted: {key}.t = 2.004: t_end = 2.004 is not a whole number of steps of "
             "dt = 0.01: 200 steps reach t = 2\n") for key in ("trace", "remainder")],
          # checked before the first step, in the keys' names, not dimension_bound's T
          ("trace_before_transient", "trace", "trace.t = 0.5",
           "aborted: trace.t = 0.5 must be >= trace.transient = 1.0\n")]],
    Case("horizon_off_the_step_grid", "run", "grid.n = 16\nsolver.dt = 0.3\nsolver.t_end = 1.0",
         2, "configuration error: t_end = 1.0 is not a whole number of steps of dt = 0.3: "
         "3 steps reach t = 0.9\n"),
    # 3 steps of dt = 0.3 end at t = 0.8999999999999999, and the final state is
    # still in the window [0.9, 0.9]: it is read on the step grid.  A trace
    # runs for trace.t, so the default solver.t_end = 1.0, off the grid, is
    # no error of its own; nor is it one of remainder's, nor of equilibrium's,
    # which takes no step
    Case("trace_ending_at_its_transient", "trace", "grid.n = 32\nkernel.c = 0.05\n"
         "kernel.lam = 0.05\nreaction.preset = oono\nsolver.dt = 0.3\ntrace.t = 0.9\n"
         "trace.transient = 0.9\ntrace.n_max = 2\ntrace.samples = 1\ninit.kind = random", 0,
         "time average on [0.9, 0.9]:\n  n =   1   trace = ", base=""),
    *[Case(f"own_horizon_with_solver_t_end_off_the_step_grid-{command}", command,
           f"grid.n = 16\nsolver.dt = 0.3\nsolver.t_end = 1.0\n{line}", 0, text, files=files,
           base=base)
      for command, line, text, files, base in [
          ("remainder", "remainder.t = 0.9", "tangent remainder study at t = 0.9, ",
           ("report.txt",), OONO_CFG),
          ("equilibrium", "equilibrium.seed_values = 0.5", "distinct converged equilibria = 1",
           ("equilibrium_00.nlch", "report.txt"), EQ_CFG)]],
    Case("zero_ortho_every", "trace", "trace.ortho_every = 0\ntrace.n_max = 2", 2,
         "ortho_every must be >= 1"),
    Case("empty_trace_scan-samples", "trace", "trace.samples = 0", 2,
         "trace.samples must be >= 1"),
    Case("empty_trace_scan-n_max", "trace", "trace.n_max = 0", 2, "n_max must be >= 1"),
    # 30 directions swept once per 50 steps: the weakest stretch factors fall
    # more than 14 decades below the leading one before the first sweep
    Case("frame_rank_loss", "trace", "solver.record_every = 50\ntrace.ortho_every = 50\n"
         "trace.n_max = 30\ntrace.t = 2\ntrace.samples = 1", 2,
         "aborted: tangent frame lost rank (stretching factors span more than 14 decades "
         "between sweeps; tighten ortho_every)"),
    # a kernel this strong overshoots [0, 1] by O(dt) on 128 nodes
    Case("bound_excursion", "run", "grid.n = 128\nkernel.c = 160\nkernel.lam = 0.05\n"
         "reaction.preset = none\nsolver.dt = 1e-5\nsolver.t_end = 0.01\n"
         "solver.record_every = 100\ninit.kind = random\ninit.lo = 0.1\ninit.hi = 0.9\n"
         "init.seed = 1", 2, "aborted: phase bound excursion 1.751e-06 exceeds 1e-08 at "
         "t = 0.00762: reduce dt or refine the grid\n", base=""),
    # two distances fit a line exactly, and one makes the fit singular; the
    # count is known before the first step, so nothing is stepped or written
    *[Case(f"pair_too_short_to_judge_linearity-{id_}", "pair",
           f"grid.n = 16\nsolver.t_end = {t_end}\nsolver.record_every = 1", 2,
           f"aborted: {kept} recorded distances after the first quarter, need >= 3 to judge "
           "linearity: raise solver.t_end or lower solver.record_every", base=OONO_CFG + INIT2)
      for id_, t_end, kept in [("two_dt", 0.02, 2), ("one_dt", 0.01, 1)]],
    Case("pair_command_needs_init2", "pair", "", 2,
         "aborted: pair command needs an init2 section"),
    # the second datum is checked before the first state is drawn, so no
    # snapshot of the first is written either
    *[Case(f"pair_with_a_datum_outside_the_bounds-{s}", "pair",
           f"output.snapshot_every = 1\n{s}.kind = constant\n{s}.value = 1.5", 2,
           "aborted: initial datum must satisfy 0 <= u <= 1 nodewise", base=OONO_CFG + INIT2)
      for s in ["init", "init2"]],
    # repeats would pass as three points, and two distinct ones fit any line
    *[Case(f"remainder_repeated_eps-{eps}", "remainder", "grid.n = 64\nkernel.c = 20\n"
           "kernel.lam = 0.05\nreaction.preset = logistic\ninit.kind = cosine\n"
           f"remainder.mode = 2\nremainder.t = 0.5\nremainder.eps_list = {eps}", 2,
           "aborted: eps values must be distinct, 0.01 is repeated", base="")
      for eps in ["1e-2,1e-2,1e-2", "1e-2,1e-2,1e-3"]],
    Case("run_without_reaction_checks_the_energy", "run", "reaction.preset = none", 0,
         "[PASS] energy monotone (g = 0): max energy increment = ", files=RUN_FILES),
    Case("pair_of_equal_data_coincides", "pair", "init2.seed = 7", 0,
         "initial distance = 0, final distance = 0\ndistance hit zero; trajectories coincide",
         files=("pair_distance.csv", *RUN_FILES), base=OONO_CFG + INIT2),
    # the datum is constant: the bad bound is met only by the command's random seeds
    Case("equilibrium_random_seed_with_nan_bound", "equilibrium",
         "equilibrium.random_seeds = 1\ninit.lo = nan", 2,
         "aborted: init.lo = nan and init.hi = 1 must be finite", base=EQ_CFG),
    # the square of the amplitude underflows: the r2 solve runs on B / s^2
    Case("tiny_kernel_amplitude_runs", "run", "kernel.c = 1e-200", 0, "r2_est = 1.30456e-200,",
         files=RUN_FILES),
    *[Case(f"command_ends_without_a_runtime_warning-{id_}", command, lines, status, text,
           files=files)
      for id_, command, lines, status, text, files in [
          # the residual norm of an early iterate overflows; u = 0 is certified
          ("equilibrium_sigma_huge", "equilibrium",
           "grid.n = 16\nreaction.sigma = 1e308\nequilibrium.seed_values = 0.3", 0,
           "[PASS] equilibrium 0 certified: residual = 0.000e+00, mass = 0,",
           ("equilibrium_00.nlch", "report.txt")),
          # the sweep's pseudo-time 1 / (sigma + EQ_SHIFT) is subnormal
          ("equilibrium_tau_subnormal", "equilibrium", "grid.n = 16\nreaction.sigma = 1.7e308",
           0,
           "[PASS] equilibrium 0 certified: residual = 0.000e+00, mass = 0,",
           ("equilibrium_00.nlch", "report.txt")),
          # eps = 0.1 and 0.03 lift the datum above 1: two points lie on any line
          ("remainder_two_eps", "remainder",
           "grid.n = 64\nreaction.preset = logistic\ninit.kind = constant\ninit.value = 0.995\n"
           "remainder.eps_list = 1e-1,3e-2,1e-3,3e-4\nremainder.t = 0.2", 2,
           "aborted: fewer than 3 usable eps values after bound checks", ("report.txt",)),
          # a subnormal width: the 2D Toeplitz factor's quotient overflows to -inf
          ("gaussian_2d_lam_subnormal", "run", "grid.n = 16\ngrid.dim = 2\nkernel.lam = 1e-310",
           0,
           "[PASS] mass identity", RUN_FILES)]],
    # parse_config rejects it, before any output exists
    Case("negative_random_seeds", "equilibrium", "equilibrium.random_seeds = -3", 2,
         "key 'equilibrium.random_seeds' needs a non-negative int, got '-3'", base=EQ_CFG,
         **NO_REPORT),
    Case("seed_outside_phase_bounds", "equilibrium", "equilibrium.seed_values = 1.5,-2", 2,
         "equilibrium seed must satisfy 0 <= u <= 1", base=EQ_CFG),
    # the datum is out of range, not the perturbations u0 + eps d: the one
    # failure line is the datum's, not a count of usable eps values
    Case("remainder_datum_outside_the_bounds", "remainder", "init.kind = constant\n"
         "init.value = 1.2", 2, "aborted: initial datum must satisfy 0 <= u <= 1 nodewise, got "
         "values in [1.2, 1.2]"),
    # at n = 16, mode 20 would be mode 12 negated, mode -3 mode 3, and mode 16
    # a round-off vector that the remainder study normalizes
    Case("mode_outside_the_grid-init", "run", "grid.n = 16\ninit.kind = cosine\ninit.mode = 20",
         2, "configuration error: init.mode = 20: mode indices (20,) must lie in [0, 15]"),
    Case("mode_outside_the_grid-init2", "pair",
         "grid.n = 16\ninit2.kind = cosine\ninit2.mode = -3", 2,
         "configuration error: init2.mode = -3: mode indices (-3,) must lie in [0, 15]"),
    Case("mode_outside_the_grid-remainder", "remainder", "grid.n = 16\nremainder.mode = 16", 2,
         "aborted: remainder.mode = 16: mode indices (16,) must lie in [0, 15]"),
    *[Case(f"invalid_kernel_or_solver_value-{id_}", "run", line, 2, text)
      for id_, line, text in [
          ("lam_inf", "kernel.lam = inf", "gaussian width lam must be finite and positive"),
          ("dt_negative", "solver.dt = -0.1", "dt must be positive and finite"),
          ("dt_zero", "solver.dt = 0", "dt must be positive and finite"),
          ("t_end_negative", "solver.t_end = -1", "t_end must be positive and finite"),
          ("grid_dim_3", "grid.dim = 3",
           "configuration error: unsupported dimension: 3 (must be 1 or 2)"),
          ("grid_n_4", "grid.n = 4", "configuration error: n must be >= 8 per axis, got 4"),
          ("random_lo_nan", "init.lo = nan",
           "configuration error: init.lo = nan and init.hi = 0.8 must be finite"),
          ("random_hi_inf", "init.hi = inf",
           "configuration error: init.lo = 0.2 and init.hi = inf must be finite"),
          ("random_reversed", "init.lo = 0.9",
           "init.lo = 0.9 and init.hi = 0.8 must be finite, with init.lo <= init.hi")]],
    # a value its type rejects ends at parse time, on stderr
    Case("invalid_kernel_or_solver_value-snapshot_every_negative", "run",
         "output.snapshot_every = -1",
         2, "key 'output.snapshot_every' needs a non-negative int, got '-1'", **NO_REPORT),
    *[Case(f"malformed_list_entry-{id_}-{key}", key.split(".")[0], f"{key} = {value}", 2,
           f"key {key!r} needs a comma-separated list of finite floats, got {value!r}",
           base=EQ_CFG, **NO_REPORT)
      for key in ["equilibrium.seed_values", "remainder.eps_list"]
      for id_, value in [("empty_entry", "0.3,,0.6"), ("non_numeric", "1,x,0"),
                         ("non_finite", "0.3,nan")]],
    *[Case(f"negative_seed-{id_}", "run", line, 2, text, argv=argv, base=OONO_CFG + INIT2,
           **NO_REPORT)
      for id_, argv, line, text in [
          ("flag", ("--seed", "-3"), "", "error: --seed needs a non-negative int, got '-3'"),
          ("flag_fraction", ("--seed", "1.5"), "",
           "error: --seed needs a non-negative int, got '1.5'"),
          ("init_seed", (), "init.seed = -3", "key 'init.seed' needs a non-negative int, got '-3'"),
          ("init2_seed", (), "init2.seed = -1",
           "key 'init2.seed' needs a non-negative int, got '-1'")]],
    *[Case(f"unreadable_init_file-{id_}", "run", lines, 2, text)
      for id_, lines, text in [
          ("no_path", "init.kind = file", "init.path is not set"),
          ("directory", "init.kind = file\ninit.path = {tmp}", "cannot be read: Is a directory"),
          ("missing", "init.kind = file\ninit.path = {tmp}/absent.nlch",
           "cannot be read: No such file or directory"),
          ("init2_no_path", "init.kind = constant\ninit2.kind = file", "init2.path is not set")]],
    # the config's grid is 1D, n = 64, length 1 (8 x 8 has as many nodes)
    *[Case(f"init_file_on_another_grid-{id_}", "run",
           f"init.kind = file\ninit.path = {{tmp}}/{id_}{suffix}.nlch", 2,
           "init.path field does not match the configured grid")
      for id_, suffix in [("n", "32"), ("dim", "2"), ("length", "2")]],
    # the file "taken" is kept as it is
    *[Case(f"output_directory_not_creatable-{id_}", "run", "", 2,
           "error: cannot create output directory", argv=("--out", f"{{tmp}}/{out}"),
           **NO_REPORT)
      for id_, out in [("file", "taken"), ("under_file", "taken/sub")]],
    Case("missing_config", "run", "", 2, "No such file or directory",
         argv=("--config", "{tmp}/nope.cfg"), **NO_REPORT),
    Case("seed_flag", "run", "", 0, "seed = 123", files=RUN_FILES, argv=("--seed", "123")),
    # a key that was removed is unknown: main exits 2 naming it
    *[Case(f"removed_key-{key}", "equilibrium", f"{key} = {value}", 2, f"unknown key {key!r}",
           **NO_REPORT)
      for key, value in [("equilibrium.eps_schedule", "1,0"), ("equilibrium.damping", "0.5"),
                         ("equilibrium.max_iter", "10")]],
    # a constant or cosine datum with a non-finite node names its keys
    Case("non_finite_datum-init", "run", "init.kind = constant\ninit.value = nan", 2,
         "configuration error: init.value = nan must give a finite datum\n"),
    Case("non_finite_datum-init2", "pair", "init2.kind = cosine\ninit2.value = 1e308\n"
         "init2.amplitude = 1e308", 2, "configuration error: init2.value = 1e+308 and "
         "init2.amplitude = 1e+308 must give a finite datum\n", base=OONO_CFG + INIT2),
]

# rows whose checks read the process's own stdout and stderr: LAPACK writes to
# stdout, warnings go to stderr, and a run of 2e300 steps would not return
PROCESS_CASES = [
    *[Case(f"value_at_the_float_range-{id_}", "run", "grid.n = 16\n" + lines, 2,
           "configuration error: " + text)
      for id_, lines, text in [
          ("length_tiny", "grid.length = 1e-300",
           "length must be positive and finite, with (length / n)^2"),
          ("length_huge", "grid.length = 1e300",
           "length must be positive and finite, with (length / n)^2"),
          ("amplitude_huge", "kernel.c = 1e308", "kernel amplitude c = 1e+308 is too large"),
          ("row_sums_overflow", "kernel.c = 1e308\nkernel.lam = 1e300",
           "kernel amplitude c = 1e+308 is too large: its weights or their row sums kbar "
           "overflow"),
          ("hcut_tiny", "kernel.family = mollifier\nkernel.hcut = 1e-300",
           "mollifier cutoff hcut = 1e-300 must have hcut^2 a finite normal float"),
          ("hcut_huge", "kernel.family = mollifier\nkernel.hcut = 1e300",
           "mollifier cutoff hcut = 1e+300 must have hcut^2 a finite normal float"),
          ("dt_tiny", "solver.dt = 1e-300",
           "t_end / dt = 2e+300 must round to a number of steps")]],
    Case("warning_goes_to_the_report", "run", "grid.n = 16\ninit.kind = constant\n"
         "init.value = 0\nsolver.t_end = 0.05", 0, "steps = 5, t_end = 0.05, ", files=RUN_FILES,
         base="", warning="warning: mean(u0) = 0.0 is a pure phase and the reaction does not "
         "move mass there; the run will remain stationary"),
    # the 2D Gaussian's product of two factors of shape (2n - 1, 2n - 1)
    Case("array_too_large_to_allocate", "run", "grid.dim = 2\ngrid.n = 100000", 2,
         "configuration error: grid.dim = 2, grid.n = 100000: Unable to allocate 298. GiB for "
         "an array with shape (199999, 199999)"),
]

# the address space of a case's process: far below what the row above asks
# for, so that it fails in the process whatever the machine's overcommit policy
PROCESS_AS_BYTES = 4 << 30


def _cli_process(*args: str) -> subprocess.CompletedProcess:
    """``python -m nlch.cli *args`` in a process of its own, on the package
    under test, with its address space capped at ``PROCESS_AS_BYTES``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(nlch.cli.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (PROCESS_AS_BYTES, PROCESS_AS_BYTES))

    return subprocess.run([sys.executable, "-m", "nlch.cli", *args], env=env, preexec_fn=cap,
                          capture_output=True, text=True, timeout=60)


def _prepare(tmp_path: Path, case: Case) -> tuple[list[str], Path, str]:
    """Write the case's inputs; return its argv, its output directory and
    its expected text."""
    for name, data in INPUTS.items():
        (tmp_path / name).write_bytes(data)
    edits = case.edits.replace("{tmp}", str(tmp_path)).splitlines()
    keys = {ln.split(" = ")[0] for ln in edits}
    kept = [ln for ln in case.base.splitlines() if ln.split(" = ")[0] not in keys]
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text("\n".join(kept + edits) + "\n")
    out = tmp_path / "o"
    argv = [case.command, "--config", str(cfg_path), "--out", str(out),
            *(a.replace("{tmp}", str(tmp_path)) for a in case.argv)]
    return argv, out, case.text.replace("{tmp}", str(tmp_path))


def _listing(out: Path) -> tuple[str, ...] | None:
    return tuple(sorted(p.name for p in out.iterdir())) if out.is_dir() else None


class TestMain:
    # every warning is an error here: no row's command warns (those that do
    # run in a process of their own)
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
    def test_case(self, tmp_path, capsys, case):
        argv, out, text = _prepare(tmp_path, case)
        assert main(argv) == case.status
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if case.where == "stderr":
            assert err.startswith("error: ") and err.count("\n") == 1 and text in err
        else:
            report = (out / "report.txt").read_text()
            assert text in report
            # an exit 2 with a report names one failure there
            assert sum(ln.startswith(("configuration error:", "aborted:"))
                       for ln in report.splitlines()) == (case.status == 2)
        assert _listing(out) == case.files
        assert all((tmp_path / name).read_bytes() == data for name, data in INPUTS.items())

    @pytest.mark.parametrize("case", PROCESS_CASES, ids=lambda case: case.id)
    def test_case_in_a_process(self, tmp_path, case):
        argv, out, text = _prepare(tmp_path, case)
        proc = _cli_process(*argv)
        assert proc.returncode == case.status
        assert proc.stdout == ""
        assert proc.stderr == ("" if case.status == 0 else f"nlch {case.command}: finished with "
                               f"status {case.status} (see {out / 'report.txt'})\n")
        report = (out / "report.txt").read_text()
        assert text in report
        # execute writes the warnings it records to the report, not to stderr,
        # and every report ends with the resolved configuration
        assert report.count("warning:") == bool(case.warning)
        assert report.endswith((f"\n{case.warning}" if case.warning else "")
                               + "\n\nresolved configuration:\n"
                               + echo(parse_config((tmp_path / "case.cfg").read_text())) + "\n")
        assert _listing(out) == case.files

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_warning_filtered_as_an_error_escapes_execute(self, tmp_path, monkeypatch):
        def warn(*args):
            warnings.warn("probe", RuntimeWarning)

        monkeypatch.setitem(nlch.cli._COMMANDS, "run", warn)
        with pytest.raises(RuntimeWarning, match="probe"):
            execute(parse_config(OONO_CFG), tmp_path / "o", command="run")

    def test_cli_seed_run_reproduced_from_its_report(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(OONO_CFG + INIT2)
        first = tmp_path / "first"
        assert main(["run", "--config", str(cfg_path), "--out", str(first), "--seed", "99"]) == 0
        echo = (first / "report.txt").read_text().split("resolved configuration:\n")[1]
        echo_path = tmp_path / "echo.cfg"
        echo_path.write_text(echo)
        again = tmp_path / "again"
        assert main(["run", "--config", str(echo_path), "--out", str(again)]) == 0
        assert (again / "series.csv").read_bytes() == (first / "series.csv").read_bytes()
        plain = tmp_path / "plain"
        assert main(["run", "--config", str(cfg_path), "--out", str(plain)]) == 0
        assert (plain / "series.csv").read_bytes() != (first / "series.csv").read_bytes()

    @pytest.mark.parametrize("key", ["kernel.family", "reaction.preset", "init.kind",
                                     "init2.kind"])
    def test_unknown_choice_name_rejected_naming_the_key(self, key):
        with pytest.raises(ValueError, match=re.escape(f"unknown {key}: 'bogus'")):
            parse_config(f"{key} = bogus")

    def test_cli_equilibrium_without_converged_seed_returns_1(self, tmp_path, monkeypatch):
        monkeypatch.setattr("nlch.equilibrium.MAX_SWEEPS", 1)
        cfg_path = tmp_path / "eq.cfg"
        cfg_path.write_text(EQ_CFG.replace("seed_values = 0,0.5,1", "seed_values = 0.3"))
        out = tmp_path / "o"
        assert main(["equilibrium", "--config", str(cfg_path), "--out", str(out)]) == 1
        report = (out / "report.txt").read_text()
        assert "distinct converged equilibria = 0" in report
        assert "[FAIL] some seed converged" in report

    def test_cli_equilibrium_spinodal_seeds_keep_every_limit(self, tmp_path):
        """A random seed whose Anderson fit cannot be solved does not abort the
        run: the three constants and the seeds' limit are all reported."""
        cfg_path = tmp_path / "eq.cfg"
        cfg_path.write_text(EQ_CFG.replace("kernel.c = 0.05", "kernel.c = 80")
                            + "init.kind = random\ninit.lo = 0.05\ninit.hi = 0.95\n"
                            "init.seed = 99\nequilibrium.random_seeds = 2\n")
        out = tmp_path / "o"
        assert main(["equilibrium", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "aborted" not in report
        assert "distinct converged equilibria = 4" in report

    def test_removed_solver_keys_are_unknown(self):
        for key in ("solver.cg_tol", "solver.cg_max_iter", "solver.bound_tol",
                    "solver.clamp_policy", "equilibrium.eps_schedule", "command.kind",
                    "equilibrium.damping", "equilibrium.picard_tol",
                    "equilibrium.residual_tol", "equilibrium.dedup_tol",
                    "equilibrium.max_iter"):
            with pytest.raises(ValueError, match=f"unknown key '{key}'"):
                parse_config(f"{key} = 1")


# -- config fuzz: main ends in 0, 1 or 2 and never raises ------------------------

# a small 1D scenario that every command finishes in well under a second
FUZZ_BASE = {
    "grid.dim": "1", "grid.n": "12", "grid.length": "1.0",
    "kernel.family": "gaussian", "kernel.c": "0.05", "kernel.lam": "0.05",
    "reaction.preset": "oono", "reaction.sigma": "1.0",
    "solver.dt": "0.05", "solver.t_end": "0.2", "solver.record_every": "1",
    "init.kind": "random", "init.seed": "3", "init2.kind": "cosine",
    "equilibrium.seed_values": "0.3",
    "remainder.t": "0.1", "remainder.eps_list": "1e-2,1e-3",
    "trace.n_max": "2", "trace.t": "0.2", "trace.transient": "0.05", "trace.samples": "1",
}
# grid.n keeps its small value and the solve its cap of 20 sweeps: their
# defaults (256 nodes, 10000 sweeps) make single examples take seconds
_FUZZ_KEYS = sorted(k for k in parse_config("") if k != "grid.n")
_FUZZ_VALUES = ["0", "1", "2", "3", "-1", "8", "16", "0.5", "0.05", "1e-3", "-0.1", "1.5",
                "1e-300", "1e300", "1e308", "nan", "inf", "-inf", "", "abc", "0,0.5,1", "1,0",
                "1e-2,-1"] + \
               ["gaussian", "mollifier", "newton", "zero", "logistic", "bertozzi",
                "balanced_cubic", "none", "constant", "cosine", "random", "file"] + list(COMMANDS)
_mutations = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_FUZZ_KEYS + ["grid.m", "solver", "x.y"]),
              st.sampled_from(_FUZZ_VALUES)),
    st.tuples(st.just("drop"), st.sampled_from(sorted(set(FUZZ_BASE) - {"grid.n"})),
              st.just("")),
    st.tuples(st.just("line"), st.sampled_from(["garbage", "= 1", "grid.n", "#only"]),
              st.just("")),
)


class TestConfigFuzz:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(COMMANDS), st.lists(_mutations, min_size=1, max_size=4))
    def test_main_exits_0_1_or_2(self, command, mutations):
        values, extra = dict(FUZZ_BASE), []
        for kind, key, value in mutations:
            if kind == "set":
                values[key] = value
            elif kind == "drop":
                values.pop(key, None)
            else:
                extra.append(key)
        text = "\n".join([f"{k} = {v}" for k, v in values.items()] + extra) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "fuzz.cfg"
            cfg_path.write_text(text)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr("nlch.equilibrium.MAX_SWEEPS", 20)
                status = main([command, "--config", str(cfg_path),
                               "--out", str(Path(tmp) / "o")])
        assert status in (0, 1, 2)


_POINTWISE = ("mobility", "mobility_deriv", "potential", "reaction_eval", "reaction_deriv")


@pytest.fixture
def phase_inputs(monkeypatch):
    """Wrap the five pointwise functions of nlch.model in every nlch module
    that binds them; count the calls and record each input outside [0, 1]."""
    calls, outside = dict.fromkeys(_POINTWISE, 0), []
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "nlch"]
    for fname in _POINTWISE:
        original = getattr(nlch.model, fname)

        def checked(*args, _fname=fname, _original=original):
            # the phase value is the last argument: s, or u after the spec
            s = np.asarray(args[-1], dtype=float)
            calls[_fname] += 1
            if not ((s >= 0.0) & (s <= 1.0)).all():
                outside.append((_fname, float(np.min(s)), float(np.max(s))))
            return _original(*args)

        for module in modules:
            if getattr(module, fname, None) is original:
                monkeypatch.setattr(module, fname, checked)
    return calls, outside


class TestPhaseDomain:
    """The pointwise physics is evaluated on [0, 1] only: in every flow, each
    input that reaches it lies in the phase interval."""

    def test_command_flows_stay_in_the_phase_interval(self, tmp_path, phase_inputs):
        calls, outside = phase_inputs
        smoke = tmp_path / "smoke.cfg"
        smoke.write_text(OONO_CFG + INIT2 + "output.snapshot_every = 50\n")
        for command in COMMANDS:
            assert main([command, "--config", str(smoke), "--out", str(tmp_path / command)]) == 0
        spinodal = tmp_path / "spinodal.cfg"
        spinodal.write_text(EQ_CFG.replace("kernel.c = 0.05", "kernel.c = 80")
                            + "init.kind = random\ninit.lo = 0.05\ninit.hi = 0.95\n"
                            "init.seed = 99\nequilibrium.random_seeds = 2\n")
        assert main(["equilibrium", "--config", str(spinodal),
                     "--out", str(tmp_path / "spinodal")]) == 0
        # eps = 0.1 lifts the datum above 1 and is skipped; three are left
        near_one = tmp_path / "near_one.cfg"
        near_one.write_text(OONO_CFG.replace("reaction.preset = oono", "reaction.preset = logistic")
                            .replace("init.kind = random", "init.kind = constant")
                            + "init.value = 0.995\nremainder.eps_list = 1e-1,1e-3,3e-4,1e-4\n"
                            "remainder.t = 0.2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["remainder", "--config", str(near_one),
                         "--out", str(tmp_path / "near_one")]) == 0
        assert "  eps = 1.000e-01   skipped: u0 + eps d leaves [0, 1]\n" in \
            (tmp_path / "near_one" / "report.txt").read_text()
        assert outside == []
        assert all(calls.values()), calls

    def test_clamping_run_stays_in_the_phase_interval(self, phase_inputs):
        calls, outside = phase_inputs
        grid = build_grid(1, 64, 1.0)
        op = assemble_kernel(gaussian_kernel(0.05, 0.05), grid)
        u0 = np.where(grid.axis_coords() < 0.5, 0.0, 0.9)
        state, _ = nlch.timestepper.run(u0, zero_reaction(grid), op,
                                        SolverConfig(dt=1e-4, t_end=50e-4))
        assert state.clamp_events > 0
        assert outside == []
        assert calls["mobility"] == 50
