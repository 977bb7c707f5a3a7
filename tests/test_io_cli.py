"""Field dumps, config parsing, and the command-line entry point."""

import os
import re
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
from nlch.cli import COMMANDS, CSV_HEADER, build_scenario, echo, execute, main, parse_config
from nlch.grid import Grid, build_grid, l2_norm
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


def _cli_process(*args: str) -> subprocess.CompletedProcess:
    """``python -m nlch.cli *args`` in a process of its own, on the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(nlch.cli.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "nlch.cli", *args], env=env,
                          capture_output=True, text=True, timeout=60)


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

    @pytest.mark.parametrize("length", [1e-300, 1e300])
    def test_length_outside_the_grid_range_rejected(self, tmp_path, length):
        dump = tmp_path / "far.nlch"
        write_field(dump, Grid(dim=1, n=16, length=length, h=length / 16), np.full(16, 0.5), 0.0)
        with pytest.raises(ValueError, match="length must be positive and finite"):
            read_field(dump)

    def test_corrupt_dimension_rejected(self, tmp_path):
        path = tmp_path / "field.nlch"
        write_field(path, build_grid(1, 8, 1.0), np.zeros(8), 0.0)
        raw = bytearray(path.read_bytes())
        raw[5:9] = (3).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unsupported dump dimension 3"):
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

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# full-line comment\n\ngrid.n = 32  # trailing\n")
        assert cfg["grid.n"] == 32

    def test_scenario_construction(self):
        cfg = parse_config(OONO_CFG)
        scen = build_scenario(cfg)
        assert scen.grid.n == 64
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
                write_field(want / f"u_{state.step_count:06d}.nlch", scen.grid, state.u,
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

    def test_pair_command_needs_init2(self, tmp_path):
        status = execute(parse_config(OONO_CFG), tmp_path / "p", command="pair")
        assert status == 2
        assert "init2" in (tmp_path / "p" / "report.txt").read_text()

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
        assert dist[0] == l2_norm(scen.grid, scen.u0 - scen.u0_second)

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

    @pytest.mark.parametrize("section", ["init", "init2"])
    def test_pair_with_a_datum_outside_the_bounds_writes_only_the_report(self, tmp_path,
                                                                         section):
        # the second datum is checked before the first state is drawn, so
        # no snapshot of the first is written either
        cfg = parse_config(OONO_CFG + INIT2 + "output.snapshot_every = 1\n")
        cfg.update({f"{section}.kind": "constant", f"{section}.value": 1.5})
        out = tmp_path / "p"
        assert execute(cfg, out, command="pair") == 2
        assert [p.name for p in out.iterdir()] == ["report.txt"]
        assert "aborted: initial datum must satisfy 0 <= u0 <= 1 nodewise" in \
            (out / "report.txt").read_text()

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


class TestMain:
    def test_cli_run_and_exit_codes(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(OONO_CFG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "series.csv").exists()

    def test_cli_bad_config_returns_2(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("solver.dt = -1\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    def test_cli_infinite_t_end_returns_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "inf.cfg"
        cfg_path.write_text(OONO_CFG.replace("solver.t_end = 2.0", "solver.t_end = inf"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert "t_end must be positive and finite" in (out / "report.txt").read_text()

    @pytest.mark.parametrize("keep", [20, -8])   # inside the header, inside the payload
    def test_cli_truncated_init_file_returns_2(self, tmp_path, capsys, keep):
        dump = tmp_path / "ic.nlch"
        write_field(dump, build_grid(1, 64, 1.0), np.full(64, 0.5), 0.0)
        dump.write_bytes(dump.read_bytes()[:keep])
        cfg_path = tmp_path / "trunc.cfg"
        cfg_path.write_text(OONO_CFG.replace("init.kind = random", "init.kind = file")
                            + f"init.path = {dump}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert "truncated dump" in (out / "report.txt").read_text()

    def test_cli_zero_ortho_every_returns_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "trace.cfg"
        cfg_path.write_text(OONO_CFG + "trace.ortho_every = 0\ntrace.n_max = 2\n")
        out = tmp_path / "o"
        assert main(["trace", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert "ortho_every must be >= 1" in (out / "report.txt").read_text()

    @pytest.mark.parametrize("line,message", [("trace.samples = 0", "trace.samples must be >= 1"),
                                              ("trace.n_max = 0", "n_max must be >= 1")],
                             ids=["samples", "n_max"])
    def test_cli_empty_trace_scan_returns_2(self, tmp_path, capsys, line, message):
        cfg_path = tmp_path / "trace.cfg"
        cfg_path.write_text(OONO_CFG + line + "\n")
        out = tmp_path / "o"
        assert main(["trace", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert message in (out / "report.txt").read_text()

    def test_cli_frame_rank_loss_returns_2(self, tmp_path, capsys):
        # 30 directions swept once per 50 steps: the weakest stretch factors
        # fall more than 14 decades below the leading one before the first sweep
        cfg_path = tmp_path / "trace.cfg"
        cfg_path.write_text(OONO_CFG.replace("solver.record_every = 5", "solver.record_every = 50")
                            + "trace.ortho_every = 50\ntrace.n_max = 30\ntrace.t = 2\n"
                            "trace.samples = 1\n")
        out = tmp_path / "o"
        assert main(["trace", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        report = (out / "report.txt").read_text()
        assert "aborted: tangent frame lost rank" in report
        assert "tighten ortho_every" in report

    @pytest.mark.filterwarnings("error")
    def test_cli_bound_excursion_returns_2(self, tmp_path, capsys):
        # a kernel this strong overshoots [0, 1] by O(dt) on 128 nodes
        cfg_path = tmp_path / "stiff.cfg"
        cfg_path.write_text("grid.n = 128\nkernel.c = 160\nkernel.lam = 0.05\n"
                            "reaction.preset = none\nsolver.dt = 1e-5\nsolver.t_end = 0.01\n"
                            "solver.record_every = 100\ninit.kind = random\ninit.lo = 0.1\n"
                            "init.hi = 0.9\ninit.seed = 1\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert ("aborted: phase bound excursion 1.751e-06 exceeds 1e-08 at t = 0.00762: "
                "reduce dt or refine the grid\n") in (out / "report.txt").read_text()

    @pytest.mark.parametrize("t_end,kept", [(0.02, 2), (0.01, 1)], ids=["two_dt", "one_dt"])
    def test_cli_pair_too_short_to_judge_linearity_returns_2(self, tmp_path, capsys,
                                                             t_end, kept):
        # two distances fit a line exactly, and one makes the fit singular
        cfg_path = tmp_path / "pair.cfg"
        cfg_path.write_text(OONO_CFG.replace("grid.n = 64", "grid.n = 16")
                            .replace("solver.t_end = 2.0", f"solver.t_end = {t_end}")
                            .replace("solver.record_every = 5", "solver.record_every = 1")
                            + INIT2)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["pair", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        report = (out / "report.txt").read_text()
        assert f"aborted: {kept} recorded distances after the first quarter" in report
        assert "solver.t_end" in report and "solver.record_every" in report
        # the count is known before the first step: nothing was stepped or written
        assert sorted(p.name for p in out.iterdir()) == ["report.txt"]

    def test_cli_run_without_reaction_checks_the_energy(self, tmp_path):
        cfg_path = tmp_path / "free.cfg"
        cfg_path.write_text(OONO_CFG.replace("reaction.preset = oono", "reaction.preset = none"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert "[PASS] energy monotone (g = 0): max energy increment = " in \
            (out / "report.txt").read_text()

    def test_cli_pair_of_equal_data_coincides(self, tmp_path):
        cfg_path = tmp_path / "same.cfg"
        cfg_path.write_text(OONO_CFG + INIT2.replace("init2.seed = 8", "init2.seed = 7"))
        out = tmp_path / "o"
        assert main(["pair", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "initial distance = 0, final distance = 0" in report
        assert "distance hit zero; trajectories coincide" in report

    def test_cli_equilibrium_random_seed_with_nan_bound_returns_2(self, tmp_path, capsys):
        # the datum is constant: the bad bound is met only by the command's random seeds
        cfg_path = tmp_path / "eq.cfg"
        cfg_path.write_text(EQ_CFG + "equilibrium.random_seeds = 1\ninit.lo = nan\n")
        out = tmp_path / "o"
        assert main(["equilibrium", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert "aborted: init.lo = nan and init.hi = 1 must be finite" in \
            (out / "report.txt").read_text()

    def test_cli_tiny_kernel_amplitude_runs(self, tmp_path, capsys):
        # the square of the amplitude underflows: the r2 solve runs on B / s^2
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(OONO_CFG.replace("kernel.c = 0.05", "kernel.c = 1e-200"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert "r2_est = 1.30456e-200," in (out / "report.txt").read_text()

    @pytest.mark.parametrize("line,message", [
        ("grid.length = 1e-300", "length must be positive and finite, with (length / n)^2"),
        ("grid.length = 1e300", "length must be positive and finite, with (length / n)^2"),
        ("kernel.c = 1e308", "kernel amplitude c = 1e+308 is too large"),
        ("kernel.c = 1e308\nkernel.lam = 1e300", "kernel amplitude c = 1e+308 is too large: "
                                                 "its weights or their row sums kbar overflow"),
        ("kernel.family = mollifier\nkernel.hcut = 1e-300",
         "mollifier cutoff hcut = 1e-300 must have hcut^2 a finite normal float"),
        ("kernel.family = mollifier\nkernel.hcut = 1e300",
         "mollifier cutoff hcut = 1e+300 must have hcut^2 a finite normal float"),
        ("solver.dt = 1e-300", "t_end / dt = 2e+300 must round to a number of steps"),
    ], ids=["length_tiny", "length_huge", "amplitude_huge", "row_sums_overflow", "hcut_tiny",
            "hcut_huge", "dt_tiny"])
    def test_cli_value_at_the_float_range_returns_2(self, tmp_path, line, message):
        # a process of its own: LAPACK writes to the process's stdout, and a
        # run of 2e300 steps would not return
        keys = {ln.split(" = ")[0] for ln in line.splitlines()}
        text = "\n".join(ln for ln in OONO_CFG.replace("grid.n = 64", "grid.n = 16").splitlines()
                         if ln.split(" = ")[0] not in keys)
        cfg_path = tmp_path / "far.cfg"
        cfg_path.write_text(text + f"\n{line}\n")
        out = tmp_path / "o"
        proc = _cli_process("run", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        for marker in ("Traceback", "Warning", "DLASCL"):
            assert marker not in proc.stdout + proc.stderr
        report = (out / "report.txt").read_text()
        assert f"configuration error: {message}" in report
        # execute writes the warnings it records here, not to stderr
        assert "warning:" not in report
        # a configuration error's report ends with the resolved configuration too
        assert report.endswith("resolved configuration:\n"
                               + echo(parse_config(cfg_path.read_text())) + "\n")
        assert not (out / "series.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command,lines,status,message", [
        # the residual norm of an early iterate overflows; u = 0 is certified
        ("equilibrium", "reaction.sigma = 1e308\nequilibrium.seed_values = 0.3", 0,
         "[PASS] equilibrium 0 certified: residual = 0.000e+00, mass = 0,"),
        # eps = 0.1 and 0.03 lift the datum above 1: two points lie on any line
        ("remainder", "grid.n = 64\nreaction.preset = logistic\ninit.kind = constant\n"
         "init.value = 0.995\nremainder.eps_list = 1e-1,3e-2,1e-3,3e-4\nremainder.t = 0.2", 2,
         "aborted: fewer than 3 usable eps values after bound checks"),
    ], ids=["equilibrium_sigma_huge", "remainder_two_eps"])
    def test_cli_command_ends_without_a_runtime_warning(self, tmp_path, capsys, command, lines,
                                                       status, message):
        # a RuntimeWarning raised as an error would escape main as a traceback
        keys = {ln.split(" = ")[0] for ln in lines.splitlines()}
        base = OONO_CFG.replace("grid.n = 64", "grid.n = 16")
        text = "\n".join(ln for ln in base.splitlines() if ln.split(" = ")[0] not in keys)
        cfg_path = tmp_path / "far.cfg"
        cfg_path.write_text(text + f"\n{lines}\n")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == status
        assert "Traceback" not in capsys.readouterr().err
        assert message in (out / "report.txt").read_text()

    def test_cli_warning_goes_to_the_report(self, tmp_path):
        # a process of its own, so that stderr is what a user sees
        cfg_path = tmp_path / "pure.cfg"
        cfg_path.write_text("grid.n = 16\ninit.kind = constant\ninit.value = 0\n"
                            "solver.t_end = 0.05\n")
        out = tmp_path / "o"
        proc = _cli_process("run", "--config", str(cfg_path), "--out", str(out))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert ("\nwarning: mean(u0) = 0.0 is a pure phase and the reaction does not move mass "
                "there; the run will remain stationary\n\nresolved configuration:\n") in \
            (out / "report.txt").read_text()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_warning_filtered_as_an_error_escapes_execute(self, tmp_path, monkeypatch):
        def warn(*args):
            warnings.warn("probe", RuntimeWarning)

        monkeypatch.setitem(nlch.cli._COMMANDS, "run", warn)
        with pytest.raises(RuntimeWarning, match="probe"):
            execute(parse_config(OONO_CFG), tmp_path / "o", command="run")

    def test_cli_negative_random_seeds_returns_2(self, tmp_path, capsys):
        # parse_config rejects it, before any output exists
        cfg_path = tmp_path / "eq.cfg"
        cfg_path.write_text(EQ_CFG + "equilibrium.random_seeds = -3\n")
        out = tmp_path / "o"
        assert main(["equilibrium", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "key 'equilibrium.random_seeds' needs a non-negative int, got '-3'" in err
        assert not out.exists()

    def test_cli_seed_outside_phase_bounds_returns_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "eq.cfg"
        cfg_path.write_text(EQ_CFG.replace("seed_values = 0,0.5,1", "seed_values = 1.5,-2"))
        out = tmp_path / "o"
        assert main(["equilibrium", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        report = (out / "report.txt").read_text()
        assert "equilibrium seed must satisfy 0 <= u <= 1" in report
        assert not list(out.glob("equilibrium_*.nlch"))

    @pytest.mark.parametrize("line,message", [
        ("kernel.lam = inf", "gaussian width lam must be finite and positive"),
        ("solver.dt = -0.1", "dt must be positive and finite"),
        ("solver.dt = 0", "dt must be positive and finite"),
        ("solver.t_end = -1", "t_end must be positive and finite"),
        ("grid.dim = 3", "configuration error: unsupported dimension: 3 (must be 1 or 2)"),
        ("grid.n = 4", "configuration error: n must be >= 8 per axis, got 4"),
        ("output.snapshot_every = -1",
         "key 'output.snapshot_every' needs a non-negative int, got '-1'"),
        ("init.lo = nan", "configuration error: init.lo = nan and init.hi = 0.8 must be finite"),
        ("init.hi = inf", "configuration error: init.lo = 0.2 and init.hi = inf must be finite"),
        ("init.lo = 0.9", "init.lo = 0.9 and init.hi = 0.8 must be finite, "
                          "with init.lo <= init.hi"),
    ], ids=["lam_inf", "dt_negative", "dt_zero", "t_end_negative", "grid_dim_3", "grid_n_4",
            "snapshot_every_negative", "random_lo_nan", "random_hi_inf", "random_reversed"])
    def test_cli_invalid_kernel_or_solver_value_returns_2(self, tmp_path, capsys, line,
                                                          message):
        key = line.split(" = ")[0]
        text = "\n".join(ln for ln in OONO_CFG.splitlines() if not ln.startswith(key))
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text + f"\n{line}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # a value its type rejects ("key ... needs a ...") ends at parse time, on
        # stderr; one the scenario rejects ends in report.txt
        assert message in (err if message.startswith("key ") else
                           (out / "report.txt").read_text())
        assert not (out / "series.csv").exists()

    @pytest.mark.parametrize("key", ["equilibrium.seed_values", "remainder.eps_list"])
    @pytest.mark.parametrize("value", ["0.3,,0.6", "1,x,0", "0.3,nan"],
                             ids=["empty_entry", "non_numeric", "non_finite"])
    def test_cli_malformed_list_entry_returns_2_naming_the_key(self, tmp_path, capsys, key,
                                                                value):
        command = key.split(".")[0]
        text = "\n".join(ln for ln in EQ_CFG.splitlines() if not ln.startswith(key))
        cfg_path = tmp_path / "list.cfg"
        cfg_path.write_text(text + f"\n{key} = {value}\n")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"key {key!r} needs a comma-separated list of finite floats, got {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("args,line,message", [
        (["--seed", "-3"], "", "error: --seed needs a non-negative int, got '-3'"),
        (["--seed", "1.5"], "", "error: --seed needs a non-negative int, got '1.5'"),
        ([], "init.seed = -3", "key 'init.seed' needs a non-negative int, got '-3'"),
        ([], "init2.seed = -1", "key 'init2.seed' needs a non-negative int, got '-1'"),
    ], ids=["flag", "flag_fraction", "init_seed", "init2_seed"])
    def test_cli_negative_seed_returns_2_naming_it(self, tmp_path, capsys, args, line, message):
        text = "\n".join(ln for ln in (OONO_CFG + INIT2).splitlines()
                         if not (line and ln.startswith(line.split(" = ")[0])))
        cfg_path = tmp_path / "seed.cfg"
        cfg_path.write_text(text + f"\n{line}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)] + args) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("lines,message", [
        ("init.kind = file", "init.path is not set"),
        ("init.kind = file\ninit.path = {tmp}", "cannot be read: Is a directory"),
        ("init.kind = file\ninit.path = {tmp}/absent.nlch",
         "cannot be read: No such file or directory"),
        ("init2.kind = file", "init2.path is not set"),
    ], ids=["no_path", "directory", "missing", "init2_no_path"])
    def test_cli_unreadable_init_file_returns_2(self, tmp_path, capsys, lines, message):
        text = OONO_CFG.replace("init.kind = random\n", "")
        cfg_path = tmp_path / "file.cfg"
        cfg_path.write_text(text + lines.format(tmp=tmp_path) + "\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert message in (out / "report.txt").read_text()
        assert not (out / "series.csv").exists()

    @pytest.mark.parametrize("dump_grid", [(1, 32, 1.0), (2, 8, 1.0), (1, 64, 2.0)],
                             ids=["n", "dim", "length"])
    def test_cli_init_file_on_another_grid_returns_2(self, tmp_path, capsys, dump_grid):
        # the config's grid is 1D, n = 64, length 1 (8 x 8 has as many nodes)
        grid = build_grid(*dump_grid)
        dump = tmp_path / "ic.nlch"
        write_field(dump, grid, np.full(grid.num_nodes, 0.5), 0.0)
        cfg_path = tmp_path / "file.cfg"
        cfg_path.write_text(OONO_CFG.replace("init.kind = random", "init.kind = file")
                            + f"init.path = {dump}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert "init.path field does not match the configured grid" in \
            (out / "report.txt").read_text()
        assert not (out / "series.csv").exists()

    @pytest.mark.parametrize("out_name", ["taken", "taken/sub"], ids=["file", "under_file"])
    def test_cli_output_directory_not_creatable_returns_2(self, tmp_path, capsys, out_name):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(OONO_CFG)
        (tmp_path / "taken").write_text("not a directory")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / out_name)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("error: cannot create output directory")
        assert (tmp_path / "taken").read_text() == "not a directory"

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

    def test_cli_missing_config_returns_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_cli_seed_flag(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(OONO_CFG)
        out = tmp_path / "s"
        assert main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "123"]) == 0
        assert "seed = 123" in (out / "report.txt").read_text()


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
