"""Command line surface: subcommands, exit codes, env fallback."""

import os
import subprocess
import sys

import numpy as np
import pytest

import foamlbm.cli as cli
from foamlbm.config import SimulationConfig
from foamlbm.lattice import InstabilityError
from foamlbm.metrics import FieldSnapshot
from foamlbm.output import CSV_HEADER, write_csv

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

TINY_FOAM = """
scenario = foam
nx = 32
ny = 24
G = -4.5
nucleation_count = 2
nucleation_seed = 9
min_spacing = 8
model = classic
stop_rule = steps
max_steps = 5
"""

# two small bubbles driven together at a weakly damped tau; dx = dt
# carries 1000 mm/s as one cell per step
FAST_APPROACH = """
scenario = two_bubble
nx = 64
ny = 48
model = classic
tau_melt = 0.52
tau_gas = 0.52
dx = 1e-4
dt = 1e-4
bubble_diameter_mm = 2
approach_mm_s = APPROACH
stop_rule = steps
max_steps = 600
"""

# six small nuclei fed fast under the barrier: a bubble dissolves at step
# 152 while its film with a neighbour still stands
DISSOLVING_FOAM = """
scenario = foam
model = modified
nx = 64
ny = 64
rho_melt = 1.375
rho_gas = 0.203
nucleation_count = 6
nucleation_seed = 2
min_spacing = 12
nucleation_radius = 5
growth_A = 10
growth_dn_dt = 50
growth_budget = 1
dt = 1e-4
barrier_r_z = 3
stop_rule = steps
max_steps = 400
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def snapshot_csv(tmp_path):
    nx, ny = 10, 8
    labels = np.zeros((nx, ny), dtype=np.int64)
    labels[3:6, 3:6] = 1
    gas = np.where(labels > 0, 0.3, 0.01)
    melt = np.where(labels > 0, 0.05, 1.5)
    snap = FieldSnapshot(step=0, time_s=0.0, rho_melt=melt, rho_gas=gas,
                         pressure=np.zeros((nx, ny)),
                         velocity=np.zeros((2, nx, ny)), labels=labels)
    path = str(tmp_path / "snap.csv")
    write_csv(snap, path)
    return path


def _cut_mid_row(path):
    text = open(path).read()
    return text[:text.index("\n", len(text) // 2) + 5]


def _last_row_only(path):
    return CSV_HEADER + "\n" + open(path).read().splitlines()[-1] + "\n"


def _cell_named_twice(path):
    # a 4x3 grid whose row for cell (0, 1) names (0, 0) a second time
    rows = ["%d,%d,1.5,0.01,0,0,0,0" % (x, y)
            for x in range(4) for y in range(3)]
    rows[1] = rows[0]
    return CSV_HEADER + "\n" + "\n".join(rows) + "\n"


def _negative_x(path):
    # the last row, cell (9, 7), names x = -1: the far edge, if indexed
    lines = open(path).read().splitlines()
    lines[-1] = "-1" + lines[-1][lines[-1].index(","):]
    return "\n".join(lines) + "\n"


# each case gives either the CSV's new text, made from the good file, or
# the text of a sidecar written beside it
BAD_SNAPSHOTS = {
    "cut_mid_row": (_cut_mid_row, None),
    "one_row_of_a_larger_grid": (_last_row_only, None),
    "columns_reordered": (
        lambda path: open(path).read().replace("rho_melt,rho_gas",
                                               "rho_gas,rho_melt", 1), None),
    "header_only": (lambda path: CSV_HEADER + "\n", None),
    "cell_named_twice": (_cell_named_twice, None),
    "negative_x": (_negative_x, None),
    "sidecar_not_json": (None, '{"dx_mm": 0.1'),
    "negative_scale": (None, '{"dx_mm": -0.1}'),
    "scale_not_a_number": (None, '{"dx_mm": "0.1"}'),
    "scale_key_misspelt": (
        None, '{"dx": 0.12, "rho_melt_phys": 2.68, "rho_gas_phys": 9e-05}'),
}


def _with_field(path, column, value):
    """The bytes of the CSV at `path` with `column` of the row of bubble
    cell (4, 4) set to the bytes `value`."""
    lines = open(path, "rb").read().split(b"\n")
    row = lines[1 + 4 * 8 + 4].split(b",")
    row[column] = value
    lines[1 + 4 * 8 + 4] = b",".join(row)
    return b"\n".join(lines)


# a CSV whose bytes are not UTF-8, or whose x, y or bubble_id is not a
# non-negative integer: (column, the field's new bytes)
MALFORMED_CSV = {
    "byte_ff_in_a_row": (2, b"1.\xff5"),
    "bubble_id_nan": (7, b"nan"),
    "bubble_id_fraction": (7, b"2.7"),
    "bubble_id_negative": (7, b"-4"),
    "x_fraction": (0, b"4.5"),
    "y_inf": (1, b"inf"),
}


@pytest.mark.parametrize("command, case", [("run", "latin1_config")] + [
    (command, case) for case in sorted(MALFORMED_CSV)
    for command in ("measure", "tile")])
def test_malformed_input_exits_2(tmp_path, capsys, command, case):
    if command == "run":
        # a copy of the foam preset with a Latin-1 e-acute in a comment
        text = open(os.path.join(CONFIGS, "foam.cfg"), "rb").read()
        path = tmp_path / "foam.cfg"
        path.write_bytes(b"# caf\xe9\n" + text)
        argv, prefix = ["run", str(path)], "config error: "
    else:
        path = snapshot_csv(tmp_path)
        text = _with_field(path, *MALFORMED_CSV[case])
        open(path, "wb").write(text)
        argv = [command, path] + (["2", "1"] if command == "tile" else [])
        prefix = "snapshot error: %s: " % path
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(prefix)


def test_the_cli_loads_no_scipy():
    # the package runs on numpy alone; scipy would cost every process
    # about 27 MB of memory and 0.3 s of start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, foamlbm.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert out.strip() == "[]"


class TestRun:
    def test_short_foam_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY_FOAM)
        out_dir = str(tmp_path / "frames")
        rc = cli.main(["run", cfg, "--out-dir", out_dir])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario: foam (classic model)" in out
        assert "stopped after 5 steps" in out
        assert "bubble fraction:" in out
        assert os.path.exists(os.path.join(out_dir, "final.csv"))

    def test_dissolved_bubble_takes_its_film_along(self, tmp_path, capsys):
        # a film left behind by its bubble made a later barrier pass look
        # up the lost bubble's zone, and the run died with a traceback
        assert cli.main(["run", write_cfg(tmp_path, DISSOLVING_FOAM)]) == 0
        assert "stopped after 400 steps" in capsys.readouterr().out

    def test_default_gas_density_is_hydrogen(self, tmp_path, capsys):
        # 0.00009 g/cm^3 is hydrogen; a config that leaves rho_gas_phys out
        # reports the foam density of one that sets it.  Seed discs give
        # the 8 % porosity at which 0.089 g/cm^3 would show
        seeded = TINY_FOAM + "nucleation_radius = 3\n"
        lines = []
        for text in (seeded, seeded + "rho_gas_phys = 0.00009\n"):
            assert cli.main(["run", write_cfg(tmp_path, text)]) == 0
            out = capsys.readouterr().out.splitlines()
            lines.append([ln for ln in out if ln.startswith("foam density")])
        assert len(lines[0]) == 1 and lines[0] == lines[1]

    def test_model_override_flag(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY_FOAM.replace("model = classic",
                                                    "model = modified"))
        rc = cli.main(["run", cfg, "--model", "classic"])
        assert rc == 0
        assert "(classic model)" in capsys.readouterr().out

    def test_out_dir_env_fallback(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, TINY_FOAM)
        env_dir = str(tmp_path / "env_frames")
        monkeypatch.setenv(cli.OUT_DIR_ENV, env_dir)
        assert cli.main(["run", cfg]) == 0
        assert os.path.exists(os.path.join(env_dir, "final.csv"))

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = TINY_FOAM + "rho_melt = 0.5\nrho_gas = 0.2\n"
        rc = cli.main(["run", write_cfg(tmp_path, bad)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        for extra in ("boundary = periodic\n", "boundary = mirror\n"):
            rc = cli.main(["run", write_cfg(tmp_path, TINY_FOAM + extra)])
            assert rc == 2
            assert "unknown key 'boundary'" in capsys.readouterr().err
        custom = TINY_FOAM.replace("scenario = foam", "scenario = custom")
        assert cli.main(["run", write_cfg(tmp_path, custom)]) == 2
        assert "scenario must be one of" in capsys.readouterr().err
        rc = cli.main(["run", write_cfg(tmp_path, TINY_FOAM), "--seed", "-1"])
        assert rc == 2
        assert "nucleation_seed" in capsys.readouterr().err
        nan = TINY_FOAM + "tau_melt = nan\n"
        assert cli.main(["run", write_cfg(tmp_path, nan)]) == 2
        assert "tau_melt must be a finite number" in capsys.readouterr().err
        png = TINY_FOAM + "output_formats = csv, png\n"
        assert cli.main(["run", write_cfg(tmp_path, png)]) == 2
        assert "unknown output format 'png'" in capsys.readouterr().err
        # a budget with no release rate never injects
        unreleased = """
scenario = foam
nx = 64
ny = 64
nucleation_count = 2
nucleation_seed = 1
min_spacing = 20
nucleation_radius = 4
growth_A = 10
growth_dn_dt = 0
growth_budget = 1
stop_rule = steps
max_steps = 30
"""
        assert cli.main(["run", write_cfg(tmp_path, unreleased)]) == 2
        err = capsys.readouterr().err
        assert "growth_budget" in err and "growth_dn_dt = 0" in err

    def test_no_quiescent_rule_or_threshold(self, tmp_path, capsys):
        # a bubble at rest keeps a spurious current near 0.07, so no
        # velocity threshold ever stopped a run with a bubble in it
        quiet = TINY_FOAM.replace("stop_rule = steps",
                                  "stop_rule = quiescent")
        assert cli.main(["run", write_cfg(tmp_path, quiet)]) == 2
        assert "stop_rule must be one of ('first_rupture', 'steps')" \
            in capsys.readouterr().err
        threshold = TINY_FOAM + "quiescence_u = 0.001\n"
        assert cli.main(["run", write_cfg(tmp_path, threshold)]) == 2
        assert ":%d: unknown key 'quiescence_u'" % threshold.count("\n") \
            in capsys.readouterr().err

    def test_no_stop_rule_runs_to_the_step_cap(self, tmp_path, capsys):
        text = TINY_FOAM.replace("stop_rule = steps\n", "")
        assert "stop_rule" not in text
        assert cli.main(["run", write_cfg(tmp_path, text)]) == 0
        stopped = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("stopped after")]
        assert len(stopped) == 1
        assert stopped[0].startswith("stopped after 5 steps (")
        assert stopped[0].endswith("): step cap")

    def test_two_bubbles_off_the_grid_are_a_config_error(self, tmp_path,
                                                         capsys):
        # at nx = 100 the preset's 88-cell discs would be centred at
        # x = -6 and x = 106, outside the grid
        with open(os.path.join(CONFIGS, "two_bubble.cfg")) as fh:
            text = fh.read().replace("nx = 300", "nx = 100").replace(
                "max_steps = 5700", "max_steps = 50")
        rc = cli.main(["run", write_cfg(tmp_path, text)])
        assert rc == 2
        assert "do not fit the 100 x 220 grid" in capsys.readouterr().err

    def test_unplaceable_nuclei_exit_code(self, tmp_path, capsys):
        lines = open(os.path.join(CONFIGS, "foam.cfg")).read().splitlines()
        text = "\n".join("min_spacing = 400" if ln.startswith("min_spacing")
                         else ln for ln in lines)
        assert cli.main(["run", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "nucleation_count = 6" in err and "min_spacing = 400" in err

    def test_spinodal_melt_exit_code(self, tmp_path, capsys):
        lines = open(os.path.join(CONFIGS, "foam.cfg")).read().splitlines()
        text = "\n".join("rho_melt = 0.9" if ln.startswith("rho_melt =")
                         else ln for ln in lines)
        assert cli.main(["run", write_cfg(tmp_path, text)]) == 2
        assert "inside the spinodal" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path, capsys):
        rc = cli.main(["run", str(tmp_path / "absent.cfg")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_output_error_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "plain_file"
        blocker.write_text("")
        out_dir = str(blocker / "frames")
        rc = cli.main(["run", write_cfg(tmp_path, TINY_FOAM),
                       "--out-dir", out_dir, "--cadence", "1"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "I/O error" in err
        assert "config error" not in err

    def test_instability_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(cfg, out_dir=None):
            raise InstabilityError("negative populations everywhere")

        monkeypatch.setattr(cli, "run_scenario", boom)
        rc = cli.main(["run", write_cfg(tmp_path, TINY_FOAM)])
        assert rc == 3
        assert "instability" in capsys.readouterr().err

    @pytest.mark.parametrize("approach_mm_s, message", [
        ("150", "negative density"),
        ("250", "over 10% of cells carry negative populations"),
    ], ids=["150", "250"])
    def test_fast_approach_is_an_instability(self, tmp_path, capsys,
                                             approach_mm_s, message):
        # both speeds are inside the velocity envelope: at 150 mm/s the
        # total density goes negative, at 250 mm/s negative populations
        # pass the abort share first
        text = FAST_APPROACH.replace("APPROACH", approach_mm_s)
        rc = cli.main(["run", write_cfg(tmp_path, text)])
        assert rc == 3
        assert capsys.readouterr().err == "instability: %s\n" % message

    @pytest.mark.parametrize("approach_mm_s", ["1000", "5000"])
    def test_approach_above_the_envelope_is_a_config_error(
            self, tmp_path, capsys, approach_mm_s):
        text = FAST_APPROACH.replace("APPROACH", approach_mm_s)
        rc = cli.main(["run", write_cfg(tmp_path, text)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "config error: approach_mm_s = %s is " % approach_mm_s)


class TestTileAndMeasure:
    def test_tile_writes_doubled_pgm(self, tmp_path, capsys):
        path = snapshot_csv(tmp_path)
        out = str(tmp_path / "tiled.pgm")
        assert cli.main(["tile", path, "2", "1", "--out", out]) == 0
        raw = open(out, "rb").read()
        assert raw.startswith(b"P5\n20 8\n255\n")

    def test_measure_reads_the_run_scales(self, tmp_path, capsys):
        # the foam preset's cell size and gas density are not the measure
        # fallbacks; the sidecar carries them, so measure of the final CSV
        # reports what the run reported
        lines = open(os.path.join(CONFIGS, "foam.cfg")).read().splitlines()
        text = "\n".join(
            "stop_rule = steps" if ln.startswith("stop_rule") else
            "max_steps = 2" if ln.startswith("max_steps") else ln
            for ln in lines)
        cfg = write_cfg(tmp_path, text)
        out_dir = str(tmp_path / "frames")
        assert cli.main(["run", cfg, "--out-dir", out_dir]) == 0
        ran = capsys.readouterr().out.splitlines()
        final = os.path.join(out_dir, "final.csv")
        assert cli.main(["measure", final]) == 0
        measured = capsys.readouterr().out.splitlines()
        for key in ("bubble fraction:", "foam density:",
                    "mean bubble diameter:"):
            want = [ln for ln in ran if ln.startswith(key)]
            got = [ln for ln in measured if ln.startswith(key)]
            assert got == want and len(want) == 1
        # a flag overrides the sidecar
        assert cli.main(["measure", final, "--dx-mm", "0.1"]) == 0
        overridden = capsys.readouterr().out.splitlines()
        assert [ln for ln in overridden
                if ln.startswith("mean bubble diameter:")] != [
            ln for ln in ran if ln.startswith("mean bubble diameter:")]

    def test_measure_without_sidecar_uses_config_defaults(self, tmp_path,
                                                          capsys):
        path = snapshot_csv(tmp_path)
        assert cli.main(["measure", path]) == 0
        bare = capsys.readouterr().out
        flags = ["--dx-mm", repr(SimulationConfig.dx * 1000.0),
                 "--rho-melt", repr(SimulationConfig.rho_melt_phys),
                 "--rho-gas", repr(SimulationConfig.rho_gas_phys)]
        assert cli.main(["measure", path] + flags) == 0
        assert capsys.readouterr().out == bare

    def test_sidecar_may_leave_scales_out(self, tmp_path, capsys):
        # a sidecar with the cell size alone falls back for the densities
        path = snapshot_csv(tmp_path)
        assert cli.main(["measure", path, "--dx-mm", "0.2"]) == 0
        flagged = capsys.readouterr().out
        open(os.path.splitext(path)[0] + ".json", "w").write('{"dx_mm": 0.2}')
        assert cli.main(["measure", path]) == 0
        assert capsys.readouterr().out == flagged

    def test_tile_beyond_memory_exits_2(self, tmp_path, capsys):
        # 56 PiB: numpy refuses the request at once, allocating nothing;
        # past numpy's index range, where numpy's own error is no
        # MemoryError, the tiling refuses it first
        path = snapshot_csv(tmp_path)
        for kx, ky in (("10000000", "10000000"), ("400000000000000000", "1"),
                       ("100000000000000000000", "1")):
            assert cli.main(["tile", path, kx, ky]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("out of memory: ")
            assert len(captured.err.splitlines()) == 1

    def test_measure_counts_only_the_ids_present(self, tmp_path, capsys):
        # a bubble id of 10^12 reads as any other id; counting every id up
        # to it would ask for terabytes
        path = snapshot_csv(tmp_path)
        assert cli.main(["measure", path, "--include-edges"]) == 0
        small = capsys.readouterr().out
        text = open(path, "rb").read().replace(b",1\n", b",1000000000000\n")
        open(path, "wb").write(text)
        assert cli.main(["measure", path, "--include-edges"]) == 0
        assert capsys.readouterr().out == small

    def test_measure_prints_metrics(self, tmp_path, capsys):
        path = snapshot_csv(tmp_path)
        assert cli.main(["measure", path, "--dx-mm", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "bubble fraction: 11.25" in out  # 9 of 80 cells
        assert "mean bubble diameter:" in out

    @pytest.mark.parametrize("args", [
        ["measure", "--dx-mm", "-0.1"], ["measure", "--rho-melt", "0"],
        ["measure", "--rho-gas", "nan"], ["measure", "--bin-mm", "0"],
        ["tile", "0", "2"], ["tile", "2", "-1"]])
    def test_nonpositive_number_exits_2(self, tmp_path, capsys, args):
        # argparse rejects the value before the command runs
        argv = [args[0], snapshot_csv(tmp_path)] + args[1:]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "must be a positive number" in capsys.readouterr().err

    def test_bin_narrower_than_a_cell_exits_2(self, tmp_path, capsys):
        # the cell is 0.1 mm; a 1e-4 mm bin would ask for 2257 bins
        path = snapshot_csv(tmp_path)
        assert cli.main(["measure", path, "--bin-mm", "1e-4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--bin-mm 0.0001 is below the cell size, 0.1 mm" \
            in captured.err
        assert cli.main(["measure", path, "--bin-mm", "0.1"]) == 0

    @pytest.mark.parametrize("command", ["tile", "measure"])
    @pytest.mark.parametrize("case", sorted(BAD_SNAPSHOTS))
    def test_bad_snapshot_exits_2(self, tmp_path, capsys, command, case):
        path = snapshot_csv(tmp_path)
        rewrite, sidecar = BAD_SNAPSHOTS[case]
        bad = path
        if rewrite is not None:
            text = rewrite(path)
            open(path, "w").write(text)
        else:
            bad = os.path.splitext(path)[0] + ".json"
            open(bad, "w").write(sidecar)
        argv = [command, path] + (["2", "1"] if command == "tile" else [])
        rc = cli.main(argv)
        err = capsys.readouterr().err
        if command == "tile" and rewrite is None:
            # tile reads no sidecar
            assert (rc, err) == (0, "")
            return
        assert rc == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("snapshot error: %s: " % bad)
