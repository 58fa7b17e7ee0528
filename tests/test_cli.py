"""Command line surface: subcommands, exit codes, env fallback."""

import os

import numpy as np

import foamlbm.cli as cli
from foamlbm.foam import InstabilityError
from foamlbm.metrics import FieldSnapshot
from foamlbm.output import write_csv

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


class TestProps:
    def test_reports_state_point_table(self, capsys):
        assert cli.main(["props", "973.15", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "solubility (melt): 0.00850021" in out
        assert "solubility (solid):" in out
        assert "low T branch): 3.5152e-07" in out
        assert "diffusion length at 0.1 s: 0.000374977" in out


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
        def boom(cfg, out_dir=None, echo=None):
            raise InstabilityError("negative populations everywhere")

        monkeypatch.setattr(cli, "run_scenario", boom)
        rc = cli.main(["run", write_cfg(tmp_path, TINY_FOAM)])
        assert rc == 3
        assert "instability" in capsys.readouterr().err


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

    def test_measure_prints_metrics(self, tmp_path, capsys):
        path = snapshot_csv(tmp_path)
        assert cli.main(["measure", path, "--dx-mm", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "bubble fraction: 11.25" in out  # 9 of 80 cells
        assert "mean bubble diameter:" in out
