"""Field writers: CSV round trip, PGM images, VTK export."""

import os

import numpy as np
import pytest

from foamlbm.metrics import FieldSnapshot
from foamlbm.output import (CSV_HEADER, density_image, read_csv,
                            read_scales, write_csv, write_outputs, write_pgm,
                            write_vtk)
from foamlbm.units import UnitScales


def random_snapshot(nx=6, ny=4, seed=11):
    rng = np.random.default_rng(seed)
    labels = np.zeros((nx, ny), dtype=np.int64)
    labels[1:3, 1:3] = 1
    return FieldSnapshot(step=42, time_s=0.42,
                         rho_melt=rng.random((nx, ny)) + 0.5,
                         rho_gas=rng.random((nx, ny)) * 0.3,
                         pressure=rng.standard_normal((nx, ny)),
                         velocity=rng.standard_normal((2, nx, ny)) * 0.01,
                         labels=labels)


class TestCsv:
    def test_two_by_two_row_count(self, tmp_path):
        snap = random_snapshot(2, 2)
        path = str(tmp_path / "tiny.csv")
        write_csv(snap, path)
        lines = open(path).read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5

    def test_round_trip_bit_exact(self, tmp_path):
        snap = random_snapshot()
        path = str(tmp_path / "snap.csv")
        write_csv(snap, path)
        back = read_csv(path)
        assert np.array_equal(back.rho_melt, snap.rho_melt)
        assert np.array_equal(back.rho_gas, snap.rho_gas)
        assert np.array_equal(back.pressure, snap.pressure)
        assert np.array_equal(back.velocity, snap.velocity)
        assert np.array_equal(back.labels, snap.labels)

    def test_truncated_file_rejected(self, tmp_path):
        snap = random_snapshot()
        path = str(tmp_path / "cut.csv")
        write_csv(snap, path)
        lines = open(path).read().splitlines()
        open(path, "w").write("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ValueError, match="cut.csv"):
            read_csv(path)


class TestPgm:
    def test_uniform_field_single_level(self, tmp_path):
        field = np.full((5, 3), 1.3)
        img = density_image(field)
        assert img.dtype == np.uint8
        assert len(np.unique(img)) == 1
        path = str(tmp_path / "flat.pgm")
        write_pgm(field, path)
        raw = open(path, "rb").read()
        assert raw.startswith(b"P5\n5 3\n255\n")
        assert len(raw) == len(b"P5\n5 3\n255\n") + 15

    def test_grayscale_inverted(self):
        # dense melt renders dark, gas pockets light
        field = np.array([[0.0, 1.0], [0.5, 1.0]])
        img = density_image(field)
        assert img[0, 0] == 255
        assert img[0, 1] == 0
        assert img[1, 0] == 128


class TestVtk:
    def test_structure(self, tmp_path):
        snap = random_snapshot(3, 2)
        path = str(tmp_path / "snap.vtk")
        write_vtk(snap, path)
        text = open(path).read()
        assert text.startswith("# vtk DataFile Version 3.0")
        assert "DATASET STRUCTURED_POINTS" in text
        assert "DIMENSIONS 3 2 1" in text
        assert "POINT_DATA 6" in text
        for name in ("rho_melt", "rho_gas", "pressure", "bubble_id"):
            assert "SCALARS %s" % name in text
        assert "VECTORS velocity double" in text


class TestWriteOutputs:
    def test_dispatch_and_names(self, tmp_path):
        snap = random_snapshot()
        out = str(tmp_path / "frames")
        written = write_outputs(snap, out, ("csv", "pgm", "vtk"))
        names = sorted(os.path.basename(p) for p in written)
        assert "step00000042.csv" in names
        assert "step00000042.vtk" in names
        assert any(n.endswith(".pgm") for n in names)
        for p in written:
            assert os.path.exists(p)

    def test_scales_sidecar_beside_each_csv(self, tmp_path):
        scales = UnitScales(dx=1.2e-4, dt=1e-5, rho_melt_phys=2.68,
                            rho_gas_phys=0.00009)
        out = str(tmp_path / "frames")
        written = write_outputs(random_snapshot(), out, ("csv", "pgm"),
                                scales=scales)
        assert sorted(os.path.basename(p) for p in written) == [
            "step00000042.csv", "step00000042.pgm"]
        csv = [p for p in written if p.endswith(".csv")][0]
        assert read_scales(csv) == scales.sidecar()
        # the CSV itself is what it was without the sidecar
        plain = write_outputs(random_snapshot(), str(tmp_path / "plain"),
                              ("csv",))[0]
        assert open(csv, "rb").read() == open(plain, "rb").read()
        assert read_scales(plain) == {}

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="png"):
            write_outputs(random_snapshot(), str(tmp_path), ("png",))

    def test_byte_stable_across_writes(self, tmp_path):
        snap = random_snapshot()
        a = write_outputs(snap, str(tmp_path / "a"), ("csv", "pgm", "vtk"))
        b = write_outputs(snap, str(tmp_path / "b"), ("csv", "pgm", "vtk"))
        for pa, pb in zip(sorted(a), sorted(b)):
            assert open(pa, "rb").read() == open(pb, "rb").read()
