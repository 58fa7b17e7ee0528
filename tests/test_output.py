"""Field writers: CSV round trip, PGM images, VTK export."""

import hashlib
import os

import numpy as np
import pytest

from foamlbm.metrics import FieldSnapshot
from foamlbm.output import (BLOCK, CSV_HEADER, density_image, read_csv,
                            read_scales, write_csv, write_outputs, write_pgm,
                            write_vtk)
from foamlbm.units import UnitScales

SCALES = UnitScales(dx=1.2e-4, dt=1e-5, rho_melt_phys=2.68,
                    rho_gas_phys=0.00009)


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


def pinned_snapshot():
    """A fixed 5x3 snapshot built with exact arithmetic only: negative
    values, signed zeros, values near 1e-300 and 1e300, nonzero labels."""
    nx, ny = 5, 3
    base = np.arange(nx * ny, dtype=float).reshape(nx, ny)
    rho_melt = base / 7.0 - 1.0
    rho_melt[0, 0] = 1e-300
    rho_melt[4, 2] = 1e300
    rho_gas = (base - 5.0) * 1e-300
    rho_gas[2, 1] = -0.0
    pressure = -(base ** 3) / 3.0
    pressure[1, 2] = -1e300
    velocity = np.stack([(base - 7.0) / 1024.0, 1.0 / (base + 0.5)])
    velocity[1, 3, 0] = 0.0
    labels = np.zeros((nx, ny), dtype=np.int64)
    labels[1:3, 0:2] = 3
    labels[4, 1:] = 12345
    return FieldSnapshot(step=7, time_s=0.07, rho_melt=rho_melt,
                         rho_gas=rho_gas, pressure=pressure,
                         velocity=velocity, labels=labels)


@pytest.mark.parametrize("writer,digest", [
    (write_csv,
     "46a821b34426700d1d5c262d180b7c8ad3cc5cb68dcb5ab322e12bb7670ac90f"),
    (write_vtk,
     "1326563d5bf736897cfdf02202a7fecf49b63174f3da90080d1387b5ff3a3639"),
])
def test_writer_bytes_are_pinned(tmp_path, writer, digest):
    # the file formats are fixed: any change to a writer's bytes fails here
    path = str(tmp_path / "pinned")
    writer(pinned_snapshot(), path)
    assert hashlib.sha256(open(path, "rb").read()).hexdigest() == digest


def loop_csv(snapshot):
    """The CSV text, one cell at a time: the reference for write_csv."""
    nx, ny = snapshot.grid_shape
    rows = [CSV_HEADER]
    for x in range(nx):
        for y in range(ny):
            rows.append("%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d" % (
                x, y, snapshot.rho_melt[x, y], snapshot.rho_gas[x, y],
                snapshot.pressure[x, y], snapshot.velocity[0, x, y],
                snapshot.velocity[1, x, y], snapshot.labels[x, y]))
    return "\n".join(rows) + "\n"


def loop_vtk(snapshot):
    """The VTK text, one cell at a time: the reference for write_vtk."""
    nx, ny = snapshot.grid_shape
    points = [(x, y) for y in range(ny) for x in range(nx)]
    lines = ["# vtk DataFile Version 3.0",
             "foamlbm snapshot step %d" % snapshot.step, "ASCII",
             "DATASET STRUCTURED_POINTS", "DIMENSIONS %d %d 1" % (nx, ny),
             "ORIGIN 0 0 0", "SPACING 1 1 1", "POINT_DATA %d" % (nx * ny)]
    for name, arr, kind, fmt in (
            ("rho_melt", snapshot.rho_melt, "double", "%.17g"),
            ("rho_gas", snapshot.rho_gas, "double", "%.17g"),
            ("pressure", snapshot.pressure, "double", "%.17g"),
            ("bubble_id", snapshot.labels, "int", "%d")):
        lines += ["SCALARS %s %s" % (name, kind), "LOOKUP_TABLE default"]
        lines += [fmt % arr[p] for p in points]
    lines.append("VECTORS velocity double")
    lines += ["%.17g %.17g 0" % (snapshot.velocity[0][p],
                                 snapshot.velocity[1][p]) for p in points]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (150, 130)])
def test_writers_match_the_cell_loop(tmp_path, shape):
    # the largest grid spans more than one block, the last one partial
    assert 150 * 130 > BLOCK and 150 * 130 % BLOCK
    snap = random_snapshot(*shape, seed=3)
    snap.labels[:] = np.arange(snap.labels.size).reshape(shape) % 7
    csv, vtk = str(tmp_path / "s.csv"), str(tmp_path / "s.vtk")
    write_csv(snap, csv)
    write_vtk(snap, vtk)
    assert open(csv).read() == loop_csv(snap)
    assert open(vtk).read() == loop_vtk(snap)


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
        written = write_outputs(snap, out, ("csv", "pgm", "vtk"), SCALES)
        names = sorted(os.path.basename(p) for p in written)
        assert "step00000042.csv" in names
        assert "step00000042.vtk" in names
        assert any(n.endswith(".pgm") for n in names)
        for p in written:
            assert os.path.exists(p)

    def test_scales_sidecar_beside_each_csv(self, tmp_path):
        out = str(tmp_path / "frames")
        written = write_outputs(random_snapshot(), out, ("csv", "pgm"), SCALES)
        assert sorted(os.path.basename(p) for p in written) == [
            "step00000042.csv", "step00000042.pgm"]
        csv = [p for p in written if p.endswith(".csv")][0]
        assert read_scales(csv) == SCALES.sidecar()
        # a CSV without its sidecar reads as one with no scales
        os.remove(os.path.join(out, "step00000042.json"))
        assert read_scales(csv) == {}

    def test_byte_stable_across_writes(self, tmp_path):
        snap = random_snapshot()
        a = write_outputs(snap, str(tmp_path / "a"), ("csv", "pgm", "vtk"),
                          SCALES)
        b = write_outputs(snap, str(tmp_path / "b"), ("csv", "pgm", "vtk"),
                          SCALES)
        for pa, pb in zip(sorted(a), sorted(b)):
            assert open(pa, "rb").read() == open(pb, "rb").read()
