"""Field snapshot serialization: CSV, 8-bit PGM, and legacy-text VTK.

Data files are byte-stable for identical runs: values are printed with 17
significant digits (enough for a bit-exact double round trip) and no
timestamps or hostnames ever enter the payload.  A CSV holds lattice
fields only; the physical scales needed to measure it (cell size, phase
densities) go in a JSON sidecar beside it, so the CSV format stays fixed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .metrics import FieldSnapshot

CSV_HEADER = "x,y,rho_melt,rho_gas,p,u_x,u_y,bubble_id"


class SnapshotError(ValueError):
    """A CSV snapshot or its scales sidecar that cannot be read back."""


def write_csv(snapshot, path) -> str:
    nx, ny = snapshot.grid_shape
    rows = [CSV_HEADER]
    for x in range(nx):
        for y in range(ny):
            rows.append("%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d" % (
                x, y,
                snapshot.rho_melt[x, y], snapshot.rho_gas[x, y],
                snapshot.pressure[x, y],
                snapshot.velocity[0, x, y], snapshot.velocity[1, x, y],
                snapshot.labels[x, y]))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    return str(path)


def read_csv(path) -> FieldSnapshot:
    """Rebuild a snapshot from a CSV written by write_csv. The grid shape
    comes from the coordinate columns; step and time are not stored.
    Columns are read by position, so a header other than CSV_HEADER, like
    a missing or cut-off row, raises SnapshotError."""
    with open(path) as fh:
        if fh.readline().rstrip("\n") != CSV_HEADER:
            raise SnapshotError("%s: header is not %r" % (path, CSV_HEADER))
        start = fh.tell()
        if fh.readline().count(",") != CSV_HEADER.count(","):
            raise SnapshotError("%s: no full row after the header" % path)
        fh.seek(start)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise SnapshotError("%s: %s" % (path, exc)) from exc
    xs, ys = data[:, :2].astype(int).T
    nx, ny = int(xs.max()) + 1, int(ys.max()) + 1
    if len(data) != nx * ny:
        raise SnapshotError("%s: expected %d rows for a %dx%d grid, found %d"
                            % (path, nx * ny, nx, ny, len(data)))
    def grid(col):
        out = np.empty((nx, ny))
        out[xs, ys] = data[:, col]
        return out
    melt, gas, pressure, u_x, u_y, labels = map(grid, range(2, 8))
    return FieldSnapshot(step=0, time_s=0.0, rho_melt=melt, rho_gas=gas,
                         pressure=pressure, velocity=np.stack([u_x, u_y]),
                         labels=labels.astype(np.int64))


def density_image(field2d) -> np.ndarray:
    """8-bit grayscale with the mapping used for metallography-style
    images: the densest cell is black (melt), the lightest is white."""
    lo = float(field2d.min())
    hi = float(field2d.max())
    if hi == lo:
        return np.zeros(field2d.shape, dtype=np.uint8)
    level = np.rint(255.0 * (hi - field2d) / (hi - lo))
    return level.astype(np.uint8)


def write_pgm(field2d, path) -> str:
    img = density_image(np.asarray(field2d, dtype=float))
    nx, ny = img.shape
    # raster rows scan y top to bottom so the x axis runs along the width
    raster = img.T[::-1].tobytes()
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (nx, ny))
        fh.write(raster)
    return str(path)


def write_vtk(snapshot, path) -> str:
    nx, ny = snapshot.grid_shape
    n = nx * ny

    def scalars(name, arr, kind="double", fmt="%.17g"):
        lines = ["SCALARS %s %s" % (name, kind), "LOOKUP_TABLE default"]
        # structured points scan x fastest
        lines.extend(fmt % arr[x, y]
                     for y in range(ny) for x in range(nx))
        return lines

    lines = [
        "# vtk DataFile Version 3.0",
        "foamlbm snapshot step %d" % snapshot.step,
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        "DIMENSIONS %d %d 1" % (nx, ny),
        "ORIGIN 0 0 0",
        "SPACING 1 1 1",
        "POINT_DATA %d" % n,
    ]
    lines += scalars("rho_melt", snapshot.rho_melt)
    lines += scalars("rho_gas", snapshot.rho_gas)
    lines += scalars("pressure", snapshot.pressure)
    lines += scalars("bubble_id", snapshot.labels, kind="int", fmt="%d")
    lines.append("VECTORS velocity double")
    lines.extend("%.17g %.17g 0" % (snapshot.velocity[0, x, y],
                                    snapshot.velocity[1, x, y])
                 for y in range(ny) for x in range(nx))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return str(path)


def _scales_path(csv_path) -> str:
    """Where the scales sidecar of a CSV snapshot lives."""
    return os.path.splitext(csv_path)[0] + ".json"


def read_scales(csv_path) -> dict:
    """The physical scales stored beside a CSV snapshot, or {} if none. A
    sidecar that is not a JSON object of positive numbers raises
    SnapshotError."""
    path = _scales_path(csv_path)
    try:
        with open(path) as fh:
            scales = json.load(fh)
    except FileNotFoundError:
        return {}
    except ValueError as exc:
        raise SnapshotError("%s: not JSON: %s" % (path, exc)) from exc
    if not isinstance(scales, dict) or not all(
            type(v) in (int, float) and 0 < v < math.inf
            for v in scales.values()):
        raise SnapshotError("%s: scales are not all positive numbers: %s"
                            % (path, json.dumps(scales)))
    return scales


def write_outputs(snapshot, out_dir, formats, basename=None,
                  scales=None) -> list:
    """Write the snapshot in each requested format; returns the paths.

    With `scales` (a UnitScales), every CSV gets its JSON sidecar of
    dx_mm, rho_melt_phys and rho_gas_phys; the sidecar is not among the
    returned paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    if basename is None:
        basename = "step%08d" % snapshot.step
    written = []
    for fmt in formats:
        path = os.path.join(out_dir, basename + "." + fmt)
        if fmt == "csv":
            written.append(write_csv(snapshot, path))
            if scales is not None:
                with open(_scales_path(path), "w") as fh:
                    json.dump(scales.sidecar(), fh, sort_keys=True)
        elif fmt == "pgm":
            written.append(write_pgm(snapshot.rho_melt + snapshot.rho_gas,
                                     path))
        elif fmt == "vtk":
            written.append(write_vtk(snapshot, path))
        else:
            raise ValueError("unknown output format %r" % fmt)
    return written
