"""Field snapshot serialization: CSV, 8-bit PGM, and legacy-text VTK.

Data files are byte-stable for identical runs: values are printed with 17
significant digits (enough for a bit-exact double round trip) and no
timestamps or hostnames ever enter the payload.  Printing is most of the
cost of a snapshot, so `write_outputs` prints each float field once per
call and streams that text, block by block, into both the CSV and the
VTK; neither file is built whole in memory.  A CSV holds lattice
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
CSV_ROW = b"%d,%d,%s,%s,%s,%s,%s,%d\n"
# cells formatted per write call when a snapshot is streamed to its file
BLOCK = 1 << 14


class SnapshotError(ValueError):
    """A CSV snapshot or its scales sidecar that cannot be read back."""


class _Printed:
    """One float field printed once with %.17g, one value per line, cells
    in x-major order (the CSV's row order). Line i is
    text[bounds[i] + 1:bounds[i + 1] + 1], its newline included."""

    def __init__(self, values):
        flat = np.asarray(values).ravel()
        self.text = (b"%.17g\n" * flat.size) % tuple(flat.tolist())
        self.chars = np.frombuffer(self.text, dtype=np.uint8)
        self.bounds = np.concatenate(([-1], np.flatnonzero(self.chars == 10)))

    def span(self, a, b) -> bytes:
        """The lines of x-major cells a to b - 1."""
        return self.text[self.bounds[a] + 1:self.bounds[b] + 1]

    def take(self, cells) -> bytes:
        """The lines of the given x-major cells, in the order given."""
        starts = self.bounds[cells] + 1
        lens = self.bounds[cells + 1] + 1 - starts
        # output byte j comes from chars[j + shift[j]], where a line's
        # shift is its start in text less its start in the output
        shift = np.repeat(starts - (np.cumsum(lens) - lens), lens)
        return self.chars[shift + np.arange(shift.size)].tobytes()


def print_fields(snapshot) -> list:
    """rho_melt, rho_gas, pressure, u_x and u_y, each printed once, for
    write_csv and write_vtk to share."""
    return [_Printed(values) for values in
            (snapshot.rho_melt, snapshot.rho_gas, snapshot.pressure,
             snapshot.velocity[0], snapshot.velocity[1])]


def _rows(fmt, columns) -> bytes:
    """`fmt` once per row, filled from equal-length columns."""
    items = [None] * (len(columns) * len(columns[0]))
    for k, column in enumerate(columns):
        items[k::len(columns)] = column
    return (fmt * len(columns[0])) % tuple(items)


def write_csv(snapshot, path, printed=None) -> str:
    """Rows in x-major order. `printed` is print_fields(snapshot), if the
    caller has it already."""
    if printed is None:
        printed = print_fields(snapshot)
    nx, ny = snapshot.grid_shape
    n = nx * ny
    labels = snapshot.labels.ravel()
    with open(path, "wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        for a in range(0, n, BLOCK):
            b = min(a + BLOCK, n)
            x, y = np.divmod(np.arange(a, b), ny)
            fh.write(_rows(CSV_ROW, [x.tolist(), y.tolist()]
                           + [field.span(a, b).split() for field in printed]
                           + [labels[a:b].tolist()]))
    return str(path)


def read_csv(path) -> FieldSnapshot:
    """Rebuild a snapshot from a CSV written by write_csv. The grid shape
    comes from the coordinate columns; step and time are not stored.
    Columns are read by position, so a header other than CSV_HEADER, like
    a missing or cut-off row, coordinates that do not name every cell once
    or an x, y or bubble_id that is not a non-negative integer, raises
    SnapshotError.  The file is read as bytes: non-UTF-8 bytes fail too."""
    with open(path, "rb") as fh:
        if fh.readline().rstrip(b"\r\n") != CSV_HEADER.encode():
            raise SnapshotError("%s: header is not %r" % (path, CSV_HEADER))
        start = fh.tell()
        if fh.readline().count(b",") != CSV_HEADER.count(","):
            raise SnapshotError("%s: no full row after the header" % path)
        fh.seek(start)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise SnapshotError("%s: %s" % (path, exc)) from exc
    # a cast would take NaN, a fraction or a sign to another cell or id;
    # rows and columns are numbered as loadtxt's own errors number them
    for col, name in ((0, "x"), (1, "y"), (7, "bubble_id")):
        v = data[:, col]
        bad = np.flatnonzero((v < 0) | (v >= 2.0 ** 63) | (v != np.floor(v)))
        if bad.size:
            raise SnapshotError("%s: %s = %g at row %d, column %d is not a "
                                "non-negative integer"
                                % (path, name, v[bad[0]], bad[0], col + 1))
    xs, ys = data[:, :2].astype(int).T
    nx, ny = int(xs.max()) + 1, int(ys.max()) + 1
    if len(data) != nx * ny:
        raise SnapshotError("%s: expected %d rows for a %dx%d grid, found %d"
                            % (path, nx * ny, nx, ny, len(data)))
    # as many rows as cells, so a cell named twice leaves another unnamed
    named = np.bincount(xs * ny + ys, minlength=nx * ny)
    if named.max() > 1:
        x, y = divmod(int(named.argmax()), ny)
        raise SnapshotError("%s: cell (%d, %d) is named by %d rows"
                            % (path, x, y, named.max()))
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


def write_vtk(snapshot, path, printed=None) -> str:
    """Legacy ASCII structured points, one value per line. `printed` is
    print_fields(snapshot), if the caller has it already."""
    if printed is None:
        printed = print_fields(snapshot)
    melt, gas, pressure, u_x, u_y = printed
    nx, ny = snapshot.grid_shape
    n = nx * ny
    # structured points scan x fastest: point k is x-major cell order[k]
    order = np.arange(n).reshape(nx, ny).T.ravel()
    blocks = [order[a:a + BLOCK] for a in range(0, n, BLOCK)]
    labels = snapshot.labels.ravel()
    with open(path, "wb") as fh:
        fh.write(b"# vtk DataFile Version 3.0\n"
                 b"foamlbm snapshot step %d\n"
                 b"ASCII\n"
                 b"DATASET STRUCTURED_POINTS\n"
                 b"DIMENSIONS %d %d 1\n"
                 b"ORIGIN 0 0 0\n"
                 b"SPACING 1 1 1\n"
                 b"POINT_DATA %d\n" % (snapshot.step, nx, ny, n))
        for name, field in ((b"rho_melt", melt), (b"rho_gas", gas),
                            (b"pressure", pressure)):
            fh.write(b"SCALARS %s double\nLOOKUP_TABLE default\n" % name)
            for cells in blocks:
                fh.write(field.take(cells))
        fh.write(b"SCALARS bubble_id int\nLOOKUP_TABLE default\n")
        for cells in blocks:
            fh.write(_rows(b"%d\n", [labels[cells].tolist()]))
        fh.write(b"VECTORS velocity double\n")
        for cells in blocks:
            fh.write(_rows(b"%s %s 0\n", [u_x.take(cells).split(),
                                           u_y.take(cells).split()]))
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


def write_outputs(snapshot, out_dir, formats, scales,
                  basename=None) -> list:
    """Write the snapshot in each requested format; returns the paths.
    The float fields are printed once, for the CSV and the VTK both.

    Every CSV gets its JSON sidecar of dx_mm, rho_melt_phys and
    rho_gas_phys from `scales` (a UnitScales); the sidecar is not among
    the returned paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    if basename is None:
        basename = "step%08d" % snapshot.step
    written = []
    printed = None
    for fmt in formats:
        path = os.path.join(out_dir, basename + "." + fmt)
        if fmt in ("csv", "vtk") and printed is None:
            printed = print_fields(snapshot)
        if fmt == "csv":
            written.append(write_csv(snapshot, path, printed))
            with open(_scales_path(path), "w") as fh:
                json.dump(scales.sidecar(), fh, sort_keys=True)
        elif fmt == "pgm":
            written.append(write_pgm(snapshot.rho_melt + snapshot.rho_gas,
                                     path))
        elif fmt == "vtk":
            written.append(write_vtk(snapshot, path, printed))
    return written
