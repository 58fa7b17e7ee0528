"""Correctness checks on a finished benchmark round.

Each check raises CheckFailed with a reason. None of them compares against
a stored copy of earlier output: they test conservation laws, the gas
release the config implies, the method's own film criterion recomputed
here, and exact round trips of the snapshot files. Constants of the
method are restated on purpose, so an error in the package cannot hide
itself.
"""

from __future__ import annotations

import importlib.util
import math
import os
import re

import numpy as np

CS2 = 1.0 / 3.0
PROFILE_POINTS = 9
MIN_FILM_CELLS = 3.0
PRESSURE_TEST_GAP = 6.0
PROBE_SAMPLING = 0.5
MASS_RTOL = 1e-11

_ORACLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests", "oracles.py")


class CheckFailed(AssertionError):
    pass


def _oracles():
    spec = importlib.util.spec_from_file_location("oracles", _ORACLES)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _fail_unless(ok, msg):
    if not ok:
        raise CheckFailed(msg)


def mass_conserved(before: float, after: float, what: str) -> None:
    _fail_unless(abs(after - before) <= MASS_RTOL * abs(before),
                 "%s mass drifted from %.17g to %.17g" % (what, before, after))


def expected_moles(dn_dt, dt, budget, steps) -> float:
    """Moles a release of dn_dt mol/s over `steps` steps of dt delivers."""
    return min(dn_dt * dt * steps, budget) if budget > 0 else 0.0


def gas_injection(before: float, after: float, A: float, moles: float,
                  counter: float) -> None:
    """Gas mass rises by A * moles / c_s^2, the moles taken from the config."""
    _fail_unless(abs(counter - moles) <= 1e-12 * max(moles, 1.0),
                 "program injected %.17g mol, config implies %.17g"
                 % (counter, moles))
    gained = A * moles / CS2
    _fail_unless(abs((after - before) - gained) <= MASS_RTOL * abs(after),
                 "gas mass rose by %.17g, injection implies %.17g"
                 % (after - before, gained))


def mole_ledger(bubble_moles, injected: float) -> None:
    total = math.fsum(bubble_moles)
    _fail_unless(abs(total - injected) <= 1e-12 * max(injected, 1.0),
                 "bubbles hold %.17g mol, %.17g injected" % (total, injected))


def no_negative_populations(*populations) -> None:
    for f in populations:
        n = int((f < 0).sum())
        _fail_unless(n == 0, "%d negative populations" % n)


def owner_partition(owner, mask) -> None:
    """The owner map partitions the bubble mask exactly as a flood fill of
    the mask into 4-connected components does."""
    orc = _oracles()
    _fail_unless(np.array_equal(owner > 0, np.asarray(mask, dtype=bool)),
                 "owner map and bubble mask cover different cells")
    got = orc.canonical_partition(owner)
    want = orc.canonical_partition(orc.flood_fill_labels(mask))
    _fail_unless(got == want, "owner map is not the flood-fill partition "
                 "(%d vs %d components)" % (len(got), len(want)))


def nucleation_sites(sites, count: int, min_spacing: float, shape) -> None:
    _fail_unless(len(sites) == count,
                 "%d nucleation sites, config asks %d" % (len(sites), count))
    for i, (x, y) in enumerate(sites):
        _fail_unless(0 <= x < shape[0] and 0 <= y < shape[1],
                     "site %r outside the grid" % ((x, y),))
        for (u, v) in sites[i + 1:]:
            d = math.hypot(x - u, y - v)
            _fail_unless(d >= min_spacing, "sites %r and %r are %.3g apart, "
                         "min_spacing %.3g" % ((x, y), (u, v), d, min_spacing))


def eos_pressure(rho, G):
    psi = 1.0 - np.exp(-rho)
    return rho * CS2 + (G / 6.0) * psi * psi


def _centroid(owner, b):
    xs, ys = np.nonzero(owner == b)
    if xs.size == 0:
        return None
    return float(xs.mean()), float(ys.mean())


def _nearest(field, xs, ys):
    nx, ny = field.shape
    ix = np.clip(np.floor(xs + 0.5).astype(int), 0, nx - 1)
    iy = np.clip(np.floor(ys + 0.5).astype(int), 0, ny - 1)
    return field[ix, iy]


def _bilinear(field, xs, ys):
    nx, ny = field.shape
    xs = np.clip(xs, 0.0, nx - 1.0)
    ys = np.clip(ys, 0.0, ny - 1.0)
    x0 = np.minimum(np.floor(xs).astype(int), nx - 2)
    y0 = np.minimum(np.floor(ys).astype(int), ny - 2)
    tx, ty = xs - x0, ys - y0
    return ((1 - tx) * (1 - ty) * field[x0, y0]
            + tx * (1 - ty) * field[x0 + 1, y0]
            + (1 - tx) * ty * field[x0, y0 + 1]
            + tx * ty * field[x0 + 1, y0 + 1])


def film_verdict(owner, pressure, a, b, eps_p):
    """The film criterion, recomputed: walk the centroid line of bubbles a
    and b, find the melt gap between them, sample a 9-point bilinear
    pressure profile across its midpoint and test its central second
    difference. Returns None when the line does not cross both bubbles,
    else True when the film passes the rupture criterion."""
    ca, cb = _centroid(owner, a), _centroid(owner, b)
    if ca is None or cb is None:
        return None
    dx, dy = cb[0] - ca[0], cb[1] - ca[1]
    length = math.hypot(dx, dy)
    if length == 0.0:
        return None
    ux, uy = dx / length, dy / length
    ts = np.arange(0.0, length + PROBE_SAMPLING, PROBE_SAMPLING)
    ids = _nearest(owner, ca[0] + ts * ux, ca[1] + ts * uy)
    in_a = np.flatnonzero(ids == a)
    in_b = np.flatnonzero(ids == b)
    if in_a.size == 0 or in_b.size == 0 or not (in_b > in_a.max()).any():
        return None
    last_a = in_a.max()
    first_b = in_b[in_b > last_a].min()
    gap = (first_b - last_a - 1) * PROBE_SAMPLING
    if gap < MIN_FILM_CELLS:
        return True
    if gap > PRESSURE_TEST_GAP:
        return False
    mid_t = 0.5 * (ts[last_a] + ts[first_b])
    mx, my = ca[0] + mid_t * ux, ca[1] + mid_t * uy
    half = PROFILE_POINTS // 2
    off = np.arange(-half, half + 1, dtype=float)
    prof = _bilinear(pressure, mx + off * ux, my + off * uy)
    d2p = prof[half - 1] - 2.0 * prof[half] + prof[half + 1]
    return bool(abs(d2p) <= eps_p * float(pressure.max() - pressure.min()))


def film_states(owner, pressure, films: dict, ruptured_now, eps_p) -> None:
    """Films that ruptured on the last step pass the criterion; every film
    still standing fails it wherever the centroid line crosses both."""
    for pair in ruptured_now:
        _fail_unless(film_verdict(owner, pressure, *pair, eps_p) is True,
                     "film %r ruptured but fails the criterion" % (pair,))
    for pair, eta in films.items():
        if eta == 1:
            _fail_unless(film_verdict(owner, pressure, *pair, eps_p)
                         is not True,
                         "film %r stands but passes the criterion" % (pair,))


def stop_reason(reason: str, expected: str) -> None:
    _fail_unless(reason == expected,
                 "run stopped for %r, expected %r" % (reason, expected))


def two_bubbles(active: int, merges: int) -> None:
    _fail_unless(active == 2 and merges == 0,
                 "%d active bubbles after %d merges, expected 2 and none"
                 % (active, merges))


def snapshot_roundtrip(written, read) -> None:
    """read_csv gives back every field of the written snapshot bit for bit."""
    for name in ("rho_melt", "rho_gas", "pressure", "velocity", "labels"):
        a, b = getattr(written, name), getattr(read, name)
        _fail_unless(a.shape == b.shape and np.array_equal(a, b),
                     "%s differs after the CSV round trip" % name)


def pgm_file(path, nx, ny) -> None:
    with open(path, "rb") as fh:
        data = fh.read()
    header = b"P5\n%d %d\n255\n" % (nx, ny)
    _fail_unless(data.startswith(header), "PGM header is not %r" % header)
    _fail_unless(len(data) - len(header) == nx * ny,
                 "PGM payload holds %d bytes, grid has %d cells"
                 % (len(data) - len(header), nx * ny))


def vtk_file(path, nx, ny) -> None:
    """Header declares nx*ny points; every data section holds that many."""
    with open(path) as fh:
        text = fh.read()
    head = text.split("\n", 8)[:8]
    _fail_unless("DIMENSIONS %d %d 1" % (nx, ny) in head,
                 "VTK does not declare a %dx%d grid" % (nx, ny))
    _fail_unless("POINT_DATA %d" % (nx * ny) in head,
                 "VTK does not declare %d points" % (nx * ny))
    starts = [m.start() for m in
              re.finditer(r"^(?:SCALARS|VECTORS) ", text, re.MULTILINE)]
    _fail_unless(len(starts) == 5, "VTK holds %d data sections, expected 5"
                 % len(starts))
    for a, b in zip(starts, starts[1:] + [len(text)]):
        # every line ends in a newline; scalars carry a LOOKUP_TABLE line
        header = 2 if text.startswith("SCALARS ", a) else 1
        values = text.count("\n", a, b) - header
        _fail_unless(values == nx * ny, "%s holds %d values, expected %d"
                     % (text[a:text.find("\n", a)], values, nx * ny))


def same_metrics(a, b) -> None:
    for name in ("bubble_fraction", "foam_density", "mean_diameter_mm",
                 "n_bubbles", "histogram_edges_mm", "histogram_counts"):
        _fail_unless(np.array_equal(getattr(a, name), getattr(b, name)),
                     "measure differs on the read-back snapshot: %s" % name)


def mirror_tiling(field, tiled, kx, ky) -> None:
    nx, ny = field.shape
    _fail_unless(tiled.shape == (kx * nx, ky * ny),
                 "tiled shape %r, expected %r"
                 % (tiled.shape, (kx * nx, ky * ny)))
    for i in range(kx):
        for j in range(ky):
            block = tiled[i * nx:(i + 1) * nx, j * ny:(j + 1) * ny]
            want = field[::(-1 if i % 2 else 1), ::(-1 if j % 2 else 1)]
            _fail_unless(np.array_equal(block, want),
                         "tile (%d, %d) is not the mirrored field" % (i, j))
