"""Single-phase D2Q9 lattice: moments, equilibrium start, fused collide
and stream.

Populations are stored structure-of-arrays as ``f[i, x, y]`` so each
direction streams through memory linearly.  Streaming is double buffered
and the domain is closed by mirror walls: every destination plane is
tiled exactly once by shifted and wall-reflected blocks, so a push only
assigns and never clears or accumulates.  Each lattice builds that tiling
once (`_routes`), as (direction, destination block, source block) copies
per direction and per band of grid rows.

Collision and streaming are one pass.  One kernel, `_relax`, does every
relaxation: `Lattice.set_equilibrium` (omega = 1, along the identity
route) and `collide`, which relaxes any number of lattices on one grid,
each toward its own velocity at its own omega (`Lattice.collide` is
`collide` on one lattice).  Lattices that are handed one velocity array
share its equilibrium bracket, evaluated once; this module never decides
when that is so, the caller does by passing the same array.  The kernel
works the grid one band of rows at a time, so that a band's planes stay
in cache.  Each relaxed plane is written into a contiguous scratch plane,
folded into a running per-cell minimum (the negative-population count)
and copied, block by block, along the mirror route into the back buffer;
the parity then flips.  Relaxing into contiguous memory and copying
shifted blocks is cheaper than writing the arithmetic into the shifted
destination slices.  A step never builds a full (9, nx, ny) equilibrium
array: the intermediates live in five one-band planes that each lattice
allocates once.

Density and momentum come from one product of the moment rows
[1; e_x; e_y] with the populations (`density_momentum`); every moment a
step takes is summed there.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from foamlbm.stencil import E, OPPOSITE, REFLECT_X, REFLECT_Y, W

# Above this speed the second-order equilibrium is a poor truncation and the
# scheme tends to go unstable; the driver counts such steps but keeps running.
VELOCITY_WARN = 0.3

# cells per row band of the relaxation kernel.  A band of this size is
# 128 KB per plane, so the ten or so planes a band pass works on (rows of
# rho and u, the bracket, relaxed and minimum planes) stay in a 2 MB core
# cache between the operations on them.  Whole-grid planes at 375 x 250
# spill it: on a 2-core Xeon a foam.cfg step took 13.8-14.5 ms in one band
# against 11.8-12.3 ms in bands of this size
BAND_CELLS = 1 << 14


class InstabilityError(ValueError):
    """A negative density, or too many negative populations: the run has
    gone numerically unstable."""


# rows of the moment matrix: density, x momentum, y momentum
_MOMENT_ROWS = np.vstack([np.ones(9), E.T]).astype(float)


def density_momentum(f: np.ndarray):
    """Density and momentum of a population array, from one product.

    Args:
        f: populations, shape (9, nx, ny).

    Returns:
        (rho, j): density (nx, ny) and momentum sum_i e_i f_i (2, nx, ny),
        views of one fresh (3, nx, ny) array.
    """
    m = _MOMENT_ROWS @ f.reshape(9, -1)
    m = m.reshape((3,) + f.shape[1:])
    return m[0], m[1:]


def _relax(targets, bracket):
    """BGK relaxation of one or more populations, pushed plane by plane
    along each target's routes.

    Each target is (f, rho, u, omega, dst, routes, lowest), all on one
    grid.  Direction i of f relaxes to f_i + omega (rho g_i(u) - f_i) in a
    contiguous scratch plane, with the bracket g_i(u) = w_i (1 + 3 e_i.u
    + 4.5 (e_i.u)^2 - 1.5 u^2); at omega = 1 the plane is rho g_i, written
    without reading f.  The plane is folded into `lowest`, the target's
    running per-cell minimum, then copied block by block into `dst` along
    its route.

    The grid is worked band by band, in the row bands of the routes
    table (see `_routes`), so a band's planes stay in cache between the
    operations on them.  Within a band, adjacent targets whose u is one
    array share one evaluation of the bracket.  `bracket` holds four
    planes one band high: the even part, the odd part and then the
    relaxed plane, e.u and then g_i, and 1 - 1.5 u^2.  Each `lowest` is one
    band high too.  One pair of opposite directions i, OPPOSITE[i] is done
    at a time: the pair shares the even part w_i (1 - 1.5 u^2
    + 4.5 (e_i.u)^2) and differs only in the sign of the odd part
    3 w_i e_i.u.  Nothing of the size of f is allocated.

    Returns:
        (largest |u|, number of cells with a negative relaxed population),
        each a list with one entry per target.

    Raises:
        InstabilityError: if a rho is negative anywhere; every dst and
            lowest is then untouched.
    """
    if any(np.any(rho < 0) for _, rho, *_ in targets):
        raise InstabilityError("negative density")
    # runs of adjacent targets that share one u array, as target indices
    groups = [[k for k, _ in run] for _, run in
              groupby(enumerate(targets), key=lambda kt: id(kt[1][2]))]
    bands = targets[0][5]  # the targets share one grid, so one banding
    max_speeds, negatives = [0.0] * len(targets), [0] * len(targets)
    for band, ((x0, x1), _) in enumerate(bands):
        rows, n = slice(x0, x1), x1 - x0
        views = [(f[:, rows], rho[rows], omega, dst, routes[band][1],
                  lowest[:n])
                 for f, rho, _, omega, dst, routes, lowest in targets]
        for group in groups:
            ux, uy = targets[group[0]][2]
            speed = _relax_band([views[k] for k in group], ux[rows],
                                uy[rows], bracket[:, :n])
            for k in group:
                max_speeds[k] = max(max_speeds[k], speed)
        for k, (*_, lowest) in enumerate(views):
            negatives[k] += int(np.count_nonzero(lowest < 0))
    return max_speeds, negatives


def _relax_band(targets, ux, uy, bracket) -> float:
    """`_relax` on one band of rows; returns the band's largest |u|."""
    even, odd, eu, base = bracket
    max_speed = _base_bracket(ux, uy, base, eu)
    for *_, lowest in targets:
        lowest.fill(np.inf)
    np.multiply(base, W[0], out=even)
    for t in targets:
        _write(t, 0, even, odd)
    for i, e_u in _pair_projections(ux, uy, eu):
        j = OPPOSITE[i]
        np.multiply(e_u, e_u, out=even)
        even *= 4.5
        even += base
        even *= W[i]
        np.multiply(e_u, 3.0 * W[i], out=odd)
        np.add(even, odd, out=eu)  # g_i; e.u is spent
        np.subtract(even, odd, out=even)  # g_j; the odd part is spent
        for t in targets:
            _write(t, i, eu, odd)
            _write(t, j, even, odd)
    return max_speed


def _write(target, i, g, plane) -> None:
    """Relax direction i of one `_relax` target into `plane`, fold it into
    the target's running minimum and push it along the target's route."""
    f, rho, omega, dst, route, lowest = target
    np.multiply(g, rho, out=plane)
    if omega != 1.0:
        plane -= f[i]
        plane *= omega
        plane += f[i]
    np.minimum(lowest, plane, out=lowest)
    _push(plane, route[i], dst)


def _push(plane, blocks, dst) -> None:
    """Copy one plane into `dst` along its (j, dst_block, src_block)
    route."""
    for j, d, s in blocks:
        dst[j][d] = plane[s]


def _base_bracket(ux, uy, base, tmp) -> float:
    """Write 1 - 1.5 u^2 to `base`, using `tmp`; return the largest |u|."""
    np.multiply(ux, ux, out=base)
    np.multiply(uy, uy, out=tmp)
    base += tmp
    max_speed = float(np.sqrt(base.max())) if base.size else 0.0
    base *= -1.5
    base += 1.0
    return max_speed


def collide(lattices, rhos, velocities) -> None:
    """Relax lattices toward their equilibria and stream them, in one pass.

    Each lattice relaxes at its own omega = 1 / tau toward the equilibrium
    at its density and velocity, and pushes each relaxed plane into its
    own back buffer.  Adjacent lattices given one velocity array share
    its bracket g_i(u), which `_relax` evaluates once per band and pair of
    opposite directions, in the first lattice's bracket planes.  Sets each
    lattice's `max_speed`, the largest |u| it relaxed toward, and
    `negative_count`, the number of cells with a negative post-collision
    population (not clipped), counted before the push moves them; then
    flips each parity.  The populations read are left as they were.

    Args:
        lattices: lattices on one grid.
        rhos: their densities (nx, ny); each must be the density of the
            lattice's current populations.  A step takes them from its
            coupling pass, which read these same buffers, instead of
            summing the buffers again.
        velocities: their equilibrium velocities (2, nx, ny).  Passing a
            force-shifted velocity here is how interaction forces act on
            the fluid without touching its mass.

    Raises:
        InstabilityError: if a density is negative anywhere; the buffers
            and the parity of every lattice are then untouched.
    """
    targets = [(lat.f, rho, u, 1.0 / lat.tau, lat._bufs[1 - lat.parity],
                lat._routes, lat._lowest)
               for lat, rho, u in zip(lattices, rhos, velocities)]
    max_speeds, negatives = _relax(targets, lattices[0]._bracket)
    for lat, speed, count in zip(lattices, max_speeds, negatives):
        lat.max_speed, lat.negative_count = speed, count
        lat.parity = 1 - lat.parity


def _pair_projections(ux, uy, out):
    """(i, e_i.u) for one direction i of each opposite pair.

    The diagonal projections are written to `out`, each one after the
    previous pair is done with it.
    """
    yield 1, ux  # e = (1, 0)
    yield 2, uy  # e = (0, 1)
    yield 5, np.add(ux, uy, out=out)  # e = (1, 1)
    yield 6, np.subtract(uy, ux, out=out)  # e = (-1, 1)


def _axis_blocks(n: int, e: int):
    """The blocks that move one axis of length n by a displacement e.

    Returns (src_start, src_stop, dst_start, reflected) tuples, empty
    blocks left out.  For e = +-1 the off-wall block is a plain shift and
    the single wall layer bounces back into itself with the displacement
    component reflected (halfway specular wall).
    """
    if e == 0:
        blocks = [(0, n, 0, False)]
    elif e == 1:
        blocks = [(0, n - 1, 1, False), (n - 1, n, n - 1, True)]
    else:
        blocks = [(1, n, 0, False), (0, 1, 0, True)]
    return [b for b in blocks if b[0] < b[1]]


def _band_rows(nx: int, ny: int) -> int:
    """Rows per band: the fewest equal bands of at most BAND_CELLS."""
    bands = max(1, -(-nx * ny // BAND_CELLS))
    return max(1, -(-nx // bands))


def _routes(nx: int, ny: int, shifts):
    """Row bands of an (nx, ny) grid, with the copies that move each
    band's planes by `shifts`.

    Returns one ((x0, x1), per_direction) entry per band of rows
    x0 <= x < x1.  per_direction[i] lists the (j, dst_block, src_block)
    copies of the band's plane i into plane j of the destination, with
    src_block relative to the band.  With the lattice velocities E this is
    a stream between mirror walls: the shifted interior keeps j = i, and
    each wall layer bounces back into itself as the reflected direction.
    Per destination plane the blocks of all bands tile every cell exactly
    once.  With zero shifts each band goes back in place.
    """
    rows = _band_rows(nx, ny)
    bands = []
    for x0 in range(0, nx, rows):
        x1 = min(x0 + rows, nx)
        per_direction = []
        for i in range(9):
            ex, ey = shifts[i]
            blocks = []
            for s0, s1, d0, flipx in _axis_blocks(nx, ex):
                lo, hi = max(s0, x0), min(s1, x1)
                if lo >= hi:
                    continue
                dx = slice(lo - s0 + d0, hi - s0 + d0)
                sx = slice(lo - x0, hi - x0)
                for t0, t1, e0, flipy in _axis_blocks(ny, ey):
                    j = REFLECT_X[i] if flipx else i
                    j = REFLECT_Y[j] if flipy else j
                    blocks.append((int(j), (dx, slice(e0, e0 + t1 - t0)),
                                   (sx, slice(t0, t1))))
            per_direction.append(tuple(blocks))
        bands.append(((x0, x1), tuple(per_direction)))
    return tuple(bands)


class Lattice:
    """One phase's population field on a mirror-walled grid.

    The grid shape is fixed at construction.  Two buffers are kept; `f` is
    the current read buffer.  `collide` relaxes the read buffer into the
    other one along the mirror routes, built once here, then flips the
    parity flag.  Four one-band bracket planes hold the
    intermediates of the relaxation kernel `_relax`, and one more holds
    the running per-cell minimum behind `negative_count`.
    """

    def __init__(self, nx: int, ny: int, tau: float):
        self._shape = (int(nx), int(ny))
        self.tau = float(tau)
        self._bufs = [np.zeros((9, nx, ny)), np.zeros((9, nx, ny))]
        self._routes = _routes(nx, ny, E)
        self._identity = _routes(nx, ny, np.zeros_like(E))
        rows = _band_rows(nx, ny)
        self._bracket = np.empty((4, rows, ny))
        self._lowest = np.empty((rows, ny))
        self.parity = 0
        self.negative_count = 0
        self.max_speed = 0.0

    @property
    def grid_shape(self):
        return self._shape

    @property
    def f(self) -> np.ndarray:
        return self._bufs[self.parity]

    def set_equilibrium(self, rho, u) -> None:
        """Initialize the read buffer at local equilibrium: `_relax` at
        omega = 1, which never reads the old populations, along the
        identity route.  The count of negative populations it returns is
        dropped; `negative_count` counts collides only.  Raises
        InstabilityError if rho is negative anywhere."""
        rho = np.broadcast_to(np.asarray(rho, dtype=float), self._shape)
        u = np.broadcast_to(np.asarray(u, dtype=float), (2,) + self._shape)
        _relax([(self.f, rho, u, 1.0, self.f, self._identity, self._lowest)],
               self._bracket)

    def mass(self) -> float:
        return float(self.f.sum())

    def collide(self, rho, u_eq) -> None:
        """BGK relaxation toward the equilibrium at (rho, u_eq), streamed:
        `collide` on this lattice alone.

        Args:
            rho: density (nx, ny) of the current populations.
            u_eq: equilibrium velocity (2, nx, ny).

        Raises:
            InstabilityError: if rho is negative anywhere; both buffers and
                the parity are then untouched.
        """
        collide((self,), (rho,), (u_eq,))

    def stream(self) -> None:
        """Move populations one link, resolving walls, then swap buffers.

        A step never calls this: `collide` streams as it relaxes.  It
        serves the tests, which push a reference field through the same
        routes, and the benchmark's tracer.  Each block is assigned, not
        added: per destination plane, the shifted interior block and the
        wall-reflected layers of the mirror cover every cell exactly once,
        so whatever the back buffer held before is overwritten and it is
        never cleared.
        """
        src = self._bufs[self.parity]
        dst = self._bufs[1 - self.parity]
        for (x0, x1), blocks in self._routes:
            for i in range(9):
                _push(src[i, x0:x1], blocks[i], dst)
        self.parity = 1 - self.parity
