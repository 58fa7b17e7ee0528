"""Single-phase D2Q9 lattice: moments, equilibrium start, collide, stream.

Populations are stored structure-of-arrays as ``f[i, x, y]`` so each
direction streams through memory linearly.  Streaming is double buffered
and the domain is closed by mirror walls: every destination plane is
tiled exactly once by shifted and wall-reflected blocks, so a stream only
assigns and never clears or accumulates.

Collision is cell-local and runs in place on the read buffer.  One kernel,
`_relax`, does every relaxation: `Lattice.set_equilibrium` (omega = 1),
`Lattice.collide` (one lattice) and `collide_pair` (two lattices that
relax toward one velocity, each at its own omega).  It walks the pairs of
opposite directions, evaluates the equilibrium bracket g_i(u) once per pair
and writes each target's relaxed populations; a step never builds a full
(9, nx, ny) equilibrium array.  Its intermediates live in four (nx, ny)
scratch planes that each lattice allocates once: the even part, the odd
part (then the omega != 1 temporary), e.u (then g_i) and 1 - 1.5 u^2.  At
omega = 1 the relaxed populations are the equilibrium itself, so they are
written without reading the old ones.

Density and momentum come from one product of the moment rows
[1; e_x; e_y] with the populations (`density_momentum`); every moment a
step takes is summed there.
"""

from __future__ import annotations

import numpy as np

from foamlbm.stencil import E, OPPOSITE, REFLECT_X, REFLECT_Y, W

# Above this speed the second-order equilibrium is a poor truncation and the
# scheme tends to go unstable; the driver counts such steps but keeps running.
VELOCITY_WARN = 0.3


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


def _relax(targets, u, scratch) -> float:
    """BGK relaxation of one or more populations toward one velocity.

    Each target (f, rho, omega) becomes f + omega (rho g_i(u) - f) in
    place, with the bracket g_i(u) = w_i (1 + 3 e_i.u + 4.5 (e_i.u)^2
    - 1.5 u^2) shared by every target.  Works one pair of opposite
    directions i, OPPOSITE[i] at a time: the pair shares the even part
    w_i (1 - 1.5 u^2 + 4.5 (e_i.u)^2) and differs only in the sign of the
    odd part 3 w_i e_i.u, so the pair's bracket is evaluated once for all
    targets.  At omega = 1 a target is written as rho g_i without reading
    f.  `scratch` holds four planes shaped like rho; nothing of the size of
    f is allocated.

    Returns:
        The largest |u|.

    Raises:
        InstabilityError: if a rho is negative anywhere; every f is then
            untouched.
    """
    if any(np.any(rho < 0) for _, rho, _ in targets):
        raise InstabilityError("negative density")
    ux, uy = u
    even, odd, eu, base = scratch
    max_speed = _base_bracket(ux, uy, base, eu)
    np.multiply(base, W[0], out=even)
    for f, rho, omega in targets:
        _write(f[0], even, rho, omega, odd)
    for i, e_u in _pair_projections(ux, uy, eu):
        j = OPPOSITE[i]
        np.multiply(e_u, e_u, out=even)
        even *= 4.5
        even += base
        even *= W[i]
        np.multiply(e_u, 3.0 * W[i], out=odd)
        np.add(even, odd, out=eu)  # g_i; e.u is spent
        np.subtract(even, odd, out=even)  # g_j
        for f, rho, omega in targets:
            _write(f[i], eu, rho, omega, odd)
            _write(f[j], even, rho, omega, odd)
    return max_speed


def _write(fi, g, rho, omega, tmp) -> None:
    """fi <- fi + omega (rho g - fi); at omega = 1, rho g without reading
    fi.  `tmp` is a scratch plane."""
    if omega == 1.0:
        np.multiply(g, rho, out=fi)
        return
    np.multiply(g, rho, out=tmp)
    tmp -= fi
    tmp *= omega
    fi += tmp


def _base_bracket(ux, uy, base, tmp) -> float:
    """Write 1 - 1.5 u^2 to `base`, using `tmp`; return the largest |u|."""
    np.multiply(ux, ux, out=base)
    np.multiply(uy, uy, out=tmp)
    base += tmp
    max_speed = float(np.sqrt(base.max())) if base.size else 0.0
    base *= -1.5
    base += 1.0
    return max_speed


def _negative_cells(f, lowest) -> int:
    """Number of cells with a negative population; `lowest` is a scratch
    plane."""
    np.min(f, axis=0, out=lowest)
    return int(np.count_nonzero(lowest < 0))


def collide_pair(a, b, rho_a, rho_b, u_eq) -> None:
    """Relax two lattices toward one equilibrium velocity.

    Each lattice relaxes at its own omega = 1 / tau toward its density
    times the shared bracket g_i(u), which `_relax` evaluates once per pair
    of opposite directions in `a`'s scratch planes.  Sets `max_speed` and
    `negative_count` on both lattices as `Lattice.collide` does.

    Args:
        a, b: lattices on one grid.
        rho_a, rho_b: their densities (nx, ny), as in `Lattice.collide`.
        u_eq: the equilibrium velocity (2, nx, ny) of both.

    Raises:
        InstabilityError: if a density is negative anywhere; the
            populations are then untouched.
    """
    targets = [(a.f, rho_a, 1.0 / a.tau), (b.f, rho_b, 1.0 / b.tau)]
    max_speed = _relax(targets, u_eq, a._scratch)
    for lat in (a, b):
        lat.max_speed = max_speed
        lat.negative_count = _negative_cells(lat.f, lat._scratch[0])


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
    """Source/destination slices for one displacement along one axis.

    Returns (src, dst, reflected) triples.  For e = +-1 the off-wall block is
    a plain shift and the single wall layer bounces back into itself with the
    displacement component reflected (halfway specular wall).
    """
    if e == 0:
        return [(slice(None), slice(None), False)]
    if e == 1:
        return [
            (slice(0, n - 1), slice(1, n), False),
            (slice(n - 1, n), slice(n - 1, n), True),
        ]
    return [
        (slice(1, n), slice(0, n - 1), False),
        (slice(0, 1), slice(0, 1), True),
    ]


class Lattice:
    """One phase's population field on a mirror-walled grid.

    The grid shape is fixed at construction.  Two buffers are kept; `f` is
    the current read buffer and `stream()` overwrites the other one, then
    flips the parity flag.  Four (nx, ny) scratch planes hold the
    intermediates of the relaxation kernel `_relax`, which serves
    `collide()`, `set_equilibrium()` and `collide_pair`.
    """

    def __init__(self, nx: int, ny: int, tau: float):
        if tau <= 0.5:
            raise ValueError("tau must exceed 0.5 for positive viscosity")
        self._shape = (int(nx), int(ny))
        self.tau = float(tau)
        self._bufs = [np.zeros((9, nx, ny)), np.zeros((9, nx, ny))]
        self._scratch = np.empty((4, nx, ny))
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
        omega = 1, which never reads the old populations.  Raises
        InstabilityError if rho is negative anywhere."""
        rho = np.broadcast_to(np.asarray(rho, dtype=float), self._shape)
        u = np.broadcast_to(np.asarray(u, dtype=float), (2,) + self._shape)
        _relax([(self.f, rho, 1.0)], u, self._scratch)

    def mass(self) -> float:
        return float(self.f.sum())

    def collide(self, rho, u_eq) -> None:
        """BGK relaxation toward the equilibrium at (rho, u_eq), in place.

        Args:
            rho: density (nx, ny); it must be the density of the current
                populations.  A step takes it from its coupling pass, which
                read this same buffer, instead of summing the buffer again.
            u_eq: equilibrium velocity (2, nx, ny).  Passing the
                force-shifted velocity here is how interaction forces act on
                the fluid without touching its mass.

        Relaxes one pair of opposite directions i, OPPOSITE[i] at a time
        (see `_relax`), with the intermediates in the lattice's scratch
        planes.

        Sets `max_speed`, the largest |u_eq|, and `negative_count`, the
        number of cells left with a negative population (not clipped).

        Raises:
            InstabilityError: if rho is negative anywhere.
        """
        self.max_speed = _relax([(self.f, rho, 1.0 / self.tau)], u_eq,
                                self._scratch)
        self.negative_count = _negative_cells(self.f, self._scratch[0])

    def stream(self) -> None:
        """Move populations one link, resolving walls, then swap buffers.

        Each block is assigned, not added: per destination plane, the
        shifted interior block and the wall-reflected layers of the mirror
        cover every cell exactly once, so whatever the back buffer held
        before is overwritten and it is never cleared.
        """
        src = self._bufs[self.parity]
        dst = self._bufs[1 - self.parity]
        nx, ny = self._shape
        for i in range(9):
            ex, ey = E[i]
            for sx, dx, flipx in _axis_blocks(nx, ex):
                for sy, dy, flipy in _axis_blocks(ny, ey):
                    j = i
                    if flipx:
                        j = REFLECT_X[j]
                    if flipy:
                        j = REFLECT_Y[j]
                    dst[j][dx, dy] = src[i][sx, sy]
        self.parity = 1 - self.parity
