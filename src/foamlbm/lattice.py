"""Single-phase D2Q9 lattice: moments, equilibrium, collide, stream.

Populations are stored structure-of-arrays as ``f[i, x, y]`` so each
direction streams through memory linearly.  Streaming is double buffered
and the domain is closed by mirror walls; collision is cell-local and runs
in place on the read buffer.
"""

from __future__ import annotations

import numpy as np

from foamlbm.stencil import CS2, E, REFLECT_X, REFLECT_Y, W

# Above this speed the second-order equilibrium is a poor truncation and the
# scheme tends to go unstable; the driver counts such steps but keeps running.
VELOCITY_WARN = 0.3


def moments(f: np.ndarray):
    """Density and velocity fields of a population array.

    Args:
        f: populations, shape (9, nx, ny).

    Returns:
        (rho, u): density (nx, ny) and velocity (2, nx, ny).  Velocity is the
        zero vector wherever rho is zero.
    """
    rho = f.sum(axis=0)
    mom = np.tensordot(E.T.astype(float), f, axes=(1, 0))
    safe = np.where(rho == 0.0, 1.0, rho)
    u = np.where(rho == 0.0, 0.0, mom / safe)
    return rho, u


def equilibrium(rho, u):
    """Second-order Maxwellian truncation.

    Args:
        rho: density, scalar or (nx, ny).
        u: velocity, shape (2,) or (2, nx, ny).

    Returns:
        Populations with the leading shape (9, ...); their moments reproduce
        (rho, rho*u) exactly up to rounding.
    """
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(rho < 0):
        raise ValueError("negative density")
    eu = np.tensordot(E.astype(float), u, axes=(1, 0))
    u2 = np.sum(u * u, axis=0)
    w = W.reshape((9,) + (1,) * rho.ndim)
    return w * rho * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * u2)


def viscosity(tau: float) -> float:
    """Kinematic viscosity nu = cs2 (tau - 1/2) in lattice units."""
    return CS2 * (tau - 0.5)


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
    the current read buffer and `stream()` writes the other one, then flips
    the parity flag.
    """

    def __init__(self, nx: int, ny: int, tau: float):
        if tau <= 0.5:
            raise ValueError("tau must exceed 0.5 for positive viscosity")
        self._shape = (int(nx), int(ny))
        self.tau = float(tau)
        self._bufs = [np.zeros((9, nx, ny)), np.zeros((9, nx, ny))]
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
        """Initialize the read buffer at local equilibrium."""
        rho = np.broadcast_to(np.asarray(rho, dtype=float), self._shape)
        u = np.broadcast_to(np.asarray(u, dtype=float), (2,) + self._shape)
        self._bufs[self.parity][:] = equilibrium(rho, u)

    def mass(self) -> float:
        return float(self.f.sum())

    def moments(self):
        return moments(self.f)

    def collide(self, rho, u_eq) -> None:
        """BGK relaxation toward equilibrium(rho, u_eq), in place.

        Args:
            rho: density (nx, ny); it must be the density of the current
                populations.  A step takes it from its coupling pass, which
                read this same buffer, instead of summing the buffer again.
            u_eq: equilibrium velocity (2, nx, ny).  Passing the
                force-shifted velocity here is how interaction forces act on
                the fluid without touching its mass.

        Sets `max_speed`, the largest |u_eq|, and `negative_count`, the
        number of cells left with a negative population (not clipped).
        """
        f = self.f
        speed2 = np.sum(u_eq * u_eq, axis=0)
        self.max_speed = float(np.sqrt(speed2.max())) if speed2.size else 0.0
        feq = equilibrium(rho, u_eq)
        f += (1.0 / self.tau) * (feq - f)
        self.negative_count = int(np.count_nonzero((f < 0).any(axis=0)))

    def stream(self) -> None:
        """Move populations one link, resolving walls, then swap buffers."""
        src = self._bufs[self.parity]
        dst = self._bufs[1 - self.parity]
        nx, ny = self._shape
        dst[:] = 0.0
        for i in range(9):
            ex, ey = E[i]
            for sx, dx, flipx in _axis_blocks(nx, ex):
                for sy, dy, flipy in _axis_blocks(ny, ey):
                    j = i
                    if flipx:
                        j = REFLECT_X[j]
                    if flipy:
                        j = REFLECT_Y[j]
                    dst[j][dx, dy] += src[i][sx, sy]
        self.parity = 1 - self.parity
