"""Pseudopotential interaction: force stencil, equation of state, critical point.

The interaction force couples a cell to its nine-point neighborhood through
the exponential potential psi(rho) = 1 - exp(-rho); neighbors beyond a wall
read their mirror image.  With G below -4 the bulk equation of state
develops a van der Waals loop and a quenched field separates into a dense
and a dilute plateau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from foamlbm.stencil import CS2


@dataclass(frozen=True)
class CriticalPoint:
    G_critical: float
    rho_critical: float


def pseudopotential(rho):
    """psi(rho) = 1 - exp(-rho); linear for small rho, saturating at 1."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("negative density")
    return -np.expm1(-rho)


def shan_chen_force(psi_field: np.ndarray, G: float):
    """Interaction force F(x) = -G psi(x) sum_i w_i psi(x + e_i) e_i.

    Args:
        psi_field: the potential, shape (nx, ny); cells behind a wall read
            their mirror image.
        G: interaction strength; negative values attract.

    Returns:
        (2, nx, ny) force field.
    """
    nx, ny = psi_field.shape
    # one ghost layer holds every wall's mirror image: the mirror reflects
    # about the halfway plane, so the ghost layer repeats the first interior
    # layer, and view(ex, ey)[x, y] is psi(x + ex, y + ey)
    padded = np.pad(psi_field, 1, mode="symmetric")

    def view(ex, ey):
        return padded[1 + ex : 1 + ex + nx, 1 + ey : 1 + ey + ny]

    # w_i is 4/36 on the axes and 1/36 on the diagonals; opposite links
    # enter with opposite signs, so each component is a sum of differences
    diag_up = view(1, 1) - view(-1, -1)
    diag_down = view(1, -1) - view(-1, 1)
    force = np.empty((2, nx, ny))
    fx, fy = force
    np.subtract(view(1, 0), view(-1, 0), out=fx)
    fx *= 4.0
    fx += diag_up
    fx += diag_down
    np.subtract(view(0, 1), view(0, -1), out=fy)
    fy *= 4.0
    fy += diag_up
    fy -= diag_down
    force *= psi_field
    force *= -G / 36.0
    return force


def eos_pressure(rho, G: float):
    """Bulk pressure p = rho cs2 + (G/6) psi(rho)^2."""
    rho = np.asarray(rho, dtype=float)
    psi = pseudopotential(rho)
    return rho * CS2 + (G / 6.0) * psi * psi


def critical_point(max_iter: int = 200) -> CriticalPoint:
    """Where dp/drho and d2p/drho2 vanish together.

    The first condition fixes G as a function of rho,
    G(rho) = -1 / (exp(-rho)(1 - exp(-rho))); substituting into the second
    leaves a single root of 2 exp(-rho) - 1 on rho in [0.1, 2], bracketed and
    bisected instead of running a fragile 2-D Newton iteration.
    """
    try:
        rho_c = brentq(lambda r: 2.0 * np.exp(-r) - 1.0, 0.1, 2.0,
                       xtol=1e-14, maxiter=max_iter)
    except RuntimeError as err:
        raise RuntimeError("critical point search did not converge") from err
    e = np.exp(-rho_c)
    G_c = -1.0 / (e * (1.0 - e))
    return CriticalPoint(G_critical=float(G_c), rho_critical=float(rho_c))
