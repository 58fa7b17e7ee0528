"""Pseudopotential interaction: force stencil, equation of state, the two
constants of the critical point, and the spinodal.

The interaction force couples a cell to its nine-point neighborhood through
the exponential potential psi(rho) = 1 - exp(-rho); neighbors beyond a wall
read their mirror image.  With G below -4 the bulk equation of state
develops a van der Waals loop and a quenched field separates into a dense
and a dilute plateau.
"""

from __future__ import annotations

import math

import numpy as np

from foamlbm.lattice import InstabilityError
from foamlbm.stencil import CS2

# the critical point, where dp/drho and d2p/drho2 vanish together.  The
# first condition fixes G as a function of rho,
# G(rho) = -1 / (exp(-rho)(1 - exp(-rho))); substituting into the second
# leaves 2 exp(-rho) - 1 = 0, so rho_c = ln 2, exp(-rho_c) = 1/2 and
# G_c = -4 in closed form
G_CRITICAL = -4.0
RHO_CRITICAL = math.log(2.0)


def pseudopotential(rho):
    """psi(rho) = 1 - exp(-rho); linear for small rho, saturating at 1."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise InstabilityError("negative density")
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


def spinodal(G: float) -> tuple[float, float]:
    """Densities (rho_lo, rho_hi) between which dp/drho < 0, for G <= -4.

    dp/drho = cs2 + (G/3) psi psi' vanishes where x = exp(-rho) solves
    x (1 - x) = -1/G, so x = (1 +- sqrt(1 + 4/G)) / 2.  A uniform field
    inside (rho_lo, rho_hi) is unstable and separates on its own.  At
    G = -4 both bounds are ln 2.
    """
    root = math.sqrt(1.0 + 4.0 / G)
    return -math.log((1.0 + root) / 2.0), -math.log((1.0 - root) / 2.0)
