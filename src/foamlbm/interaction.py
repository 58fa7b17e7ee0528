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

from foamlbm.stencil import CS2, E, W


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


def shifted(field: np.ndarray, ex: int, ey: int):
    """Neighbor view out[x, y] = field[x + ex, y + ey].

    The mirror wall reflects about the halfway plane, so the first ghost
    layer equals the first interior layer.
    """
    nx, ny = field.shape
    padded = np.pad(field, 1, mode="symmetric")
    return padded[1 + ex : 1 + ex + nx, 1 + ey : 1 + ey + ny]


def shan_chen_force(psi_field: np.ndarray, G: float):
    """Interaction force F(x) = -G psi(x) sum_i w_i psi(x + e_i) e_i.

    Args:
        psi_field: the potential, shape (nx, ny); cells behind a wall read
            their mirror image.
        G: interaction strength; negative values attract.

    Returns:
        (2, nx, ny) force field.
    """
    sx = np.zeros_like(psi_field)
    sy = np.zeros_like(psi_field)
    for i in range(1, 9):
        ex, ey = E[i]
        neighbor = shifted(psi_field, ex, ey)
        if ex:
            sx += W[i] * ex * neighbor
        if ey:
            sy += W[i] * ey * neighbor
    return np.stack([-G * psi_field * sx, -G * psi_field * sy])


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


def _grad(field: np.ndarray):
    gx = 0.5 * (shifted(field, 1, 0) - shifted(field, -1, 0))
    gy = 0.5 * (shifted(field, 0, 1) - shifted(field, 0, -1))
    return gx, gy


def _laplacian(field: np.ndarray):
    return (
        shifted(field, 1, 0)
        + shifted(field, -1, 0)
        + shifted(field, 0, 1)
        + shifted(field, 0, -1)
        - 4.0 * field
    )


def flux_tensor(psi_field: np.ndarray, G: float, rho_field: np.ndarray):
    """Momentum-flux tensor, diagnostic only.

    P_ab = (cs2 rho + G/6 psi^2 + G/36 |grad psi|^2 + G/18 psi lap psi) d_ab
           - G/18 (grad psi (x) grad psi), with second-order central
    differences.  Not used in time stepping.

    Returns:
        (2, 2, nx, ny) symmetric tensor field.
    """
    gx, gy = _grad(psi_field)
    lap = _laplacian(psi_field)
    iso = (
        CS2 * rho_field
        + (G / 6.0) * psi_field**2
        + (G / 36.0) * (gx * gx + gy * gy)
        + (G / 18.0) * psi_field * lap
    )
    P = np.empty((2, 2) + psi_field.shape)
    P[0, 0] = iso - (G / 18.0) * gx * gx
    P[1, 1] = iso - (G / 18.0) * gy * gy
    P[0, 1] = P[1, 0] = -(G / 18.0) * gx * gy
    return P
