"""Coupling of the melt and gas lattices through a shared interaction field.

Both phases feel the pseudopotential of the combined density, so the melt
and the gas of one bubble cohere while distinct bubbles still repel through
the melt film between them.  The oxide-network barrier is realized by
masking: while a film's rupture switch is up, each bubble's force is
evaluated on a view of the domain with the other bubble's gas removed, so
the two interfaces of the film stop attracting each other and the film
cannot snap on its own.  Ruptured films drop their masks and the plain
attraction completes the merge.

The per-phase update is a velocity shift: collide each lattice against an
equilibrium at u_total + tau * F / rho_total, where u_total mixes the two
phase velocities by mass.  Shifting the equilibrium velocity leaves the
zeroth moment untouched, so coupling exchanges momentum between the phases
but never mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from foamlbm.interaction import pseudopotential, shan_chen_force
from foamlbm.lattice import Lattice

# Cells with essentially no mass get no velocity shift instead of a 0/0.
DENSITY_FLOOR = 1e-12


@dataclass
class PhasePair:
    """The two lattices plus the interaction strength G that couples them;
    G <= -4 separates the phases."""

    melt: Lattice
    gas: Lattice
    G: float

    def __post_init__(self):
        if self.melt.grid_shape != self.gas.grid_shape:
            raise ValueError("melt and gas lattices must share a grid")


def shared_velocity(rho_melt, u_melt, rho_gas, u_gas):
    """Common interface velocity both phases relax toward: the mass-weighted
    mix (rho_m u_m + rho_g u_g) / (rho_m + rho_g).  Cells with no mass get
    the zero vector.
    """
    total = rho_melt + rho_gas
    safe = np.where(total < DENSITY_FLOOR, 1.0, total)
    num = rho_melt * u_melt + rho_gas * u_gas
    return np.where(total < DENSITY_FLOOR, 0.0, num / safe)


@dataclass
class BarrierState:
    """Dilated interaction zones and per-film switches."""

    centroids: dict[int, tuple[float, float]]
    wall_rho: float  # what a cell behind a wall reads as
    zones: dict[int, np.ndarray] = field(default_factory=dict)
    films: dict[tuple[int, int], int] = field(default_factory=dict)

    def active_films(self):
        return [pair for pair, eta in self.films.items() if eta == 1]

    def blocked(self, bubble: int) -> set[int]:
        """Ids whose gas this bubble must not see."""
        return {b if a == bubble else a for a, b in self.active_films()
                if bubble in (a, b)}


def barrier_zones(owner: np.ndarray, centroids: dict, films: dict,
                  wall_rho: float, r_z: int = 3) -> BarrierState:
    """Dilate each bubble's cells into its interaction zone and register
    contacts.

    Two bubbles are in contact when their zones overlap.  A contact absent
    from `films` enters it with its switch up (a fresh contact starts
    barricaded); a contact already there keeps its switch.  `wall_rho` is
    the density a bubble reads behind a standing wall, normally the bulk
    melt value.
    """
    state = BarrierState(centroids=dict(centroids), wall_rho=wall_rho,
                         films=dict(films))
    ids = sorted(state.centroids)
    for b in ids:
        # Euclidean distance threshold == dilation by a radius-r_z disc,
        # but linear in grid size instead of O(grid * r_z^2)
        dist = ndimage.distance_transform_edt(owner != b)
        state.zones[b] = dist <= r_z
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if (state.zones[a] & state.zones[b]).any():
                state.films.setdefault((a, b), 1)
    return state


def _nearest_owner_map(shape, candidates: dict[int, np.ndarray],
                       centroids: dict) -> np.ndarray:
    """Per-cell id of the nearest-centroid candidate zone covering the cell.

    Cells covered by no zone get 0.  Distance ties go to the lower id.
    """
    nx, ny = shape
    X, Y = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    best = np.zeros(shape, dtype=np.int64)
    best_d = np.full(shape, np.inf)
    for b in sorted(candidates):
        cx, cy = centroids[b]
        d = (X - cx) ** 2 + (Y - cy) ** 2
        mask = candidates[b] & (d < best_d)
        best[mask] = b
        best_d[mask] = d[mask]
    return best


@dataclass
class CouplingResult:
    """One coupling pass over the current populations.

    The densities are the moments the step's collide and the snapshots
    read; they are shared, never modified in place.
    """

    u_total: np.ndarray
    u_eq_melt: np.ndarray
    u_eq_gas: np.ndarray
    force: np.ndarray
    rho_melt: np.ndarray
    rho_gas: np.ndarray
    rho_total: np.ndarray


def coupled_update(pair: PhasePair, barrier: BarrierState | None = None,
                   f_ext_melt=None) -> CouplingResult:
    """One coupling pass: moments, shared velocity, interaction force, shifts.

    With no barrier (or no active films) this is the unmodified coupling: a
    single force field from the combined density.  With active films, each
    involved bubble gets a force evaluated on its masked view and every cell
    in a zone takes the force of the nearest involved bubble.  An optional
    body force f_ext_melt (2, nx, ny) shifts the melt alone.

    This is the only place a step takes the moments of its populations.
    Returns each phase's density and equilibrium velocity for its next
    collide; masses are untouched by construction.
    """
    rho_m, u_m = pair.melt.moments()
    rho_g, u_g = pair.gas.moments()
    G = pair.G
    rho_t = rho_m + rho_g
    u_total = shared_velocity(rho_m, u_m, rho_g, u_g)

    psi_t = pseudopotential(rho_t)
    force = shan_chen_force(psi_t, G)

    if barrier is not None and barrier.active_films():
        involved = sorted({b for pair_ids in barrier.active_films()
                           for b in pair_ids})
        zones = {b: barrier.zones[b] for b in involved}
        # nearest involved bubble per covered cell; doubles as the gas
        # attribution map (which side of a film a cell's gas belongs to)
        nearest = _nearest_owner_map(rho_t.shape, zones, barrier.centroids)
        for b in involved:
            sel = nearest == b
            if not sel.any():
                continue
            view = rho_t.copy()
            for other in barrier.blocked(b):
                # the wall hides the far bubble entirely: this side sees
                # liquid continuing instead of the other cavity, so the
                # coalescence suction across the film vanishes and the
                # film melt keeps its cohesion against drainage
                view[nearest == other] = barrier.wall_rho
            psi_b = pseudopotential(view)
            force_b = shan_chen_force(psi_b, G)
            force[:, sel] = force_b[:, sel]

    safe = np.where(rho_t < DENSITY_FLOOR, 1.0, rho_t)
    shift = np.where(rho_t < DENSITY_FLOOR, 0.0, force / safe)
    u_eq_m = u_total + pair.melt.tau * shift
    u_eq_g = u_total + pair.gas.tau * shift

    if f_ext_melt is not None:
        safe_m = np.where(rho_m < DENSITY_FLOOR, 1.0, rho_m)
        u_eq_m = u_eq_m + np.where(rho_m < DENSITY_FLOOR, 0.0,
                                   pair.melt.tau * f_ext_melt / safe_m)

    return CouplingResult(u_total=u_total, u_eq_melt=u_eq_m, u_eq_gas=u_eq_g,
                          force=force, rho_melt=rho_m, rho_gas=rho_g,
                          rho_total=rho_t)
