"""Coupling of the melt and gas lattices through a shared interaction field.

Both phases feel the pseudopotential of the combined density, so the melt
and the gas of one bubble cohere while distinct bubbles still repel through
the melt film between them.  The oxide-network barrier is realized by
masking: while a film's rupture switch is up, each bubble's force is
evaluated on a view of the domain with the other bubble's gas removed, so
the two interfaces of the film stop attracting each other and the film
cannot snap on its own.  Ruptured films drop their masks and the plain
attraction completes the merge.

Each per-bubble pass works inside the bubble's box, the bounding box of its
cells padded by r_z and clipped at the walls, so the barrier costs what the
bubbles cost and not the grid times the bubbles.  The windows are exact,
not approximations: every zone cell lies within r_z of a cell of its bubble
and so inside the box, and the distance transform of the box sees every
cell of the bubble.  A masked force is needed only on zone cells, and the
force stencil reaches one cell, so it is evaluated on the box padded by one.
Where that window is clipped it ends at a wall, and the force mirrors there
just as it does at the edge of the whole grid.

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
    u = rho_melt * u_melt
    u += rho_gas * u_gas
    return _divide_above_floor(u, total)


def _divide_above_floor(num, rho):
    """num / rho in place, with the zero vector wherever rho is below
    DENSITY_FLOOR."""
    empty = rho < DENSITY_FLOOR
    np.divide(num, rho, out=num, where=~empty)
    if empty.any():
        num[:, empty] = 0.0
    return num


def _pad(box, r, shape):
    """The box (a pair of slices) grown by r cells and clipped at the walls."""
    return tuple(slice(max(s.start - r, 0), min(s.stop + r, n))
                 for s, n in zip(box, shape))


def _intersect(p, q):
    """The common part of two boxes, or None where they do not meet."""
    common = tuple(slice(max(a.start, b.start), min(a.stop, b.stop))
                   for a, b in zip(p, q))
    return common if all(s.start < s.stop for s in common) else None


def _within(inner, outer):
    """A box that lies inside `outer`, in `outer`'s own coordinates."""
    return tuple(slice(i.start - o.start, i.stop - o.start)
                 for i, o in zip(inner, outer))


@dataclass
class BarrierState:
    """Interaction zones, their boxes, and per-film switches.

    `boxes[b]` is bubble b's box: the bounding box of its cells padded by
    r_z and clipped at the walls, a pair of slices.  `zones[b]` is b's zone
    within that box, so it has the box's shape.  `near` lists the pairs
    whose boxes meet; no other pair can touch.
    """

    centroids: dict[int, tuple[float, float]]
    wall_rho: float  # what a cell behind a wall reads as
    boxes: dict[int, tuple[slice, slice]] = field(default_factory=dict)
    zones: dict[int, np.ndarray] = field(default_factory=dict)
    films: dict[tuple[int, int], int] = field(default_factory=dict)
    near: list[tuple[int, int]] = field(default_factory=list)

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

    Each zone is the distance transform of the bubble's box alone, which is
    exact: the box holds every cell of the bubble, so each distance inside
    it is the distance on the whole grid, and every cell within r_z of the
    bubble lies inside it.  Zones are empty outside their boxes, so two
    zones are compared only where their boxes meet.
    """
    state = BarrierState(centroids=dict(centroids), wall_rho=wall_rho,
                         films=dict(films))
    ids = sorted(state.centroids)
    found = ndimage.find_objects(owner)
    for b in ids:
        if b > len(found) or found[b - 1] is None:
            continue
        box = _pad(found[b - 1], r_z, owner.shape)
        # Euclidean distance threshold == dilation by a radius-r_z disc,
        # but linear in the box size instead of O(box * r_z^2)
        dist = ndimage.distance_transform_edt(owner[box] != b)
        state.boxes[b] = box
        state.zones[b] = dist <= r_z
    placed = list(state.boxes)  # ids with cells, ascending
    for i, a in enumerate(placed):
        for b in placed[i + 1:]:
            common = _intersect(state.boxes[a], state.boxes[b])
            if common is None:
                continue
            state.near.append((a, b))
            za = state.zones[a][_within(common, state.boxes[a])]
            zb = state.zones[b][_within(common, state.boxes[b])]
            if (za & zb).any():
                state.films.setdefault((a, b), 1)
    return state


def _nearest_owner_map(shape, candidates: dict[int, np.ndarray],
                       boxes: dict, centroids: dict) -> np.ndarray:
    """Per-cell id of the nearest-centroid candidate zone covering the cell.

    Each candidate is visited inside its box only, where its zone lives.
    Cells covered by no zone get 0.  Distance ties go to the lower id.
    """
    best = np.zeros(shape, dtype=np.int64)
    best_d = np.full(shape, np.inf)
    for b in sorted(candidates):
        box = boxes[b]
        cx, cy = centroids[b]
        d = (np.arange(box[0].start, box[0].stop) - cx)[:, None] ** 2 \
            + (np.arange(box[1].start, box[1].stop) - cy) ** 2
        claim, claim_d = best[box], best_d[box]
        mask = candidates[b] & (d < claim_d)
        claim[mask] = b
        claim_d[mask] = d[mask]
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
    in a zone takes the force of the nearest involved bubble.  That view is
    the bubble's box padded by one cell: its zone cells lie in the box and
    the stencil reaches one cell, and a window clipped at a wall mirrors
    there as the whole grid does, so each zone cell sees the same
    pseudopotential as on a masked copy of the whole grid.  An optional
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
        nearest = _nearest_owner_map(rho_t.shape, zones, barrier.boxes,
                                     barrier.centroids)
        for b in involved:
            box = barrier.boxes[b]
            sel = nearest[box] == b
            if not sel.any():
                continue
            # the stencil reaches one cell past the box; where this window
            # is clipped it ends at a wall, which mirrors as the grid does
            win = _pad(box, 1, rho_t.shape)
            view = rho_t[win].copy()
            seen = nearest[win]
            for other in barrier.blocked(b):
                # the wall hides the far bubble entirely: this side sees
                # liquid continuing instead of the other cavity, so the
                # coalescence suction across the film vanishes and the
                # film melt keeps its cohesion against drainage
                view[seen == other] = barrier.wall_rho
            force_b = shan_chen_force(pseudopotential(view), G)
            inner = force_b[(slice(None),) + _within(box, win)]
            force[(slice(None),) + box][:, sel] = inner[:, sel]

    shift = _divide_above_floor(force.copy(), rho_t)
    u_eq_m = shift * pair.melt.tau
    u_eq_m += u_total
    u_eq_g = shift
    u_eq_g *= pair.gas.tau
    u_eq_g += u_total

    if f_ext_melt is not None:
        u_eq_m += _divide_above_floor(f_ext_melt * pair.melt.tau, rho_m)

    return CouplingResult(u_total=u_total, u_eq_melt=u_eq_m, u_eq_gas=u_eq_g,
                          force=force, rho_melt=rho_m, rho_gas=rho_g,
                          rho_total=rho_t)
