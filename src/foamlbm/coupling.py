"""Coupling of the melt and gas lattices through a shared interaction field.

Both phases feel the pseudopotential of the combined density, so the melt
and the gas of one bubble cohere while distinct bubbles still repel through
the melt film between them.  The oxide-network barrier is realized by
masking: while the caller names a film as standing, each of its bubbles
has its force evaluated on a potential in which psi(wall_rho) hides the
other bubble, so the two interfaces of the film stop attracting each
other and the film cannot snap on its own.  A ruptured film is no longer
named, so it drops its mask and the plain attraction completes the merge.

Each bubble has one window for the whole barrier pass, so the barrier costs
what the bubbles cost and not the grid times the bubbles: the bounding box
of its cells, as the bubble registry tallies them, padded by 2 r_z and
clipped at the walls.  The window is exact.  It holds the bubble, so the
zone test inside it, a row-then-column Euclidean distance test in integers
(`_zone`), gives the whole grid's zone cell for cell, and a zone cell lies
within r_z of the bubble.  Two zones meet exactly when a cell of one bubble
lies within r_z of the other's zone, so within 2 r_z of the other bubble:
the zone grown by r_z in the window covers every contact.  The masked
force is needed on zone cells only, and their stencil reads cells within
r_z + 1 <= 2 r_z of the bubble, as r_z >= 1.  Where the window is clipped
it ends at a wall, and the force mirrors there as at the grid's edge.

The per-phase update is a velocity shift: collide each lattice against an
equilibrium at u_total + tau * F / rho_total, where u_total is the summed
momentum of both phases over the total density, (j_m + j_g) / rho_total.
Shifting the equilibrium velocity leaves the zeroth moment untouched, so
coupling exchanges momentum between the phases but never mass.  With equal
taus and no melt body force the two equilibrium velocities are the same,
and one array serves both phases.  This module is the only one that
decides when the phases share a velocity: the step hands both arrays to
`lattice.collide`, which evaluates the equilibrium bracket once for the
two lattices exactly when it is given one array twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from foamlbm.interaction import pseudopotential, shan_chen_force
from foamlbm.lattice import Lattice, density_momentum

# Cells with essentially no mass get no velocity shift instead of a 0/0.
DENSITY_FLOOR = 1e-12


@dataclass
class PhasePair:
    """The two lattices, built on one grid, plus the interaction strength G
    that couples them; G <= -4 separates the phases."""

    melt: Lattice
    gas: Lattice
    G: float


def _divide_above_floor(num, rho, out):
    """num / rho into `out`, with the zero vector wherever rho is below
    DENSITY_FLOOR."""
    # the quotients of those cells are overwritten, so their 0/0 is moot
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(num, rho, out=out)
    out[:, rho < DENSITY_FLOOR] = 0.0
    return out


@dataclass
class BarrierState:
    """Interaction zones, their windows, and the contacts between them.

    `centroids` is the registry's tally of centroids, held by reference.
    `boxes[b]` is bubble b's window for the whole barrier pass: the
    bounding box of its cells, as the registry tallies it, padded by
    2 r_z and clipped at the walls, a pair of slices.  `zones[b]` is b's
    zone within that window, so it has the window's shape.  `contacts`
    lists each pair of bubbles whose zones overlap once, as (a, b) with
    a < b, ascending by a and then by b.
    """

    centroids: dict[int, tuple[float, float]]
    wall_rho: float  # what a cell behind a wall reads as
    boxes: dict[int, tuple[slice, slice]] = field(default_factory=dict)
    zones: dict[int, np.ndarray] = field(default_factory=dict)
    contacts: list[tuple[int, int]] = field(default_factory=list)


def _zone(inside, r):
    """The cells within Euclidean distance r of an `inside` cell: equal,
    cell for cell, to `ndimage.distance_transform_edt(~inside) <= r`
    wherever some cell is inside, and empty where none is.

    The squared distance is a minimum over rows, dx^2 + d_y(x + dx, y)^2,
    where d_y is the distance to the nearest inside cell within a row
    (the separable distance test of Felzenszwalb & Huttenlocher, Theory of
    Computing 8, 2012).  It is at most r^2 exactly when one of the
    2 r + 1 row offsets dx with |dx| <= r meets it, and all of it is
    integer arithmetic.
    """
    nx, ny = inside.shape
    # no two cells of the window lie further apart than nx + ny
    r = min(r, nx + ny)
    y = np.arange(ny)
    # a row without an inside cell reads a distance beyond every reach
    far = r + 1
    before = np.where(inside, y, -far)
    np.maximum.accumulate(before, axis=1, out=before)
    after = np.where(inside, y, ny - 1 + far)[:, ::-1]
    np.minimum.accumulate(after, axis=1, out=after)
    d = np.minimum(y - before, after[:, ::-1] - y)
    d *= d
    zone = d <= r * r
    for dx in range(1, r + 1):
        reach = d <= r * r - dx * dx
        zone[dx:] |= reach[:-dx]
        zone[:-dx] |= reach[dx:]
    return zone


def barrier_zones(registry, wall_rho: float, r_z: int) -> BarrierState:
    """Dilate each bubble's cells into its interaction zone and list the
    contacts.

    Two bubbles are in contact when their zones overlap.  `wall_rho` is
    the density a bubble reads behind a standing wall, normally the bulk
    melt value.  Which contacts stand as walls is not decided here: the
    caller keeps that record and names them to `coupled_update`.

    The bubbles, their centroids and their bounding boxes are read from
    `registry`, a `foam.BubbleRegistry`, whose tally holds them; no pass
    here covers the whole owner map.  Each zone is `_zone` of the bubble's
    window alone, exact as the module docstring shows.  Bubbles b < c
    touch exactly when a cell of c lies within r_z of b's zone, since a
    cell of b's zone is in c's just when it lies within r_z of a cell of
    c.  Those cells lie within 2 r_z of b, so inside b's window, and there
    `_zone` grows b's zone by r_z, unless the window holds no higher id;
    the higher ids it covers are b's contacts.
    """
    owner = registry.owner
    state = BarrierState(centroids=registry.centroids(), wall_rho=wall_rho)
    for b, cells_box in registry.boxes().items():
        state.boxes[b] = box = tuple(
            slice(max(s.start - 2 * r_z, 0), min(s.stop + 2 * r_z, n))
            for s, n in zip(cells_box, owner.shape))
        seen = owner[box]
        state.zones[b] = zone = _zone(seen == b, r_z)
        later = seen > b
        if later.any():
            reached = seen[_zone(zone, r_z) & later]
            state.contacts += [(b, c) for c in sorted(set(reached.tolist()))]
    return state


def _nearest_owner_map(barrier: BarrierState, involved, shape):
    """Per-cell id of the nearest-centroid zone covering the cell, among
    the zones of `barrier` of the ids `involved`, in ascending order.

    Each bubble is visited inside its box only, where its zone lives.
    Cells covered by no zone get 0.  Distance ties go to the lower id.
    """
    best = np.zeros(shape, dtype=np.int64)
    best_d = np.full(shape, np.inf)
    for b in involved:
        box = barrier.boxes[b]
        cx, cy = barrier.centroids[b]
        d = (np.arange(box[0].start, box[0].stop) - cx)[:, None] ** 2 \
            + (np.arange(box[1].start, box[1].stop) - cy) ** 2
        claim, claim_d = best[box], best_d[box]
        mask = barrier.zones[b] & (d < claim_d)
        claim[mask] = b
        claim_d[mask] = d[mask]
    return best


@dataclass
class CouplingResult:
    """One coupling pass over the current populations.

    The densities are the moments the step's collide and the snapshots
    read; they are shared, never modified in place.  `u_eq_melt` and
    `u_eq_gas` are one object when the phases share an equilibrium
    velocity, which is how `lattice.collide` learns that one bracket
    serves both lattices.
    """

    u_total: np.ndarray
    u_eq_melt: np.ndarray
    u_eq_gas: np.ndarray
    force: np.ndarray
    rho_melt: np.ndarray
    rho_gas: np.ndarray
    rho_total: np.ndarray


def coupled_update(pair: PhasePair, barrier: BarrierState | None = None,
                   standing=(), f_ext_melt=None) -> CouplingResult:
    """One coupling pass: moments, common velocity, interaction force, shifts.

    With no barrier (or no film in `standing`, pairs of ids with zones in
    `barrier`) this is the unmodified coupling: a single force field from
    the combined density.  Each bubble of a standing film gets a force
    evaluated on its view of the pass's potential, where psi(wall_rho)
    hides the far ends of its standing films, and every cell in a zone
    takes the force of the nearest such bubble.  That view is the bubble's
    window from `barrier.boxes`: the zone lies in it, the stencil of a
    zone cell reads no further than r_z + 1 <= 2 r_z from the bubble, and
    a window clipped at a wall mirrors there as the grid does, so each
    zone cell sees what a masked copy of the whole grid gives.
    An optional body force f_ext_melt (2, nx, ny) shifts the melt alone.

    This is the only place a step takes the moments of its populations:
    one `density_momentum` product per lattice.  The common velocity is
    the total momentum over the total density, zero in cells with no mass.
    Returns each phase's density and equilibrium velocity for its next
    collide; with equal taus and no body force both phases get the same
    velocity array.  Masses are untouched by construction.
    """
    rho_m, j_m = density_momentum(pair.melt.f)
    rho_g, j_g = density_momentum(pair.gas.f)
    G = pair.G
    rho_t = rho_m + rho_g
    # each density keeps its momentum planes alive, so the melt's take
    # u_total and the gas's the force shift
    j_m += j_g
    u_total = _divide_above_floor(j_m, rho_t, out=j_m)

    psi_t = pseudopotential(rho_t)
    force = shan_chen_force(psi_t, G)

    if barrier is not None and standing:
        involved = sorted({b for pair_ids in standing for b in pair_ids})
        # nearest involved bubble per covered cell; doubles as the gas
        # attribution map (which side of a film a cell's gas belongs to)
        nearest = _nearest_owner_map(barrier, involved, rho_t.shape)
        psi_wall = pseudopotential(barrier.wall_rho)
        for b in involved:
            win = barrier.boxes[b]
            seen = nearest[win]
            sel = seen == b
            view = psi_t[win].copy()
            for other in [a if c == b else c for a, c in standing
                          if b in (a, c)]:
                # the wall hides the far bubble entirely: this side sees
                # liquid continuing instead of the other cavity, so the
                # coalescence suction across the film vanishes and the
                # film melt keeps its cohesion against drainage
                view[seen == other] = psi_wall
            force_b = shan_chen_force(view, G)
            force[(slice(None),) + win][:, sel] = force_b[:, sel]

    shift = _divide_above_floor(force, rho_t, out=j_g)
    # the melt needs a velocity of its own only for a tau or a drive of
    # its own; otherwise it shares the gas's
    u_eq_m = None
    if f_ext_melt is not None or pair.melt.tau != pair.gas.tau:
        u_eq_m = shift * pair.melt.tau
        u_eq_m += u_total
        if f_ext_melt is not None:
            drive = f_ext_melt * pair.melt.tau
            u_eq_m += _divide_above_floor(drive, rho_m, out=drive)
    u_eq_g = shift
    u_eq_g *= pair.gas.tau
    u_eq_g += u_total
    if u_eq_m is None:
        u_eq_m = u_eq_g

    return CouplingResult(u_total=u_total, u_eq_melt=u_eq_m, u_eq_gas=u_eq_g,
                          force=force, rho_melt=rho_m, rho_gas=rho_g,
                          rho_total=rho_t)
