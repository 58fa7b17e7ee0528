"""Foam formation driver: nucleation, gas injection, tracking, rupture.

The driver owns the bookkeeping that turns two coupled lattices into a
foaming process: random seed placement, per-step gas release into bubble
cells, connected-component ownership with merge lineage, and the
film-rupture monitor that latches a film open when the pressure profile
across it flattens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError
from .coupling import CouplingResult, PhasePair, barrier_zones, coupled_update
from .interaction import eos_pressure
from .lattice import VELOCITY_WARN, InstabilityError, collide
from .stencil import CS2

# spacing, in cells, of the samples along a film probe's centroid line
PROBE_SAMPLING = 0.5
MIN_FILM_CELLS = 3.0
# the curvature test presumes a formed channel: with the interfaces further
# apart than two interface widths the profile is trivially flat and the
# test would fire on contact, so it stays disarmed until the film is thin
PRESSURE_TEST_GAP = 2 * MIN_FILM_CELLS
# share of cells with a negative population at which a run is aborted
ABORT_NEGATIVE_FRACTION = 0.1


@dataclass
class Bubble:
    seed: tuple[int, int] | None
    n_moles: float = 0.0
    state: str = "active"


class BubbleRegistry:
    """Ownership bookkeeping: every gas-majority cell belongs to one bubble.

    `owner` is the owner map.  Only `replace_owner` builds it, from the
    owned cells and their ids, and that call also tallies them, so
    `cells()`, `counts()`, `centroids()` and `boxes()` return what it
    stored: the owned cells with their ids are the tally, and no method
    scans the map again.  The map is read-only: assigning `owner` or
    editing it in place raises.  The pipeline replaces it once per step,
    in `track_bubbles`.
    """

    def __init__(self, shape):
        self.bubbles: dict[int, Bubble] = {}
        self._owner = np.zeros(shape, dtype=np.int64)
        empty = np.zeros(0, dtype=np.int64)
        self.replace_owner(empty, empty)

    @property
    def owner(self) -> np.ndarray:
        return self._owner

    def new_bubble(self, **fields) -> int:
        """Register a `Bubble(**fields)` and return its id, its key in
        `bubbles`.  Bubbles are never removed, so the ids run 1, 2, 3, ...
        and are never reused."""
        bid = len(self.bubbles) + 1
        self.bubbles[bid] = Bubble(**fields)
        return bid

    def active_ids(self) -> list[int]:
        return [bid for bid, b in self.bubbles.items() if b.state == "active"]

    def replace_owner(self, flat, ids) -> None:
        """Own the cells at the ascending flat indices `flat` by their
        nonzero ids `ids`, and no others: the new map is `ids` scattered
        into a fresh zero map of the registry's shape, frozen and tallied
        here."""
        owner = np.zeros_like(self._owner)
        owner.ravel()[flat] = ids
        owner.flags.writeable = False
        # the per-id sums run over the owned cells only.  Coordinates are
        # integers, so the sums are exact and the centroids do not depend
        # on the order of summation
        x, y = np.divmod(flat, owner.shape[1])
        n = np.bincount(ids)
        sx = np.bincount(ids, weights=x)
        sy = np.bincount(ids, weights=y)
        present = np.flatnonzero(n)
        self._owner, self._cells, self._ids = owner, flat, ids
        self._counts = dict(zip(present.tolist(), n[present].tolist()))
        self._centroids = {i: (float(sx[i] / n[i]), float(sy[i] / n[i]))
                           for i in present.tolist()}

    def cells(self) -> np.ndarray:
        """Flat indices of the owned cells, in ascending order."""
        return self._cells

    def counts(self) -> dict[int, int]:
        return self._counts

    def centroids(self) -> dict[int, tuple[float, float]]:
        return self._centroids

    def boxes(self) -> dict[int, tuple[slice, slice]]:
        """Each owning id's bounding box, a pair of slices around its
        cells as `ndimage.find_objects` gives it, keyed in ascending id
        order.  It is taken from the tally when asked, since only the
        barrier pass reads it."""
        x, y = np.divmod(self._cells, self._owner.shape[1])
        ids = self._ids
        span = int(ids.max(initial=0)) + 1
        lo = np.full((2, span), max(self._owner.shape))
        hi = np.full((2, span), -1)
        for axis, coord in enumerate((x, y)):
            np.minimum.at(lo[axis], ids, coord)
            np.maximum.at(hi[axis], ids, coord)
        return {i: (slice(int(lo[0, i]), int(hi[0, i]) + 1),
                    slice(int(lo[1, i]), int(hi[1, i]) + 1))
                for i in self._counts}


def nucleate(grid_shape, count, seed, min_spacing) -> list[tuple[int, int]]:
    """Draw `count` seed cells uniformly, rejecting pairs closer than
    min_spacing, and return them in the order drawn. Deterministic for a
    fixed seed; bounded retries, past which the config is at fault.  A
    positive min_spacing also rejects a cell drawn twice."""
    nx, ny = grid_shape
    rng = np.random.default_rng(seed)
    placed: list[tuple[int, int]] = []
    # a site closer than min_spacing to a draw lies in the draw's square of
    # that side or in one of the eight around it; a square holds at most 4
    squares: dict[tuple[int, int], list[tuple[int, int]]] = {}
    draws = 0
    cap = 100 * count
    while len(placed) < count:
        if draws >= cap:
            raise ConfigError(
                "nucleation_count = %d sites do not fit min_spacing = %g "
                "apart on the %d x %d grid: could not place all nucleation "
                "sites within the retry cap; reduce count or min_spacing"
                % (count, min_spacing, nx, ny))
        draws += 1
        cand = (int(rng.integers(nx)), int(rng.integers(ny)))
        i, j = int(cand[0] // min_spacing), int(cand[1] // min_spacing)
        near = (p for di in (-1, 0, 1) for dj in (-1, 0, 1)
                for p in squares.get((i + di, j + dj), ()))
        if not any(math.hypot(cand[0] - p[0], cand[1] - p[1]) < min_spacing
                   for p in near):
            placed.append(cand)
            squares.setdefault((i, j), []).append(cand)
    return placed


@dataclass
class GrowthSchedule:
    """The moles of gas injected so far.  The release itself, at
    `growth_dn_dt` mol/s up to `growth_budget` mol at `growth_A` pressure
    per mole, is read from the run's config."""

    injected: float = 0.0


def inject_gas(gas_lattice, registry, schedule, cfg) -> float:
    """Release one step of gas into the owned cells.

    The step releases `cfg.growth_dn_dt * cfg.dt` moles, capped by what is
    left of `cfg.growth_budget`.  Every gas cell receives the same pressure
    increment dp = growth_A * (moles this step) / N, realized as a density
    increment dp / c_s^2 by rescaling the cell's populations at fixed
    velocity.  Returns the moles actually injected.
    """
    if schedule.injected >= cfg.growth_budget:
        return 0.0
    cells = registry.cells()
    n_cells = cells.size
    if n_cells == 0:
        return 0.0
    moles = min(cfg.growth_dn_dt * cfg.dt,
                cfg.growth_budget - schedule.injected)
    dp = cfg.growth_A * moles / n_cells
    drho = dp / CS2
    # only owned cells change: gather their populations, rescale, scatter.
    # `take` keeps the gathered planes row-major, so the density below sums
    # the nine planes in the same order as a sum over the whole grid
    planes = gas_lattice.f.reshape(9, -1)
    owned = np.take(planes, cells, axis=1)
    rho = owned.sum(axis=0)
    owned *= (rho + drho) / np.maximum(rho, 1e-300)
    planes[:, cells] = owned
    for bid, n in registry.counts().items():
        registry.bubbles[bid].n_moles += moles * n / n_cells
    schedule.injected += moles
    return moles


def _components(mask):
    """The 4-connected components of a 2-D bool mask, found from its runs.

    Returns the flat indices of the mask's cells in ascending order, the
    component number of each, and the number of components.  Components
    are numbered 1, 2, ... by their first cell in raster order, as
    `ndimage.label` numbers them.  A run is a maximal stretch of cells
    along the last axis; two runs in adjacent rows touch when their spans
    overlap (run-based labelling: He, Chao & Suzuki, IEEE TIP 17(5),
    2008).  The contacts are resolved by hooking each root under the
    smaller one and pointing every run at its root, until no contact joins
    two roots.
    """
    ny = mask.shape[1]
    flat = np.flatnonzero(mask)
    if flat.size == 0:
        return flat, flat, 0
    # a run ends where the next cell is not its neighbour along the row
    cut = np.flatnonzero((np.diff(flat) != 1) | (flat[1:] % ny == 0)) + 1
    first = np.concatenate(([0], cut))
    lengths = np.diff(np.append(first, flat.size))
    start = flat[first]
    end = start + lengths - 1
    # the runs one row up that overlap a run are a contiguous range of
    # runs: those ending at or after its start and starting at or before
    # its end, each shifted up a row
    lo = np.searchsorted(end, start - ny, side="left")
    hi = np.searchsorted(start, end - ny, side="right")
    n = np.maximum(hi - lo, 0)
    below = np.repeat(np.arange(start.size), n)
    above = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
    # every root is the smallest run of its tree, so a component's root is
    # its first run in raster order
    root = np.arange(start.size)
    while True:
        a, b = root[above], root[below]
        apart = a != b
        if not apart.any():
            break
        np.minimum.at(root, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    number = np.cumsum(root == np.arange(start.size))
    return flat, np.repeat(number[root], lengths), int(number[-1])


def track_bubbles(registry, mask) -> list[dict]:
    """Re-derive ownership from a bubble mask and reconcile with history.

    Connected components (4-connectivity, from `_components`, which hands
    over the mask's cells with their component numbers and leaves no
    label grid) are matched to the previous step's bubbles by overlap.  A
    component covering two or more prior bubbles is a merge: it gets a
    fresh id and their moles, and they turn "merged".  A component
    covering none is a spurious droplet, a "new" event that `step` counts
    in `FoamWorld.spurious_droplets`.  The components covering one prior
    bubble are its fragments: the parent keeps the one it overlaps most,
    and every other fragment splits off under a fresh id, each with its
    cell share of the parent's moles.  A parent that merged in this same
    pass keeps no fragment, and its fragments split off with no moles.
    The events carry the lineage: a merge event names its parents, a
    split event its parent.  Ids are never reused.  The caller decides
    what counts as bubble: in the running simulation the mask is total
    density below the branch midpoint, since both lattices share one
    velocity field and the gas marker alone slowly bleeds across
    interfaces.
    """
    flat, comp_of, n_comp = _components(np.asarray(mask, dtype=bool))
    prev = registry.owner
    events: list[dict] = []
    claimed: dict[int, list[tuple[int, int]]] = {}
    # every (component, prior owner) overlap from one count of the pairs
    # under the mask's cells, keyed as comp * span + prior id
    under = prev.ravel()[flat]
    kept = under > 0
    span = int(under.max(initial=0)) + 1
    keys, cnt = np.unique(comp_of[kept].astype(np.int64) * span
                          + under[kept], return_counts=True)
    overlaps: dict[int, dict[int, int]] = {
        comp: {} for comp in range(1, n_comp + 1)}
    for comp, pid, n in zip((keys // span).tolist(), (keys % span).tolist(),
                            cnt.tolist()):
        overlaps[comp][pid] = n
    sizes = np.bincount(comp_of, minlength=n_comp + 1).tolist()
    resolved: dict[int, int] = {}
    for comp in range(1, n_comp + 1):
        parents = sorted(overlaps[comp])
        if len(parents) == 1:
            claimed.setdefault(parents[0], []).append(
                (overlaps[comp][parents[0]], comp))
            continue
        moles = 0.0
        for p in parents:
            moles += registry.bubbles[p].n_moles
            registry.bubbles[p].state = "merged"
            registry.bubbles[p].n_moles = 0.0
        nid = registry.new_bubble(seed=None, n_moles=moles)
        resolved[comp] = nid
        events.append({"kind": "merge", "id": nid, "parents": tuple(parents)}
                      if parents else {"kind": "new", "id": nid})
    for pid, contenders in claimed.items():
        contenders.sort(reverse=True)
        parent = registry.bubbles[pid]
        parent_moles = parent.n_moles
        total = sum(sizes[c] for _, c in contenders)
        if parent.state == "active":
            _, best = contenders.pop(0)
            resolved[best] = pid
            if contenders:
                parent.n_moles = parent_moles * sizes[best] / total
        for _, comp in contenders:
            share = parent_moles * sizes[comp] / total
            nid = registry.new_bubble(seed=None, n_moles=share)
            resolved[comp] = nid
            events.append({"kind": "split", "id": nid, "parent": pid})
    alive = set(resolved.values())
    for bid, bubble in registry.bubbles.items():
        if bubble.state == "active" and bid not in alive:
            bubble.state = "dissolved"
            events.append({"kind": "lost", "id": bid})
    relabel = np.zeros(n_comp + 1, dtype=prev.dtype)
    for comp, bid in resolved.items():
        relabel[comp] = bid
    # every component got a nonzero id, so the mask's cells are the owned
    registry.replace_owner(flat, relabel[comp_of])
    return events


@dataclass(frozen=True)
class FilmProbe:
    midpoint: tuple[float, float]
    normal: tuple[float, float]
    gap_cells: float


def _sample_nearest(grid, xs, ys):
    """`grid` at the cells nearest the points (xs, ys), clamped to the
    grid: `ndimage.map_coordinates(order=0, mode="nearest")`, bit for
    bit."""
    nx, ny = grid.shape
    i = np.clip(np.floor(xs + 0.5).astype(np.int64), 0, nx - 1)
    j = np.clip(np.floor(ys + 0.5).astype(np.int64), 0, ny - 1)
    return grid[i, j]


def _sample_bilinear(grid, xs, ys):
    """`grid` interpolated bilinearly at the points (xs, ys):
    `ndimage.map_coordinates(order=1, mode="nearest")`, bit for bit.  The
    corner indices are clamped to the grid, while the weights come from
    the unclamped coordinates, and the four terms f * w_x * w_y are summed
    from 0.0 in the order (x0, y0), (x0, y1), (x1, y0), (x1, y1)."""
    nx, ny = grid.shape
    x0, y0 = np.floor(xs), np.floor(ys)
    tx, ty = xs - x0, ys - y0
    i0, j0 = x0.astype(np.int64), y0.astype(np.int64)
    out = 0.0
    for i, wx in ((i0, 1.0 - tx), (i0 + 1, tx)):
        for j, wy in ((j0, 1.0 - ty), (j0 + 1, ty)):
            out = out + grid[np.clip(i, 0, nx - 1), np.clip(j, 0, ny - 1)] \
                * wx * wy
    return out


def film_probe(owner, centroids, a, b):
    """Locate the melt gap between bubbles a and b along their centroid
    line. Returns None when the line never crosses both bubbles."""
    ca, cb = centroids[a], centroids[b]
    dx, dy = cb[0] - ca[0], cb[1] - ca[1]
    length = math.hypot(dx, dy)
    if length == 0.0:
        return None
    nx_, ny_ = dx / length, dy / length
    ts = np.arange(0.0, length + PROBE_SAMPLING, PROBE_SAMPLING)
    xs = ca[0] + ts * nx_
    ys = ca[1] + ts * ny_
    ids = _sample_nearest(owner, xs, ys)
    in_a = np.flatnonzero(ids == a)
    in_b = np.flatnonzero(ids == b)
    if in_a.size == 0 or in_b.size == 0:
        return None
    last_a = in_a.max()
    after = in_b[in_b > last_a]
    if after.size == 0:
        return None
    first_b = after.min()
    gap = (first_b - last_a - 1) * PROBE_SAMPLING
    mid_t = 0.5 * (ts[last_a] + ts[first_b])
    mid = (ca[0] + mid_t * nx_, ca[1] + mid_t * ny_)
    return FilmProbe(midpoint=mid, normal=(nx_, ny_), gap_cells=float(gap))


def detect_rupture(pressure, film, tol) -> int:
    """Film state from the pressure curvature at the film midpoint.

    The pressure is sampled bilinearly at the midpoint and one cell either
    side of it along the film normal; the film opens (0) when their second
    difference is within `tol` (the caller's eps_p * (p.max() - p.min()),
    taken once per field), i.e. the profile has flattened. Films thinner
    than 3 cells open unconditionally; films wider than the armed gap hold
    whatever the profile.
    """
    if film.gap_cells < MIN_FILM_CELLS:
        return 0
    if film.gap_cells > PRESSURE_TEST_GAP:
        return 1
    offsets = np.array([-1.0, 0.0, 1.0])
    xs = film.midpoint[0] + offsets * film.normal[0]
    ys = film.midpoint[1] + offsets * film.normal[1]
    prof = _sample_bilinear(pressure, xs, ys)
    d2p = prof[0] - 2.0 * prof[1] + prof[2]
    if abs(d2p) <= tol:
        return 0
    return 1


@dataclass
class FoamWorld:
    """One foaming simulation: coupled lattices plus process state, built
    from the lattice pair, the bubble registry and `cfg`, the run's
    validated SimulationConfig.  `cfg` is the only source of its run
    parameters, the gas release among them.  The world derives `schedule`
    from it: a fresh GrowthSchedule, which keeps the moles injected so far,
    when the config sets a gas budget, and None otherwise."""

    pair: PhasePair
    registry: BubbleRegistry
    cfg: "SimulationConfig"
    schedule: GrowthSchedule | None = field(default=None, init=False)
    step_count: int = field(default=0, init=False)
    # the film ledger {(a, b): eta}: the coupling pass enters a contact
    # standing (1), the monitor latches it open (0) and `step` prunes it
    films: dict = field(default_factory=dict, init=False)
    merge_events: list = field(default_factory=list, init=False)
    rupture_events: list = field(default_factory=list, init=False)
    # steps whose equilibrium speed left the envelope on either lattice
    envelope_steps: int = field(default=0, init=False)
    # gas components that appeared with no prior bubble (spurious droplets)
    spurious_droplets: int = field(default=0, init=False)
    coupling: CouplingResult = field(default=None, init=False)

    def __post_init__(self):
        if self.cfg.growth_budget > 0:
            self.schedule = GrowthSchedule()
        self._refresh_coupling()

    @property
    def first_merge_step(self) -> int | None:
        return self.merge_events[0]["step"] if self.merge_events else None

    @property
    def first_rupture_step(self) -> int | None:
        return self.rupture_events[0]["step"] if self.rupture_events else None

    @property
    def negative_fraction(self) -> float:
        """Share of cells with a negative population after the last
        collide, on the worse of the two lattices."""
        melt, gas = self.pair.melt, self.pair.gas
        return max(melt.negative_count, gas.negative_count) / math.prod(
            melt.grid_shape)

    def standing_films(self) -> list[tuple[int, int]]:
        """The ledger's standing films (eta = 1), in the order of entry."""
        return [pr for pr, eta in self.films.items() if eta == 1]

    def _drive_force(self):
        # body force on the melt pointing away from the midline between
        # the two tracked bubbles: melt pressure bottoms out at the center
        # and buoyancy walks both bubbles inward, the lattice analogue of
        # a prescribed approach velocity. A cavity cannot be moved by
        # pushing the thin gas inside it. Acts only on the two seeded
        # bubbles of the two-bubble scenario, ids 1 and 2, and shuts off
        # when they merge.
        if not self.cfg.approach_force or self.cfg.scenario != "two_bubble":
            return None
        a, b = 1, 2
        if (a, b) in self.standing_films():
            # a standing wall bears the squeeze; the approach stalls
            # until the film ruptures and normal dynamics resume
            return None
        # a merged or dissolved bubble owns no cells, and neither does a
        # disc smaller than a cell at build time
        cents = self.registry.centroids()
        if a not in cents or b not in cents:
            return None
        shape = self.registry.owner.shape
        mid_x = 0.5 * (cents[a][0] + cents[b][0])
        f = np.zeros((2,) + shape)
        profile = np.tanh((np.arange(shape[0]) - mid_x) / 4.0)
        f[0] = self.cfg.approach_force * profile[:, None]
        f[0].ravel()[self.registry.cells()] = 0.0  # melt is thin in bubbles
        return f

    def _refresh_coupling(self):
        cfg, barrier = self.cfg, None
        if cfg.model == "modified":
            barrier = barrier_zones(self.registry, r_z=cfg.barrier_r_z,
                                    wall_rho=cfg.rho_melt + cfg.rho_background)
            # a fresh contact enters standing; a ruptured film stays open
            for pr in barrier.contacts:
                self.films.setdefault(pr, 1)
        self.coupling = coupled_update(self.pair, barrier=barrier,
                                       standing=self.standing_films(),
                                       f_ext_melt=self._drive_force())

    def bubble_mask(self):
        # thresholds between the total-density plateaus of gas and melt
        cfg, bg = self.cfg, self.cfg.rho_background
        midpoint = 0.5 * ((cfg.rho_gas + bg) + (cfg.rho_melt + bg))
        return self.coupling.rho_total < midpoint

    def pressure(self):
        return eos_pressure(self.coupling.rho_total, self.pair.G)


def step(world: FoamWorld) -> FoamWorld:
    """Advance one lattice step in pipeline order: collide and stream (one
    pass), grow, force (film-aware), couple, track, monitor films."""
    pair, cp = world.pair, world.coupling
    collide((pair.melt, pair.gas), (cp.rho_melt, cp.rho_gas),
            (cp.u_eq_melt, cp.u_eq_gas))
    if max(pair.melt.max_speed, pair.gas.max_speed) > VELOCITY_WARN:
        world.envelope_steps += 1
    if world.schedule is not None:
        inject_gas(pair.gas, world.registry, world.schedule, world.cfg)
    world._refresh_coupling()
    events = track_bubbles(world.registry, world.bubble_mask())
    for ev in events:
        if ev["kind"] == "merge":
            ev["step"] = world.step_count
            world.merge_events.append(ev)
        elif ev["kind"] == "new":
            world.spurious_droplets += 1
    # a film lives only while both of its bubbles do: merged and
    # dissolved bubbles take their films with them
    active = set(world.registry.active_ids())
    world.films = {pr: eta for pr, eta in world.films.items()
                   if active.issuperset(pr)}
    _monitor_films(world)
    world.step_count += 1
    return world


def _monitor_films(world: FoamWorld) -> None:
    # a classic world runs no zone pass, so its ledger stays empty
    standing = world.standing_films()
    if not standing:
        return
    centroids = world.registry.centroids()
    p = world.pressure()
    tol = world.cfg.barrier_eps_p * float(p.max() - p.min())
    for pr in standing:
        probe = film_probe(world.registry.owner, centroids, *pr)
        if probe is None:
            continue
        eta = detect_rupture(p, probe, tol)
        if eta == 0:
            world.films[pr] = 0
            event = {"pair": pr, "step": world.step_count,
                     "gap_cells": probe.gap_cells}
            world.rupture_events.append(event)


def terminate(world: FoamWorld) -> str | None:
    """The reason to stop now, or None to go on: the step cap under both
    rules, and under "first_rupture" also the first rupture."""
    if world.step_count >= world.cfg.max_steps:
        return "step cap"
    if world.cfg.stop_rule == "first_rupture" \
            and world.first_rupture_step is not None:
        return "first rupture"
    return None


def run_until_done(world, on_step=None):
    """Drive the world until terminate() fires; returns the stop reason.
    Raises InstabilityError when the run goes numerically unstable.  The
    benchmark's tracer times each step by replacing `step` in this
    module's namespace, so a loop elsewhere that imports `step` would go
    untimed."""
    while True:
        reason = terminate(world)
        if reason is not None:
            return reason
        step(world)
        if world.negative_fraction > ABORT_NEGATIVE_FRACTION:
            raise InstabilityError(
                "over {:.0%} of cells carry negative populations".format(
                    ABORT_NEGATIVE_FRACTION))
        if on_step is not None:
            on_step(world)
