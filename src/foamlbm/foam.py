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
from scipy import ndimage

from .coupling import PhasePair, barrier_zones, coupled_update
from .interaction import eos_pressure
from .lattice import VELOCITY_WARN
from .metrics import FOUR_CONNECTED
from .stencil import CS2

PROFILE_POINTS = 9
MIN_FILM_CELLS = 3.0
# the curvature test presumes a formed channel: with the interfaces further
# apart than two interface widths the profile is trivially flat and the
# test would fire on contact, so it stays disarmed until the film is thin
PRESSURE_TEST_GAP = 2 * MIN_FILM_CELLS


@dataclass
class Bubble:
    id: int
    seed: tuple[int, int] | None
    n_moles: float = 0.0
    state: str = "active"
    parents: tuple[int, ...] = ()


@dataclass
class BubbleRegistry:
    """Ownership bookkeeping: every gas-majority cell belongs to one bubble.

    `counts()`, `centroids()` and `cells()` come from one tally of the
    owner map, taken when first asked for after `owner` was last assigned.
    The pipeline replaces `owner` once per step and never edits it in
    place; code that edits it in place must do so before the first read.
    """

    shape: tuple[int, int]
    rng_seed: int
    bubbles: dict[int, Bubble] = field(default_factory=dict)
    owner: np.ndarray = None
    next_id: int = 1
    _tally: tuple = field(default=None, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if self.owner is None:
            self.owner = np.zeros(self.shape, dtype=np.int64)

    def active_ids(self) -> list[int]:
        return [b.id for b in self.bubbles.values() if b.state == "active"]

    def _tallied(self):
        if self._tally is None or self._tally[0] is not self.owner:
            # one pass over the grid finds the owned cells; the per-id sums
            # then run over those cells only.  Coordinates are integers, so
            # the sums are exact and the centroids do not depend on the
            # order of summation
            flat = np.flatnonzero(self.owner)
            ids = self.owner.ravel()[flat]
            x, y = np.divmod(flat, self.owner.shape[1])
            n = np.bincount(ids)
            sx = np.bincount(ids, weights=x)
            sy = np.bincount(ids, weights=y)
            present = np.flatnonzero(n)
            counts = dict(zip(present.tolist(), n[present].tolist()))
            cents = {i: (float(sx[i] / n[i]), float(sy[i] / n[i]))
                     for i in present.tolist()}
            self._tally = (self.owner, flat, counts, cents)
        return self._tally

    def cells(self) -> np.ndarray:
        """Flat indices of the owned cells, in ascending order."""
        return self._tallied()[1]

    def counts(self) -> dict[int, int]:
        return self._tallied()[2]

    def centroids(self) -> dict[int, tuple[float, float]]:
        return self._tallied()[3]


def nucleate(grid_shape, count, seed, min_spacing) -> BubbleRegistry:
    """Draw `count` seed cells uniformly, rejecting pairs closer than
    min_spacing. Deterministic for a fixed seed; bounded retries."""
    nx, ny = grid_shape
    if count < 1:
        raise ValueError("nucleation count must be at least 1")
    rng = np.random.default_rng(seed)
    placed: list[tuple[int, int]] = []
    draws = 0
    cap = 100 * count
    while len(placed) < count:
        if draws >= cap:
            raise RuntimeError(
                "could not place all nucleation sites within the retry cap; "
                "reduce count or min_spacing")
        draws += 1
        cand = (int(rng.integers(nx)), int(rng.integers(ny)))
        if cand in placed:
            continue
        if any(math.hypot(cand[0] - p[0], cand[1] - p[1]) < min_spacing
               for p in placed):
            continue
        placed.append(cand)
    reg = BubbleRegistry(shape=(nx, ny), rng_seed=seed)
    for site in placed:
        reg.bubbles[reg.next_id] = Bubble(id=reg.next_id, seed=site)
        reg.owner[site] = reg.next_id
        reg.next_id += 1
    return reg


def initial_fields(registry, melt_density, gas_density, background=0.05):
    """Density fields for a freshly nucleated domain: seed cells carry the
    gas density, everything else is melt over a dissolved-gas background."""
    seeds = registry.owner > 0
    melt = np.where(seeds, background, melt_density)
    gas = np.where(seeds, gas_density, background)
    return melt, gas


@dataclass
class GrowthSchedule:
    """Gas release bookkeeping in physical moles, realized on the lattice."""

    A: float            # pressure per mole at one cell, lattice units
    dn_dt: float        # release rate, mol/s
    budget: float       # total moles to inject
    delta_t_phys: float  # seconds per lattice step
    injected: float = 0.0

    def __post_init__(self):
        if self.budget < 0 or self.dn_dt < 0 or self.delta_t_phys <= 0:
            raise ValueError("growth schedule parameters must be nonnegative")

    @property
    def exhausted(self) -> bool:
        return self.injected >= self.budget


def inject_gas(gas_lattice, registry, schedule) -> float:
    """Release one step of gas into the owned cells.

    Every gas cell receives the same pressure increment
    dp = A * (moles this step) / N, realized as a density increment
    dp / c_s^2 by rescaling the cell's populations at fixed velocity.
    Returns the moles actually injected.
    """
    if schedule.exhausted or schedule.dn_dt == 0.0:
        return 0.0
    cells = registry.cells()
    n_cells = cells.size
    if n_cells == 0:
        return 0.0
    moles = min(schedule.dn_dt * schedule.delta_t_phys,
                schedule.budget - schedule.injected)
    dp = schedule.A * moles / n_cells
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


def track_bubbles(registry, mask) -> list[dict]:
    """Re-derive ownership from a bubble mask and reconcile with history.

    Connected components (4-connectivity) are matched to the previous
    step's bubbles by maximal overlap. A component covering two or more
    prior bubbles is a merge: it gets a fresh id and records its parents.
    A component covering none is a spurious droplet, a "new" event that
    `step` counts in `FoamWorld.spurious_droplets`. Ids are never reused.
    The caller decides what counts as bubble: in the running simulation the
    mask is total density below the branch midpoint, since both lattices
    share one velocity field and the gas marker alone slowly bleeds across
    interfaces.
    """
    labels, n_comp = ndimage.label(np.asarray(mask, dtype=bool),
                                   structure=FOUR_CONNECTED)
    prev = registry.owner
    events: list[dict] = []
    claimed: dict[int, list[tuple[int, int]]] = {}
    # every (component, prior owner) overlap from one count of the pairs
    # under the labeled cells, keyed as comp * span + prior id
    flat = np.flatnonzero(labels)
    comp_of = labels.ravel()[flat]
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
    merged_away: set[int] = set()
    for comp in range(1, n_comp + 1):
        parents = sorted(overlaps[comp])
        if len(parents) >= 2:
            nid = registry.next_id
            registry.next_id += 1
            moles = 0.0
            for p in parents:
                moles += registry.bubbles[p].n_moles
                registry.bubbles[p].state = "merged"
                registry.bubbles[p].n_moles = 0.0
                merged_away.add(p)
            registry.bubbles[nid] = Bubble(id=nid, seed=None, n_moles=moles,
                                           parents=tuple(parents))
            resolved[comp] = nid
            events.append({"kind": "merge", "id": nid,
                           "parents": tuple(parents)})
        elif len(parents) == 1:
            claimed.setdefault(parents[0], []).append(
                (overlaps[comp][parents[0]], comp))
        else:
            nid = registry.next_id
            registry.next_id += 1
            registry.bubbles[nid] = Bubble(id=nid, seed=None)
            resolved[comp] = nid
            events.append({"kind": "new", "id": nid})
    for pid, contenders in claimed.items():
        contenders.sort(reverse=True)
        if pid in merged_away:
            # parent already absorbed into a merge this pass; fragments of
            # it become fresh bubbles rather than resurrecting the id
            for _, comp in contenders:
                nid = registry.next_id
                registry.next_id += 1
                registry.bubbles[nid] = Bubble(id=nid, seed=None,
                                               parents=(pid,))
                resolved[comp] = nid
                events.append({"kind": "split", "id": nid, "parent": pid})
            continue
        best = contenders[0][1]
        resolved[best] = pid
        survivors = [c for _, c in contenders[1:]]
        if survivors:
            total = sum(sizes[c] for c in [best] + survivors)
            parent_moles = registry.bubbles[pid].n_moles
            registry.bubbles[pid].n_moles = (
                parent_moles * sizes[best] / total)
            for comp in survivors:
                nid = registry.next_id
                registry.next_id += 1
                share = parent_moles * sizes[comp] / total
                registry.bubbles[nid] = Bubble(id=nid, seed=None,
                                               n_moles=share, parents=(pid,))
                resolved[comp] = nid
                events.append({"kind": "split", "id": nid, "parent": pid})
    alive = set(resolved.values())
    for bid, bubble in registry.bubbles.items():
        if bubble.state == "active" and bid not in alive \
                and bid not in merged_away:
            bubble.state = "dissolved"
            events.append({"kind": "lost", "id": bid})
    relabel = np.zeros(n_comp + 1, dtype=prev.dtype)
    for comp, bid in resolved.items():
        relabel[comp] = bid
    new_owner = np.zeros_like(prev)
    new_owner.ravel()[flat] = relabel[comp_of]
    registry.owner = new_owner
    return events


@dataclass(frozen=True)
class FilmProbe:
    pair: tuple[int, int]
    midpoint: tuple[float, float]
    normal: tuple[float, float]
    gap_cells: float


def film_probe(owner, centroids, a, b, sampling=0.5):
    """Locate the melt gap between bubbles a and b along their centroid
    line. Returns None when the line never crosses both bubbles."""
    ca, cb = centroids[a], centroids[b]
    dx, dy = cb[0] - ca[0], cb[1] - ca[1]
    length = math.hypot(dx, dy)
    if length == 0.0:
        return None
    nx_, ny_ = dx / length, dy / length
    ts = np.arange(0.0, length + sampling, sampling)
    xs = ca[0] + ts * nx_
    ys = ca[1] + ts * ny_
    ids = ndimage.map_coordinates(owner, np.stack([xs, ys]), order=0,
                                  mode="nearest")
    in_a = np.flatnonzero(ids == a)
    in_b = np.flatnonzero(ids == b)
    if in_a.size == 0 or in_b.size == 0:
        return None
    last_a = in_a.max()
    after = in_b[in_b > last_a]
    if after.size == 0:
        return None
    first_b = after.min()
    gap = (first_b - last_a - 1) * sampling
    mid_t = 0.5 * (ts[last_a] + ts[first_b])
    mid = (ca[0] + mid_t * nx_, ca[1] + mid_t * ny_)
    key = (a, b) if a < b else (b, a)
    return FilmProbe(pair=key, midpoint=mid, normal=(nx_, ny_),
                     gap_cells=float(gap))


def detect_rupture(pressure, film, eps_p=1e-3) -> int:
    """Film state from the pressure curvature at the film midpoint.

    A 9-point profile is sampled along the film normal (unit spacing,
    bilinear interpolation); the film opens (0) when the central second
    difference is within eps_p of the domain pressure range, i.e. the
    profile has flattened. Films thinner than 3 cells open unconditionally;
    films wider than the armed gap hold regardless of the profile.
    """
    if film.gap_cells < MIN_FILM_CELLS:
        return 0
    if film.gap_cells > PRESSURE_TEST_GAP:
        return 1
    half = PROFILE_POINTS // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    xs = film.midpoint[0] + offsets * film.normal[0]
    ys = film.midpoint[1] + offsets * film.normal[1]
    prof = ndimage.map_coordinates(pressure, np.stack([xs, ys]), order=1,
                                   mode="nearest")
    d2p = prof[half - 1] - 2.0 * prof[half] + prof[half + 1]
    scale = float(pressure.max() - pressure.min())
    if abs(d2p) <= eps_p * scale:
        return 0
    return 1


@dataclass
class FoamWorld:
    """One foaming simulation: coupled lattices plus process state."""

    pair: PhasePair
    registry: BubbleRegistry
    rho_inside: float   # total density deep inside a bubble
    rho_outside: float  # total density in the surrounding melt
    schedule: GrowthSchedule | None = None
    model: str = "modified"
    r_z: int = 3
    eps_p: float = 1e-3
    approach_force: float = 0.0
    drive_ids: tuple = ()
    stop_at_first_rupture: bool = False
    quiescence_u: float = 1e-3
    max_steps: int = 100000
    step_count: int = 0
    films: dict = field(default_factory=dict)
    merge_events: list = field(default_factory=list)
    rupture_events: list = field(default_factory=list)
    first_rupture_step: int | None = None
    first_merge_step: int | None = None
    negative_fraction: float = 0.0
    # steps whose equilibrium speed left the envelope on either lattice
    envelope_steps: int = field(default=0, init=False)
    # gas components that appeared with no prior bubble (spurious droplets)
    spurious_droplets: int = field(default=0, init=False)
    _coupling: object = None
    _max_u: float = 0.0

    def __post_init__(self):
        if self.model not in ("modified", "classic"):
            raise ValueError("model must be 'modified' or 'classic'")
        self._refresh_coupling()

    def _barrier(self):
        if self.model != "modified":
            return None
        state = barrier_zones(self.registry.owner, self.registry.centroids(),
                              self.films, r_z=self.r_z,
                              wall_rho=self.rho_outside)
        # zones overlap only where boxes meet; while no two boxes meet the
        # step keeps the plain coupling
        return state if state.near else None

    def _drive_force(self):
        # body force on the melt pointing away from the midline between
        # the two tracked bubbles: melt pressure bottoms out at the center
        # and buoyancy walks both bubbles inward, the lattice analogue of
        # a prescribed approach velocity. A cavity cannot be moved by
        # pushing the thin gas inside it. Shuts off on merge.
        if not self.approach_force or len(self.drive_ids) != 2:
            return None
        a, b = self.drive_ids
        if self.films.get((a, b) if a < b else (b, a)) == 1:
            # a standing wall bears the squeeze; the approach stalls
            # until the film ruptures and normal dynamics resume
            return None
        bubbles = self.registry.bubbles
        if a not in bubbles or b not in bubbles:
            return None
        if bubbles[a].state != "active" or bubbles[b].state != "active":
            return None
        cents = self.registry.centroids()
        if a not in cents or b not in cents:
            return None
        shape = tuple(self.registry.shape)
        mid_x = 0.5 * (cents[a][0] + cents[b][0])
        f = np.zeros((2,) + shape)
        profile = np.tanh((np.arange(shape[0]) - mid_x) / 4.0)
        f[0] = self.approach_force * profile[:, None]
        f[0].ravel()[self.registry.cells()] = 0.0  # melt is thin in bubbles
        return f

    def _refresh_coupling(self):
        bar = self._barrier()
        if bar is not None:
            # fresh contacts found by the zone pass enter the run's film
            # ledger here so the rupture monitor starts probing them
            for pr, eta in bar.films.items():
                self.films.setdefault(pr, eta)
        drive = self._drive_force()
        self._coupling = coupled_update(self.pair, barrier=bar,
                                        f_ext_melt=drive)
        self._max_u = float(np.abs(self._coupling.u_total).max())

    def bubble_mask(self):
        midpoint = 0.5 * (self.rho_inside + self.rho_outside)
        return self._coupling.rho_total < midpoint

    def pressure(self):
        return eos_pressure(self._coupling.rho_total, self.pair.G)


def step(world: FoamWorld) -> FoamWorld:
    """Advance one lattice step in pipeline order: collide, stream, grow,
    force (film-aware), couple, track, monitor films."""
    pair, cp = world.pair, world._coupling
    pair.melt.collide(cp.rho_melt, cp.u_eq_melt)
    pair.gas.collide(cp.rho_gas, cp.u_eq_gas)
    if max(pair.melt.max_speed, pair.gas.max_speed) > VELOCITY_WARN:
        world.envelope_steps += 1
    n_cells = int(np.prod(pair.melt.grid_shape))
    world.negative_fraction = max(
        pair.melt.negative_count, pair.gas.negative_count) / n_cells
    pair.melt.stream()
    pair.gas.stream()
    if world.schedule is not None:
        inject_gas(pair.gas, world.registry, world.schedule)
    world._refresh_coupling()
    events = track_bubbles(world.registry, world.bubble_mask())
    for ev in events:
        if ev["kind"] == "merge":
            ev["step"] = world.step_count
            world.merge_events.append(ev)
            if world.first_merge_step is None:
                world.first_merge_step = world.step_count
            gone = set(ev["parents"])
            world.films = {pr: eta for pr, eta in world.films.items()
                           if not (set(pr) & gone)}
        elif ev["kind"] == "new":
            world.spurious_droplets += 1
    if world.model == "modified":
        _monitor_films(world)
    world.step_count += 1
    return world


def _monitor_films(world: FoamWorld) -> None:
    # films enter the dict via barrier_zones; only active ones re-examined
    active = [pr for pr, eta in world.films.items() if eta == 1]
    if not active:
        return
    centroids = world.registry.centroids()
    p = world.pressure()
    for pr in active:
        a, b = pr
        if a not in centroids or b not in centroids:
            continue
        probe = film_probe(world.registry.owner, centroids, a, b)
        if probe is None:
            continue
        eta = detect_rupture(p, probe, eps_p=world.eps_p)
        if eta == 0:
            world.films[pr] = 0
            event = {"pair": pr, "step": world.step_count,
                     "gap_cells": probe.gap_cells}
            world.rupture_events.append(event)
            if world.first_rupture_step is None:
                world.first_rupture_step = world.step_count


def terminate(world: FoamWorld):
    """Stop decision: step cap, first rupture (when configured), or budget
    exhausted with the velocity field quiescent."""
    if world.step_count >= world.max_steps:
        return True, "step cap"
    if world.stop_at_first_rupture and world.first_rupture_step is not None:
        return True, "first rupture"
    budget_done = world.schedule is None or world.schedule.exhausted
    if budget_done and world.step_count > 0 \
            and world._max_u < world.quiescence_u:
        return True, "quiescent"
    return False, None


class InstabilityError(RuntimeError):
    """Raised when the run develops too many negative populations."""


def run_until_done(world, on_step=None, abort_negative_fraction=0.1):
    """Drive the world until terminate() fires; returns the stop reason."""
    while True:
        done, reason = terminate(world)
        if done:
            return reason
        step(world)
        if world.negative_fraction > abort_negative_fraction:
            raise InstabilityError(
                "over {:.0%} of cells carry negative populations".format(
                    abort_negative_fraction))
        if on_step is not None:
            on_step(world)
