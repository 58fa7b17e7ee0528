"""Process-driver tests: nucleation, injection, tracking, rupture, stepping."""

import dataclasses
import math
import os

import numpy as np
import pytest
from scipy import ndimage

from foamlbm import coupling, foam, lattice
from foamlbm.config import ConfigError, SimulationConfig, load_config
from foamlbm.coupling import PhasePair
from foamlbm.foam import (Bubble, BubbleRegistry, FilmProbe, FoamWorld,
                          GrowthSchedule, _components, _sample_bilinear,
                          _sample_nearest, detect_rupture, film_probe,
                          inject_gas, nucleate, run_until_done, step,
                          terminate, track_bubbles)
from foamlbm.lattice import Lattice, density_momentum
from foamlbm.run import (build_foam, build_world, capture,
                         largest_bubble_diameter_mm, run_scenario)
from foamlbm.stencil import CS2
from foamlbm.units import UnitScales

from oracles import canonical_partition, flood_fill_labels

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
# a bubble is a 4-connected component of the bubble mask
FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def take_owner(reg, owner):
    """`reg`, handed the cells and ids of `owner` through
    `replace_owner`, so that its owner map equals `owner`."""
    flat = np.flatnonzero(owner)
    reg.replace_owner(flat, owner.ravel()[flat])
    return reg


def registry_with_discs(shape, discs):
    """Registry whose ownership is a set of discs given as (cx, cy, r)."""
    reg = BubbleRegistry(shape=shape)
    owner = np.zeros(shape, dtype=np.int64)
    X, Y = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]),
                       indexing="ij")
    for cx, cy, r in discs:
        inside = (X - cx) ** 2 + (Y - cy) ** 2 <= r * r
        owner[inside] = reg.new_bubble(seed=(cx, cy))
    return take_owner(reg, owner)


def gas_field_from_owner(owner, bulk=0.4, background=0.01):
    return np.where(owner > 0, bulk, background)


def growth(A, dn_dt, budget, dt=1e-3):
    """A validated 24 x 24 foam config, with room for its one nucleus, that
    releases gas at `dn_dt` mol/s up to `budget` mol, at `A` pressure per
    mole and `dt` s per step."""
    return SimulationConfig(scenario="foam", nx=24, ny=24, growth_A=A,
                            growth_dn_dt=dn_dt, growth_budget=budget,
                            dt=dt, nucleation_count=1).validate()


def nucleate_by_scan(grid_shape, count, seed, min_spacing):
    """Reference placement, which tests every draw against every site: the
    sites placed within the retry cap, fewer than `count` if it jams."""
    nx, ny = grid_shape
    rng = np.random.default_rng(seed)
    placed = []
    for _ in range(100 * count):
        if len(placed) == count:
            break
        cand = (int(rng.integers(nx)), int(rng.integers(ny)))
        if not any(math.hypot(cand[0] - p[0], cand[1] - p[1]) < min_spacing
                   for p in placed):
            placed.append(cand)
    return placed


class TestNucleate:
    def test_single_site(self):
        # at nucleation_radius = 0 each site is one gas cell, owned by the
        # bubble seeded there, and every other cell is melt
        cfg = SimulationConfig(scenario="foam", nx=32, ny=24,
                               nucleation_count=3, nucleation_seed=5,
                               min_spacing=6.0, rho_melt=1.5, rho_gas=0.3,
                               rho_background=0.02).validate()
        sites = nucleate((32, 24), count=3, seed=5, min_spacing=6.0)
        world = build_foam(cfg)
        reg = world.registry
        assert [b.seed for b in reg.bubbles.values()] == sites
        assert [int(reg.owner[s]) for s in sites] == list(reg.bubbles)
        seeded = np.zeros((32, 24), dtype=bool)
        seeded[tuple(np.transpose(sites))] = True
        assert np.array_equal(reg.owner > 0, seeded)
        melt, _ = density_momentum(world.pair.melt.f)
        gas, _ = density_momentum(world.pair.gas.f)
        for rho, inside, outside in ((gas, 0.3, 0.02), (melt, 0.02, 1.5)):
            assert np.allclose(rho[seeded], inside, rtol=1e-13, atol=0)
            assert np.allclose(rho[~seeded], outside, rtol=1e-13, atol=0)

    def test_deterministic(self):
        a = nucleate((64, 64), count=5, seed=11, min_spacing=6.0)
        b = nucleate((64, 64), count=5, seed=11, min_spacing=6.0)
        assert len(a) == 5 and a == b

    def test_six_sites_respect_spacing(self):
        sites = nucleate((750, 500), count=6, seed=42, min_spacing=120.0)
        assert len(sites) == 6 and len(set(sites)) == 6
        dists = [math.hypot(p[0] - q[0], p[1] - q[1])
                 for i, p in enumerate(sites) for q in sites[i + 1:]]
        assert min(dists) >= 120.0

    def test_impossible_placement_errors(self):
        # five sites 9 apart pass validate()'s area bound on a 10 x 10
        # grid, but no more than four fit: the draws jam at the retry cap
        cfg = SimulationConfig(scenario="foam", nx=10, ny=10,
                               nucleation_count=5, min_spacing=9.0).validate()
        with pytest.raises(ConfigError, match="retry cap") as exc:
            nucleate((10, 10), count=cfg.nucleation_count, seed=0,
                     min_spacing=cfg.min_spacing)
        assert str(exc.value).startswith(
            "nucleation_count = 5 sites do not fit min_spacing = 9 apart "
            "on the 10 x 10 grid: ")

    @pytest.mark.parametrize("shape, count, seed, spacing", [
        ((32, 24), 3, 5, 6.0), ((64, 64), 5, 11, 6.0),
        ((750, 500), 6, 42, 120.0), ((375, 250), 6, 33, 30.0),
        ((375, 250), 40, 5, 30.0), ((375, 250), 80, 1, 25.0),
        ((61, 47), 12, 3, 7.5), ((40, 40), 1, 0, 100.0),
        ((10, 10), 5, 0, 9.0), ((90, 60), 60, 8, 10.0)])
    def test_places_every_site_as_the_scan_does(self, shape, count, seed,
                                                spacing):
        # the last two jam at the retry cap
        want = nucleate_by_scan(shape, count, seed, spacing)
        if len(want) == count:
            assert nucleate(shape, count, seed, spacing) == want
        else:
            with pytest.raises(ConfigError, match="retry cap"):
                nucleate(shape, count, seed, spacing)

    def test_each_draw_tests_at_most_nine_squares_of_sites(self,
                                                           monkeypatch):
        # jammed with dozens of sites placed, a draw still tests only the
        # sites of its own square of side min_spacing and the eight
        # around it, at most 4 each
        draws = [0]
        tests = {}
        make_rng, hypot = np.random.default_rng, math.hypot

        class CountingRng:
            def __init__(self, seed):
                self.rng = make_rng(seed)

            def integers(self, n):
                draws[0] += 1
                return self.rng.integers(n)

        def counting_hypot(dx, dy):
            draw = (draws[0] - 1) // 2
            tests[draw] = tests.get(draw, 0) + 1
            return hypot(dx, dy)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        monkeypatch.setattr(math, "hypot", counting_hypot)
        with pytest.raises(ConfigError, match="retry cap"):
            nucleate((120, 80), 140, 2, 10.0)
        monkeypatch.undo()
        assert draws[0] == 2 * 100 * 140
        assert max(tests.values()) <= 9 * 4
        assert len(nucleate_by_scan((120, 80), 140, 2, 10.0)) > 9 * 4


class TestInjectGas:
    def make_gas(self, owner, bulk=0.4):
        lat = Lattice(*owner.shape, tau=1.0)
        lat.set_equilibrium(gas_field_from_owner(owner, bulk),
                            np.zeros((2,) + owner.shape))
        return lat

    def test_zero_rate_is_noop(self):
        # a zero rate is valid only with a zero budget
        reg = registry_with_discs((24, 24), [(12, 12, 4)])
        lat = self.make_gas(reg.owner)
        before = lat.f.copy()
        sched = GrowthSchedule()
        assert inject_gas(lat, reg, sched, growth(A=1.0, dn_dt=0.0,
                                                  budget=0.0)) == 0.0
        assert np.array_equal(lat.f, before)
        assert sched.injected == 0.0

    def test_per_cell_increment_halves_when_cells_double(self):
        increments = []
        for r in (4, None):
            if r is not None:
                reg = registry_with_discs((32, 32), [(16, 16, r)])
            else:
                # same bubble, exactly twice the cells: two copies
                reg = registry_with_discs((32, 32), [(8, 16, 4), (24, 16, 4)])
            lat = self.make_gas(reg.owner)
            rho0, _ = density_momentum(lat.f)
            inject_gas(lat, reg, GrowthSchedule(),
                       growth(A=2.0, dn_dt=1.0, budget=10.0))
            rho1, _ = density_momentum(lat.f)
            cell = np.argwhere(reg.owner > 0)[0]
            increments.append(rho1[tuple(cell)] - rho0[tuple(cell)])
        assert increments[1] == pytest.approx(increments[0] / 2.0, rel=1e-12)

    def test_budget_exhausts_exactly(self):
        reg = registry_with_discs((24, 24), [(12, 12, 4)])
        lat = self.make_gas(reg.owner)
        dn_dt, dt, budget = 0.7, 1e-3, 0.01
        cfg = growth(A=1e-3, dn_dt=dn_dt, budget=budget, dt=dt)
        sched = GrowthSchedule()
        steps = 0
        while sched.injected < budget:
            assert inject_gas(lat, reg, sched, cfg) > 0.0
            steps += 1
        assert steps == math.ceil(budget / (dn_dt * dt))
        assert abs(sched.injected - budget) <= 1e-12 * budget
        assert inject_gas(lat, reg, sched, cfg) == 0.0

    def test_velocity_preserved_and_moles_attributed(self):
        reg = registry_with_discs((32, 32), [(10, 16, 4), (22, 16, 3)])
        lat = Lattice(32, 32, tau=1.0)
        u = np.full((2, 32, 32), 0.02)
        lat.set_equilibrium(gas_field_from_owner(reg.owner), u)
        moles = inject_gas(lat, reg, GrowthSchedule(),
                           growth(A=1.0, dn_dt=2.0, budget=1.0))
        rho, j = density_momentum(lat.f)
        assert np.allclose(j / rho, 0.02, atol=1e-14)
        total = sum(b.n_moles for b in reg.bubbles.values())
        assert total == pytest.approx(moles, rel=1e-12)
        counts = reg.counts()
        ratio = reg.bubbles[1].n_moles / reg.bubbles[2].n_moles
        assert ratio == pytest.approx(counts[1] / counts[2], rel=1e-12)


class TestTrackBubbles:
    def test_single_bubble_keeps_id(self):
        reg = registry_with_discs((32, 32), [(16, 16, 5)])
        gas = gas_field_from_owner(reg.owner)
        for _ in range(3):
            events = track_bubbles(reg, gas > 0.2)
            assert events == []
            assert set(reg.counts()) == {1}

    def test_two_bubbles_stable_ids(self):
        reg = registry_with_discs((48, 32), [(12, 16, 5), (34, 16, 5)])
        gas = gas_field_from_owner(reg.owner)
        track_bubbles(reg, gas > 0.2)
        assert set(reg.counts()) == {1, 2}

    def test_merge_records_parents_and_conserves_moles(self):
        reg = registry_with_discs((48, 32), [(16, 16, 5), (30, 16, 5)])
        reg.bubbles[1].n_moles = 0.3
        reg.bubbles[2].n_moles = 0.2
        bridged = reg.owner > 0
        bridged[21:26, 16] = True  # connect the discs
        gas = np.where(bridged, 0.4, 0.01)
        events = track_bubbles(reg, gas > 0.2)
        merges = [e for e in events if e["kind"] == "merge"]
        assert len(merges) == 1
        assert merges[0]["parents"] == (1, 2)
        nid = merges[0]["id"]
        assert nid == 3
        assert set(reg.counts()) == {nid}
        assert reg.bubbles[1].state == "merged"
        assert reg.bubbles[2].state == "merged"
        assert reg.bubbles[nid].n_moles == pytest.approx(0.5, rel=1e-12)

    def test_ids_never_reused(self):
        reg = registry_with_discs((48, 32), [(16, 16, 5), (30, 16, 5)])
        bridged = reg.owner > 0
        bridged[21:26, 16] = True
        gas = np.where(bridged, 0.4, 0.01)
        track_bubbles(reg, gas > 0.2)
        # a later fresh component must take id 4, not recycle 1 or 2
        gas[4:7, 4:7] = 0.4
        track_bubbles(reg, gas > 0.2)
        assert 4 in reg.counts()

    def test_spurious_droplet_counted(self):
        reg = registry_with_discs((32, 32), [(8, 8, 3)])
        gas = gas_field_from_owner(reg.owner)
        gas[24:27, 24:27] = 0.4
        events = track_bubbles(reg, gas > 0.2)
        assert [e for e in events if e["kind"] == "new"] == [
            {"kind": "new", "id": 2}]
        # inverted thresholds make the whole empty domain one fresh
        # component on the first step; later steps find it again
        world = quiet_world(inverted=True)
        for _ in range(3):
            step(world)
        assert world.spurious_droplets == 1

    def test_lost_bubble_marked_dissolved(self):
        reg = registry_with_discs((32, 32), [(8, 8, 3), (24, 24, 3)])
        gas = np.where(reg.owner == 1, 0.4, 0.01)  # bubble 2 vanished
        events = track_bubbles(reg, gas > 0.2)
        assert {"kind": "lost", "id": 2} in events
        assert reg.bubbles[2].state == "dissolved"

    def test_partition_matches_flood_fill_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            mask = rng.random((10, 10)) < 0.45
            reg = BubbleRegistry(shape=(10, 10))
            gas = np.where(mask, 0.4, 0.0)
            track_bubbles(reg, gas > 0.2)
            theirs = canonical_partition(flood_fill_labels(mask))
            mine = canonical_partition(reg.owner * mask)
            assert mine == theirs
            # every gas-majority cell owned by exactly one bubble
            assert (reg.owner[mask] > 0).all()
            assert (reg.owner[~mask] == 0).all()

    def test_matches_the_two_loop_reference(self):
        # random masks, stepped with perturbations, drive merges, splits,
        # losses, droplets and fragments of a parent that merged in the
        # same pass through both versions on twin registries
        rng = np.random.default_rng(19)
        kinds = dict.fromkeys(("new", "lost", "merge", "split"), 0)
        merged_fragments = 0
        for _ in range(300):
            shape = tuple(int(n) for n in rng.integers(6, 20, size=2))
            mask = rng.random(shape) < rng.uniform(0.3, 0.6)
            mine, ref = BubbleRegistry(shape), BubbleRegistry(shape)
            for turn in range(7):
                events = track_bubbles(mine, mask)
                assert events == two_loop_track_bubbles(ref, mask)
                assert np.array_equal(mine.owner, ref.owner)
                if turn == 0:
                    for reg in (mine, ref):
                        for bid in list(reg.bubbles)[:4]:
                            reg.bubbles[bid].n_moles = 0.1 * bid
                assert [(bid, b.state, b.n_moles)
                        for bid, b in mine.bubbles.items()] == [
                    (bid, b.state, b.n_moles)
                    for bid, b in ref.bubbles.items()]
                for ev in events:
                    kinds[ev["kind"]] += 1
                    merged_fragments += ev["kind"] == "split" and \
                        mine.bubbles[ev["parent"]].state == "merged"
                mask = mask ^ (rng.random(shape) < rng.uniform(0.05, 0.3))
        assert min(kinds.values()) > 0
        assert merged_fragments > 0


def random_masks(rng, count):
    """Masks of every density, with empty, full, one-row and one-column
    grids and a comb whose teeth join only at the far end."""
    comb = np.zeros((9, 14), dtype=bool)
    comb[:, ::2] = True
    comb[-1] = True
    masks = [np.zeros((7, 5), dtype=bool), np.ones((7, 5), dtype=bool),
             np.ones((1, 1), dtype=bool), comb, comb.T.copy()]
    for _ in range(count):
        shape = tuple(int(n) for n in rng.integers(1, 24, size=2))
        if rng.random() < 0.15:
            shape = (1, shape[1]) if rng.random() < 0.5 else (shape[0], 1)
        masks.append(rng.random(shape) < rng.uniform(0.0, 1.0))
    return masks


class TestComponents:
    def test_partition_matches_the_flood_fill_oracle(self):
        for mask in random_masks(np.random.default_rng(31), 300):
            flat, comp, n_comp = _components(mask)
            labels = np.zeros(mask.shape, dtype=np.int64)
            labels.ravel()[flat] = comp
            assert np.array_equal(flat, np.flatnonzero(mask))
            assert canonical_partition(labels) == canonical_partition(
                flood_fill_labels(mask))
            assert n_comp == len(canonical_partition(labels))

    def test_numbering_matches_ndimage_label(self):
        # components are numbered by their first cell in raster order
        for mask in random_masks(np.random.default_rng(32), 300):
            labels, n_comp = ndimage.label(mask, structure=FOUR_CONNECTED)
            flat, comp, n = _components(mask)
            assert n == n_comp
            assert np.array_equal(flat, np.flatnonzero(labels))
            assert np.array_equal(comp, labels.ravel()[flat])


def two_loop_track_bubbles(registry, mask) -> list[dict]:
    """The reference for track_bubbles: the version that kept a
    `merged_away` set and a second split loop for the fragments of a
    parent that merged in the same pass."""
    labels, n_comp = ndimage.label(np.asarray(mask, dtype=bool),
                                   structure=FOUR_CONNECTED)
    prev = registry.owner
    events: list[dict] = []
    claimed: dict[int, list[tuple[int, int]]] = {}
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
            moles = 0.0
            for p in parents:
                moles += registry.bubbles[p].n_moles
                registry.bubbles[p].state = "merged"
                registry.bubbles[p].n_moles = 0.0
                merged_away.add(p)
            nid = registry.new_bubble(seed=None, n_moles=moles)
            resolved[comp] = nid
            events.append({"kind": "merge", "id": nid,
                           "parents": tuple(parents)})
        elif len(parents) == 1:
            claimed.setdefault(parents[0], []).append(
                (overlaps[comp][parents[0]], comp))
        else:
            nid = registry.new_bubble(seed=None)
            resolved[comp] = nid
            events.append({"kind": "new", "id": nid})
    for pid, contenders in claimed.items():
        contenders.sort(reverse=True)
        if pid in merged_away:
            for _, comp in contenders:
                nid = registry.new_bubble(seed=None)
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
                share = parent_moles * sizes[comp] / total
                nid = registry.new_bubble(seed=None, n_moles=share)
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
    registry.replace_owner(flat, relabel[comp_of])
    return events


class TestFilmProbe:
    def test_axis_aligned_geometry(self):
        reg = registry_with_discs((48, 32), [(15, 16, 5), (33, 16, 5)])
        probe = film_probe(reg.owner, reg.centroids(), 1, 2)
        assert probe.normal[0] == pytest.approx(1.0, abs=1e-12)
        assert probe.midpoint[0] == pytest.approx(24.0, abs=1.0)
        assert probe.midpoint[1] == pytest.approx(16.0, abs=1e-9)
        # boundary gap: discs end at x=20 and start at x=28
        assert probe.gap_cells == pytest.approx(7.0, abs=1.0)

    def test_degenerate_line_returns_none(self):
        owner = np.zeros((16, 16), dtype=np.int64)
        owner[4:6, 4:6] = 1
        cents = {1: (4.5, 4.5), 2: (4.5, 4.5)}
        assert film_probe(owner, cents, 1, 2) is None


class TestDetectRupture:
    def linear_field(self, nx=32, ny=24):
        x = np.arange(nx, dtype=float)[:, None]
        return np.broadcast_to(3.0 * x + 1.0, (nx, ny)).copy()

    def test_linear_profile_opens_film(self):
        p = self.linear_field()
        film = FilmProbe(midpoint=(16.0, 12.0), normal=(1.0, 0.0),
                         gap_cells=6.0)
        assert detect_rupture(p, film, 1e-3 * (p.max() - p.min())) == 0

    def test_parabolic_profile_holds_film(self):
        nx, ny = 24, 24
        x = np.arange(nx, dtype=float)[:, None]
        p = np.broadcast_to((x - 12.0) ** 2, (nx, ny)).copy()
        film = FilmProbe(midpoint=(12.0, 12.0), normal=(1.0, 0.0),
                         gap_cells=6.0)
        assert detect_rupture(p, film, 1e-3 * (p.max() - p.min())) == 1

    def test_thin_film_forced_open(self):
        nx, ny = 24, 24
        x = np.arange(nx, dtype=float)[:, None]
        p = np.broadcast_to((x - 12.0) ** 2, (nx, ny)).copy()
        film = FilmProbe(midpoint=(12.0, 12.0), normal=(1.0, 0.0),
                         gap_cells=2.0)
        assert detect_rupture(p, film, 1e-3 * (p.max() - p.min())) == 0

    def test_oblique_normal_samples_along_line(self):
        # field varying only along y: a probe normal to x sees a constant
        # profile (flat), one along y sees the parabola
        nx, ny = 24, 24
        y = np.arange(ny, dtype=float)[None, :]
        p = np.broadcast_to((y - 12.0) ** 2, (nx, ny)).copy()
        across = FilmProbe(midpoint=(12.0, 12.0), normal=(0.0, 1.0),
                           gap_cells=6.0)
        along = FilmProbe(midpoint=(12.0, 12.0), normal=(1.0, 0.0),
                          gap_cells=6.0)
        assert detect_rupture(p, across, 1e-3 * (p.max() - p.min())) == 1
        assert detect_rupture(p, along, 1e-3 * (p.max() - p.min())) == 0


class TestSamplers:
    """The probes' samplers against `map_coordinates` with mode "nearest",
    bit for bit, on points inside and outside the grid, at integers and
    at half-integers."""

    def points(self, rng, shape, n=60):
        nx, ny = shape
        xs = rng.uniform(-3.0, nx + 2.0, n)
        ys = rng.uniform(-3.0, ny + 2.0, n)
        half = rng.random(n) < 0.3
        xs[half], ys[half] = np.round(2 * xs[half]) / 2, np.round(
            2 * ys[half]) / 2
        whole = rng.random(n) < 0.2
        xs[whole], ys[whole] = np.round(xs[whole]), np.round(ys[whole])
        return xs, ys

    def shapes(self, rng):
        return [(1, 1), (1, 9), (9, 1)] + [
            tuple(int(n) for n in rng.integers(1, 30, size=2))
            for _ in range(200)]

    def test_nearest_matches_map_coordinates_order_0(self):
        rng = np.random.default_rng(51)
        for shape in self.shapes(rng):
            owner = rng.integers(0, 9, size=shape)
            xs, ys = self.points(rng, shape)
            want = ndimage.map_coordinates(owner, np.stack([xs, ys]),
                                           order=0, mode="nearest")
            assert np.array_equal(_sample_nearest(owner, xs, ys), want)

    def test_bilinear_matches_map_coordinates_order_1(self):
        rng = np.random.default_rng(52)
        for shape in self.shapes(rng):
            p = rng.standard_normal(shape) * rng.uniform(0.1, 1e3)
            xs, ys = self.points(rng, shape)
            want = ndimage.map_coordinates(p, np.stack([xs, ys]), order=1,
                                           mode="nearest")
            assert np.array_equal(_sample_bilinear(p, xs, ys), want)


def quiet_world(nx=24, ny=24, G=0.0, inverted=False, **kw):
    """A bubble-free world of melt 1.2 and gas 0.4 at rest.

    Its mask thresholds midway between the plateaus 0.35 + 0.05 and
    1.55 + 0.05, so no cell is bubble.  `inverted` lifts the gas plateau
    to 2.0, above the melt's, so every cell is; validate() rejects that
    config, and it stays unvalidated.  Its config names one nucleus, as
    many as the grid holds at the default spacing.
    """
    cfg = SimulationConfig(scenario="foam", nx=nx, ny=ny, G=G, rho_melt=1.55,
                           rho_gas=1.95 if inverted else 0.35,
                           rho_background=0.05, nucleation_count=1, **kw)
    if not inverted:
        cfg.validate()
    melt = Lattice(nx, ny, tau=1.0)
    gas = Lattice(nx, ny, tau=1.0)
    melt.set_equilibrium(np.full((nx, ny), 1.2), np.zeros((2, nx, ny)))
    gas.set_equilibrium(np.full((nx, ny), 0.4), np.zeros((2, nx, ny)))
    pair = PhasePair(melt=melt, gas=gas, G=G)
    return FoamWorld(pair=pair, registry=BubbleRegistry(shape=(nx, ny)),
                     cfg=cfg)


class TestStepAndTermination:
    def test_step_cap_zero_is_immediate(self):
        world = quiet_world(max_steps=0)
        assert terminate(world) == "step cap"

    def test_zero_bubble_world_stays_uniform(self):
        world = quiet_world(G=-4.5)
        for _ in range(5):
            step(world)
        rho_m, _ = density_momentum(world.pair.melt.f)
        rho_g, _ = density_momentum(world.pair.gas.f)
        assert np.allclose(rho_m, 1.2, atol=1e-12)
        assert np.allclose(rho_g, 0.4, atol=1e-12)

    def test_injection_stops_at_the_budget(self):
        # inverted thresholds claim the whole uniform domain as one
        # bubble once the first step has tracked it.  The world builds its
        # schedule from the config's gas budget: shots of 1e-3 mol on
        # steps 2, 3 and 4, then none
        world = quiet_world(inverted=True, growth_A=1e-4, growth_dn_dt=1.0,
                            growth_budget=3e-3, dt=1e-3, stop_rule="steps",
                            max_steps=8)
        budget = world.cfg.growth_budget
        mass0 = world.pair.gas.mass()
        for _ in range(3):
            step(world)
            assert world.schedule.injected < budget
        step(world)
        assert world.schedule.injected == budget
        mass = world.pair.gas.mass()
        assert mass > mass0
        assert run_until_done(world) == "step cap"
        assert world.step_count == 8
        assert world.schedule.injected == budget
        assert world.pair.gas.mass() == pytest.approx(mass, rel=1e-12, abs=0)

    def test_stop_at_first_rupture(self):
        world = quiet_world(stop_rule="first_rupture")
        assert terminate(world) is None
        world.rupture_events.append({"pair": (1, 2), "step": 4,
                                     "gap_cells": 2.0})
        assert world.first_rupture_step == 4
        assert terminate(world) == "first rupture"

    @pytest.mark.parametrize("rule", ["steps", "first_rupture"])
    def test_resting_bubbles_run_to_the_step_cap(self, rule):
        # two resting bubbles in classic melt: no drive and no film, so
        # no rupture; either rule stops on the step cap
        cfg = SimulationConfig(scenario="two_bubble", nx=64, ny=48,
                               model="classic", dx=1e-4, dt=1e-4,
                               bubble_diameter_mm=2.0, approach_mm_s=0.0,
                               approach_force=0.0, max_steps=200,
                               stop_rule=rule).validate()
        world = build_world(cfg)
        assert run_until_done(world) == "step cap"
        assert world.step_count == 200

    def test_film_latch_flips_once(self):
        world = quiet_world()
        world.films = {(1, 2): 1}
        reg = registry_with_discs((24, 24), [(8, 12, 4), (16, 12, 4)])
        world.registry = reg
        # flat pressure everywhere: curvature test must open the film
        from foamlbm.foam import _monitor_films
        _monitor_films(world)
        assert world.films[(1, 2)] == 0
        assert world.first_rupture_step is not None
        first = world.first_rupture_step
        _monitor_films(world)  # latched: no second event
        assert world.films[(1, 2)] == 0
        assert world.first_rupture_step == first
        assert len(world.rupture_events) == 1

    def test_determinism_across_full_pipeline(self):
        def build():
            cfg = SimulationConfig(
                scenario="foam", nx=40, ny=40, G=-4.3, rho_melt=1.45,
                rho_gas=0.25, rho_background=0.04, nucleation_count=2,
                nucleation_seed=7, min_spacing=12.0, growth_A=0.05,
                growth_dn_dt=1.0, growth_budget=1.0, dt=1e-3)
            return build_world(cfg.validate())

        a, b = build(), build()
        for _ in range(10):
            step(a)
            step(b)
        assert np.array_equal(a.pair.melt.f, b.pair.melt.f)
        assert np.array_equal(a.pair.gas.f, b.pair.gas.f)
        assert np.array_equal(a.registry.owner, b.registry.owner)

    def test_world_repeats_no_config_field(self):
        # run parameters are read from world.cfg, never copied onto the
        # world, so no field can drift from the config it came from
        world_fields = {f.name for f in dataclasses.fields(FoamWorld)}
        cfg_fields = {f.name for f in dataclasses.fields(SimulationConfig)}
        assert world_fields & cfg_fields == set()
        # the schedule, the step counter and the film and event ledgers
        # are derived or accumulated, so the world takes no more than this
        assert [f.name for f in dataclasses.fields(FoamWorld) if f.init] == [
            "pair", "registry", "cfg"]
        # a bubble's id is its registry key and nothing else
        assert [f.name for f in dataclasses.fields(Bubble)] == [
            "seed", "n_moles", "state"]
        # the gas release is read from the config too: the schedule keeps
        # only the moles injected so far
        assert [f.name for f in dataclasses.fields(GrowthSchedule)] == [
            "injected"]


class TestStepCounters:
    def test_moments_taken_once_per_lattice_per_step(self, monkeypatch):
        cfg = SimulationConfig(scenario="two_bubble", nx=64, ny=48,
                               model="modified", dx=1e-4, dt=1e-4,
                               bubble_diameter_mm=2.0, bubble_gap_cells=3.0,
                               barrier_r_z=3, approach_force=1e-4).validate()
        world = build_world(cfg)
        calls = []
        original = lattice.density_momentum

        def counted(f):
            calls.append(f.shape)
            return original(f)

        # patched where it is defined and where coupling imports it
        monkeypatch.setattr(lattice, "density_momentum", counted)
        monkeypatch.setattr(coupling, "density_momentum", counted)
        for _ in range(3):
            step(world)
        assert len(calls) == 2 * 3
        # the snapshot reuses the coupling densities
        capture(world, UnitScales.from_config(cfg))
        assert len(calls) == 2 * 3

    @pytest.mark.parametrize("preset, expected",
                             [("foam.cfg", 1), ("two_bubble.cfg", 0)])
    def test_envelope_steps_counted(self, preset, expected):
        # the foam seeds are sharp discs and leave the envelope at step 0
        world = build_world(load_config(os.path.join(CONFIGS, preset)))
        for _ in range(3):
            step(world)
        assert world.envelope_steps == expected

    def test_report_notes_envelope_steps(self):
        cfg = load_config(os.path.join(CONFIGS, "foam.cfg"))
        cfg.max_steps = 2
        report = run_scenario(cfg)
        assert report.reason == "step cap"
        assert ("velocity envelope: |u_eq| above 0.3 on 1 of 2 steps"
                in report.lines())

    def test_report_notes_spurious_droplets(self, monkeypatch):
        cfg = SimulationConfig(scenario="two_bubble", nx=64, ny=48,
                               model="classic", dx=1e-4, dt=1e-4,
                               bubble_diameter_mm=2.0, max_steps=3).validate()
        plain_mask = FoamWorld.bubble_mask

        def mask_with_droplet(world):
            mask = plain_mask(world)
            mask[:2, :2] = True  # far from both bubbles
            return mask

        monkeypatch.setattr(FoamWorld, "bubble_mask", mask_with_droplet)
        report = run_scenario(cfg)
        assert ("spurious droplets: 1 (gas components with no prior bubble)"
                in report.lines())


@pytest.mark.parametrize("seed, target", [(33, "5.93"), (16, "5.72")])
def test_implied_target_counts_the_seeded_cells(seed, target):
    # at seed 16 two of the six discs are clipped by a wall: they seed
    # 2456 cells, not six whole discs of 441
    cfg = load_config(os.path.join(CONFIGS, "foam.cfg"))
    cfg.nucleation_seed, cfg.max_steps = seed, 1
    report = run_scenario(cfg.validate())
    assert "gas-budget-implied porosity target: %s %%" % target \
        in report.lines()


def test_films_live_only_while_both_bubbles_do():
    # six small nuclei fed fast under the barrier (the config of
    # test_cli's dissolving-bubble run)
    cfg = SimulationConfig(scenario="foam", model="modified", nx=64, ny=64,
                           rho_melt=1.375, rho_gas=0.203, nucleation_count=6,
                           nucleation_seed=2, min_spacing=12,
                           nucleation_radius=5, growth_A=10, growth_dn_dt=50,
                           growth_budget=1, dt=1e-4, barrier_r_z=3)
    world = build_world(cfg.validate())
    orphaned = 0
    for _ in range(160):
        had = set(world.films)
        step(world)
        active = set(world.registry.active_ids())
        assert all(active.issuperset(pr) for pr in world.films)
        orphaned += sum(not active.issuperset(pr) for pr in had)
    # bubble 3 or 5 dissolves at step 152 with their film still standing
    assert orphaned >= 1


def overlapping_world():
    """The golden overlapping-zones world: two small bubbles whose zones
    meet at the build, so its film enters in the build's coupling pass."""
    cfg = SimulationConfig(scenario="two_bubble", nx=64, ny=48,
                           model="modified", dx=1e-4, dt=1e-4,
                           bubble_diameter_mm=2.0, bubble_gap_cells=3.0,
                           barrier_r_z=3, approach_force=1e-4,
                           barrier_eps_p=0.1).validate()
    return build_world(cfg)


class TestFilmLedger:
    """The world is the only keeper of `films`: its coupling pass enters
    the contacts the zone pass lists, and hands the standing films to the
    coupling."""

    def test_fresh_contact_enters_the_ledger_at_one(self, monkeypatch):
        world = overlapping_world()
        assert world.films == {(1, 2): 1}
        seen = []

        def spy(pair, barrier=None, standing=(), f_ext_melt=None):
            seen.append((list(world.films.items()), list(standing)))
            return coupling.coupled_update(pair, barrier, standing,
                                           f_ext_melt)

        monkeypatch.setattr(foam, "coupled_update", spy)
        # an entry the ledger holds keeps its switch, and the fresh
        # contact joins it after it, in time for this pass's coupling
        world.films = {(1, 7): 0}
        world._refresh_coupling()
        assert seen == [([((1, 7), 0), ((1, 2), 1)], [(1, 2)])]

    def test_ruptured_film_stays_open_while_zones_overlap(self):
        world = overlapping_world()
        world.films[(1, 2)] = 0
        cfg = world.cfg
        barrier = coupling.barrier_zones(
            world.registry, wall_rho=cfg.rho_melt + cfg.rho_background,
            r_z=cfg.barrier_r_z)
        assert barrier.contacts == [(1, 2)]
        world._refresh_coupling()
        assert world.films == {(1, 2): 0}
        assert world.standing_films() == []
        # no mask: the force is the plain coupling's
        plain = coupling.coupled_update(world.pair).force
        assert np.array_equal(world.coupling.force, plain)

    def test_standing_film_masks_both_sides(self):
        world = overlapping_world()
        assert world.standing_films() == [(1, 2)]
        plain = coupling.coupled_update(world.pair).force
        diff = np.abs(world.coupling.force - plain).max(axis=0)
        # each bubble's zone cells nearer its own centroid: bubble 1 takes
        # the tie on the midline
        mid = 0.5 * (world.registry.centroids()[1][0]
                     + world.registry.centroids()[2][0])
        x = np.arange(diff.shape[0])
        assert diff[x <= mid].max() > 0.0
        assert diff[x > mid].max() > 0.0


class TestRegistryTally:
    def test_counts_and_centroids_match_unique_and_center_of_mass(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            shape = (int(rng.integers(5, 40)), int(rng.integers(5, 40)))
            owner = rng.integers(0, 9, size=shape) * (rng.random(shape) < 0.4)
            reg = take_owner(BubbleRegistry(shape=shape), owner)
            ids, n = np.unique(owner[owner > 0], return_counts=True)
            assert reg.counts() == dict(zip(ids.tolist(), n.tolist()))
            coms = ndimage.center_of_mass(owner > 0, owner, ids.tolist())
            assert reg.centroids() == {
                i: (float(cx), float(cy))
                for i, (cx, cy) in zip(ids.tolist(), coms)}
            assert np.array_equal(reg.cells(), np.flatnonzero(owner))

    def test_boxes_match_find_objects(self):
        rng = np.random.default_rng(23)
        shapes = [(1, 1), (1, 15), (15, 1), (6, 6)] + [
            (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            for _ in range(60)]
        for shape in shapes:
            for share in (0.0, 0.05, 0.4, 1.0):
                owner = rng.integers(1, 12, size=shape) \
                    * (rng.random(shape) < share)
                reg = take_owner(BubbleRegistry(shape=shape), owner)
                want = {i + 1: box for i, box in enumerate(
                    ndimage.find_objects(owner)) if box is not None}
                assert reg.boxes() == want
                assert list(reg.boxes()) == sorted(want)

    def test_largest_diameter_reads_the_tally(self):
        rng = np.random.default_rng(5)
        scales = UnitScales(dx=1.2e-4, dt=1e-5, rho_melt_phys=2.68,
                            rho_gas_phys=0.00009)
        for _ in range(10):
            owner = rng.integers(0, 6, size=(30, 20)) \
                * (rng.random((30, 20)) < 0.5)
            reg = take_owner(BubbleRegistry(shape=owner.shape), owner)
            _, n = np.unique(owner[owner > 0], return_counts=True)
            assert largest_bubble_diameter_mm(reg, scales) == \
                2.0 * math.sqrt(n.max() / math.pi) * (1.2e-4 * 1000.0)
        assert largest_bubble_diameter_mm(
            BubbleRegistry(shape=(4, 4)), scales) is None

    def test_step_seeds_the_tally_that_the_owner_map_gives(self,
                                                           monkeypatch):
        # classic: no film monitor reads the tally after track_bubbles
        cfg = SimulationConfig(scenario="foam", model="classic", nx=48,
                               ny=40, G=-4.5, nucleation_count=3,
                               nucleation_seed=4, min_spacing=12,
                               nucleation_radius=4, max_steps=30).validate()
        world = build_world(cfg)
        real = np.flatnonzero
        grid_passes = []

        def counted(a):
            if np.shape(a) == (cfg.nx, cfg.ny):
                grid_passes.append(a)
            return real(a)

        monkeypatch.setattr(np, "flatnonzero", counted)
        for _ in range(12):
            before = len(grid_passes)
            step(world)
            # track_bubbles finds the owned cells once and hands them to
            # the registry, which takes no second pass over the grid
            assert len(grid_passes) == before + 1
            reg = world.registry
            fresh = take_owner(BubbleRegistry(shape=reg.owner.shape),
                               reg.owner.copy())
            assert np.array_equal(reg.cells(), fresh.cells())
            assert reg.cells().dtype == fresh.cells().dtype
            assert reg.counts() == fresh.counts()
            assert reg.centroids() == fresh.centroids()
        assert len(reg.counts()) >= 2

    def test_tally_follows_a_replaced_owner_map(self):
        reg = registry_with_discs((32, 32), [(10, 16, 4)])
        assert set(reg.counts()) == {1}
        owner = np.zeros((32, 32), dtype=np.int64)
        owner[20:24, 5:9] = 7
        flat = np.flatnonzero(owner)
        reg.replace_owner(flat, owner.ravel()[flat])
        # the registry builds the map from the cells and their ids
        assert np.array_equal(reg.owner, owner)
        assert not reg.owner.flags.writeable
        assert reg.counts() == {7: 16}
        assert reg.centroids() == {7: (21.5, 6.5)}

    def test_replaced_owner_map_holds_the_given_cells_alone(self):
        # random cells with random ids, the empty hand-over among them:
        # the map holds each id at its cell and zero everywhere else
        rng = np.random.default_rng(23)
        for trial in range(200):
            shape = tuple(int(n) for n in rng.integers(1, 20, size=2))
            reg = registry_with_discs(shape, [(0, 0, 3)])
            size = int(np.prod(shape))
            count = 0 if trial == 0 else rng.integers(0, size + 1)
            flat = np.sort(rng.choice(size, size=count, replace=False))
            ids = rng.integers(1, 9, size=flat.size)
            reg.replace_owner(flat, ids)
            assert reg.owner.shape == shape
            assert np.array_equal(reg.owner.ravel()[flat], ids)
            rest = np.ones(size, dtype=bool)
            rest[flat] = False
            assert not reg.owner.ravel()[rest].any()
            assert np.array_equal(reg.cells(), flat)
            assert sum(reg.counts().values()) == flat.size

    def test_owner_map_can_be_neither_edited_nor_assigned(self):
        reg = registry_with_discs((32, 32), [(10, 16, 4)])
        with pytest.raises(ValueError):
            reg.owner[0, 0] = 1
        with pytest.raises(AttributeError):
            reg.owner = np.zeros((32, 32), dtype=np.int64)
        assert reg.counts() == {1: 49}
        # the map track_bubbles sets is frozen the same way
        cfg = SimulationConfig(scenario="foam", nx=32, ny=24,
                               nucleation_count=2, nucleation_seed=9,
                               min_spacing=8, nucleation_radius=2).validate()
        world = build_world(cfg)
        step(world)
        with pytest.raises(ValueError):
            world.registry.owner[0, 0] = 1


def test_foam_preset_step_has_no_grid_sized_distance_transform(monkeypatch):
    # the zone pass works inside each bubble's box, never on the whole grid
    cfg = load_config(os.path.join(CONFIGS, "foam.cfg"))
    real = coupling._zone
    shapes = []

    def guarded(inside, r):
        assert np.shape(inside) != (cfg.nx, cfg.ny)
        shapes.append(np.shape(inside))
        return real(inside, r)

    monkeypatch.setattr(coupling, "_zone", guarded)
    world = build_world(cfg)
    for _ in range(2):
        step(world)
    assert len(shapes) >= 3 * cfg.nucleation_count


class TestFusedStep:
    """A step streams each lattice once, inside its relaxation."""

    @pytest.mark.parametrize("preset", ["foam.cfg", "two_bubble.cfg"])
    def test_step_streams_only_inside_the_relaxation(self, monkeypatch,
                                                     preset):
        # foam.cfg shares one u_eq; the classic two-bubble drive gives the
        # melt its own
        world = build_world(load_config(os.path.join(CONFIGS, preset)))

        def refuse(lat):
            raise AssertionError("a step streams outside the relaxation")

        monkeypatch.setattr(Lattice, "stream", refuse)
        lattices = (world.pair.melt, world.pair.gas)
        parities = [lat.parity for lat in lattices]
        step(world)
        assert [lat.parity for lat in lattices] == [1 - p for p in parities]

    @pytest.mark.parametrize("tau_melt, tau_gas", [(0.8, 0.8), (0.8, 1.3)])
    def test_off_unit_tau_conserves_melt_and_books_injected_gas(
            self, tau_melt, tau_gas):
        # equal taus share one u_eq, unequal ones give each lattice its
        # own; both relax at omega != 1, which no preset does
        cfg = SimulationConfig(
            scenario="foam", nx=40, ny=40, G=-4.3, rho_melt=1.45,
            rho_gas=0.25, rho_background=0.04, nucleation_count=2,
            nucleation_seed=7, min_spacing=12.0, growth_A=10.0,
            growth_dn_dt=100.0, growth_budget=1.0, dt=1e-3,
            tau_melt=tau_melt, tau_gas=tau_gas).validate()
        world = build_world(cfg)
        melt, gas = world.pair.melt, world.pair.gas
        m_melt, m_gas = melt.mass(), gas.mass()
        for _ in range(40):
            step(world)
        added = cfg.growth_A * world.schedule.injected / CS2
        assert added > 0.01 * m_gas
        assert abs(melt.mass() - m_melt) < 1e-13 * m_melt
        assert abs(gas.mass() - (m_gas + added)) < 1e-13 * (m_gas + added)
