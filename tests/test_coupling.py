"""Coupler tests: shared velocity, barrier masking, conservation."""

import time

import numpy as np
import pytest
from scipy import ndimage

from foamlbm import coupling, foam, lattice
from foamlbm.config import SimulationConfig
from foamlbm.coupling import PhasePair, _zone, barrier_zones, coupled_update
from foamlbm.foam import BubbleRegistry, step
from foamlbm.interaction import pseudopotential, shan_chen_force
from foamlbm.lattice import Lattice, density_momentum
from foamlbm.run import build_world


def make_pair(nx=32, ny=32, tau_m=1.0, tau_g=1.0, G=-4.5):
    melt = Lattice(nx, ny, tau=tau_m)
    gas = Lattice(nx, ny, tau=tau_g)
    return PhasePair(melt=melt, gas=gas, G=G)


def disc_mask(nx, ny, cx, cy, r):
    X, Y = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    return (X - cx) ** 2 + (Y - cy) ** 2 <= r * r


def tallied(owner):
    """A registry holding `owner` as its owner map, so its tally gives
    barrier_zones the bubbles, their centroids and their boxes."""
    reg = BubbleRegistry(owner.shape)
    flat = np.flatnonzero(owner)
    reg.replace_owner(flat, owner.ravel()[flat])
    return reg


def grid_zone(state, b, shape):
    """Bubble b's zone on the whole grid; barrier_zones keeps it in b's box."""
    full = np.zeros(shape, dtype=bool)
    full[state.boxes[b]] = state.zones[b]
    return full


def seed_bubbles(pair, centers, r=4.0, rho_melt=1.5, rho_gas=0.4,
                 rho_floor=0.05):
    nx, ny = pair.melt.grid_shape
    gas = np.full((nx, ny), rho_floor)
    melt = np.full((nx, ny), rho_melt)
    for cx, cy in centers:
        inside = disc_mask(nx, ny, cx, cy, r)
        gas[inside] = rho_gas
        melt[inside] = rho_floor
    zeros = np.zeros((2, nx, ny))
    pair.melt.set_equilibrium(melt, zeros)
    pair.gas.set_equilibrium(gas, zeros)
    return melt, gas


def uniform_pair(rho_m, u_m, rho_g, u_g, n=3):
    """A pair at uniform equilibrium states, one (rho, (ux, uy)) per phase."""
    pair = make_pair(nx=n, ny=n)
    for lat, rho, u in ((pair.melt, rho_m, u_m), (pair.gas, rho_g, u_g)):
        lat.set_equilibrium(np.full((n, n), rho),
                            np.broadcast_to(np.reshape(u, (2, 1, 1)),
                                            (2, n, n)))
    return pair


class TestSharedVelocity:
    """The velocity both phases relax toward, `coupled_update(...).u_total`:
    the summed momentum over the summed density."""

    def test_pure_melt_cell(self):
        pair = uniform_pair(2.0, (0.03, 0.03), 0.0, (0.0, 0.0))
        out = coupled_update(pair).u_total
        assert np.allclose(out, 0.03, rtol=1e-14, atol=0)

    def test_rest_gives_rest(self):
        pair = uniform_pair(1.0, (0.0, 0.0), 1.0, (0.0, 0.0))
        assert np.all(coupled_update(pair).u_total == 0.0)

    def test_equal_momentum_head_on_cancels(self):
        pair = uniform_pair(1.8, (0.05, 0.0), 0.6, (-0.05 * 1.8 / 0.6, 0.0))
        assert np.allclose(coupled_update(pair).u_total, 0.0, atol=1e-16)

    def test_empty_cell_zero_convention(self):
        pair = uniform_pair(0.0, (0.0, 0.0), 0.0, (0.0, 0.0), n=2)
        assert np.all(coupled_update(pair).u_total == 0.0)


class TestBarrierZones:
    def test_far_bubbles_make_no_barrier(self):
        owner = np.zeros((40, 40), dtype=np.int64)
        owner[disc_mask(40, 40, 8, 20, 3)] = 1
        owner[disc_mask(40, 40, 30, 20, 3)] = 2
        state = barrier_zones(tallied(owner), wall_rho=1.5, r_z=3)
        z1, z2 = (grid_zone(state, b, owner.shape) for b in (1, 2))
        assert not (z1 & z2).any()
        assert state.contacts == []

    def test_overlapping_zones_flag_midline(self):
        owner = np.zeros((40, 40), dtype=np.int64)
        owner[disc_mask(40, 40, 14, 20, 4)] = 1
        owner[disc_mask(40, 40, 24, 20, 4)] = 2
        state = barrier_zones(tallied(owner), wall_rho=1.5, r_z=3)
        z1, z2 = (grid_zone(state, b, owner.shape) for b in (1, 2))
        overlap = z1 & z2
        assert overlap.any()
        xs = np.argwhere(overlap)[:, 0]
        assert 17 <= xs.min() and xs.max() <= 21  # band between the bubbles
        assert state.contacts == [(1, 2)]

    def test_ruptured_film_clears_barrier(self):
        pair = make_pair(nx=40, ny=40)
        seed_bubbles(pair, [(14, 20), (24, 20)], r=4.0)
        owner = np.zeros((40, 40), dtype=np.int64)
        owner[disc_mask(40, 40, 14, 20, 4)] = 1
        owner[disc_mask(40, 40, 24, 20, 4)] = 2
        state = barrier_zones(tallied(owner), wall_rho=1.5, r_z=3)
        # the zones still touch, but an opened film is not named standing
        # and masks nothing
        z1, z2 = (grid_zone(state, b, owner.shape) for b in (1, 2))
        assert (z1 & z2).any()
        assert state.contacts == [(1, 2)]
        opened = coupled_update(pair, barrier=state, standing=())
        assert np.array_equal(opened.force, coupled_update(pair).force)

    def test_blocking_is_symmetric(self):
        # one standing film hides each of its bubbles from the other: the
        # force changes on both sides, bubble 1's up to x = 19 (the tie on
        # the midline goes to the lower id) and bubble 2's beyond
        pair = make_pair(nx=40, ny=40)
        seed_bubbles(pair, [(14, 20), (24, 20)], r=4.0)
        owner = np.zeros((40, 40), dtype=np.int64)
        owner[disc_mask(40, 40, 14, 20, 4)] = 1
        owner[disc_mask(40, 40, 24, 20, 4)] = 2
        state = barrier_zones(tallied(owner), wall_rho=1.5, r_z=3)
        masked = coupled_update(pair, barrier=state, standing=[(1, 2)])
        diff = np.abs(masked.force - coupled_update(pair).force).max(axis=0)
        assert diff[:20].max() > 0.0 and diff[20:].max() > 0.0


class TestCoupledUpdate:
    def test_no_interaction_moves_with_u_total(self):
        pair = make_pair(G=0.0, nx=16, ny=16)
        rng = np.random.default_rng(1)
        pair.melt.set_equilibrium(rng.uniform(1.0, 2.0, (16, 16)),
                                  rng.uniform(-0.02, 0.02, (2, 16, 16)))
        pair.gas.set_equilibrium(rng.uniform(0.1, 0.3, (16, 16)),
                                 rng.uniform(-0.02, 0.02, (2, 16, 16)))
        out = coupled_update(pair)
        assert np.allclose(out.u_eq_melt, out.u_total, atol=1e-16)
        assert np.allclose(out.u_eq_gas, out.u_total, atol=1e-16)
        assert np.allclose(out.force, 0.0, atol=1e-16)

    def test_single_bubble_barrier_is_plain_coupling(self):
        pair = make_pair(nx=64, ny=64)
        seed_bubbles(pair, [(32, 32)], r=8.0)
        plain = coupled_update(pair, barrier=None)
        owner = np.zeros((64, 64), dtype=np.int64)
        owner[disc_mask(64, 64, 32, 32, 8)] = 1
        state = barrier_zones(tallied(owner), wall_rho=1.5, r_z=3)
        assert state.contacts == []
        masked = coupled_update(pair, barrier=state, standing=state.contacts)
        assert np.max(np.abs(masked.u_eq_melt - plain.u_eq_melt)) < 1e-14
        assert np.max(np.abs(masked.u_eq_gas - plain.u_eq_gas)) < 1e-14
        assert np.max(np.abs(masked.force - plain.force)) == 0.0

    def test_active_film_changes_film_forces_only(self):
        pair = make_pair(nx=48, ny=48)
        seed_bubbles(pair, [(17, 24), (31, 24)], r=5.0)
        owner = np.zeros((48, 48), dtype=np.int64)
        owner[disc_mask(48, 48, 17, 24, 5)] = 1
        owner[disc_mask(48, 48, 31, 24, 5)] = 2
        state = barrier_zones(tallied(owner), wall_rho=1.5, r_z=3)
        assert state.contacts == [(1, 2)]
        plain = coupled_update(pair, barrier=None)
        masked = coupled_update(pair, barrier=state, standing=state.contacts)
        diff = np.abs(masked.force - plain.force).max(axis=0)
        assert diff.max() > 0.0
        # differences live inside the involved zones, nowhere else
        z1, z2 = (grid_zone(state, b, owner.shape) for b in (1, 2))
        covered = z1 | z2
        assert np.all(diff[~covered] == 0.0)

    def test_masked_film_interface_is_released_outward(self):
        # with the far half neutralized, the near interface must feel a
        # weaker pull toward the film than the open coupling applies
        pair = make_pair(nx=48, ny=48)
        seed_bubbles(pair, [(18, 24), (30, 24)], r=5.0)
        owner = np.zeros((48, 48), dtype=np.int64)
        owner[disc_mask(48, 48, 18, 24, 5)] = 1
        owner[disc_mask(48, 48, 30, 24, 5)] = 2
        state = barrier_zones(tallied(owner), wall_rho=1.5, r_z=3)
        plain = coupled_update(pair, barrier=None)
        masked = coupled_update(pair, barrier=state, standing=state.contacts)
        film = slice(22, 27)
        pull_plain = plain.force[0, film, 24]
        pull_masked = masked.force[0, film, 24]
        assert np.any(pull_masked != pull_plain)

    def test_mass_conserved_two_phase(self):
        pair = make_pair(nx=32, ny=32, G=-4.6)
        seed_bubbles(pair, [(16, 16)], r=6.0)
        m_melt = pair.melt.mass()
        m_gas = pair.gas.mass()
        for _ in range(300):
            out = coupled_update(pair)
            pair.melt.collide(out.rho_melt, out.u_eq_melt)
            pair.gas.collide(out.rho_gas, out.u_eq_gas)
        assert abs(pair.melt.mass() - m_melt) < 1e-11 * m_melt
        assert abs(pair.gas.mass() - m_gas) < 1e-11 * m_gas

    def test_equal_tau_lattices_sum_to_single_component(self):
        # with tau_m = tau_g every update is linear in the populations at
        # fixed velocity, so the pair must evolve exactly like one lattice
        # carrying the combined density
        nx = ny = 48
        tau, G = 0.9, -4.4
        pair = make_pair(nx=nx, ny=ny, tau_m=tau, tau_g=tau, G=G)
        rng = np.random.default_rng(3)
        rho_t = 0.7 + 0.05 * rng.standard_normal((nx, ny))
        split = rng.uniform(0.3, 0.7, (nx, ny))
        zeros = np.zeros((2, nx, ny))
        pair.melt.set_equilibrium(rho_t * split, zeros)
        pair.gas.set_equilibrium(rho_t * (1 - split), zeros)
        single = Lattice(nx, ny, tau=tau)
        single.set_equilibrium(rho_t, zeros)
        for _ in range(120):
            out = coupled_update(pair)
            pair.melt.collide(out.rho_melt, out.u_eq_melt)
            pair.gas.collide(out.rho_gas, out.u_eq_gas)
            rho, j = density_momentum(single.f)
            F = shan_chen_force(pseudopotential(rho), G)
            single.collide(rho, j / rho + tau * F / np.maximum(rho, 1e-12))
        combined = pair.melt.f + pair.gas.f
        assert np.max(np.abs(combined - single.f)) < 1e-12

    def test_external_force_shifts_one_phase(self):
        pair = make_pair(G=0.0, nx=8, ny=8)
        pair.melt.set_equilibrium(np.full((8, 8), 2.0), np.zeros((2, 8, 8)))
        pair.gas.set_equilibrium(np.full((8, 8), 0.5), np.zeros((2, 8, 8)))
        f_ext = np.zeros((2, 8, 8))
        f_ext[0] = 1e-3
        out = coupled_update(pair, f_ext_melt=f_ext)
        assert np.allclose(out.u_eq_gas, out.u_total)
        assert np.allclose(out.u_eq_melt[0] - out.u_total[0],
                           pair.melt.tau * 1e-3 / 2.0, atol=1e-15)

    def test_equal_taus_without_drive_share_one_velocity(self):
        pair = make_pair(nx=16, ny=16)
        seed_bubbles(pair, [(8, 8)], r=4.0)
        out = coupled_update(pair)
        assert out.u_eq_melt is out.u_eq_gas
        f_ext = np.zeros((2, 16, 16))
        driven = coupled_update(pair, f_ext_melt=f_ext)
        assert driven.u_eq_melt is not driven.u_eq_gas
        assert np.array_equal(driven.u_eq_melt, out.u_eq_gas)
        assert np.array_equal(driven.u_eq_gas, out.u_eq_gas)
        apart = make_pair(nx=16, ny=16, tau_m=0.8)
        seed_bubbles(apart, [(8, 8)], r=4.0)
        two = coupled_update(apart)
        assert two.u_eq_melt is not two.u_eq_gas
        assert np.array_equal(two.u_eq_gas, out.u_eq_gas)

    @pytest.mark.parametrize("tau_melt, tau_gas, drive, brackets",
                             [(1.0, 1.0, 0.0, 1), (0.8, 0.8, 0.0, 1),
                              (0.8, 1.0, 0.0, 2), (1.0, 1.0, 1e-4, 2)])
    def test_step_evaluates_one_bracket_per_velocity_array(
            self, monkeypatch, tau_melt, tau_gas, drive, brackets):
        # a shared velocity, from equal taus and no drive, is one array
        # and both lattices relax from one bracket per band; a tau or a
        # drive of the melt's own gives each lattice a bracket of its own
        cfg = SimulationConfig(scenario="two_bubble", nx=64, ny=48,
                               model="classic", dx=1e-4, dt=1e-4,
                               bubble_diameter_mm=2.0, tau_melt=tau_melt,
                               tau_gas=tau_gas, approach_force=drive
                               ).validate()
        monkeypatch.setattr(lattice, "BAND_CELLS", 1000)
        world = build_world(cfg)
        bands = len(world.pair.melt._routes)
        assert bands == 4
        calls = []
        original = lattice._base_bracket

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(lattice, "_base_bracket", counted)
        for _ in range(3):
            before = len(calls)
            step(world)
            assert len(calls) - before == brackets * bands


def whole_grid_zones(owner, ids, r_z):
    """Zones and contacts as a whole-grid distance transform per bubble
    gives them: the reference the windowed barrier_zones must match
    exactly."""
    zones = {b: ndimage.distance_transform_edt(owner != b) <= r_z
             for b in ids}
    contacts = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
                if (zones[a] & zones[b]).any()]
    return zones, contacts


def whole_grid_masked_force(pair, state, standing):
    """The masked coupling force evaluated on whole-grid copies of the
    density, with a whole-grid nearest-centroid map."""
    rho_m, _ = density_momentum(pair.melt.f)
    rho_g, _ = density_momentum(pair.gas.f)
    rho_t = rho_m + rho_g
    force = shan_chen_force(pseudopotential(rho_t), pair.G)
    involved = sorted({b for pr in standing for b in pr})
    X, Y = np.meshgrid(np.arange(rho_t.shape[0]), np.arange(rho_t.shape[1]),
                       indexing="ij")
    nearest = np.zeros(rho_t.shape, dtype=np.int64)
    best_d = np.full(rho_t.shape, np.inf)
    for b in involved:
        cx, cy = state.centroids[b]
        d = (X - cx) ** 2 + (Y - cy) ** 2
        mask = grid_zone(state, b, rho_t.shape) & (d < best_d)
        nearest[mask] = b
        best_d[mask] = d[mask]
    for b in involved:
        sel = nearest == b
        view = rho_t.copy()
        blocked = {a for a, c in standing if c == b} \
            | {c for a, c in standing if a == b}
        for other in blocked:
            view[nearest == other] = state.wall_rho
        force_b = shan_chen_force(pseudopotential(view), pair.G)
        force[:, sel] = force_b[:, sel]
    return force


def random_owner(rng, shape):
    """Blobs under scattered, non-consecutive ids, with one bubble on each
    wall and one in a corner."""
    nx, ny = shape
    owner = np.zeros(shape, dtype=np.int64)
    X, Y = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    centers = [(0, 0), (0, ny // 2), (nx - 1, ny // 3), (nx // 2, 0),
               (nx // 3, ny - 1)]
    centers += [(int(rng.integers(nx)), int(rng.integers(ny)))
                for _ in range(3)]
    ids = rng.choice(np.arange(1, 40), size=len(centers), replace=False)
    for bid, (cx, cy) in zip(ids, centers):
        r = rng.uniform(1.5, 5.0)
        rough = rng.random(shape) < 0.8
        owner[((X - cx) ** 2 + (Y - cy) ** 2 <= r * r) & rough] = bid
    return owner


class TestWindowsAreExact:
    @pytest.mark.parametrize("r", [0, 1, 3, 10])
    def test_zone_matches_the_distance_transform(self, r):
        # random boxes down to one row or column, thinner than r, sparse
        # and full; a box always holds a cell of its bubble, and a box
        # holding none has an empty zone
        rng = np.random.default_rng(40 + r)
        shapes = [(1, 1), (1, 17), (17, 1), (2, 30), (30, 2), (12, 9)]
        shapes += [tuple(int(n) for n in rng.integers(1, 26, size=2))
                   for _ in range(60)]
        checked = 0
        for shape in shapes:
            for share in (0.0, 0.02, 0.2, 0.7, 1.0):
                inside = rng.random(shape) < share
                if share == 1.0:
                    inside[:] = True
                if not inside.any():
                    assert not _zone(inside, r).any()
                    continue
                want = ndimage.distance_transform_edt(~inside) <= r
                assert np.array_equal(_zone(inside, r), want)
                checked += 1
        assert checked > 200

    def test_zone_reach_is_clamped_to_its_window(self):
        # no two cells of a window lie rows + columns apart, so a reach of
        # 10^12 gives the zone of reach rows + columns, with no square
        # past int64
        rng = np.random.default_rng(7)
        for _ in range(40):
            shape = tuple(int(n) for n in rng.integers(1, 30, size=2))
            inside = rng.random(shape) < rng.choice([0.0, 0.01, 0.1, 0.5])
            assert np.array_equal(_zone(inside, 10 ** 12),
                                  _zone(inside, sum(shape)))

    def test_a_huge_zone_radius_steps_at_once(self):
        # at barrier_r_z = 10^9 every window is the whole grid and every
        # zone reach is clamped to it, so the world steps as at 1000; an
        # unclamped zone test loops 10^9 times per bubble
        from test_golden import overlapping_zones
        worlds = []
        for r_z in (1000, 10 ** 9):
            cfg, _ = overlapping_zones()
            cfg.barrier_r_z = r_z
            start = time.perf_counter()
            world = build_world(cfg.validate())
            for _ in range(5):
                step(world)
            assert time.perf_counter() - start < 2.0
            worlds.append(world)
        near, far = worlds
        assert (1, 2) in far.films
        assert list(far.films.items()) == list(near.films.items())
        assert np.array_equal(far.pair.melt.f, near.pair.melt.f)
        assert np.array_equal(far.pair.gas.f, near.pair.gas.f)

    @pytest.mark.parametrize("r_z", [1, 3, 5, 10])
    def test_zones_and_films_match_whole_grid(self, r_z):
        # the zone pass lists the contacts in the whole-grid order; the
        # world enters the fresh ones after its ledger's own entries and
        # leaves every entry it has as it is.  At r_z = 10, as in the
        # two-bubble preset, a box padded twice is clipped at the walls
        rng = np.random.default_rng(100 + r_z)
        deepest = 0  # the most zones over one cell, on any map
        shape = (37, 29)
        cfg = SimulationConfig(scenario="foam", nx=shape[0], ny=shape[1],
                               nucleation_count=1, min_spacing=1.0,
                               barrier_r_z=r_z).validate()
        world = build_world(cfg)
        for _ in range(25):
            owner = random_owner(rng, shape)
            ids = sorted(np.unique(owner[owner > 0]).tolist())
            prior = {(a, b): int(rng.integers(2))
                     for i, a in enumerate(ids) for b in ids[i + 1:]
                     if rng.random() < 0.2}
            state = barrier_zones(tallied(owner), wall_rho=1.5, r_z=r_z)
            zones, contacts = whole_grid_zones(owner, ids, r_z)
            depth = sum(zones[b].astype(int) for b in ids)
            deepest = max(deepest, depth.max())
            assert sorted(state.zones) == ids
            for b in ids:
                # one window per bubble: its cells' box padded by 2 r_z
                xs, ys = np.nonzero(owner == b)
                assert state.boxes[b] == (
                    slice(max(xs.min() - 2 * r_z, 0),
                          min(xs.max() + 1 + 2 * r_z, shape[0])),
                    slice(max(ys.min() - 2 * r_z, 0),
                          min(ys.max() + 1 + 2 * r_z, shape[1])))
                assert np.array_equal(grid_zone(state, b, shape), zones[b])
            assert state.contacts == contacts
            films = dict(prior)
            for pr in contacts:
                films.setdefault(pr, 1)
            world.registry, world.films = tallied(owner), dict(prior)
            world._refresh_coupling()
            assert list(world.films.items()) == list(films.items())
        # a cell in the zones of a < b < c: a lists two contacts at once
        assert deepest >= 3

    def test_masked_force_matches_whole_grid_on_overlapping_zones(
            self, monkeypatch):
        # the golden overlapping-zones world: its film stands until step 2
        cfg = SimulationConfig(scenario="two_bubble", nx=64, ny=48,
                               model="modified", dx=1e-4, dt=1e-4,
                               bubble_diameter_mm=2.0, bubble_gap_cells=3.0,
                               barrier_r_z=3, approach_force=1e-4,
                               barrier_eps_p=0.1).validate()
        checked = []

        def checked_update(pair, barrier=None, standing=(), f_ext_melt=None):
            out = coupled_update(pair, barrier, standing, f_ext_melt)
            if standing:
                want = whole_grid_masked_force(pair, barrier, standing)
                checked.append(np.array_equal(out.force, want))
            return out

        # each coupling pass of the world, the build's among them
        monkeypatch.setattr(foam, "coupled_update", checked_update)
        world = build_world(cfg)
        for _ in range(4):
            step(world)
        assert len(checked) >= 2 and all(checked)

    def test_masked_force_matches_whole_grid_at_the_walls(self):
        # windows clipped at every wall and in a corner
        nx, ny = 40, 30
        pair = make_pair(nx=nx, ny=ny)
        centers = [(3, 3), (12, 3), (3, 14), (36, 15), (28, 15), (20, 27)]
        seed_bubbles(pair, centers, r=4.0)
        owner = np.zeros((nx, ny), dtype=np.int64)
        for bid, (cx, cy) in enumerate(centers, start=1):
            owner[disc_mask(nx, ny, cx, cy, 4.0)] = bid
        state = barrier_zones(tallied(owner), wall_rho=1.5, r_z=3)
        assert len(state.contacts) >= 3
        got = coupled_update(pair, barrier=state, standing=state.contacts)
        want = whole_grid_masked_force(pair, state, state.contacts)
        assert np.array_equal(got.force, want)

    def test_masked_pass_computes_no_potential_of_its_own(self, monkeypatch):
        # while the golden overlapping-zones world's film stands, a pass
        # takes psi of the total density and of the wall density alone:
        # each film bubble's view is a window of that potential
        from test_golden import overlapping_zones
        cfg, _ = overlapping_zones()
        args, passes = [], []

        def spy(rho):
            args.append(rho)
            return pseudopotential(rho)

        def checked_update(pair, barrier=None, standing=(), f_ext_melt=None):
            args.clear()
            out = coupled_update(pair, barrier, standing, f_ext_melt)
            if standing:
                passes.append((list(args), out.rho_total, barrier.wall_rho))
            return out

        monkeypatch.setattr(coupling, "pseudopotential", spy)
        monkeypatch.setattr(foam, "coupled_update", checked_update)
        world = build_world(cfg)
        for _ in range(4):
            step(world)
        assert len(passes) >= 2
        for got, rho_t, wall_rho in passes:
            assert len(got) == 2
            assert got[0] is rho_t and rho_t.shape == (cfg.nx, cfg.ny)
            assert np.ndim(got[1]) == 0 and got[1] == wall_rho
