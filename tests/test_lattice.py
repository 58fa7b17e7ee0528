"""Lattice kernel tests: stencil identities, moments, collision, streaming.

`collide`, and `Lattice.collide` on one lattice, stream as they relax, so a
test of the relaxation either pushes its reference through a twin's
`Lattice.stream()` (`streamed`) or undoes the push on the result
(`unstreamed`).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from foamlbm import lattice
from foamlbm.lattice import (VELOCITY_WARN, Lattice, collide,
                             density_momentum)
from foamlbm.stencil import CS2, E, OPPOSITE, REFLECT_X, REFLECT_Y, W


def random_state(rng, nx=8, ny=8):
    rho = rng.uniform(0.1, 5.0, size=(nx, ny))
    u = rng.uniform(-0.1, 0.1, size=(2, nx, ny))
    return rho, u


def density_velocity(f):
    """Density and velocity of populations whose density is positive."""
    rho, j = density_momentum(f)
    return rho, j / rho


def equilibrium_populations(rho, u):
    """Populations of a lattice set to equilibrium at (rho, u)."""
    lat = Lattice(*rho.shape, tau=1.0)
    lat.set_equilibrium(rho, u)
    return lat.f


def streamed(field):
    """`field` moved one link by a twin lattice's `Lattice.stream()`."""
    twin = Lattice(*field.shape[1:], tau=1.0)
    twin._bufs[twin.parity][:] = field
    twin.stream()
    return twin.f


def unstreamed(lat):
    """The post-collision field that the last relaxation pushed into
    `lat.f`.  Mirror streaming only permutes entries, so stream each
    entry's index and invert."""
    tags = streamed(np.arange(lat.f.size, dtype=float).reshape(lat.f.shape))
    pre = np.empty_like(lat.f)
    pre.ravel()[tags.ravel().astype(np.intp)] = lat.f.ravel()
    return pre


def bgk_direct(f, rho, u, tau):
    """f + (f_eq - f) / tau, cell by cell, with the oracle's f_eq."""
    ref = np.empty_like(f)
    for x in range(f.shape[1]):
        for y in range(f.shape[2]):
            feq = oracles.equilibrium_direct(rho[x, y], u[0, x, y],
                                             u[1, x, y])
            ref[:, x, y] = f[:, x, y] + (feq - f[:, x, y]) / tau
    return ref


class TestStencil:
    def test_weights_normalized(self):
        assert abs(W.sum() - 1.0) < 1e-15

    def test_first_moment_vanishes(self):
        assert np.all(np.abs(W @ E) < 1e-15)

    def test_second_moment_isotropy(self):
        m = np.einsum("i,ia,ib->ab", W, E, E)
        assert np.allclose(m, CS2 * np.eye(2), atol=1e-15)

    def test_opposite_negates(self):
        assert np.array_equal(E[OPPOSITE], -E)

    def test_reflections_flip_one_component(self):
        assert np.array_equal(E[REFLECT_X], E * np.array([-1, 1]))
        assert np.array_equal(E[REFLECT_Y], E * np.array([1, -1]))

    def test_reflections_are_involutions(self):
        ident = np.arange(9)
        assert np.array_equal(REFLECT_X[REFLECT_X], ident)
        assert np.array_equal(REFLECT_Y[REFLECT_Y], ident)
        assert np.array_equal(OPPOSITE[OPPOSITE], ident)


class TestMoments:
    def test_matches_direct_summation(self):
        rng = np.random.default_rng(7)
        f = rng.uniform(0.0, 1.0, size=(9, 6, 5))
        rho, u = density_velocity(f)
        rho_ref, mom_ref = oracles.moments_direct(f)
        assert np.allclose(rho, rho_ref, rtol=1e-14, atol=0)
        assert np.allclose(rho * u, mom_ref, rtol=1e-13, atol=1e-15)

    def test_density_momentum_matches_direct_summation(self):
        rng = np.random.default_rng(8)
        f = rng.uniform(-0.1, 1.0, size=(9, 7, 5))
        rho, j = density_momentum(f)
        rho_ref, mom_ref = oracles.moments_direct(f)
        assert rho.shape == (7, 5) and j.shape == (2, 7, 5)
        assert np.allclose(rho, rho_ref, rtol=1e-15, atol=1e-15)
        assert np.allclose(j, mom_ref, rtol=1e-15, atol=1e-15)

    def test_zero_density_gives_zero_velocity(self):
        f = np.zeros((9, 3, 3))
        f[1, 1, 1] = 0.5
        f[3, 1, 1] = 0.5
        rho, j = density_momentum(f)
        assert np.all(np.isfinite(j))
        assert rho[0, 0] == 0.0 and np.all(j[:, 0, 0] == 0.0)


class TestEquilibrium:
    """Lattice.set_equilibrium: the collision kernel at omega = 1."""

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(11)
        rho, u = random_state(rng, 4, 3)
        feq = equilibrium_populations(rho, u)
        for x in range(4):
            for y in range(3):
                ref = oracles.equilibrium_direct(rho[x, y], u[0, x, y],
                                                 u[1, x, y])
                assert np.allclose(feq[:, x, y], ref, rtol=1e-13, atol=1e-16)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @example(seed=512)
    @settings(max_examples=30, deadline=None)
    def test_moment_identities(self, seed):
        rng = np.random.default_rng(seed)
        rho, u = random_state(rng, 4, 4)
        feq = equilibrium_populations(rho, u)
        rho_out, u_out = density_velocity(feq)
        assert np.allclose(rho_out, rho, rtol=1e-13, atol=0)
        # the momentum sums nine populations of size ~rho, so its rounding
        # error scales with rho, not with the (possibly tiny) rho*u
        err = np.abs(rho_out * u_out - rho * u)
        assert np.all(err <= 1e-13 * np.abs(rho * u)
                      + 2.0 * np.finfo(float).eps * rho)

    def test_rest_state_is_weights(self):
        feq = equilibrium_populations(np.ones((2, 2)), np.zeros((2, 2, 2)))
        assert np.allclose(feq, W.reshape(9, 1, 1), atol=1e-15)

    def test_rejects_negative_density(self):
        rho = np.array([[1.0, -0.1]])
        with pytest.raises(ValueError):
            equilibrium_populations(rho, np.zeros((2, 1, 2)))


def collide_one(a, b, rho, u):
    """`Lattice.collide` on `a` alone; returns the lattices relaxed."""
    a.collide(rho, u)
    return [a]


def collide_both(a, b, rho, u):
    """`collide` on `a` and `b`, one velocity array for both; returns the
    lattices relaxed."""
    collide((a, b), (rho, rho), (u, u))
    return [a, b]


RELAXATIONS = [pytest.param(collide_one, id="Lattice.collide"),
               pytest.param(collide_both, id="collide")]


class TestCollision:
    def test_full_relaxation_at_unit_tau(self):
        rng = np.random.default_rng(5)
        lat = Lattice(6, 6, tau=1.0)
        lat._bufs[lat.parity][:] = rng.uniform(0.1, 1.0, size=(9, 6, 6))
        rho, u = density_velocity(lat.f)
        lat.collide(rho, u)
        assert np.allclose(lat.f, streamed(equilibrium_populations(rho, u)),
                           rtol=1e-13, atol=1e-15)

    def test_conserves_mass_and_momentum(self):
        rng = np.random.default_rng(6)
        lat = Lattice(8, 8, tau=0.8)
        rho, u = random_state(rng)
        lat.set_equilibrium(rho, u)
        lat._bufs[lat.parity] += rng.uniform(0, 0.01, size=(9, 8, 8))
        rho0, u0 = density_velocity(lat.f)
        lat.collide(rho0, u0)
        rho1, u1 = density_velocity(unstreamed(lat))
        assert np.allclose(rho1, rho0, rtol=1e-13, atol=0)
        assert np.allclose(rho1 * u1, rho0 * u0, rtol=1e-12, atol=1e-16)

    def test_records_negative_populations(self):
        lat = Lattice(4, 4, tau=100.0)  # weak pull so the bad value survives
        lat.set_equilibrium(np.ones((4, 4)), np.zeros((2, 4, 4)))
        lat._bufs[lat.parity][5, 2, 3] = -1e-3
        lat.collide(*density_velocity(lat.f))
        assert lat.negative_count == 1

    def test_records_speed_above_velocity_cap(self):
        lat = Lattice(4, 4, tau=0.8)
        u = np.zeros((2, 4, 4))
        u[0] = 0.35
        lat.set_equilibrium(np.ones((4, 4)), u)
        lat.collide(*density_velocity(lat.f))
        assert lat.max_speed == pytest.approx(0.35, rel=1e-12)
        assert lat.max_speed > VELOCITY_WARN

    def test_matches_bgk_oracle(self):
        rng = np.random.default_rng(12)
        nx, ny, tau = 64, 48, 0.8
        lat = Lattice(nx, ny, tau=tau)
        rho, u = random_state(rng, nx, ny)
        lat.set_equilibrium(rho, u)
        lat._bufs[lat.parity] += rng.uniform(0, 0.01, size=(9, nx, ny))
        lat._bufs[lat.parity][5, [3, 40, 60], [4, 20, 47]] = 20.0
        f0 = lat.f.copy()
        rho, u = density_velocity(f0)
        # a force-shifted velocity; 20 in one direction relaxes below zero
        u_eq = u + rng.uniform(-0.05, 0.05, size=(2, nx, ny))
        lat.collide(rho, u_eq)
        ref = bgk_direct(f0, rho, u_eq, tau)
        assert np.allclose(lat.f, streamed(ref), rtol=1e-13, atol=0)
        assert lat.max_speed == pytest.approx(
            np.sqrt((u_eq * u_eq).sum(axis=0)).max(), rel=1e-15)
        assert lat.negative_count == 3
        assert lat.negative_count == np.count_nonzero((ref < 0).any(axis=0))

    def test_rejects_negative_density(self):
        rng = np.random.default_rng(15)
        lat = Lattice(4, 4, tau=0.8)
        for buf in lat._bufs:
            buf[:] = rng.uniform(0.0, 1.0, size=(9, 4, 4))
        before = [buf.copy() for buf in lat._bufs]
        rho = np.ones((4, 4))
        rho[1, 2] = -0.1
        with pytest.raises(ValueError):
            lat.collide(rho, np.zeros((2, 4, 4)))
        assert lat.parity == 0
        for buf, old in zip(lat._bufs, before):
            assert np.array_equal(buf, old)

    @pytest.mark.parametrize("relax", RELAXATIONS)
    def test_allocates_no_population_array(self, relax):
        # intermediates live in the lattice's scratch planes; a
        # full-size temporary would take at least lat.f.nbytes
        rng = np.random.default_rng(13)
        a, b = Lattice(64, 48, tau=0.8), Lattice(64, 48, tau=0.8)
        for lat in (a, b):
            lat.set_equilibrium(rng.uniform(0.5, 2.0, size=(64, 48)),
                                rng.uniform(-0.1, 0.1, size=(2, 64, 48)))
        rho, u = density_velocity(a.f)
        relax(a, b, rho, u)
        tracemalloc.start()
        try:
            relax(a, b, rho, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert a.f.nbytes == 221184
        assert peak < a.f.nbytes

    @pytest.mark.parametrize("relax", RELAXATIONS)
    def test_unit_tau_never_reads_the_old_populations(self, relax):
        rng = np.random.default_rng(14)
        rho, u = random_state(rng, 9, 7)
        out = []
        for fill in (0.0, np.nan):
            a, b = Lattice(9, 7, tau=1.0), Lattice(9, 7, tau=1.0)
            for lat in (a, b):
                lat._bufs[lat.parity][:] = fill
            out.append([lat.f.copy() for lat in relax(a, b, rho, u)])
            a._bufs[a.parity][:] = fill
            a.set_equilibrium(rho, u)
            out.append(a.f.copy())
        assert not np.isnan(out[2]).any()
        assert np.array_equal(out[0], out[2])
        assert np.array_equal(out[1], out[3])


class TestStreaming:
    def test_mirror_reflects_at_wall(self):
        lat = Lattice(5, 5, tau=1.0)
        lat._bufs[lat.parity][:] = 0.0
        lat._bufs[lat.parity][1, 4, 2] = 1.0  # (1, 0) into the x wall
        lat.stream()
        assert lat.f[3, 4, 2] == 1.0  # comes back as (-1, 0) in place

    def test_mirror_corner_double_reflection(self):
        lat = Lattice(4, 4, tau=1.0)
        lat._bufs[lat.parity][:] = 0.0
        lat._bufs[lat.parity][5, 3, 3] = 1.0  # (1, 1) into the corner
        lat.stream()
        assert lat.f[7, 3, 3] == 1.0  # fully reversed

    def test_mirror_conserves_mass_exactly(self):
        rng = np.random.default_rng(9)
        lat = Lattice(12, 10, tau=0.9)
        rho = rng.uniform(0.5, 2.0, size=(12, 10))
        lat.set_equilibrium(rho, np.zeros((2, 12, 10)))
        m0 = lat.mass()
        for _ in range(100):
            lat.stream()
        assert abs(lat.mass() - m0) < 1e-12 * m0

    def test_overwrites_back_buffer(self):
        # the wall blocks tile every destination plane exactly once, so
        # nothing of the back buffer's old contents survives a stream
        rng = np.random.default_rng(14)
        lat = Lattice(12, 10, tau=0.9)
        lat.set_equilibrium(rng.uniform(0.5, 2.0, size=(12, 10)),
                            np.zeros((2, 12, 10)))
        lat._bufs[1 - lat.parity][:] = np.nan
        lat.stream()
        assert not np.isnan(lat.f).any()

    @pytest.mark.parametrize("nx, ny", [(1, 4), (7, 5), (13, 6)])
    def test_bands_stream_as_one(self, monkeypatch, nx, ny):
        rng = np.random.default_rng(16)
        vals = rng.uniform(0, 1, size=(9, nx, ny))
        out = []
        for band_cells in (lattice.BAND_CELLS, 10, 20):
            monkeypatch.setattr(lattice, "BAND_CELLS", band_cells)
            lat = Lattice(nx, ny, tau=1.0)
            lat._bufs[lat.parity][:] = vals
            lat._bufs[1 - lat.parity][:] = np.nan
            lat.stream()
            out.append(lat.f.copy())
        assert not np.isnan(out[1]).any()
        assert np.array_equal(out[1], out[0])
        assert np.array_equal(out[2], out[0])

    def test_mirror_is_permutation(self):
        rng = np.random.default_rng(10)
        lat = Lattice(6, 5, tau=1.0)
        vals = rng.uniform(0, 1, size=(9, 6, 5))
        lat._bufs[lat.parity][:] = vals
        lat.stream()
        assert np.allclose(np.sort(lat.f.ravel()), np.sort(vals.ravel()),
                           rtol=0, atol=0)


class TestViscosity:
    @pytest.mark.parametrize("tau", [0.8, 1.0, 1.5])
    def test_shear_wave_decay(self, tau):
        # free-slip Taylor-Green box mode: with X = x + 1/2 the mirror walls
        # sit on nodes of the normal velocity, and the mode decays as
        # exp(-2 nu k^2 t)
        n = 32
        k = np.pi / n
        u0 = 0.01
        X = np.arange(n) + 0.5
        sx, cx = np.sin(k * X), np.cos(k * X)
        mode_x = np.outer(sx, cx)
        u = u0 * np.stack([mode_x, -np.outer(cx, sx)])
        lat = Lattice(n, n, tau=tau)
        lat.set_equilibrium(np.ones((n, n)), u)
        steps = 300
        for _ in range(steps):
            lat.collide(*density_velocity(lat.f))
        _, u_end = density_velocity(lat.f)
        amp = (u_end[0] * mode_x).sum() / (mode_x * mode_x).sum()
        nu_meas = -np.log(amp / u0) / (2.0 * k * k * steps)
        nu = CS2 * (tau - 0.5)
        assert abs(nu_meas - nu) / nu < 0.02


def pair_state(rng, nx=24, ny=18):
    """Two densities, one with an empty cell, and a velocity fast enough
    to drive some equilibrium populations below zero."""
    rho_a = rng.uniform(0.5, 2.0, size=(nx, ny))
    rho_b = rng.uniform(0.0, 0.4, size=(nx, ny))
    rho_a[3, 4] = 0.0
    u = rng.uniform(-0.6, 0.6, size=(2, nx, ny))
    return rho_a, rho_b, u


def unit_tau_pair(rng, nx, ny):
    a, b = Lattice(nx, ny, tau=1.0), Lattice(nx, ny, tau=1.0)
    for lat in (a, b):
        lat._bufs[lat.parity][:] = rng.uniform(0.0, 1.0, size=(9, nx, ny))
    return a, b


class TestCollide:
    def test_matches_equilibrium_oracle(self):
        rng = np.random.default_rng(21)
        nx, ny = 24, 18
        rho_a, rho_b, u = pair_state(rng, nx, ny)
        a, b = unit_tau_pair(rng, nx, ny)
        collide((a, b), (rho_a, rho_b), (u, u))
        for lat, rho in ((a, rho_a), (b, rho_b)):
            ref = np.empty((9, nx, ny))
            for x in range(nx):
                for y in range(ny):
                    ref[:, x, y] = oracles.equilibrium_direct(
                        rho[x, y], u[0, x, y], u[1, x, y])
            assert (ref < 0).any()
            post = unstreamed(lat)
            assert np.all(post[:, 3, 4] == 0.0) == (rho[3, 4] == 0.0)
            assert np.abs(post - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_counters_match_two_collides(self):
        rng = np.random.default_rng(22)
        rho_a, rho_b, u = pair_state(rng)
        a, b = unit_tau_pair(rng, *rho_a.shape)
        solo = []
        for lat, rho in ((a, rho_a), (b, rho_b)):
            twin = Lattice(*rho.shape, tau=1.0)
            twin.collide(rho, u)
            solo.append(twin)
        collide((a, b), (rho_a, rho_b), (u, u))
        for lat, twin in zip((a, b), solo):
            assert lat.max_speed == twin.max_speed > VELOCITY_WARN
            assert lat.negative_count == twin.negative_count > 0

    def test_rejects_negative_density_untouched(self):
        rng = np.random.default_rng(23)
        rho_a, rho_b, u = pair_state(rng)
        a, b = unit_tau_pair(rng, *rho_a.shape)
        for lat in (a, b):
            lat._bufs[1 - lat.parity][:] = rng.uniform(0.0, 1.0,
                                                       size=lat.f.shape)
        before = [[buf.copy() for buf in lat._bufs] for lat in (a, b)]
        rho_b[5, 6] = -1e-3
        with pytest.raises(ValueError):
            collide((a, b), (rho_a, rho_b), (u, u))
        for lat, bufs in zip((a, b), before):
            assert lat.parity == 0
            for buf, old in zip(lat._bufs, bufs):
                assert np.array_equal(buf, old)

    @pytest.mark.parametrize("tau_a, tau_b", [(0.8, 0.8), (1.0, 0.8)])
    def test_matches_two_collides_at_any_tau(self, tau_a, tau_b):
        rng = np.random.default_rng(24)
        rho_a, rho_b, u = pair_state(rng)
        nx, ny = rho_a.shape
        a, b = Lattice(nx, ny, tau=tau_a), Lattice(nx, ny, tau=tau_b)
        solo = []
        for lat in (a, b):
            lat._bufs[lat.parity][:] = rng.uniform(0.0, 1.0, size=(9, nx, ny))
            twin = Lattice(nx, ny, tau=lat.tau)
            twin._bufs[twin.parity][:] = lat.f
            solo.append(twin)
        collide((a, b), (rho_a, rho_b), (u, u))
        for twin, rho in zip(solo, (rho_a, rho_b)):
            twin.collide(rho, u)
        for lat, twin in zip((a, b), solo):
            np.testing.assert_allclose(lat.f, twin.f, rtol=1e-13, atol=0)
            assert lat.max_speed == twin.max_speed
            assert lat.negative_count == twin.negative_count > 0

    @pytest.mark.parametrize("tau_a, tau_b", [(1.0, 1.0), (0.8, 1.3)])
    @pytest.mark.parametrize("band_cells", [lattice.BAND_CELLS, 100])
    def test_own_velocities_match_two_collides_bit_for_bit(
            self, monkeypatch, tau_a, tau_b, band_cells):
        # distinct velocity arrays, one of them fast and one slow, so each
        # lattice's max_speed and negative_count are its own
        rng = np.random.default_rng(25)
        rho_a, rho_b, u_a = pair_state(rng)
        nx, ny = rho_a.shape
        u_b = 0.1 * rng.uniform(-1.0, 1.0, size=(2, nx, ny))
        with monkeypatch.context() as m:
            m.setattr(lattice, "BAND_CELLS", band_cells)
            a, b = Lattice(nx, ny, tau=tau_a), Lattice(nx, ny, tau=tau_b)
        solo = []
        for lat in (a, b):
            lat._bufs[lat.parity][:] = rng.uniform(0.0, 1.0, size=(9, nx, ny))
            twin = Lattice(nx, ny, tau=lat.tau)
            twin._bufs[twin.parity][:] = lat.f
            solo.append(twin)
        collide((a, b), (rho_a, rho_b), (u_a, u_b))
        for twin, rho, u in zip(solo, (rho_a, rho_b), (u_a, u_b)):
            twin.collide(rho, u)
        for lat, twin in zip((a, b), solo):
            assert lat.parity == twin.parity == 1
            assert np.array_equal(lat.f, twin.f)
            assert lat.max_speed == twin.max_speed
            assert lat.negative_count == twin.negative_count
        assert a.max_speed > VELOCITY_WARN > b.max_speed
        assert a.negative_count > b.negative_count

    def test_equal_but_distinct_velocities_relax_alike(self):
        # sharing the bracket is a saving, never a change of result
        rng = np.random.default_rng(26)
        rho_a, rho_b, u = pair_state(rng)
        runs = []
        for velocities in ((u, u), (u, u.copy())):
            a, b = unit_tau_pair(np.random.default_rng(27), *rho_a.shape)
            collide((a, b), (rho_a, rho_b), velocities)
            runs.append([(lat.f.copy(), lat.max_speed, lat.negative_count)
                         for lat in (a, b)])
        for (f, speed, count), (f2, speed2, count2) in zip(*runs):
            assert np.array_equal(f, f2)
            assert (speed, count) == (speed2, count2)


class TestFusedStream:
    """`collide` relaxes and streams in one pass, on one lattice or two."""

    @pytest.mark.parametrize("relax", RELAXATIONS)
    @pytest.mark.parametrize("tau", [0.8, 1.0, 1.7])
    @pytest.mark.parametrize("nx, ny", [(1, 4), (7, 5), (64, 48)])
    @pytest.mark.parametrize("band_cells", [lattice.BAND_CELLS, 10, 150])
    def test_matches_collide_then_stream_bit_for_bit(
            self, monkeypatch, relax, tau, nx, ny, band_cells):
        # the lattices under test work in bands of at most band_cells
        # cells (one or two rows at 10); the twins that stream the references
        # work the whole grid as one band
        rng = np.random.default_rng(31)
        with monkeypatch.context() as m:
            m.setattr(lattice, "BAND_CELLS", band_cells)
            a, b = Lattice(nx, ny, tau=tau), Lattice(nx, ny, tau=tau)
        for lat in (a, b):
            lat._bufs[lat.parity][:] = rng.uniform(0.0, 0.01,
                                                   size=(9, nx, ny))
        before = [a.f.copy(), b.f.copy()]
        rho = rng.uniform(0.5, 2.0, size=(nx, ny))
        u = rng.uniform(-0.6, 0.6, size=(2, nx, ny))
        u[:, 0, 0] = 0.6, -0.6  # drives f_3 below zero at every tau
        relaxed = relax(a, b, rho, u)
        feq = equilibrium_populations(rho, u)
        omega = 1.0 / tau
        for lat, f0 in zip(relaxed, before):
            # the post-collision field in the kernel's order of operations,
            # and the oracle's, each pushed by a twin's stream()
            post = feq if omega == 1.0 else (feq - f0) * omega + f0
            ref = bgk_direct(f0, rho, u, tau)
            np.testing.assert_allclose(post, ref, rtol=1e-13, atol=1e-15)
            assert np.array_equal(lat.f, streamed(post))
            np.testing.assert_allclose(lat.f, streamed(ref), rtol=1e-13,
                                       atol=1e-15)
            assert lat.negative_count == np.count_nonzero(
                (post < 0).any(axis=0)) > 0
