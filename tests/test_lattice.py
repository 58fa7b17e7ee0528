"""Lattice kernel tests: stencil identities, moments, collision, streaming."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from foamlbm.lattice import (VELOCITY_WARN, Lattice, equilibrium, moments,
                             viscosity)
from foamlbm.stencil import CS2, E, OPPOSITE, REFLECT_X, REFLECT_Y, W


def random_state(rng, nx=8, ny=8):
    rho = rng.uniform(0.1, 5.0, size=(nx, ny))
    u = rng.uniform(-0.1, 0.1, size=(2, nx, ny))
    return rho, u


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
        rho, u = moments(f)
        rho_ref, mom_ref = oracles.moments_direct(f)
        assert np.allclose(rho, rho_ref, rtol=1e-14, atol=0)
        assert np.allclose(rho * u, mom_ref, rtol=1e-13, atol=1e-15)

    def test_zero_density_gives_zero_velocity(self):
        f = np.zeros((9, 3, 3))
        f[1, 1, 1] = 0.5
        f[3, 1, 1] = 0.5
        rho, u = moments(f)
        assert np.all(np.isfinite(u))
        assert u[0, 0, 0] == 0.0


class TestEquilibrium:
    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(11)
        rho, u = random_state(rng, 4, 3)
        feq = equilibrium(rho, u)
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
        feq = equilibrium(rho, u)
        rho_out, u_out = moments(feq)
        assert np.allclose(rho_out, rho, rtol=1e-13, atol=0)
        # the momentum sums nine populations of size ~rho, so its rounding
        # error scales with rho, not with the (possibly tiny) rho*u
        err = np.abs(rho_out * u_out - rho * u)
        assert np.all(err <= 1e-13 * np.abs(rho * u)
                      + 2.0 * np.finfo(float).eps * rho)

    def test_rest_state_is_weights(self):
        feq = equilibrium(np.ones((2, 2)), np.zeros((2, 2, 2)))
        assert np.allclose(feq, W.reshape(9, 1, 1), atol=1e-15)

    def test_rejects_negative_density(self):
        rho = np.array([[1.0, -0.1]])
        with pytest.raises(ValueError):
            equilibrium(rho, np.zeros((2, 1, 2)))


class TestCollision:
    def test_full_relaxation_at_unit_tau(self):
        rng = np.random.default_rng(5)
        lat = Lattice(6, 6, tau=1.0)
        lat._bufs[lat.parity][:] = rng.uniform(0.1, 1.0, size=(9, 6, 6))
        rho, u = moments(lat.f)
        lat.collide(rho, u)
        assert np.allclose(lat.f, equilibrium(rho, u), rtol=1e-13, atol=1e-15)

    def test_conserves_mass_and_momentum(self):
        rng = np.random.default_rng(6)
        lat = Lattice(8, 8, tau=0.8)
        rho, u = random_state(rng)
        lat.set_equilibrium(rho, u)
        lat._bufs[lat.parity] += rng.uniform(0, 0.01, size=(9, 8, 8))
        rho0, u0 = moments(lat.f)
        lat.collide(rho0, u0)
        rho1, u1 = moments(lat.f)
        assert np.allclose(rho1, rho0, rtol=1e-13, atol=0)
        assert np.allclose(rho1 * u1, rho0 * u0, rtol=1e-12, atol=1e-16)

    def test_records_negative_populations(self):
        lat = Lattice(4, 4, tau=100.0)  # weak pull so the bad value survives
        lat.set_equilibrium(np.ones((4, 4)), np.zeros((2, 4, 4)))
        lat._bufs[lat.parity][5, 2, 3] = -1e-3
        lat.collide(*moments(lat.f))
        assert lat.negative_count == 1

    def test_records_speed_above_velocity_cap(self):
        lat = Lattice(4, 4, tau=0.8)
        u = np.zeros((2, 4, 4))
        u[0] = 0.35
        lat.set_equilibrium(np.ones((4, 4)), u)
        lat.collide(*moments(lat.f))
        assert lat.max_speed == pytest.approx(0.35, rel=1e-12)
        assert lat.max_speed > VELOCITY_WARN

    def test_rejects_tau_at_stability_bound(self):
        with pytest.raises(ValueError):
            Lattice(4, 4, tau=0.5)


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

    def test_mirror_is_permutation(self):
        rng = np.random.default_rng(10)
        lat = Lattice(6, 5, tau=1.0)
        vals = rng.uniform(0, 1, size=(9, 6, 5))
        lat._bufs[lat.parity][:] = vals
        lat.stream()
        assert np.allclose(np.sort(lat.f.ravel()), np.sort(vals.ravel()),
                           rtol=0, atol=0)


class TestViscosity:
    def test_relation(self):
        assert abs(viscosity(1.0) - CS2 * 0.5) < 1e-15
        assert abs(viscosity(0.5)) < 1e-15

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
            lat.collide(*moments(lat.f))
            lat.stream()
        _, u_end = moments(lat.f)
        amp = (u_end[0] * mode_x).sum() / (mode_x * mode_x).sum()
        nu_meas = -np.log(amp / u0) / (2.0 * k * k * steps)
        assert abs(nu_meas - viscosity(tau)) / viscosity(tau) < 0.02
