"""Coupler tests: shared velocity, barrier masking, conservation."""

import numpy as np
import pytest

from foamlbm.coupling import (PhasePair, barrier_zones, coupled_update,
                              shared_velocity)
from foamlbm.interaction import pseudopotential, shan_chen_force
from foamlbm.lattice import Lattice


def make_pair(nx=32, ny=32, tau_m=1.0, tau_g=1.0, G=-4.5):
    melt = Lattice(nx, ny, tau=tau_m)
    gas = Lattice(nx, ny, tau=tau_g)
    return PhasePair(melt=melt, gas=gas, G=G)


def disc_mask(nx, ny, cx, cy, r):
    X, Y = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    return (X - cx) ** 2 + (Y - cy) ** 2 <= r * r


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


class TestSharedVelocity:
    def test_pure_melt_cell(self):
        rho_m = np.array([[2.0]])
        rho_g = np.array([[0.0]])
        u_m = np.full((2, 1, 1), 0.03)
        u_g = np.zeros((2, 1, 1))
        out = shared_velocity(rho_m, u_m, rho_g, u_g)
        assert np.allclose(out, u_m)

    def test_rest_gives_rest(self):
        z = np.zeros((2, 3, 3))
        out = shared_velocity(np.ones((3, 3)), z, np.ones((3, 3)), z)
        assert np.all(out == 0.0)

    def test_equal_momentum_head_on_cancels(self):
        rho_m = np.full((1, 1), 1.8)
        rho_g = np.full((1, 1), 0.6)
        u_m = np.zeros((2, 1, 1))
        u_g = np.zeros((2, 1, 1))
        u_m[0] = 0.05
        u_g[0] = -0.05 * 1.8 / 0.6
        out = shared_velocity(rho_m, u_m, rho_g, u_g)
        assert np.allclose(out, 0.0, atol=1e-16)

    def test_empty_cell_zero_convention(self):
        z = np.zeros((2, 2, 2))
        out = shared_velocity(np.zeros((2, 2)), z, np.zeros((2, 2)), z)
        assert np.all(out == 0.0)


class TestBarrierZones:
    def test_far_bubbles_make_no_barrier(self):
        owner = np.zeros((40, 40), dtype=np.int64)
        owner[disc_mask(40, 40, 8, 20, 3)] = 1
        owner[disc_mask(40, 40, 30, 20, 3)] = 2
        state = barrier_zones(owner, {1: (8, 20), 2: (30, 20)}, {}, r_z=3)
        assert not state.barrier.any()
        assert state.films == {}

    def test_overlapping_zones_flag_midline(self):
        owner = np.zeros((40, 40), dtype=np.int64)
        owner[disc_mask(40, 40, 14, 20, 4)] = 1
        owner[disc_mask(40, 40, 24, 20, 4)] = 2
        state = barrier_zones(owner, {1: (14, 20), 2: (24, 20)}, {}, r_z=3)
        assert state.barrier.any()
        xs = np.argwhere(state.barrier)[:, 0]
        assert 17 <= xs.min() and xs.max() <= 21  # band between the bubbles
        assert state.films == {(1, 2): 1}

    def test_ruptured_film_clears_barrier(self):
        owner = np.zeros((40, 40), dtype=np.int64)
        owner[disc_mask(40, 40, 14, 20, 4)] = 1
        owner[disc_mask(40, 40, 24, 20, 4)] = 2
        state = barrier_zones(owner, {1: (14, 20), 2: (24, 20)},
                              {(1, 2): 0}, r_z=3)
        assert not state.barrier.any()
        assert state.active_films() == []

    def test_blocking_is_symmetric(self):
        owner = np.zeros((40, 40), dtype=np.int64)
        owner[disc_mask(40, 40, 14, 20, 4)] = 1
        owner[disc_mask(40, 40, 24, 20, 4)] = 2
        state = barrier_zones(owner, {1: (14, 20), 2: (24, 20)}, {}, r_z=3)
        assert 2 in state.blocked(1) and 1 in state.blocked(2)


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
        state = barrier_zones(owner, {1: (32.0, 32.0)}, {}, r_z=3)
        masked = coupled_update(pair, barrier=state)
        assert np.max(np.abs(masked.u_eq_melt - plain.u_eq_melt)) < 1e-14
        assert np.max(np.abs(masked.u_eq_gas - plain.u_eq_gas)) < 1e-14
        assert np.max(np.abs(masked.force - plain.force)) == 0.0

    def test_active_film_changes_film_forces_only(self):
        pair = make_pair(nx=48, ny=48)
        seed_bubbles(pair, [(17, 24), (31, 24)], r=5.0)
        owner = np.zeros((48, 48), dtype=np.int64)
        owner[disc_mask(48, 48, 17, 24, 5)] = 1
        owner[disc_mask(48, 48, 31, 24, 5)] = 2
        state = barrier_zones(owner, {1: (17.0, 24.0), 2: (31.0, 24.0)},
                              {}, r_z=3)
        assert state.active_films() == [(1, 2)]
        plain = coupled_update(pair, barrier=None)
        masked = coupled_update(pair, barrier=state)
        diff = np.abs(masked.force - plain.force).max(axis=0)
        assert diff.max() > 0.0
        # differences live inside the involved zones, nowhere else
        covered = state.zones[1] | state.zones[2]
        assert np.all(diff[~covered] == 0.0)

    def test_masked_film_interface_is_released_outward(self):
        # with the far half neutralized, the near interface must feel a
        # weaker pull toward the film than the open coupling applies
        pair = make_pair(nx=48, ny=48)
        seed_bubbles(pair, [(18, 24), (30, 24)], r=5.0)
        owner = np.zeros((48, 48), dtype=np.int64)
        owner[disc_mask(48, 48, 18, 24, 5)] = 1
        owner[disc_mask(48, 48, 30, 24, 5)] = 2
        state = barrier_zones(owner, {1: (18.0, 24.0), 2: (30.0, 24.0)},
                              {}, r_z=3)
        plain = coupled_update(pair, barrier=None)
        masked = coupled_update(pair, barrier=state)
        film = slice(22, 27)
        pull_plain = plain.force[0, film, 24]
        pull_masked = masked.force[0, film, 24]
        assert np.any(pull_masked != pull_plain)

    @pytest.mark.filterwarnings("ignore:equilibrium velocity")
    def test_mass_conserved_two_phase(self):
        pair = make_pair(nx=32, ny=32, G=-4.6)
        seed_bubbles(pair, [(16, 16)], r=6.0)
        m_melt = pair.melt.mass()
        m_gas = pair.gas.mass()
        for _ in range(300):
            out = coupled_update(pair)
            pair.melt.collide(u_eq=out.u_eq_melt)
            pair.gas.collide(u_eq=out.u_eq_gas)
            pair.melt.stream()
            pair.gas.stream()
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
            pair.melt.collide(u_eq=out.u_eq_melt)
            pair.gas.collide(u_eq=out.u_eq_gas)
            pair.melt.stream()
            pair.gas.stream()
            rho, u = single.moments()
            F = shan_chen_force(pseudopotential(rho), G)
            single.collide(u_eq=u + tau * F / np.maximum(rho, 1e-12))
            single.stream()
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

    def test_rejects_mismatched_grids(self):
        melt = Lattice(8, 8, tau=1.0)
        gas = Lattice(8, 9, tau=1.0)
        with pytest.raises(ValueError):
            PhasePair(melt=melt, gas=gas, G=-4.5)
