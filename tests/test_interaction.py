"""Interaction tests: pseudopotential, force stencil, EOS, critical point."""

import numpy as np
import pytest

import oracles
from foamlbm.interaction import (CriticalPoint, critical_point, eos_pressure,
                                 pseudopotential, shan_chen_force)


class TestPseudopotential:
    def test_zero(self):
        assert pseudopotential(0.0) == 0.0

    def test_small_density_linearity(self):
        psi = pseudopotential(0.01)
        assert abs(psi - 0.00995) < 5e-6
        assert abs(psi - 0.01) / 0.01 < 0.005

    def test_saturation(self):
        assert abs(pseudopotential(10.0) - 0.9999546) < 1e-7

    def test_monotone(self):
        rho = np.linspace(0, 20, 2001)
        psi = pseudopotential(rho)
        assert np.all(np.diff(psi) > 0)
        assert psi.max() < 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pseudopotential(-0.5)


class TestShanChenForce:
    def test_uniform_field_gives_zero(self):
        psi = np.full((8, 8), 0.37)
        F = shan_chen_force(psi, G=-5.0)
        assert np.allclose(F, 0.0, atol=1e-16)

    def test_zero_coupling_gives_zero(self):
        rng = np.random.default_rng(1)
        psi = rng.uniform(0.1, 0.9, size=(8, 8))
        assert np.all(shan_chen_force(psi, G=0.0) == 0.0)

    def test_step_profile_antisymmetry(self):
        nx, ny = 32, 4
        x = np.arange(nx)
        dense = (x >= 8) & (x < 24)
        psi = np.where(dense, 0.8, 0.2)[:, None] * np.ones((1, ny))
        F = shan_chen_force(psi, G=-4.5)
        assert np.allclose(F[1], 0.0, atol=1e-16)
        ref = oracles.shan_chen_force_direct(psi, -4.5, periodic=False)
        assert np.allclose(F, ref, rtol=1e-13, atol=1e-16)
        # the slab sits centered between the walls, so reflecting the
        # domain pairs its two interfaces with opposite force bands
        fx = F[0, :, 0]
        assert np.allclose(fx, -fx[::-1], atol=1e-15)
        # a light cell at a wall reads its mirror image: no wall force
        assert fx[0] == 0.0 and fx[-1] == 0.0
        # attraction pulls the light cell at each interface toward the slab
        assert fx[7] > 0 and fx[24] < 0

    def test_matches_oracle_mirror(self):
        rng = np.random.default_rng(3)
        psi = rng.uniform(0.05, 0.95, size=(7, 6))
        F = shan_chen_force(psi, G=-4.8)
        ref = oracles.shan_chen_force_direct(psi, -4.8, periodic=False)
        assert np.allclose(F, ref, rtol=1e-13, atol=1e-16)

    def test_point_reflection_maps_force_with_sign_flip(self):
        rng = np.random.default_rng(4)
        psi = rng.uniform(0.1, 0.9, size=(6, 6))
        flipped = psi[::-1, ::-1]
        F = shan_chen_force(psi, G=-5.0)
        Ff = shan_chen_force(flipped, G=-5.0)
        assert np.allclose(Ff, -F[:, ::-1, ::-1], atol=1e-15)

    def test_taylor_consistency_order(self):
        G = -4.5
        errs = []
        for n in (16, 32, 64):
            # even about both walls, so the mirror ghosts continue the
            # cosine exactly
            k = np.pi / n
            X = np.arange(n) + 0.5
            psi = (0.5 + 0.1 * np.cos(k * X))[:, None] * np.ones((1, 4))
            F = shan_chen_force(psi, G)
            dpsi = -0.1 * k * np.sin(k * X)
            d3psi = 0.1 * k**3 * np.sin(k * X)
            target = -G * psi[:, 0] * (dpsi / 3.0 + d3psi / 18.0)
            errs.append(np.abs(F[0, :, 0] - target).max() / np.abs(target).max())
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert order1 >= 1.8 and order2 >= 1.8


class TestEosPressure:
    def test_zero_density(self):
        assert eos_pressure(0.0, G=-4.0) == 0.0

    def test_critical_density_value(self):
        p = eos_pressure(np.log(2.0), G=-4.0)
        assert abs(p - 0.06438) < 5e-6
        assert abs(p - (np.log(2.0) / 3.0 - (2.0 / 3.0) * 0.25)) < 1e-15

    def test_ideal_gas_limit(self):
        assert abs(eos_pressure(2.7, G=0.0) - 0.9) < 1e-15

    def test_matches_oracle(self):
        for rho in np.linspace(0.0, 8.0, 101):
            ref = oracles.eos_pressure_direct(float(rho), -5.2)
            assert abs(eos_pressure(rho, -5.2) - ref) <= 1e-15 + 1e-13 * abs(ref)

    @pytest.mark.parametrize("G", [-3.99, -3.0, -1.0, 0.0, 1.0])
    def test_monotone_above_critical_coupling(self, G):
        rho = np.linspace(1e-4, 10.0, 10_000)
        p = eos_pressure(rho, G)
        assert np.all(np.diff(p) > 0)

    def test_loop_develops_below_critical_coupling(self):
        rho = np.linspace(1e-4, 10.0, 10_000)
        p = eos_pressure(rho, -4.5)
        assert np.any(np.diff(p) < 0)


class TestCriticalPoint:
    def test_location(self):
        cp = critical_point()
        assert isinstance(cp, CriticalPoint)
        assert abs(cp.G_critical + 4.0) < 1e-9
        assert abs(cp.rho_critical - np.log(2.0)) < 1e-9

    def test_defining_conditions_vanish(self):
        cp = critical_point()
        r, G = cp.rho_critical, cp.G_critical
        # closed-form derivatives of p = rho/3 + (G/6)(1 - e^-rho)^2
        e = np.exp(-r)
        dp = 1.0 / 3.0 + (G / 3.0) * e * (1.0 - e)
        d2p = (G / 3.0) * e * (2.0 * e - 1.0)
        assert abs(dp) < 1e-10
        assert abs(d2p) < 1e-10
