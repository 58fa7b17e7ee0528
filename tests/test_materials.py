"""Material property tests: hydrogen solubility and diffusion."""

import numpy as np
import pytest

import oracles
from foamlbm.materials import (diffusion_coefficient, diffusion_length,
                               solubility)


class TestSolubility:
    def test_zero_pressure(self):
        assert solubility(900.0, 0.0) == 0.0

    def test_melt_700C(self):
        C = solubility(973.15, 1.0, phase="melt")
        assert abs(C - 8.50e-3) / 8.50e-3 < 1e-3

    def test_matches_oracle(self):
        for T in (700.0, 973.15, 1100.0):
            for p in (0.5, 1.0, 4.0):
                ref = oracles.solubility_direct(T, p, 5.84, 6357.0)
                assert abs(solubility(T, p) - ref) < 1e-15 + 1e-13 * ref

    def test_solid_below_melt(self):
        for T in np.linspace(500.0, 1200.0, 50):
            assert solubility(T, 1.0, "solid") < solubility(T, 1.0, "melt")

    def test_sqrt_pressure_law(self):
        c1 = solubility(900.0, 1.0)
        c4 = solubility(900.0, 4.0)
        assert abs(c4 - 2.0 * c1) < 1e-15

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solubility(900.0, -1.0)
        with pytest.raises(ValueError):
            solubility(-5.0, 1.0)
        with pytest.raises(ValueError):
            solubility(900.0, 1.0, "plasma")


class TestDiffusion:
    def test_low_branch_700C(self):
        D = diffusion_coefficient(973.15, branch="low")
        assert abs(D - 3.51e-7) / 3.51e-7 < 0.005

    def test_matches_oracle(self):
        ref = oracles.diffusion_direct(800.0, 3.8e-6, 19260.0)
        assert abs(diffusion_coefficient(800.0) - ref) < 1e-13 * ref
        ref = oracles.diffusion_direct(800.0, 1.1e-5, 40950.0)
        assert abs(diffusion_coefficient(800.0, "high") - ref) < 1e-13 * ref

    def test_high_temperature_limit(self):
        assert abs(diffusion_coefficient(1e9) - 3.8e-6) / 3.8e-6 < 1e-3

    def test_monotone_in_temperature(self):
        T = np.linspace(300.0, 1300.0, 200)
        D = [diffusion_coefficient(t) for t in T]
        assert all(b > a for a, b in zip(D, D[1:]))

    def test_length_zero_time(self):
        assert diffusion_length(3.5e-7, 0.0) == 0.0

    def test_length_374_micron(self):
        D = diffusion_coefficient(973.15, "low")
        t = (374e-6) ** 2 / (4.0 * D)  # back-solved exposure time, ~0.0995 s
        assert abs(diffusion_length(D, t) - 374e-6) / 374e-6 < 1e-12
        assert abs(t - 0.0995) < 5e-4

    def test_length_sqrt_law(self):
        d1 = diffusion_length(1e-7, 1.0)
        d4 = diffusion_length(1e-7, 4.0)
        assert abs(d4 - 2.0 * d1) < 1e-15
