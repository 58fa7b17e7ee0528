"""Unit-scale conversion tests."""

from foamlbm.config import SimulationConfig
from foamlbm.units import UnitScales


def make_scales():
    return UnitScales(dx=2e-4, dt=1e-4, rho_melt_phys=2.7,
                      rho_gas_phys=0.00009)


class TestUnitScales:
    def test_velocity_scale(self):
        s = make_scales()
        assert s.velocity_lat(2000.0) == 1.0  # 2 m/s per lattice unit

    def test_round_trips(self):
        s = make_scales()
        assert abs(s.cells(123.0 * s.dx_mm) - 123.0) < 1e-12
        assert abs(s.velocity_lat(3.0) * s.dx / s.dt * 1000.0 - 3.0) < 1e-12

    def test_time(self):
        s = make_scales()
        assert s.time_phys(1000) == 0.1

    def test_from_config_gives_the_sidecar(self):
        cfg = SimulationConfig(scenario="foam", nx=8, ny=8, dx=1.2e-4,
                               rho_melt_phys=2.68)
        assert UnitScales.from_config(cfg).sidecar() == {
            "dx_mm": 1.2e-4 * 1000.0, "rho_melt_phys": 2.68,
            "rho_gas_phys": 0.00009}
