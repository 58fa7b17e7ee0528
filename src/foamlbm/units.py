"""Conversion between lattice and physical units: the one place for it.

Lattice quantities are dimensionless; a simulation is anchored to physical
units by a cell size, a step duration, and one physical density per phase.
Every conversion of the run, its report, the snapshot sidecar and
`foamlbm measure` goes through one `UnitScales` built from the config.
Lengths and speeds enter in mm and mm/s, the units of the config keys and
the report.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class UnitScales:
    """Anchors: dx in m/cell, dt in s/step, densities in g/cm3.  Built from
    a validated config or the config defaults, so each is positive."""

    dx: float
    dt: float
    rho_melt_phys: float
    rho_gas_phys: float
    SIDECAR_KEYS = ("dx_mm", "rho_melt_phys", "rho_gas_phys")

    @classmethod
    def from_config(cls, cfg) -> "UnitScales":
        return cls(dx=cfg.dx, dt=cfg.dt, rho_melt_phys=cfg.rho_melt_phys,
                   rho_gas_phys=cfg.rho_gas_phys)

    @property
    def dx_mm(self) -> float:
        """Cell size in mm."""
        return self.dx * 1000.0

    def cells(self, mm: float) -> float:
        """A length in mm, in cells."""
        return mm / self.dx_mm

    def velocity_lat(self, mm_per_s: float) -> float:
        """A speed in mm/s, in cells per step."""
        return mm_per_s / 1000.0 * self.dt / self.dx

    def time_phys(self, steps: float) -> float:
        return steps * self.dt

    def sidecar(self) -> dict:
        """The scales a CSV snapshot is measured at, as its JSON sidecar."""
        return dict(zip(self.SIDECAR_KEYS, (self.dx_mm, self.rho_melt_phys,
                                            self.rho_gas_phys)))
