"""Run configuration: flat key=value preset files with validation.

The format is deliberately plain text so presets stay diffable: one
`key = value` pair per line, `#` starts a comment, no sections. Unknown
keys are rejected with the offending line number.
"""

import math
from dataclasses import MISSING, dataclass, fields

from .interaction import G_CRITICAL, RHO_CRITICAL, spinodal
from .lattice import VELOCITY_WARN
from .units import UnitScales


class ConfigError(ValueError):
    """Bad config file or invalid parameter combination."""


SCENARIOS = ("two_bubble", "foam")
MODELS = ("modified", "classic")
STOP_RULES = ("quiescent", "first_rupture", "steps")
OUTPUT_FORMATS = ("csv", "pgm", "vtk")


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError("expected a boolean")


def _parse_formats(text: str) -> tuple:
    return tuple(t.strip() for t in text.split(",") if t.strip())


@dataclass
class SimulationConfig:
    scenario: str
    nx: int
    ny: int
    G: float = -4.5
    tau_melt: float = 1.0
    tau_gas: float = 1.0
    rho_melt: float = 1.495
    rho_gas: float = 0.253
    rho_background: float = 0.05
    nucleation_count: int = 6
    nucleation_seed: int = 42
    min_spacing: float = 60.0
    nucleation_radius: int = 0
    growth_A: float = 0.0
    growth_dn_dt: float = 0.0
    growth_budget: float = 0.0
    dx: float = 1e-4          # m per cell
    dt: float = 1e-5          # s per step
    rho_melt_phys: float = 2.7    # g/cm^3
    rho_gas_phys: float = 0.00009  # g/cm^3, hydrogen
    barrier_r_z: int = 3
    barrier_eps_p: float = 1e-3
    model: str = "modified"
    output_cadence: int = 0   # 0 writes only the final snapshot
    output_formats: tuple = ("csv",)
    stop_rule: str = "quiescent"
    max_steps: int = 100000
    quiescence_u: float = 1e-3
    bubble_diameter_mm: float = 8.0
    bubble_gap_cells: float = 6.0
    approach_mm_s: float = 3.0
    approach_force: float = 0.0
    exclude_edge_bubbles: bool = True
    histogram_bin_mm: float = 0.5

    def validate(self) -> "SimulationConfig":
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError("%s must be a finite number" % f.name)
        if self.scenario not in SCENARIOS:
            raise ConfigError("scenario must be one of %s" % (SCENARIOS,))
        if self.model not in MODELS:
            raise ConfigError("model must be one of %s" % (MODELS,))
        if self.stop_rule not in STOP_RULES:
            raise ConfigError("stop_rule must be one of %s" % (STOP_RULES,))
        if self.nx < 8 or self.ny < 8:
            raise ConfigError("grid too small: nx and ny must be at least 8")
        for name in ("tau_melt", "tau_gas"):
            if getattr(self, name) <= 0.5:
                raise ConfigError("%s must exceed 0.5" % name)
        for name in ("rho_melt", "rho_gas", "rho_background", "dx", "dt",
                     "rho_melt_phys", "rho_gas_phys", "barrier_eps_p",
                     "bubble_diameter_mm", "bubble_gap_cells",
                     "histogram_bin_mm", "quiescence_u"):
            if getattr(self, name) <= 0:
                raise ConfigError("%s must be positive" % name)
        scales = UnitScales.from_config(self)
        if self.histogram_bin_mm < scales.dx_mm:
            raise ConfigError("histogram_bin_mm must be at least the cell "
                              "size, dx = %g mm" % scales.dx_mm)
        u_lat = abs(scales.velocity_lat(self.approach_mm_s))
        if self.scenario == "two_bubble" and u_lat > VELOCITY_WARN:
            raise ConfigError(
                "approach_mm_s = %g is %g cells per step, above the velocity "
                "envelope of %g" % (self.approach_mm_s, u_lat, VELOCITY_WARN))
        r = scales.cells(self.bubble_diameter_mm / 2.0)
        if self.scenario == "two_bubble" and (
                self.bubble_gap_cells + 4 * r > self.nx or 2 * r > self.ny):
            raise ConfigError(
                "two bubbles of bubble_diameter_mm = %g, bubble_gap_cells = "
                "%g apart, do not fit the %d x %d grid"
                % (self.bubble_diameter_mm, self.bubble_gap_cells, self.nx,
                   self.ny))
        if self.G <= G_CRITICAL:
            # separation regime: lattice densities must straddle ln 2
            if not self.rho_melt > RHO_CRITICAL:
                raise ConfigError(
                    "rho_melt must exceed ln 2 when G <= -4")
            if not self.rho_gas < RHO_CRITICAL:
                raise ConfigError(
                    "rho_gas must be below ln 2 when G <= -4")
            lo, hi = spinodal(self.G)
            plateau = self.rho_melt + self.rho_background
            if lo < plateau < hi:
                raise ConfigError(
                    "melt plateau rho_melt + rho_background = %.4g lies "
                    "inside the spinodal (%.4f, %.4f) at G = %g, where a "
                    "uniform melt separates on its own"
                    % (plateau, lo, hi, self.G))
        if self.rho_gas >= self.rho_melt:
            raise ConfigError("rho_melt must exceed rho_gas")
        if self.barrier_r_z < 1:
            raise ConfigError("barrier_r_z must be at least 1")
        if self.nucleation_count < 1 and self.scenario == "foam":
            raise ConfigError("nucleation_count must be at least 1")
        for name in ("nucleation_seed", "nucleation_radius", "max_steps",
                     "growth_A", "growth_dn_dt", "growth_budget",
                     "approach_force", "output_cadence"):
            if getattr(self, name) < 0:
                raise ConfigError("%s must be nonnegative" % name)
        if self.growth_budget > 0 and self.growth_dn_dt == 0:
            raise ConfigError("growth_budget = %g is never released at "
                              "growth_dn_dt = 0" % self.growth_budget)
        for fmt in self.output_formats:
            if fmt not in OUTPUT_FORMATS:
                raise ConfigError("unknown output format %r" % fmt)
        if self.nucleation_radius > 0 \
                and self.min_spacing <= 2 * self.nucleation_radius:
            raise ConfigError("min_spacing must exceed the seed diameter")
        return self


# the annotation picks the parser; a field with no default is required
_PARSE_BY_TYPE = {int: int, float: float, str: str, bool: _parse_bool,
                  tuple: _parse_formats}
_PARSERS = {f.name: _PARSE_BY_TYPE[f.type] for f in fields(SimulationConfig)}
_REQUIRED = tuple(f.name for f in fields(SimulationConfig)
                  if f.default is MISSING)


def load_config(path) -> SimulationConfig:
    """Parse and validate a preset file. Errors carry the line number."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("%s: cannot read config: %s" % (path, exc)) from exc
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected 'key = value'" % (path, lineno))
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
        if key in values:
            raise ConfigError("%s:%d: duplicate key %r" % (path, lineno, key))
        try:
            values[key] = _PARSERS[key](val)
        except ValueError as exc:
            raise ConfigError("%s:%d: bad value for %s: %s"
                              % (path, lineno, key, exc)) from exc
    if not values:
        raise ConfigError("%s: empty config" % path)
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ConfigError("%s: missing required keys: %s"
                          % (path, ", ".join(missing)))
    return SimulationConfig(**values).validate()
