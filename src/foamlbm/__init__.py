"""Two-phase lattice Boltzmann simulation of closed-cell metal foam formation.

The package couples two D2Q9 lattices (melt and gas) through a shared
pseudopotential interaction, grows bubbles from randomly nucleated seeds by
gas injection, blocks coalescence with a per-bubble interaction barrier, and
releases it through a pressure-curvature rupture switch.  Morphology metrics
and field writers reproduce the measurements used to validate the model.
"""

from foamlbm.config import ConfigError, SimulationConfig, load_config
from foamlbm.interaction import critical_point, eos_pressure, pseudopotential
from foamlbm.metrics import BubbleMetrics, FieldSnapshot, measure, mirror_tile
from foamlbm.run import RunReport, build_world, run_scenario

__all__ = [
    "critical_point",
    "eos_pressure",
    "pseudopotential",
    "ConfigError",
    "SimulationConfig",
    "load_config",
    "BubbleMetrics",
    "FieldSnapshot",
    "measure",
    "mirror_tile",
    "RunReport",
    "build_world",
    "run_scenario",
]

__version__ = "0.1.0"
