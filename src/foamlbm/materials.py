"""Hydrogen in aluminum: solubility and diffusion, as `foamlbm props` prints.

Both follow Arrhenius forms with the usual literature constants.
"""

from __future__ import annotations

import math

R_GAS = 8.314  # J/(mol K)

# solubility C = prefactor * exp(-activation_T / T) * sqrt(p/bar), cm3/g
SOLUBILITY_CONSTANTS = {
    "melt": (5.84, 6357.0),
    "solid": (0.25, 5941.0),
}

# D = D0 * exp(-H / (R T)), m2/s; two published parameter sets
DIFFUSION_CONSTANTS = {
    "low": (3.8e-6, 19260.0),
    "high": (1.1e-5, 40950.0),
}


def solubility(T: float, p: float, phase: str = "melt") -> float:
    """Equilibrium hydrogen content in cm3/g at T kelvin and p bar."""
    if T <= 0:
        raise ValueError("temperature must be positive")
    if p < 0:
        raise ValueError("negative pressure")
    try:
        prefactor, activation_T = SOLUBILITY_CONSTANTS[phase]
    except KeyError:
        raise ValueError(f"unknown phase {phase!r}") from None
    return prefactor * math.exp(-activation_T / T) * math.sqrt(p)


def diffusion_coefficient(T: float, branch: str = "low") -> float:
    """Hydrogen diffusivity in m2/s; 'low' reproduces the 700 C handbook value."""
    if T <= 0:
        raise ValueError("temperature must be positive")
    try:
        D0, H = DIFFUSION_CONSTANTS[branch]
    except KeyError:
        raise ValueError(f"unknown branch {branch!r}") from None
    return D0 * math.exp(-H / (R_GAS * T))


def diffusion_length(D: float, t: float) -> float:
    """Root-mean-square penetration depth sqrt(4 D t) in meters."""
    if D < 0 or t < 0:
        raise ValueError("D and t must be non-negative")
    return math.sqrt(4.0 * D * t)
