"""Scenario assembly and run orchestration.

Turns a validated SimulationConfig into an initialized world, drives it to
its stop rule, and produces the run report with morphology metrics. The
foam report also states the gas-budget-implied porosity target and the
reference cross-section values for A356 foam (44.3% porosity,
1.50 g/cm^3, 3.03 mm mean cell size) for proximity reporting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .coupling import PhasePair
from .foam import BubbleRegistry, FoamWorld, nucleate, run_until_done
from .lattice import VELOCITY_WARN, Lattice
from .metrics import (BubbleMetrics, FieldSnapshot, equivalent_diameter_mm,
                      measure)
from .output import write_outputs
from .stencil import CS2
from .units import UnitScales

DIAMETER_TAIL_STEPS = 1000
# width, in cells, of a smoothed seed disc's tanh edge
DISC_EDGE_CELLS = 2.0

REFERENCE_STRUCTURE = {
    "bubble_fraction": 44.3,      # percent
    "foam_density": 1.50,         # g/cm^3
    "mean_diameter_mm": 3.03,
}


@dataclass
class RunReport:
    scenario: str
    model: str
    reason: str
    steps: int
    time_s: float
    metrics: BubbleMetrics
    merging_time_s: float | None = None
    final_diameter_mm: float | None = None
    notes: list = field(default_factory=list)

    def lines(self) -> list:
        out = ["scenario: %s (%s model)" % (self.scenario, self.model),
               "stopped after %d steps (%.6g s): %s"
               % (self.steps, self.time_s, self.reason)]
        if self.merging_time_s is not None:
            out.append("merging time: %.6g s" % self.merging_time_s)
        if self.final_diameter_mm is not None:
            out.append("final bubble diameter: %.4g mm"
                       % self.final_diameter_mm)
        out.extend(self.metrics.lines())
        out.extend(self.notes)
        return out


def _disc(shape, cx, cy, r):
    dx, dy = np.arange(shape[0])[:, None] - cx, np.arange(shape[1]) - cy
    return dx ** 2 + dy ** 2 <= r * r


def _smooth_disc(shape, cx, cy, r):
    # tanh indicator, 1 inside / 0 outside, over DISC_EDGE_CELLS; a sharp
    # step rings for thousands of steps while this settles almost at once
    d = np.hypot(np.arange(shape[0])[:, None] - cx,
                 np.arange(shape[1]) - cy) - r
    return 0.5 * (1.0 - np.tanh(d / DISC_EDGE_CELLS))


def _seed_discs(shape, centres, r) -> BubbleRegistry:
    """A fresh registry with one bubble per centre, owning the cells
    within r of it (the centre cell alone at r = 0)."""
    reg = BubbleRegistry(shape=shape)
    owner = np.zeros(shape, dtype=np.int64)
    for cx, cy in centres:
        bid = reg.new_bubble(seed=(int(cx), int(cy)))
        owner[_disc(shape, cx, cy, r)] = bid
    reg.replace_owner(np.flatnonzero(owner), owner[owner > 0])
    return reg


def _settled_world(cfg, reg, share, u) -> FoamWorld:
    """Both lattices at equilibrium at velocity u around the bubbles of
    `reg`.  From the gas share s (1 in a bubble, 0 in the melt) each
    lattice holds bg + (rho - bg) * its share: s for the gas, 1 - s for
    the melt, over the dissolved background bg."""
    bg = cfg.rho_background
    pair = PhasePair(melt=Lattice(cfg.nx, cfg.ny, tau=cfg.tau_melt),
                     gas=Lattice(cfg.nx, cfg.ny, tau=cfg.tau_gas), G=cfg.G)
    pair.melt.set_equilibrium(bg + (cfg.rho_melt - bg) * (1.0 - share), u)
    pair.gas.set_equilibrium(bg + (cfg.rho_gas - bg) * share, u)
    return FoamWorld(pair=pair, registry=reg, cfg=cfg)


def build_two_bubble(cfg) -> FoamWorld:
    """Two resolved gas discs approaching head-on along x."""
    scales = UnitScales.from_config(cfg)
    r = scales.cells(cfg.bubble_diameter_mm / 2.0)
    off = cfg.bubble_gap_cells / 2.0 + r
    cy = cfg.ny / 2.0
    centres = [(cfg.nx / 2.0 - off, cy), (cfg.nx / 2.0 + off, cy)]
    shape = (cfg.nx, cfg.ny)
    reg = _seed_discs(shape, centres, r)
    s1, s2 = (_smooth_disc(shape, cx, cy, r) for cx, cy in centres)
    u = np.zeros((2,) + shape)
    u[0] = scales.velocity_lat(cfg.approach_mm_s) * (s1 - s2)
    return _settled_world(cfg, reg, np.clip(s1 + s2, 0.0, 1.0), u)


def build_foam(cfg) -> FoamWorld:
    """Randomly nucleated domain fed by the gas release schedule."""
    sites = nucleate((cfg.nx, cfg.ny), cfg.nucleation_count,
                     cfg.nucleation_seed, cfg.min_spacing)
    # seed discs rather than points spread early injection over enough
    # cells to stay within the per-step density budget
    reg = _seed_discs((cfg.nx, cfg.ny), sites, cfg.nucleation_radius)
    return _settled_world(cfg, reg, reg.owner > 0,
                          np.zeros((2, cfg.nx, cfg.ny)))


def build_world(cfg) -> FoamWorld:
    if cfg.scenario == "two_bubble":
        return build_two_bubble(cfg)
    return build_foam(cfg)


def capture(world, scales) -> FieldSnapshot:
    cp = world.coupling
    return FieldSnapshot(step=world.step_count,
                         time_s=scales.time_phys(world.step_count),
                         rho_melt=cp.rho_melt, rho_gas=cp.rho_gas,
                         pressure=world.pressure(),
                         velocity=cp.u_total, labels=world.registry.owner)


def implied_fraction(cfg, seed_cells) -> float | None:
    """Porosity the gas budget converts to if every injected mole ends up
    in bubbles at the configured lattice gas density, on top of the
    `seed_cells` cells that the seeded bubbles hold."""
    if cfg.growth_budget <= 0:
        return None
    mass = cfg.growth_A * cfg.growth_budget / CS2
    area = mass / cfg.rho_gas + seed_cells
    return 100.0 * area / (cfg.nx * cfg.ny)


def largest_bubble_diameter_mm(registry, scales) -> float | None:
    counts = registry.counts()
    if not counts:
        return None
    return float(equivalent_diameter_mm(max(counts.values()), scales.dx_mm))


def run_scenario(cfg, out_dir=None) -> RunReport:
    """Drive a configured scenario to completion and compose the report."""
    world = build_world(cfg)
    seed_cells = world.registry.cells().size
    scales = UnitScales.from_config(cfg)

    # the reported diameter is a tail mean: a freshly merged bubble keeps
    # breathing around its equilibrium size for thousands of steps, so a
    # single endpoint reading carries that oscillation into the report
    tail = deque(maxlen=DIAMETER_TAIL_STEPS)
    regime = {"key": None}

    def on_step(w):
        key = (len(w.registry.active_ids()), w.first_merge_step)
        if key != regime["key"]:
            regime["key"] = key
            tail.clear()
        d = largest_bubble_diameter_mm(w.registry, scales)
        if d is not None:
            tail.append(d)
        if out_dir and cfg.output_cadence \
                and w.step_count % cfg.output_cadence == 0:
            write_outputs(capture(w, scales), out_dir, cfg.output_formats,
                          scales=scales)

    reason = run_until_done(world, on_step=on_step)
    snap = capture(world, scales)
    if out_dir:
        write_outputs(snap, out_dir, cfg.output_formats, basename="final",
                      scales=scales)
    met = measure(snap, scales.dx_mm, scales.rho_melt_phys,
                  scales.rho_gas_phys, bin_mm=cfg.histogram_bin_mm,
                  exclude_edge_bubbles=cfg.exclude_edge_bubbles)
    report = RunReport(scenario=cfg.scenario, model=cfg.model, reason=reason,
                       steps=world.step_count,
                       time_s=scales.time_phys(world.step_count),
                       metrics=met)
    if world.first_merge_step is not None:
        report.merging_time_s = scales.time_phys(world.first_merge_step)
    if tail:
        report.final_diameter_mm = float(np.mean(tail))
    else:
        report.final_diameter_mm = largest_bubble_diameter_mm(
            world.registry, scales)
    if world.envelope_steps:
        report.notes.append(
            "velocity envelope: |u_eq| above %g on %d of %d steps"
            % (VELOCITY_WARN, world.envelope_steps, world.step_count))
    if world.spurious_droplets:
        report.notes.append(
            "spurious droplets: %d (gas components with no prior bubble)"
            % world.spurious_droplets)
    target = implied_fraction(cfg, seed_cells)
    if target is not None:
        report.notes.append(
            "gas-budget-implied porosity target: %.2f %%" % target)
    if cfg.scenario == "foam":
        ref = REFERENCE_STRUCTURE
        report.notes.append(
            "reference A356 cross-section: %.1f %% / %.2f g/cm^3 / %.2f mm"
            % (ref["bubble_fraction"], ref["foam_density"],
               ref["mean_diameter_mm"]))
        report.notes.append(
            "proximity: %+.1f %% points / %+.3f g/cm^3 / %+.2f mm"
            % (met.bubble_fraction - ref["bubble_fraction"],
               met.foam_density - ref["foam_density"],
               met.mean_diameter_mm - ref["mean_diameter_mm"]))
    return report
