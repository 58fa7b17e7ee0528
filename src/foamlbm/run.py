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
from .foam import (Bubble, BubbleRegistry, FoamWorld, GrowthSchedule,
                   initial_fields, nucleate, run_until_done)
from .lattice import VELOCITY_WARN, Lattice
from .metrics import (BubbleMetrics, FieldSnapshot, equivalent_diameter_mm,
                      measure)
from .output import write_outputs
from .stencil import CS2
from .units import UnitScales

DIAMETER_TAIL_STEPS = 1000

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
    implied_fraction: float | None = None
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
        m = self.metrics
        out.append("bubble fraction: %.2f %%" % m.bubble_fraction)
        out.append("foam density: %.4g g/cm^3" % m.foam_density)
        out.append("mean bubble diameter: %.4g mm (%d interior bubbles)"
                   % (m.mean_diameter_mm, m.n_bubbles))
        out.extend(self.notes)
        return out


def _disc(shape, cx, cy, r):
    X, Y = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]),
                       indexing="ij")
    return (X - cx) ** 2 + (Y - cy) ** 2 <= r * r


def _smooth_disc(shape, cx, cy, r, width=2.0):
    # tanh indicator, 1 inside / 0 outside; a sharp step rings for
    # thousands of steps while this settles almost immediately
    X, Y = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]),
                       indexing="ij")
    d = np.hypot(X - cx, Y - cy) - r
    return 0.5 * (1.0 - np.tanh(d / width))


def _lattice_pair(cfg):
    melt = Lattice(cfg.nx, cfg.ny, tau=cfg.tau_melt)
    gas = Lattice(cfg.nx, cfg.ny, tau=cfg.tau_gas)
    return PhasePair(melt=melt, gas=gas, G=cfg.G)


def _schedule(cfg):
    if cfg.growth_budget <= 0:
        return None
    return GrowthSchedule(A=cfg.growth_A, dn_dt=cfg.growth_dn_dt,
                          budget=cfg.growth_budget,
                          delta_t_phys=UnitScales.from_config(cfg).dt)


def _world_kwargs(cfg):
    # configured per-lattice densities plus the dissolved background give
    # the total-density plateaus the bubble mask thresholds between
    return dict(rho_inside=cfg.rho_gas + cfg.rho_background,
                rho_outside=cfg.rho_melt + cfg.rho_background,
                model=cfg.model, r_z=cfg.barrier_r_z,
                eps_p=cfg.barrier_eps_p, quiescence_u=cfg.quiescence_u,
                max_steps=cfg.max_steps, stop_rule=cfg.stop_rule)


def build_two_bubble(cfg) -> FoamWorld:
    """Two resolved gas discs approaching head-on along x."""
    scales = UnitScales.from_config(cfg)
    r = scales.cells(cfg.bubble_diameter_mm / 2.0)
    gap = cfg.bubble_gap_cells
    cy = cfg.ny / 2.0
    cx1 = cfg.nx / 2.0 - (gap / 2.0 + r)
    cx2 = cfg.nx / 2.0 + (gap / 2.0 + r)
    shape = (cfg.nx, cfg.ny)
    d1 = _disc(shape, cx1, cy, r)
    d2 = _disc(shape, cx2, cy, r)
    reg = BubbleRegistry(shape=shape)
    for i, inside in ((1, d1), (2, d2)):
        reg.bubbles[i] = Bubble(id=i, seed=(int(cx1 if i == 1 else cx2),
                                            int(cy)))
        reg.owner[inside] = i
    reg.next_id = 3
    s1 = _smooth_disc(shape, cx1, cy, r)
    s2 = _smooth_disc(shape, cx2, cy, r)
    s = np.clip(s1 + s2, 0.0, 1.0)
    bg = cfg.rho_background
    melt_rho = bg + (cfg.rho_melt - bg) * (1.0 - s)
    gas_rho = bg + (cfg.rho_gas - bg) * s
    v_lat = scales.velocity_lat(cfg.approach_mm_s)
    u = np.zeros((2,) + shape)
    u[0] = v_lat * (s1 - s2)
    pair = _lattice_pair(cfg)
    pair.melt.set_equilibrium(melt_rho, u)
    pair.gas.set_equilibrium(gas_rho, u)
    return FoamWorld(pair=pair, registry=reg, schedule=_schedule(cfg),
                     approach_force=cfg.approach_force, drive_ids=(1, 2),
                     **_world_kwargs(cfg))


def build_foam(cfg) -> FoamWorld:
    """Randomly nucleated domain fed by the gas release schedule."""
    reg = nucleate((cfg.nx, cfg.ny), cfg.nucleation_count,
                   cfg.nucleation_seed, cfg.min_spacing)
    if cfg.nucleation_radius > 0:
        # widen point seeds into small discs so early injection spreads
        # over enough cells to stay within the per-step density budget
        shape = (cfg.nx, cfg.ny)
        for bid, bubble in reg.bubbles.items():
            reg.owner[_disc(shape, *bubble.seed, cfg.nucleation_radius)] = bid
    melt_rho, gas_rho = initial_fields(reg, cfg.rho_melt, cfg.rho_gas,
                                       background=cfg.rho_background)
    pair = _lattice_pair(cfg)
    zeros = np.zeros((2, cfg.nx, cfg.ny))
    pair.melt.set_equilibrium(melt_rho, zeros)
    pair.gas.set_equilibrium(gas_rho, zeros)
    return FoamWorld(pair=pair, registry=reg, schedule=_schedule(cfg),
                     **_world_kwargs(cfg))


def build_world(cfg) -> FoamWorld:
    if cfg.scenario == "two_bubble":
        return build_two_bubble(cfg)
    return build_foam(cfg)


def capture(world, scales) -> FieldSnapshot:
    cp = world._coupling
    return FieldSnapshot(step=world.step_count,
                         time_s=scales.time_phys(world.step_count),
                         rho_melt=cp.rho_melt, rho_gas=cp.rho_gas,
                         pressure=world.pressure(),
                         velocity=cp.u_total.copy(),
                         labels=world.registry.owner.copy())


def implied_fraction(cfg) -> float | None:
    """Porosity the gas budget converts to if every injected mole ends up
    in bubbles at the configured lattice gas density."""
    if cfg.growth_budget <= 0:
        return None
    mass = cfg.growth_A * cfg.growth_budget / CS2
    seed_cells = 0
    if cfg.scenario != "two_bubble":
        r = cfg.nucleation_radius
        per_seed = int(_disc((2 * r + 1, 2 * r + 1), r, r, r).sum())
        seed_cells = cfg.nucleation_count * per_seed
    area = mass / cfg.rho_gas + seed_cells
    return 100.0 * area / (cfg.nx * cfg.ny)


def largest_bubble_diameter_mm(registry, scales) -> float | None:
    counts = registry.counts()
    if not counts:
        return None
    return float(equivalent_diameter_mm(max(counts.values()), scales.dx_mm))


def run_scenario(cfg, out_dir=None, echo=None) -> RunReport:
    """Drive a configured scenario to completion and compose the report."""
    world = build_world(cfg)
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
    report.implied_fraction = implied_fraction(cfg)
    if report.implied_fraction is not None:
        report.notes.append(
            "gas-budget-implied porosity target: %.2f %%"
            % report.implied_fraction)
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
    if echo is not None:
        for line in report.lines():
            echo(line)
    return report
