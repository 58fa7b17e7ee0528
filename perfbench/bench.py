"""The foamlbm benchmark proper: one workload, timed in-process.

A run plays whole rounds: the workload's minimum, then another only while
it is expected to end within --seconds. Before each round and after the
last it sets the workload up (config load plus build_world) SETUPS times.
A round is what a user does: `foamlbm run` on the workload's config with
an output directory, then `foamlbm measure` and `foamlbm tile` on every
CSV it wrote. Each round is checked after it ends, outside the timed
region. With --trace 1 every round runs under the layer wrappers of
tracer.py and the run reports per-layer figures instead of end-to-end
ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
from foamlbm import config, metrics, output, run
from tracer import Tracer, layer_metrics, span_cost_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, ".scratch")
TRACES = os.path.join(HERE, "traces")
# set-ups before every round and after the last, so that the set-up
# samples spread over the run as the host's speed drifts
SETUPS = 2
TILE = (2, 2)
clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    preset: str        # file under configs/
    overrides: dict    # keys replaced in the preset
    seeded: bool       # nucleation_seed is taken from --seed
    min_rounds: int    # every run plays at least this many
    tail_pct: int      # min_rounds rounds put at least ten steps beyond it


# Short rounds, several per run: the host's speed drifts by tens of percent
# over seconds, and a run steadies only by sampling all of --seconds.
# foam-many-nuclei is not in BENCHMARK.json: at 190 ms per step it could not
# be made steady within the run budget (see README.md); it stays runnable
# by name for the bubble-bookkeeping work it is meant to measure.
WORKLOADS = {
    "foam-preset": Workload("foam.cfg", {}, False, 1, 97),
    "two-bubble-classic": Workload(
        "two_bubble.cfg",
        {"model": "classic", "stop_rule": "steps", "max_steps": "50"},
        False, 2, 90),
    "foam-many-nuclei": Workload(
        "foam.cfg",
        {"nucleation_count": "40", "stop_rule": "steps", "max_steps": "20"},
        True, 2, 75),
    # the preset's own nuclei: whether two nuclei start within barrier
    # range depends on the layout, which moved set-up 1.8x between seeds
    "foam-snapshots": Workload(
        "foam.cfg",
        {"stop_rule": "steps", "max_steps": "20", "output_cadence": "10",
         "output_formats": "csv, pgm, vtk"},
        False, 2, 75),
}


def config_text(wl: Workload, seed: int) -> str:
    """The preset with the workload's keys replaced, in the preset format."""
    with open(os.path.join(ROOT, "configs", wl.preset)) as fh:
        lines = fh.read().splitlines()
    values = dict(wl.overrides)
    if wl.seeded:
        values["nucleation_seed"] = str(seed % 2 ** 32)
    out = []
    for line in lines:
        key = line.split("#", 1)[0].partition("=")[0].strip()
        if key in values:
            line = "%s = %s" % (key, values.pop(key))
        out.append(line)
    out.extend("%s = %s" % kv for kv in values.items())
    return "\n".join(out) + "\n"


@dataclass
class Readback:
    written: object    # snapshot handed to write_outputs
    snap: object       # read_csv of its CSV
    met: object        # measure of the read-back snapshot
    tiled: np.ndarray


@dataclass
class Round:
    cfg: object
    setup_s: float
    wall_s: float
    steps: list        # seconds per foam.step
    writes: list       # (seconds, bytes) per write_outputs
    reads: list        # (seconds, bytes) per read_csv + measure
    spans: list
    evidence: dict     # what verify() looks at; dropped once it has

    @property
    def operations(self) -> int:
        return len(self.steps) + len(self.writes) + len(self.reads)


def play(cfg_path, out_dir, tracer) -> Round:
    built = {}

    def on_build(world):
        built.update(world=world, melt=world.pair.melt.mass(),
                     gas=world.pair.gas.mass(),
                     sites=[b.seed for b in world.registry.bubbles.values()])

    tracer.on_build = on_build
    tracer.writes = []
    mark = len(tracer.spans)
    with tracer:
        t0 = clock()
        cfg = config.load_config(cfg_path)
        t1 = clock()
        report = run.run_scenario(cfg, out_dir=out_dir)
        reads, backs = [], []
        for _, paths, snap in tracer.writes:
            for path in paths:
                if not path.endswith(".csv"):
                    continue
                r0 = clock()
                back = output.read_csv(path)
                met = metrics.measure(
                    back, cfg.dx * 1000.0, cfg.rho_melt_phys,
                    cfg.rho_gas_phys, bin_mm=cfg.histogram_bin_mm,
                    exclude_edge_bubbles=cfg.exclude_edge_bubbles)
                r1 = clock()
                tiled = metrics.mirror_tile(back.rho_melt + back.rho_gas,
                                            TILE)
                reads.append((r1 - r0, os.path.getsize(path)))
                backs.append(Readback(snap, back, met, tiled))
        t2 = clock()
    spans = tracer.spans[mark:]
    build = sum(s.duration for s in spans if s.name == "run.build_world")
    return Round(cfg=cfg, setup_s=(t1 - t0) + build,
                 wall_s=(t2 - t1) - build,
                 steps=[s.duration for s in spans if s.name == "foam.step"],
                 writes=[(span.duration, sum(os.path.getsize(p)
                                             for p in paths))
                         for span, paths, _ in tracer.writes],
                 reads=reads, spans=spans,
                 evidence=dict(built, report=report, backs=backs,
                               paths=[p for _, paths, _ in tracer.writes
                                      for p in paths]))


def verify(name: str, cfg, ev: dict) -> None:
    """Raise checks.CheckFailed unless the round's results hold."""
    world = ev["world"]
    melt, gas = world.pair.melt, world.pair.gas
    checks.mass_conserved(ev["melt"], melt.mass(), "melt")
    moles = checks.expected_moles(cfg.growth_dn_dt, cfg.dt,
                                  cfg.growth_budget, world.step_count)
    injected = world.schedule.injected if world.schedule else 0.0
    checks.gas_injection(ev["gas"], gas.mass(), cfg.growth_A, moles,
                         injected)
    checks.mole_ledger([b.n_moles for b in world.registry.bubbles.values()],
                       moles)
    checks.no_negative_populations(melt.f, gas.f)
    rho_total = melt.f.sum(axis=0) + gas.f.sum(axis=0)
    bg = cfg.rho_background
    midpoint = 0.5 * ((cfg.rho_gas + bg) + (cfg.rho_melt + bg))
    checks.owner_partition(world.registry.owner, rho_total < midpoint)
    if cfg.scenario == "foam":
        checks.nucleation_sites(ev["sites"], cfg.nucleation_count,
                                cfg.min_spacing, (cfg.nx, cfg.ny))
    if cfg.model == "modified":
        last = world.step_count - 1
        now = [e["pair"] for e in world.rupture_events if e["step"] == last]
        checks.film_states(world.registry.owner,
                           checks.eos_pressure(rho_total, cfg.G),
                           world.films, now, cfg.barrier_eps_p)
    if name == "foam-preset":
        checks.stop_reason(ev["report"].reason, "first rupture")
    if name == "two-bubble-classic":
        checks.two_bubbles(len(world.registry.active_ids()),
                           len(world.merge_events))
    for path in ev["paths"]:
        if path.endswith(".pgm"):
            checks.pgm_file(path, cfg.nx, cfg.ny)
        elif path.endswith(".vtk"):
            checks.vtk_file(path, cfg.nx, cfg.ny)
    for rb in ev["backs"]:
        checks.snapshot_roundtrip(rb.written, rb.snap)
        checks.same_metrics(metrics.measure(
            rb.written, cfg.dx * 1000.0, cfg.rho_melt_phys, cfg.rho_gas_phys,
            bin_mm=cfg.histogram_bin_mm,
            exclude_edge_bubbles=cfg.exclude_edge_bubbles), rb.met)
        checks.mirror_tiling(rb.snap.rho_melt + rb.snap.rho_gas, rb.tiled,
                             *TILE)


def mb_s(pairs) -> float:
    return sum(n for _, n in pairs) / sum(s for s, _ in pairs) / 1e6


def end_to_end(wl: Workload, setups: list, rounds: list) -> dict:
    cfg = rounds[0].cfg
    steps = [t for rd in rounds for t in rd.steps]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(rd.wall_s for rd in rounds), "s"),
        "mlups": (2 * cfg.nx * cfg.ny * len(steps) / sum(steps) / 1e6,
                  "Mcell/s"),
        "step_ms_p50": (1e3 * statistics.median(steps), "ms"),
        "step_ms_tail": (1e3 * float(np.percentile(steps, wl.tail_pct)),
                         "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(tracer, rounds: list) -> dict:
    cfg = rounds[0].cfg
    spans = [s for rd in rounds for s in rd.spans]
    writes = [w for rd in rounds for w in rd.writes]
    out = layer_metrics(spans, sum(len(rd.steps) for rd in rounds),
                        len(rounds), cfg.nx, cfg.ny,
                        sum(n for _, n in writes), tracer.envelope_steps)
    out["snapshot_write_mb_s"] = (mb_s(writes), "MB/s")
    out["snapshot_read_mb_s"] = (
        mb_s([r for rd in rounds for r in rd.reads]), "MB/s")
    # the wrappers' own cost, against the wall time the round would take
    # without them; a traced round timed against an untraced one would
    # measure the host's drift instead, which on the reference machine of
    # README.md is a hundred times larger
    cost = span_cost_s() * len(spans) / len(rounds)
    wall = statistics.median(rd.wall_s for rd in rounds)
    out["trace.overhead_pct"] = (100.0 * cost / (wall - cost), "%")
    out["trace.spans"] = (len(spans) / len(rounds), "count")
    return out


def measure_workload(name: str, seed: int, seconds: float, trace: bool,
                     scratch: str) -> dict:
    wl = WORKLOADS[name]
    os.makedirs(scratch)
    cfg_path = os.path.join(ROOT, "configs", wl.preset)
    if wl.overrides or wl.seeded:
        cfg_path = os.path.join(scratch, name + ".cfg")
        with open(cfg_path, "w") as fh:
            fh.write(config_text(wl, seed))
    setups = []

    def set_up():
        for _ in range(SETUPS):
            t0 = clock()
            run.build_world(config.load_config(cfg_path))
            setups.append(clock() - t0)
    faults = []

    def played(tracer, n):
        set_up()
        out_dir = os.path.join(scratch, "round%d" % n)
        rd = play(cfg_path, out_dir, tracer)
        try:
            verify(name, rd.cfg, rd.evidence)
        except checks.CheckFailed as exc:
            print("perfbench: %s: check failed: %s" % (name, exc),
                  file=sys.stderr)
            faults.append(exc)
        rd.evidence = tracer.on_build = None
        tracer.writes = []
        shutil.rmtree(out_dir)
        return rd

    tracer = Tracer(layers=trace)
    rounds = []
    start = clock()
    # whole rounds only: past the minimum, start another while it is
    # expected to end in time
    while not faults and (len(rounds) < wl.min_rounds or clock() - start
                          + (clock() - start) / len(rounds) <= seconds):
        rounds.append(played(tracer, len(rounds) + 1))
    set_up()
    setups += [rd.setup_s for rd in rounds]
    if trace:
        figures = per_layer(tracer, rounds)
        tracer.dump(os.path.join(TRACES, "%s-seed%d.json" % (name, seed)),
                    {"workload": name, "seed": seed, "rounds": len(rounds)})
    else:
        figures = end_to_end(wl, setups, rounds)
    attempted = sum(rd.operations for rd in rounds)
    return {"correct": not faults, "attempted": attempted, "failed": 0,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in figures.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    scratch = os.path.join(SCRATCH, "%s-%d" % (args.workload, os.getpid()))
    try:
        result = measure_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0
