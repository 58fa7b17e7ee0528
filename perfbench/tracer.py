"""Spans around the calls into each foamlbm layer, recorded from outside.

Every wrapper replaces a name where its caller looks it up: `foam` imports
`coupled_update`, `barrier_zones` and `inject_gas` into its own namespace,
`run` imports `write_outputs` and `measure`, and methods are patched on
their class. A wrapper installed anywhere else would never be called and
its layer would silently read zero.

A span records its name, start, end and parent; a layer's self time is its
duration minus the time its child spans cover. Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time

from foamlbm import config, coupling, foam, lattice, metrics, output, run

# (owner, attribute, span name). The untraced run installs only the first
# group: it needs per-step times, set-up times and the snapshots written.
TIMING = (
    (foam, "step", "foam.step"),
    (run, "build_world", "run.build_world"),
    (run, "write_outputs", "output.write_outputs"),
)
LAYERS = (
    (lattice.Lattice, "collide", "lattice.collide"),
    (lattice.Lattice, "stream", "lattice.stream"),
    (coupling, "shan_chen_force", "interaction.shan_chen_force"),
    (foam, "coupled_update", "coupling.coupled_update"),
    (foam, "barrier_zones", "coupling.barrier_zones"),
    (foam, "inject_gas", "foam.inject_gas"),
    (foam, "track_bubbles", "foam.track_bubbles"),
    (foam.BubbleRegistry, "centroids", "foam.centroids"),
    (foam, "film_probe", "foam.film_probe"),
    (foam, "detect_rupture", "foam.detect_rupture"),
    (run, "largest_bubble_diameter_mm", "run.tail_diameter"),
    (run, "capture", "run.capture"),
    (run, "measure", "metrics.measure"),
    (output, "write_csv", "output.write_csv"),
    (output, "write_pgm", "output.write_pgm"),
    (output, "write_vtk", "output.write_vtk"),
    (output, "read_csv", "output.read_csv"),
    (metrics, "measure", "metrics.measure"),
    (metrics, "mirror_tile", "metrics.mirror_tile"),
    (config, "load_config", "config.load_config"),
)

# per-layer metric -> spans summed. Per-step figures take only spans inside
# a step, so the coupling pass of build_world counts toward set-up; calls
# are counted per round, build_world's included.
PER_STEP_MS = {
    "foam.step_ms": ("foam.step",),
    "lattice.collide_ms": ("lattice.collide",),
    "lattice.stream_ms": ("lattice.stream",),
    "interaction.shan_chen_force_ms": ("interaction.shan_chen_force",),
    "foam.inject_gas_ms": ("foam.inject_gas",),
    "coupling.barrier_zones_ms": ("coupling.barrier_zones",),
    "foam.track_bubbles_ms": ("foam.track_bubbles",),
    "foam.centroids_ms": ("foam.centroids",),
    "foam.film_monitor_ms": ("foam.film_probe", "foam.detect_rupture"),
}
PER_STEP_SELF_MS = {
    "coupling.coupled_update_ms": "coupling.coupled_update",
    "foam.step_self_ms": "foam.step",
}
PER_CALL_MS = {
    "config.load_config_ms": "config.load_config",
    "run.build_world_ms": "run.build_world",
    "run.capture_ms": "run.capture",
    "output.write_csv_ms": "output.write_csv",
    "output.write_pgm_ms": "output.write_pgm",
    "output.write_vtk_ms": "output.write_vtk",
    "output.read_csv_ms": "output.read_csv",
    "metrics.measure_ms": "metrics.measure",
    "metrics.mirror_tile_ms": "metrics.mirror_tile",
}
PER_ROUND_CALLS = {
    "interaction.shan_chen_force_calls": "interaction.shan_chen_force",
    "coupling.barrier_zones_calls": "coupling.barrier_zones",
    "foam.centroids_calls": "foam.centroids",
    "foam.film_probes": "foam.film_probe",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "in_step")

    def __init__(self, name, start, parent, in_step):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child_s = 0.0
        self.in_step = in_step    # a foam.step span encloses this one

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Installs wrappers, records spans, and restores the originals."""

    def __init__(self, layers: bool):
        self.layers = layers
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []
        self.writes: list = []      # (span, paths, snapshot) per write_outputs
        self.on_build = None        # called with each freshly built world
        self.envelope_steps = 0
        self._envelope_hit = False

    def __enter__(self):
        for owner, attr, name in TIMING + (LAYERS if self.layers else ()):
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            in_step = parent is not None and (
                spans[parent].in_step or spans[parent].name == "foam.step")
            span = Span(name, clock(), parent, in_step)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    spans[parent].child_s += span.duration
            self._after(name, args, result, span)
            return result
        return wrapper

    def _after(self, name, args, result, span):
        if name == "run.build_world":
            if self.on_build is not None:
                self.on_build(result)
        elif name == "output.write_outputs":
            self.writes.append((span, result, args[0]))
        elif name == "lattice.collide":
            # Lattice.collide warns once per call site; count every step
            # whose equilibrium speed leaves the envelope instead
            if args[0].max_speed > lattice.VELOCITY_WARN:
                self._envelope_hit = True
        elif name == "foam.step":
            self.envelope_steps += self._envelope_hit
            self._envelope_hit = False

    def dump(self, path, meta) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        rows = [{"i": i, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent} for i, s in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": rows}, fh)


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one span adds to its caller: a wrapped no-op timed against
    the bare no-op, on a throwaway tracer."""
    def noop():
        return None
    wrapped = Tracer(layers=False)._wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def total_s(spans, names) -> float:
    return sum(s.duration for s in spans if s.name in names)


def layer_metrics(spans, steps: int, rounds: int, nx: int, ny: int,
                  bytes_written: int, envelope_steps: int) -> dict:
    """Per-layer figures over the traced rounds, by name and unit."""
    calls: dict[str, int] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    stepping = [s for s in spans if s.in_step or s.name == "foam.step"]
    out = {}
    for key, names in PER_STEP_MS.items():
        out[key] = (1e3 * total_s(stepping, set(names)) / steps, "ms")
    for key, name in PER_STEP_SELF_MS.items():
        out[key] = (1e3 * sum(s.self_s for s in stepping if s.name == name)
                    / steps, "ms")
    # the run report's per-step bookkeeping runs between steps
    out["run.tail_diameter_ms"] = (
        1e3 * total_s(spans, {"run.tail_diameter"}) / steps, "ms")
    for key, name in PER_CALL_MS.items():
        n = calls.get(name, 0)
        out[key] = (1e3 * total_s(spans, {name}) / n if n else 0.0, "ms")
    for key, name in PER_ROUND_CALLS.items():
        out[key] = (calls.get(name, 0) / rounds, "count")
    out["lattice.cell_updates"] = (
        calls.get("lattice.collide", 0) * nx * ny / rounds, "count")
    out["lattice.envelope_steps"] = (envelope_steps / rounds, "count")
    out["output.bytes_written"] = (bytes_written / rounds, "B")
    return out
