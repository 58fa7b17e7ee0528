"""Bubble morphology metrics and the reflective tiling used for
comparison against metallography images."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass
class FieldSnapshot:
    """Immutable view of one output step."""

    step: int
    time_s: float
    rho_melt: np.ndarray
    rho_gas: np.ndarray
    pressure: np.ndarray
    velocity: np.ndarray   # (2, nx, ny)
    labels: np.ndarray     # bubble ownership, 0 = melt

    def __post_init__(self):
        shape = self.rho_melt.shape
        for name in ("rho_gas", "pressure", "labels"):
            if getattr(self, name).shape != shape:
                raise ValueError("%s does not match the grid shape" % name)
        if self.velocity.shape != (2,) + shape:
            raise ValueError("velocity does not match the grid shape")

    @property
    def grid_shape(self):
        return self.rho_melt.shape


@dataclass
class BubbleMetrics:
    bubble_fraction: float        # percent of cells
    foam_density: float           # g/cm^3, mixture rule
    mean_diameter_mm: float       # over interior bubbles
    histogram_edges_mm: np.ndarray
    histogram_counts: np.ndarray
    n_bubbles: int
    diameters_mm: np.ndarray = field(repr=False, default=None)


def _diameters(labels, dx_mm, boundary):
    """Equivalent-circle diameters per label, skipping any bubble that
    touches a flagged boundary cell."""
    ids = np.unique(labels[labels > 0])
    out = []
    for i in ids:
        sel = labels == i
        if boundary is not None and (sel & boundary).any():
            continue
        out.append(2.0 * math.sqrt(sel.sum() / math.pi) * dx_mm)
    return np.asarray(out)


def _edge_mask(shape):
    edge = np.zeros(shape, dtype=bool)
    edge[0, :] = edge[-1, :] = True
    edge[:, 0] = edge[:, -1] = True
    return edge


def measure_labels(labels, dx_mm, rho_melt_phys, rho_gas_phys,
                   bin_mm=0.5, boundary=None) -> BubbleMetrics:
    """Morphology metrics from an ownership map.

    `boundary` marks cells whose bubbles are excluded from the diameter
    statistics (they still count toward the area fraction).
    """
    frac = 100.0 * float((labels > 0).mean())
    density = rho_melt_phys * (1.0 - frac / 100.0) \
        + rho_gas_phys * frac / 100.0
    diam = _diameters(labels, dx_mm, boundary)
    if diam.size:
        mean_d = float(diam.mean())
        n_bins = max(1, math.ceil(diam.max() / bin_mm))
    else:
        mean_d = 0.0
        n_bins = 1
    edges = np.arange(n_bins + 1) * bin_mm
    counts, _ = np.histogram(diam, bins=edges)
    return BubbleMetrics(bubble_fraction=frac, foam_density=density,
                         mean_diameter_mm=mean_d, histogram_edges_mm=edges,
                         histogram_counts=counts, n_bubbles=int(diam.size),
                         diameters_mm=diam)


def measure(snapshot, dx_mm, rho_melt_phys, rho_gas_phys, bin_mm=0.5,
            exclude_edge_bubbles=True) -> BubbleMetrics:
    """Metrics for one snapshot using its bubble label map."""
    boundary = _edge_mask(snapshot.grid_shape) if exclude_edge_bubbles \
        else None
    return measure_labels(snapshot.labels, dx_mm, rho_melt_phys,
                          rho_gas_phys, bin_mm=bin_mm, boundary=boundary)


def mirror_tile(field2d, reps):
    """Reflective tiling: each repetition flips the previous one, so a
    mirror-walled domain extends seamlessly."""
    kx, ky = int(reps[0]), int(reps[1])
    if kx < 1 or ky < 1:
        raise ValueError("tile repetitions must be at least 1")
    rows = []
    for i in range(kx):
        block = field2d if i % 2 == 0 else np.flip(field2d, axis=0)
        row = [block if j % 2 == 0 else np.flip(block, axis=1)
               for j in range(ky)]
        rows.append(np.concatenate(row, axis=1))
    return np.concatenate(rows, axis=0)
