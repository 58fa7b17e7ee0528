"""Bubble morphology metrics and the reflective tiling used for
comparison against metallography images."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class FieldSnapshot:
    """The fields of one output step.  `run.capture` and `read_csv` build
    every field on one grid, so the shapes are not checked again here."""

    step: int
    time_s: float
    rho_melt: np.ndarray
    rho_gas: np.ndarray
    pressure: np.ndarray
    velocity: np.ndarray   # (2, nx, ny)
    labels: np.ndarray     # bubble ownership, 0 = melt

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

    def lines(self) -> list:
        """The report lines shared by `foamlbm run` and `foamlbm measure`."""
        return ["bubble fraction: %.2f %%" % self.bubble_fraction,
                "foam density: %.4g g/cm^3" % self.foam_density,
                "mean bubble diameter: %.4g mm (%d interior bubbles)"
                % (self.mean_diameter_mm, self.n_bubbles)]


def equivalent_diameter_mm(cells, dx_mm):
    """Diameter in mm of the disc covering `cells` cells of size dx_mm."""
    return 2.0 * np.sqrt(cells / math.pi) * dx_mm


def _diameters(labels, dx_mm, exclude_edge_bubbles):
    """Equivalent-circle diameters per label, in label order, skipping any
    bubble that touches the edge of the grid when `exclude_edge_bubbles`.
    Only the labels present are counted, however large they are."""
    ids, counts = np.unique(labels[labels > 0], return_counts=True)
    if exclude_edge_bubbles:
        edge = np.concatenate(
            (labels[0], labels[-1], labels[:, 0], labels[:, -1]))
        counts = counts[~np.isin(ids, edge)]
    return equivalent_diameter_mm(counts, dx_mm)


def measure(snapshot, dx_mm, rho_melt_phys, rho_gas_phys, bin_mm=0.5,
            exclude_edge_bubbles=True) -> BubbleMetrics:
    """Morphology metrics from the snapshot's bubble label map.

    With `exclude_edge_bubbles`, bubbles that touch the edge of the grid
    are left out of the diameter statistics; they still count toward the
    area fraction.
    """
    labels = snapshot.labels
    frac = 100.0 * float((labels > 0).mean())
    density = rho_melt_phys * (1.0 - frac / 100.0) \
        + rho_gas_phys * frac / 100.0
    diam = _diameters(labels, dx_mm, exclude_edge_bubbles)
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


def mirror_tile(field2d, reps):
    """Reflective tiling: each repetition flips the previous one, so a
    mirror-walled domain extends seamlessly."""
    kx, ky = int(reps[0]), int(reps[1])
    nx, ny = field2d.shape
    return np.pad(field2d, ((0, (kx - 1) * nx), (0, (ky - 1) * ny)),
                  mode="symmetric")
