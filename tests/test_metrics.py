"""Bubble morphology metrics and mirror tiling."""

import math

import numpy as np
import pytest

from foamlbm.metrics import FieldSnapshot, measure, mirror_tile

RHO_MELT = 2.7
RHO_GAS = 0.089


def snapshot_from_labels(labels):
    nx, ny = labels.shape
    gas = np.where(labels > 0, 0.25, 0.01)
    melt = np.where(labels > 0, 0.05, 1.5)
    return FieldSnapshot(step=0, time_s=0.0, rho_melt=melt, rho_gas=gas,
                         pressure=np.zeros((nx, ny)),
                         velocity=np.zeros((2, nx, ny)), labels=labels)


def disc_labels(shape, discs):
    labels = np.zeros(shape, dtype=np.int64)
    X, Y = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]),
                       indexing="ij")
    for bid, (cx, cy, r) in discs.items():
        labels[(X - cx) ** 2 + (Y - cy) ** 2 <= r * r] = bid
    return labels


def measure_labels(labels, **kwargs):
    return measure(snapshot_from_labels(labels), 0.1, RHO_MELT, RHO_GAS,
                   **kwargs)


class TestMeasureLabels:
    def test_all_melt(self):
        labels = np.zeros((32, 32), dtype=np.int64)
        m = measure_labels(labels)
        assert m.bubble_fraction == 0.0
        assert m.foam_density == pytest.approx(RHO_MELT)
        assert m.mean_diameter_mm == 0.0
        assert m.n_bubbles == 0

    def test_hundred_cell_bubble_diameter(self):
        # 100 cells at 0.1 mm/cell: d = 2 sqrt(A/pi) = 1.128 mm
        labels = np.zeros((40, 40), dtype=np.int64)
        labels[10:20, 10:20] = 1
        m = measure_labels(labels)
        assert m.mean_diameter_mm == pytest.approx(1.128, abs=1e-3)
        assert m.n_bubbles == 1

    def test_mixture_density_rule(self):
        labels = np.zeros((10, 10), dtype=np.int64)
        labels[:, :3] = 1  # 30 percent gas
        m = measure_labels(labels)
        assert m.bubble_fraction == pytest.approx(30.0)
        assert m.foam_density == pytest.approx(0.7 * RHO_MELT + 0.3 * RHO_GAS)

    def test_boundary_mask_excludes_from_mean_not_fraction(self):
        labels = disc_labels((48, 48), {1: (0, 24, 6), 2: (30, 24, 5)})
        with_edge = measure_labels(labels)
        keep_all = measure_labels(labels, exclude_edge_bubbles=False)
        assert with_edge.bubble_fraction == keep_all.bubble_fraction
        assert with_edge.n_bubbles == 1
        assert keep_all.n_bubbles == 2
        interior_only = measure_labels(np.where(labels == 2, labels, 0))
        assert with_edge.mean_diameter_mm == pytest.approx(
            interior_only.mean_diameter_mm)

    def test_histogram_binning(self):
        labels = np.zeros((40, 40), dtype=np.int64)
        labels[10:20, 10:20] = 1  # 1.128 mm bubble
        m = measure_labels(labels, bin_mm=0.5)
        assert m.histogram_counts.sum() == 1
        idx = np.nonzero(m.histogram_counts)[0][0]
        assert m.histogram_edges_mm[idx] == pytest.approx(1.0)

    def test_diameters_match_one_mask_per_bubble(self):
        # eleven sparse ids with gaps inside the grid; ids 9 and 27 also
        # own cells on the edge, one on a row and one on a column
        rng = np.random.default_rng(21)
        labels = np.zeros((30, 20), dtype=np.int64)
        inner = rng.integers(0, 12, size=(26, 16)) * 3
        inner[rng.random((26, 16)) < 0.5] = 0
        labels[2:-2, 2:-2] = inner
        labels[0, :4] = 9
        labels[12, -1] = 27
        edge = np.zeros((30, 20), dtype=bool)
        edge[0, :] = edge[-1, :] = True
        edge[:, 0] = edge[:, -1] = True
        for exclude, n in ((False, 11), (True, 9)):
            masks = [labels == i for i in np.unique(labels[labels > 0])]
            want = [2.0 * math.sqrt(sel.sum() / math.pi) * 0.1
                    for sel in masks
                    if not (exclude and (edge & sel).any())]
            m = measure_labels(labels, exclude_edge_bubbles=exclude)
            assert len(want) == n
            assert m.diameters_mm.tolist() == want
            assert m.mean_diameter_mm == float(np.mean(want))

    def test_ids_up_to_a_trillion_keep_the_order_and_the_diameters(self):
        # only the ids present are counted, in ascending order, so scaled
        # ids give what the small ones give
        rng = np.random.default_rng(22)
        labels = np.zeros((24, 18), dtype=np.int64)
        labels[1:-1, 1:-1] = rng.integers(0, 9, size=(22, 16))
        labels[0, :3] = 4  # on the edge
        for exclude, n in ((False, 8), (True, 7)):
            small = measure_labels(labels, exclude_edge_bubbles=exclude)
            huge = measure_labels(labels * 10 ** 11 + (labels > 0) * 7,
                                  exclude_edge_bubbles=exclude)
            assert small.n_bubbles == n
            assert huge.diameters_mm.tolist() == small.diameters_mm.tolist()

    def test_measure_uses_snapshot_labels(self):
        # the densities say all melt; the label map alone decides
        labels = disc_labels((48, 48), {1: (24, 24, 5)})
        snap = snapshot_from_labels(np.zeros_like(labels))
        snap.labels = labels
        m = measure(snap, 0.1, RHO_MELT, RHO_GAS)
        assert m.n_bubbles == 1
        assert m.mean_diameter_mm == pytest.approx(
            2.0 * math.sqrt((labels > 0).sum() / math.pi) * 0.1)


class TestMirrorTile:
    def test_identity(self):
        rng = np.random.default_rng(3)
        f = rng.random((7, 5))
        assert np.array_equal(mirror_tile(f, (1, 1)), f)

    def test_two_by_one_is_pixel_exact_mirror(self):
        rng = np.random.default_rng(4)
        f = rng.random((6, 4))
        t = mirror_tile(f, (2, 1))
        assert t.shape == (12, 4)
        assert np.array_equal(t[:6], f)
        assert np.array_equal(t[6:], f[::-1])

    def test_two_by_two_seams_continuous(self):
        rng = np.random.default_rng(5)
        f = rng.random((8, 6))
        t = mirror_tile(f, (2, 2))
        assert t.shape == (16, 12)
        # mirrored neighbours repeat across every seam
        assert np.array_equal(t[7, :], t[8, :])
        assert np.array_equal(t[:, 5], t[:, 6])


class TestFieldSnapshot:
    def test_grid_shape(self):
        labels = np.zeros((9, 7), dtype=np.int64)
        snap = snapshot_from_labels(labels)
        assert snap.grid_shape == (9, 7)
