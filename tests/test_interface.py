"""The interface physics of the shipped coupling: Laplace's law and the
spurious current around a bubble at rest.

One gas bubble sits at the centre of a 96 x 96 mirror box, in the classic
model at the densities of `configs/two_bubble.cfg`, with no injection and
no drive.  The disc is seeded with the smooth edge of the two-bubble
build.  A bubble seeded below a radius of about 16 cells shrinks or
dissolves before it settles, so every case seeds at 16 or more.

The oracles live here: Laplace's law in two dimensions, dp = sigma / R,
with the radius read from the bubble's area, and a plain bound on the
largest |u_total|.
"""

import os

import numpy as np
import pytest

from foamlbm.config import load_config
from foamlbm.foam import step
from foamlbm.run import _seed_discs, _settled_world, _smooth_disc

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
N = 96
# the bubble's centre: the middle of the box, between four cells
CENTRE = (N - 1) / 2.0
# how far past the interface the outer pressure is read, in cells
OUTSIDE_CELLS = 10


def static_bubble(r0):
    """A world with one bubble of radius r0 cells at rest in the box."""
    cfg = load_config(os.path.join(CONFIGS, "two_bubble.cfg"))
    cfg.scenario, cfg.nx, cfg.ny, cfg.model = "foam", N, N, "classic"
    cfg.nucleation_count = 1
    cfg.validate()
    shape = (N, N)
    reg = _seed_discs(shape, [(CENTRE, CENTRE)], r0)
    return _settled_world(cfg, reg, _smooth_disc(shape, CENTRE, CENTRE, r0),
                          np.zeros((2,) + shape))


def equivalent_radius(world):
    """The radius of the disc of the bubble's area, in cells."""
    return float(np.sqrt(world.bubble_mask().sum() / np.pi))


def laplace_jump(world):
    """The pressure at the centre less the pressure OUTSIDE_CELLS past the
    interface along x, each averaged over the two cells either side of
    the y midline."""
    p, mid = world.pressure(), N // 2
    x = int(round(CENTRE + equivalent_radius(world) + OUTSIDE_CELLS))
    return (p[mid - 1:mid + 1, mid - 1:mid + 1].mean()
            - p[x, mid - 1:mid + 1].mean())


def test_spurious_current_is_bounded_at_rest():
    # the largest |u_total| read 0.069-0.072 from step 1000 on, and the
    # bubble settled at 0.93 of its seeded area
    world = static_bubble(21.0)
    seeded = np.pi * 21.0 ** 2
    largest = 0.0
    for k in range(1200):
        step(world)
        if k == 1000:
            settled = world.bubble_mask().sum()
        if k >= 1000:
            largest = max(largest, np.hypot(*world.coupling.u_total).max())
    assert 0.0 < largest < 0.08
    area = world.bubble_mask().sum()
    assert world.registry.active_ids() == [1]
    assert area > 0.9 * seeded
    assert abs(area / settled - 1.0) < 0.02


@pytest.mark.slow
def test_laplace_law_holds_at_three_radii():
    # 4000 steps settle the jump; at 2000 dp * R still spread by +-9 %.
    # Measured: radii 14.45, 20.37 and 25.73 cells, dp * R 0.0226, 0.0223
    # and 0.0226, and the fit dp = sigma / R + c gave sigma = 0.0226 and
    # c = -5.5e-6, each residual within 1.1 % of its jump
    radii, jumps = [], []
    for r0 in (16.0, 21.0, 26.0):
        world = static_bubble(r0)
        for _ in range(4000):
            step(world)
        assert world.registry.active_ids() == [1]
        radii.append(equivalent_radius(world))
        jumps.append(laplace_jump(world))
    radii, jumps = np.array(radii), np.array(jumps)
    design = np.column_stack([1.0 / radii, np.ones_like(radii)])
    (sigma, offset), *_ = np.linalg.lstsq(design, jumps, rcond=None)
    assert 0.020 < sigma < 0.025
    assert abs(offset) < 1e-4
    assert np.all(np.abs(design @ (sigma, offset) - jumps) < 0.03 * jumps)
