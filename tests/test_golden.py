"""Golden reference: fixed-step summaries of three worlds, recorded once.

Each case builds a world from a config, steps it a fixed number of times
and compares a summary against values recorded from the reference
implementation. Floating-point figures must match to a relative 1e-12,
which admits reordered sums but not a change of the physics; the bubble
bookkeeping (ids, ownership partition, films, event steps) must match
exactly. Any refactor of the stepping code has to keep these passing.

Cases:
  foam_preset         configs/foam.cfg as shipped: injection, the barrier
                      pass and tracking at full size
  two_bubble_classic  configs/two_bubble.cfg, classic model: the drive force
  overlapping_zones   a small modified-model two-bubble world whose zones
                      overlap from step 0: masked coupling, the film
                      monitor, a rupture and the merge that follows
"""

import hashlib
import os

import numpy as np
import pytest

from foamlbm.config import SimulationConfig, load_config
from foamlbm.foam import step
from foamlbm.run import build_world

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
REL = 1e-12


def foam_preset():
    return load_config(os.path.join(CONFIGS, "foam.cfg")), 20


def two_bubble_classic():
    cfg = load_config(os.path.join(CONFIGS, "two_bubble.cfg"))
    cfg.model = "classic"
    return cfg, 20


def overlapping_zones():
    cfg = SimulationConfig(scenario="two_bubble", nx=64, ny=48,
                           model="modified", dx=1e-4, dt=1e-4,
                           bubble_diameter_mm=2.0, bubble_gap_cells=3.0,
                           barrier_r_z=3, approach_force=1e-4,
                           barrier_eps_p=0.1)
    return cfg.validate(), 60


def summary(world) -> dict:
    owner = np.ascontiguousarray(world.registry.owner, dtype="<i8")
    schedule = world.schedule
    return {
        "melt_direction_sums": world.pair.melt.f.sum(axis=(1, 2)).tolist(),
        "gas_direction_sums": world.pair.gas.f.sum(axis=(1, 2)).tolist(),
        "melt_mass": world.pair.melt.mass(),
        "gas_mass": world.pair.gas.mass(),
        "injected": schedule.injected if schedule is not None else None,
        "active_ids": world.registry.active_ids(),
        "cell_counts": world.registry.counts(),
        "owner_sha256": hashlib.sha256(owner.tobytes()).hexdigest(),
        "films": dict(world.films),
        "first_merge_step": world.first_merge_step,
        "first_rupture_step": world.first_rupture_step,
    }


FLOAT_KEYS = ("melt_direction_sums", "gas_direction_sums", "melt_mass",
              "gas_mass", "injected")

GOLDEN = {
    "foam_preset": {
        "melt_direction_sums": [
            55729.85191305103, 13933.843351958029, 13933.71116643606,
            13933.843351958029, 13933.876173122308, 3483.806659477735,
            3483.7391056137376, 3483.847916123489, 3483.7803622594915],
        "gas_direction_sums": [
            2265.3758509339877, 566.5529277018879, 566.5460827755812,
            566.5529277018879, 566.5521271144253, 141.6913888615996,
            141.68614175885622, 141.69290012725895, 141.6876530245156],
        "melt_mass": 125400.2999999999,
        "gas_mass": 5098.338000000002,
        "injected": 0.02000000000000001,
        "active_ids": [1, 2, 3, 4, 5, 6],
        "cell_counts": {1: 489, 2: 489, 3: 489, 4: 483, 5: 489, 6: 483},
        "owner_sha256": "6d3ec965d31ef283cc4558d681c2e546"
                        "af844b6b8ccc5e7251e79da79b510e43",
        "films": {},
        "first_merge_step": None,
        "first_rupture_step": None,
    },
    "two_bubble_classic": {
        "melt_direction_sums": [
            34587.984131244164, 8648.879260882622, 8648.740214639485,
            8648.90765594435, 8648.740214639483, 2162.6558606777667,
            2162.662959443199, 2162.662959443199, 2162.655860677767],
        "gas_direction_sums": [
            2293.481700195779, 574.234933892374, 573.8249697588361,
            574.2358721639789, 573.8249697588361, 143.67236965056634,
            143.6726042184676, 143.67260421846757, 143.67236965056634],
        "melt_mass": 77833.88911759203,
        "gas_mass": 5164.292393507872,
        "injected": None,
        "active_ids": [1, 2],
        "cell_counts": {1: 6181, 2: 6181},
        "owner_sha256": "ebc369d9c31f45072083a7ebef7eb1a4"
                        "5c7505f3c5d1962c4d206cd691a4c62e",
        "films": {},
        "first_merge_step": None,
        "first_rupture_step": None,
    },
    "overlapping_zones": {
        "melt_direction_sums": [
            1623.9918903757984, 406.3583036118597, 406.2273451195299,
            405.8634835032292, 406.1230898181586, 101.64695119077507,
            101.5231797160314, 101.49722411586484, 101.62078340976777],
        "gas_direction_sums": [
            126.7450452446788, 31.75297942522812, 31.715304107547198,
            31.66837925974142, 31.7205322669017, 7.945506721884898,
            7.924354225970472, 7.9256653222015805, 7.946809948482561],
        "melt_mass": 3654.8522508610154,
        "gas_mass": 285.3445765226367,
        "injected": None,
        "active_ids": [3],
        "cell_counts": {3: 565},
        "owner_sha256": "2397fbabfe945387328469558c20eb5d"
                        "1eeae433ac4ed2cb7804cc9a19aebebf",
        "films": {},
        "first_merge_step": 53,
        "first_rupture_step": 2,
    },
}

CASES = {"foam_preset": foam_preset,
         "two_bubble_classic": two_bubble_classic,
         "overlapping_zones": overlapping_zones}


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden_reference(case):
    cfg, steps = CASES[case]()
    world = build_world(cfg)
    for _ in range(steps):
        step(world)
    got, want = summary(world), GOLDEN[case]
    assert got.keys() == want.keys()
    for key in FLOAT_KEYS:
        if want[key] is None:
            assert got[key] is None, key
        else:
            assert got[key] == pytest.approx(want[key], rel=REL, abs=0), key
    for key in want.keys() - set(FLOAT_KEYS):
        assert got[key] == want[key], key
