"""The benchmark's contract: perfbench plays and verifies two small worlds.

`perfbench/bench.py` drives the package through its public surface and
reads the results back: world fields, registry bubbles, the growth
schedule, the film ledger and its events, the snapshots written and their
measurement. These tests run one round of it on two worlds, each of a
fraction of a second, so that a change that removes or renames anything
the benchmark reads fails here rather than only when the benchmark runs.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")
sys.path.insert(0, PERFBENCH)

import bench  # noqa: E402
from tracer import Tracer  # noqa: E402

# the golden overlapping-zones world: masked coupling, a rupture at step 2
# and the merge at step 53, with snapshots in every format
OVERLAPPING_ZONES = """
scenario = two_bubble
model = modified
nx = 64
ny = 48
dx = 1e-4
dt = 1e-4
bubble_diameter_mm = 2
bubble_gap_cells = 3
barrier_r_z = 3
approach_force = 1e-4
barrier_eps_p = 0.1
stop_rule = steps
max_steps = 60
output_cadence = 30
output_formats = csv, pgm, vtk
"""

# six small nuclei fed fast under the barrier, as in test_cli's
# dissolving-bubble run: injection, the mole ledger and a film pruned
# when one of its bubbles dissolves
INJECTED_FOAM = """
scenario = foam
model = modified
nx = 64
ny = 64
rho_melt = 1.375
rho_gas = 0.203
nucleation_count = 6
nucleation_seed = 2
min_spacing = 12
nucleation_radius = 5
growth_A = 10
growth_dn_dt = 50
growth_budget = 1
dt = 1e-4
barrier_r_z = 3
stop_rule = steps
max_steps = 160
"""


def play_and_verify(tmp_path, name, text):
    cfg_path = tmp_path / (name + ".cfg")
    cfg_path.write_text(text)
    rd = bench.play(str(cfg_path), str(tmp_path / "out"),
                    Tracer(layers=False))
    bench.verify(name, rd.cfg, rd.evidence)
    return rd


def test_overlapping_zones_round_holds(tmp_path):
    rd = play_and_verify(tmp_path, "overlapping-zones", OVERLAPPING_ZONES)
    world = rd.evidence["world"]
    assert world.rupture_events and world.merge_events
    assert len(rd.steps) == 60
    assert len(rd.evidence["backs"]) == 3
    assert sorted(os.path.splitext(p)[1] for p in rd.evidence["paths"]) \
        == [".csv"] * 3 + [".pgm"] * 3 + [".vtk"] * 3


def test_injected_foam_round_holds(tmp_path):
    rd = play_and_verify(tmp_path, "injected-foam", INJECTED_FOAM)
    world = rd.evidence["world"]
    assert world.schedule.injected > 0
    assert len(rd.steps) == 160
    assert len(rd.evidence["backs"]) == 1
