"""Bit identity of two source trees, state by state.

    python tests/identity.py PARENT_DIR CHANGE_DIR

Each case below is run once per tree, in a subprocess that imports
`foamlbm` from `<tree>/src`, put in front of the caller's PYTHONPATH.
After the build and after every step the subprocess takes a SHA-256 of
each field of `FIELDS`: both lattices' populations and the owner map, the
films in order, each registry item's (id, state, n_moles), the merge and
rupture events, `spurious_droplets`, `envelope_steps` and
`schedule.injected` (None when the world has no schedule).  The script
prints the first case, step and field whose hashes differ and exits 1.
It exits 0 when every hash matches, and 2 when a tree cannot run a case.

The cases are those that earlier refactors were checked on by hand:

  foam_preset          configs/foam.cfg, 400 steps, through one rupture
  foam_40_nuclei       the foam preset with 40 nuclei at seed 5, 60 steps
  foam_80_nuclei       the foam preset crowded with 80 nuclei of radius
                       10, 25 cells apart, at seed 1, 100 steps, by when
                       its zone pass lists contacts among many bubbles
  dissolving_foam      the 64 x 64 world of tests/test_cli.py in which a
                       bubble dissolves under a standing film, 400 steps
  two_bubble_classic   configs/two_bubble.cfg, classic model, 60 steps
  two_bubble_modified  the same in the modified model, 60 steps
  overlapping_zones    the golden world whose zones overlap from step 0,
                       80 steps, through a rupture and a merge
  foam_tau_melt        the foam preset with tau_melt = 0.8, 400 steps:
                       the melt relaxes at omega != 1 and, with no drive,
                       gets an equilibrium bracket of its own
  overlapping_zones_r10
                       the overlapping_zones world at barrier_r_z = 10,
                       80 steps: its films stand from step 0, and every
                       bubble's barrier window is clipped at a wall
  overlapping_zones_r1000
                       the same world at barrier_r_z = 1000, 20 steps:
                       the zone test's reach is clamped to its window

Every case steps the world a fixed number of times, whatever its stop
rule says.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "configs")

# case name: steps after the build
CASES = {
    "foam_preset": 400,
    "foam_40_nuclei": 60,
    "foam_80_nuclei": 100,
    "dissolving_foam": 400,
    "two_bubble_classic": 60,
    "two_bubble_modified": 60,
    "overlapping_zones": 80,
    "foam_tau_melt": 400,
    "overlapping_zones_r10": 80,
    "overlapping_zones_r1000": 20,
}

FIELDS = ("melt populations", "gas populations", "owner map", "films",
          "bubbles", "merge events", "rupture events", "spurious droplets",
          "envelope steps", "injected")


def case_config(name):
    """The validated config of a case, parsed by the tree under test."""
    from foamlbm.config import load_config
    if name in ("foam_preset", "foam_40_nuclei", "foam_80_nuclei",
                "foam_tau_melt"):
        cfg = load_config(os.path.join(CONFIGS, "foam.cfg"))
        if name == "foam_40_nuclei":
            cfg.nucleation_count, cfg.nucleation_seed = 40, 5
        elif name == "foam_80_nuclei":
            cfg.nucleation_count, cfg.nucleation_radius = 80, 10
            cfg.min_spacing, cfg.nucleation_seed = 25, 1
        elif name == "foam_tau_melt":
            cfg.tau_melt = 0.8
    elif name in ("two_bubble_classic", "two_bubble_modified"):
        cfg = load_config(os.path.join(CONFIGS, "two_bubble.cfg"))
        cfg.model = name.rpartition("_")[2]
    elif name == "dissolving_foam":
        from test_cli import DISSOLVING_FOAM
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "dissolving.cfg")
            with open(path, "w") as fh:
                fh.write(DISSOLVING_FOAM)
            cfg = load_config(path)
    elif name.startswith("overlapping_zones"):
        from test_golden import overlapping_zones
        cfg, _ = overlapping_zones()
        if name != "overlapping_zones":
            cfg.barrier_r_z = int(name.rpartition("_r")[2])
    else:
        raise KeyError(name)
    return cfg.validate()


def digest(value) -> str:
    """SHA-256 of an array's dtype, shape and bytes, or of a value's repr
    (exact for floats)."""
    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(("%s %s " % (value.dtype.str, value.shape)).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    return h.hexdigest()


def state_digests(world) -> list:
    """The digest of each field of FIELDS, in that order."""
    reg, schedule = world.registry, world.schedule
    values = (world.pair.melt.f, world.pair.gas.f, reg.owner,
              list(world.films.items()),
              [(bid, b.state, b.n_moles) for bid, b in reg.bubbles.items()],
              world.merge_events, world.rupture_events,
              world.spurious_droplets, world.envelope_steps,
              None if schedule is None else schedule.injected)
    return [digest(v) for v in values]


def hash_run(name, steps) -> dict:
    """Build a case's world with the `foamlbm` on the path, step it, and
    return where that package lives with the digests of every state."""
    import foamlbm
    from foamlbm.foam import step
    from foamlbm.run import build_world
    world = build_world(case_config(name))
    states = [state_digests(world)]
    for _ in range(steps):
        step(world)
        states.append(state_digests(world))
    return {"package": os.path.dirname(os.path.abspath(foamlbm.__file__)),
            "states": states}


def run_tree(tree, name, steps):
    """`hash_run` of one case in a subprocess on `<tree>/src`; returns its
    result, or an error message."""
    src = os.path.abspath(os.path.join(tree, "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--hash", name, str(steps)], env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        return "exit %d: %s" % (proc.returncode,
                                proc.stderr.strip().rpartition("\n")[2])
    result = json.loads(proc.stdout)
    if os.path.realpath(result["package"]) != os.path.realpath(
            os.path.join(src, "foamlbm")):
        return "imported foamlbm from %s" % result["package"]
    return result


def compare(parent, change, cases) -> int:
    """Run `cases` ({name: steps}) on both trees and print the first
    difference; returns the exit code."""
    for name, steps in cases.items():
        runs = []
        for tree in (parent, change):
            result = run_tree(tree, name, steps)
            if isinstance(result, str):
                print("%s: %s cannot run it: %s" % (name, tree, result))
                return 2
            runs.append(result["states"])
        for k, (ours, theirs) in enumerate(zip(*runs)):
            for field, a, b in zip(FIELDS, ours, theirs):
                if a != b:
                    print("first difference: case %s, step %s, field %s"
                          % (name, "build" if k == 0 else k, field))
                    return 1
        print("%s: identical after the build and each of %d steps, "
              "%d fields each" % (name, steps, len(FIELDS)))
    print("identical: %d cases" % len(cases))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--hash"]:
        json.dump(hash_run(argv[1], int(argv[2])), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(argv[0], argv[1], CASES)


if __name__ == "__main__":
    sys.exit(main())
