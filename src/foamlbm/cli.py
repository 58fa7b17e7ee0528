"""Command line entry point.

Subcommands:
  run      drive a configured scenario and print the run report
  tile     mirror-tile a CSV snapshot into a PGM image
  measure  bubble morphology metrics of a CSV snapshot.  Its scales start
           at the SimulationConfig defaults, the snapshot's JSON sidecar
           overrides those, and the flags override the sidecar

Exit codes: 0 success, 2 configuration or usage error (including a config
file that cannot be read or is not UTF-8, a config number that is not
finite, a measure bin narrower than a cell, and a snapshot for tile or
measure with a wrong header, missing or cut-off rows, an x, y or bubble_id
that is not a non-negative integer, or a sidecar that is not JSON or holds
a scale that is not a positive number), 3 numerical instability during a run
(a negative density, or negative populations in too many cells), 4 any
other I/O error, such as an output directory that cannot be created or
written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .config import MODELS, ConfigError, SimulationConfig, load_config
from .lattice import InstabilityError
from .metrics import measure, mirror_tile
from .output import SnapshotError, read_csv, read_scales, write_pgm
from .run import run_scenario
from .units import UnitScales

OUT_DIR_ENV = "FOAMLBM_OUT_DIR"


def _default_scales() -> dict:
    # the config's defaults, read off the class, in sidecar form
    return UnitScales.from_config(SimulationConfig).sidecar()


def _positive(kind):
    """argparse type: a finite `kind` number above zero, as the scales of
    a snapshot sidecar must be."""
    def parse(text):
        value = kind(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                "must be a positive number, got %r" % text)
        return value
    parse.__name__ = kind.__name__  # names the type when kind() fails
    return parse


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.model is not None:
        cfg.model = args.model
    if args.seed is not None:
        cfg.nucleation_seed = args.seed
    if args.cadence is not None:
        cfg.output_cadence = args.cadence
    cfg.validate()
    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV)
    for line in run_scenario(cfg, out_dir=out_dir).lines():
        print(line)
    return 0


def _cmd_tile(args) -> int:
    snap = read_csv(args.snapshot)
    field = snap.rho_melt + snap.rho_gas
    tiled = mirror_tile(field, (args.kx, args.ky))
    out = args.out or os.path.splitext(args.snapshot)[0] + "_tiled.pgm"
    write_pgm(tiled, out)
    print("wrote %s (%d x %d)" % (out, tiled.shape[0], tiled.shape[1]))
    return 0


def _cmd_measure(args) -> int:
    snap = read_csv(args.snapshot)
    scales = _default_scales()
    scales.update(read_scales(args.snapshot))
    for key, flag in (("dx_mm", args.dx_mm), ("rho_melt_phys", args.rho_melt),
                      ("rho_gas_phys", args.rho_gas)):
        if flag is not None:
            scales[key] = flag
    if args.bin_mm < scales["dx_mm"]:
        print("measure: --bin-mm %g is below the cell size, %g mm"
              % (args.bin_mm, scales["dx_mm"]), file=sys.stderr)
        return 2
    met = measure(snap, scales["dx_mm"], scales["rho_melt_phys"],
                  scales["rho_gas_phys"], bin_mm=args.bin_mm,
                  exclude_edge_bubbles=not args.include_edges)
    for line in met.lines():
        print(line)
    for lo, n in zip(met.histogram_edges_mm[:-1], met.histogram_counts):
        print("  [%.2f, %.2f) mm: %d" % (lo, lo + args.bin_mm, n))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="foamlbm",
                                 description="closed-cell aluminum foam "
                                             "formation simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a configured scenario")
    p.add_argument("config", help="path to a key = value config file")
    p.add_argument("--model", choices=MODELS,
                   help="override the interaction model")
    p.add_argument("--seed", type=int, help="override the nucleation seed")
    p.add_argument("--out-dir",
                   help="snapshot directory (default: $%s)" % OUT_DIR_ENV)
    p.add_argument("--cadence", type=int,
                   help="steps between snapshots (0 disables)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("tile", help="mirror-tile a snapshot to PGM")
    p.add_argument("snapshot", help="CSV snapshot path")
    p.add_argument("kx", type=_positive(int), help="tile count along x")
    p.add_argument("ky", type=_positive(int), help="tile count along y")
    p.add_argument("--out", help="output PGM path")
    p.set_defaults(func=_cmd_tile)

    fallback = _default_scales()
    p = sub.add_parser("measure", help="morphology metrics of a snapshot")
    p.add_argument("snapshot", help="CSV snapshot path")
    p.add_argument("--dx-mm", type=_positive(float),
                   help="cell size in mm (default: the snapshot's scales "
                        "sidecar, else %g)" % fallback["dx_mm"])
    p.add_argument("--rho-melt", type=_positive(float),
                   help="melt density in g/cm^3 (default: sidecar, else %g)"
                        % fallback["rho_melt_phys"])
    p.add_argument("--rho-gas", type=_positive(float),
                   help="gas density in g/cm^3 (default: sidecar, else %g)"
                        % fallback["rho_gas_phys"])
    p.add_argument("--bin-mm", type=_positive(float), default=0.5,
                   help="histogram bin width in mm")
    p.add_argument("--include-edges", action="store_true",
                   help="keep boundary-touching bubbles in the mean")
    p.set_defaults(func=_cmd_measure)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except SnapshotError as exc:
        print("snapshot error: %s" % exc, file=sys.stderr)
        return 2
    except InstabilityError as exc:
        print("instability: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
