"""Command line entry point.

Subcommands:
  run      drive a configured scenario and print the run report
  props    hydrogen solubility / diffusivity table at a given state point
  tile     mirror-tile a CSV snapshot into a PGM image
  measure  bubble morphology metrics of a CSV snapshot, at the scales in
           its JSON sidecar unless flags override them

Exit codes: 0 success, 2 configuration or usage error (including a config
file that cannot be read), 3 numerical instability (negative-population
blowup) during a run, 4 any other I/O error, such as an output directory
that cannot be created or written.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config
from .foam import InstabilityError
from .materials import diffusion_coefficient, diffusion_length, solubility
from .metrics import measure, mirror_tile
from .output import read_csv, read_scales, write_pgm
from .run import run_scenario

OUT_DIR_ENV = "FOAMLBM_OUT_DIR"
# what `measure` assumes for a snapshot written without a scales sidecar
MEASURE_FALLBACK = {"dx_mm": 0.1, "rho_melt_phys": 2.7,
                    "rho_gas_phys": 0.00009}


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
    run_scenario(cfg, out_dir=out_dir, echo=print)
    return 0


def _cmd_props(args) -> int:
    T, p = args.temperature, args.pressure
    print("state point: T = %.2f K, p = %.4g bar" % (T, p))
    for phase in ("melt", "solid"):
        print("solubility (%s): %.6g cm^3/g" % (phase, solubility(T, p, phase)))
    for branch in ("low", "high"):
        D = diffusion_coefficient(T, branch)
        print("diffusion coefficient (%s T branch): %.6g m^2/s" % (branch, D))
    D = diffusion_coefficient(T, "low" if T < 1000.0 else "high")
    for t in (0.1, 1.0, 10.0):
        print("diffusion length at %.3g s: %.6g m" % (t, diffusion_length(D, t)))
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
    scales = dict(MEASURE_FALLBACK)
    scales.update(read_scales(args.snapshot))
    for key, flag in (("dx_mm", args.dx_mm), ("rho_melt_phys", args.rho_melt),
                      ("rho_gas_phys", args.rho_gas)):
        if flag is not None:
            scales[key] = flag
    met = measure(snap, scales["dx_mm"], scales["rho_melt_phys"],
                  scales["rho_gas_phys"], bin_mm=args.bin_mm,
                  exclude_edge_bubbles=not args.include_edges)
    print("bubble fraction: %.2f %%" % met.bubble_fraction)
    print("foam density: %.4g g/cm^3" % met.foam_density)
    print("mean bubble diameter: %.4g mm (%d interior bubbles)"
          % (met.mean_diameter_mm, met.n_bubbles))
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
    p.add_argument("--model", choices=("modified", "classic"),
                   help="override the interaction model")
    p.add_argument("--seed", type=int, help="override the nucleation seed")
    p.add_argument("--out-dir",
                   help="snapshot directory (default: $%s)" % OUT_DIR_ENV)
    p.add_argument("--cadence", type=int,
                   help="steps between snapshots (0 disables)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("props", help="hydrogen transport properties")
    p.add_argument("temperature", type=float, help="temperature in K")
    p.add_argument("pressure", type=float, help="hydrogen pressure in bar")
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("tile", help="mirror-tile a snapshot to PGM")
    p.add_argument("snapshot", help="CSV snapshot path")
    p.add_argument("kx", type=int, help="tile count along x")
    p.add_argument("ky", type=int, help="tile count along y")
    p.add_argument("--out", help="output PGM path")
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser("measure", help="morphology metrics of a snapshot")
    p.add_argument("snapshot", help="CSV snapshot path")
    p.add_argument("--dx-mm", type=float,
                   help="cell size in mm (default: the snapshot's scales "
                        "sidecar, else 0.1)")
    p.add_argument("--rho-melt", type=float,
                   help="melt density in g/cm^3 (default: sidecar, else 2.7)")
    p.add_argument("--rho-gas", type=float,
                   help="gas density in g/cm^3 (default: sidecar, "
                        "else 0.00009)")
    p.add_argument("--bin-mm", type=float, default=0.5,
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
    except InstabilityError as exc:
        print("instability: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
