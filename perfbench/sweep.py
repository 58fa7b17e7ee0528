"""Run benchmark workloads for a list of seeds and collect the results.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 1-10] \
        [--seconds S] [--trace 0|1] [--out perfbench/results/NAME.jsonl]

Defaults: every workload in BENCHMARK.json, seed 1, its run_seconds,
untraced. Each run is a separate `perfbench/run.py` process, run one after
another, seed by seed, so slow drift of the host spreads over all
workloads. Every metric is printed by name and unit together with the
attempted and failed operation counts; with --out each result is also
appended as one JSON line for perfbench/compare.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1", type=parse_seeds)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    status = 0
    for seed in args.seeds:
        for name in args.workloads.split(","):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print("%s seed %d: exit %d, no result"
                      % (name, seed, proc.returncode))
                status = 1
                continue
            result = json.loads(lines[-1])
            print("%s seed %d: correct=%s attempted=%d failed=%d"
                  % (name, seed, result["correct"], result["attempted"],
                     result["failed"]))
            for key, m in result["metrics"].items():
                print("    %-36s %14.6g %s" % (key, m["value"], m["unit"]))
            if not result["correct"]:
                status = 1
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps({"workload": name, "seed": seed,
                                         "trace": args.trace,
                                         "result": result}) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
