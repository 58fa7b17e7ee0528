"""Compare two result sets of the benchmark, workload by workload.

    python3 perfbench/compare.py BEFORE.jsonl [AFTER.jsonl]

Result sets are the JSON lines perfbench/sweep.py --out writes. For every
workload and end-to-end metric of BENCHMARK.json this prints the median and
quartiles (statistics.quantiles, n=4) of each set and the spread, the
quartile distance as a share of the median. A set is steady when every
spread but that of setup_s stays within the metric's bound; AFTER holds
when its median is no worse than BEFORE's by more than the bound and the
share of failed operations is the same. Exits 1 when either fails.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("trace", 0) == 0:
                runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def failed_share(results):
    return (sum(r["failed"] for r in results),
            sum(r["attempted"] for r in results))


def main(argv):
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sets = [load(p) for p in argv]
    ok = True
    print("%-20s %-20s %s" % ("workload", "metric", "  ".join(
        "%s: median [q1, q3] spread" % os.path.basename(p) for p in argv)))
    for wl in (w["name"] for w in spec["workloads"]):
        if any(wl not in s or len(s[wl]) < 2 for s in sets):
            print("%-20s missing or fewer than two runs" % wl)
            ok = False
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, meds = [], []
            for s in sets:
                med, q1, q3, spread = stats(
                    [r["metrics"][name]["value"] for r in s[wl]])
                steady = name == "setup_s" or spread <= bound
                ok &= steady
                meds.append(med)
                cols.append("%.5g [%.5g, %.5g] %.3f%s" % (
                    med, q1, q3, spread, "" if steady else " UNSTEADY"))
            verdict = ""
            if len(sets) == 2:
                change = (meds[1] - meds[0]) / meds[0]
                worse = change if m["better"] == "lower" else -change
                within = worse <= bound
                ok &= within
                verdict = "%+.3f %s bound %.2f" % (
                    change, "within" if within else "BEYOND", bound)
            print("%-20s %-20s %s  %s" % (wl, name, "  ".join(cols), verdict))
        shares = [failed_share(s[wl]) for s in sets]
        if len(sets) == 2 and shares[0][0] * shares[1][1] \
                != shares[1][0] * shares[0][1]:
            print("%-20s failed share differs: %d/%d vs %d/%d"
                  % ((wl,) + shares[0] + shares[1]))
            ok = False
    print("verdict: %s" % ("holds" if ok else "FAILS"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
