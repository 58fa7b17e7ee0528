"""Entry point of the foamlbm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The simulator is imported from `src/` of the
same checkout; without it the benchmark exits with code 2 and prints no
result. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    # one process, one BLAS thread: the load is this process alone, and a
    # spinning BLAS helper would compete with it for the second core
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "foamlbm", "__init__.py")):
        print("perfbench: no foamlbm package under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
