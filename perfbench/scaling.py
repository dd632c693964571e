"""Reference figures of the partition path at several sizes.

Usage, from the repository root::

    python3 perfbench/scaling.py [--sizes 1000 2000 4000] [--seed 1]

Runs the ``partitions-dense`` problem shape at each n through the same worker
as the benchmark (warm-up, then three timed rounds) and prints the median
``run_s`` and ``fit_s`` and the worker's ``peak_rss_mb``.  The dense n x n
co-association build makes memory grow as n^2; keep n at a size whose
arrays fit comfortably in the machine's memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import run
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1000, 2000, 4000])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    base = workloads.WORKLOADS["partitions-dense"][0]
    print("n,nnz,iterations,run_s,fit_s,peak_rss_mb")
    for n in args.sizes:
        workdir = os.path.join(run.ROOT, ".perfbench_work", f"scaling-n{n}")
        run.prepare(workdir, [dataclasses.replace(base, n=n)], args.seed, "run",
                    seconds=0, trace=False)
        result = run.measure(workdir, timeout=1200)  # n = 4000 takes minutes
        if result is None:
            return 1
        m, counts = result["metrics"], result["warmup"][base.name]["counts"]
        print(f"{n},{counts['nnz']},{counts['iterations']},{m['run_s']['value']:.3f},"
              f"{m['fit_s']['value']:.3f},{m['peak_rss_mb']['value']:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
