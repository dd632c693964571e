"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads diagnose ...] [--trace 0]

For every workload and end-to-end metric this prints the median and the
quartiles of the per-run values (``statistics.quantiles(values, n=4)``) and
the spread (Q3 - Q1) / median, and marks a spread that is not below a third
of the metric's bound in ``BENCHMARK.json``.  Results are also written to
``.perfbench_work/steadiness-s<first>-<last>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            result["wall_s"] = time.perf_counter() - start
            runs.append(result)
            print(f"{workload} seed={seed} wall={result['wall_s']:.1f}s "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- not below bound/3"
            print(f"  {name:40s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f}{flag}", flush=True)
        report[workload] = {"seeds": args.seeds, "runs": runs, "summary": summary}
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    name = f"steadiness-s{args.seeds[0]}-{args.seeds[-1]}-t{args.trace}.json"
    with open(os.path.join(ROOT, ".perfbench_work", name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
