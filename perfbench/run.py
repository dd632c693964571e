"""Benchmark of the consensus solver: one command, one workload per run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload partitions-dense --seed 1 --seconds 30 --trace 0

The run generates the workload's inputs from ``--seed``, times the program
in a fresh worker process (``worker.py``) for about ``--seconds`` seconds,
checks every output against the benchmark's own computations
(``oracle.py``), and prints one JSON object as its last line of output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Work files go to ``.perfbench_work/`` under the root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np

import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER_TIMEOUT_S = 150  # the whole run, checks included, must end within 180 s


def _problem_spec(inputs, command):
    p = inputs.problem
    return {"name": p.name, "command": command, "divergence": p.divergence,
            "alpha": p.alpha, "lam": p.lam, "epsilon": p.epsilon,
            "flags": p.solver_flags(), "paths": inputs.paths}


def _check_problem(inputs, warm, workdir, command):
    """Every check of one problem's outputs; raises CheckFailed on the first miss."""
    p = inputs.problem
    with np.load(os.path.join(workdir, f"{p.name}_outputs.npz")) as npz:
        out = dict(npz)
    if inputs.partitions is not None:
        want = oracle.coassociation(inputs.partitions)
    else:
        want = inputs.triplets
    oracle.check_similarity((out["rows"], out["cols"], out["vals"]), want)

    pi = oracle.clean_pi(inputs.pi, p.divergence)
    final_j = oracle.objective(out["y_left"], out["y_right"], pi, want, p.divergence,
                               p.alpha, p.lam)
    oracle.check_trace(out["trace"], final_j)
    oracle.require(bool(out["converged"]) and int(out["iterations"]) < 1000,
                   "fit did not converge before max_iters")
    oracle.require(warm["code"] == 0, f"{command} exited with {warm['code']}")
    oracle.check_accuracy(out["labels"], inputs.pi, inputs.truth)
    if command == "run":
        oracle.require(warm["summary"].startswith("converged=true "),
                       f"run summary {warm['summary']!r}")
        labels, probs = oracle.parse_labels_file(
            os.path.join(workdir, f"{p.name}_labels.csv"), p.k)
        oracle.check_labels(labels, probs, out["labels"], out["probabilities"])
    else:
        report = oracle.parse_report(os.path.join(workdir, f"{p.name}_report.txt"))
        oracle.require(report.get("converged") == "true", "diagnose run did not converge")
        oracle.check_report(report, pi, p.divergence, desk=2 * p.n * p.k <= 200)


def _threads_identity(inputs, workdir):
    """Outside timing: --threads 2 writes the same labels file, byte for byte."""
    from bregman_consensus import cli

    p = inputs.problem
    source = (["--partitions", inputs.paths["partitions"]] if inputs.partitions is not None
              else ["--similarity", inputs.paths["similarity"]])
    one = os.path.join(workdir, f"{p.name}_labels.csv")
    two = os.path.join(workdir, f"{p.name}_labels_t2.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--pi", inputs.paths["pi"], *source, *p.solver_flags(),
                         "--threads", "2", "--labels-out", two])
    if code == 0:
        with open(one, "rb") as a, open(two, "rb") as b:
            oracle.require(a.read() == b.read(), "--threads 2 labels differ from --threads 1")
    return code


def prepare(workdir, problems, seed, command, seconds, trace):
    """Write the seeded inputs and the worker's spec.json; returns the inputs."""
    shutil.rmtree(workdir, ignore_errors=True)
    generated = [workloads.write(workloads.generate(p, seed), workdir) for p in problems]
    with open(os.path.join(workdir, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump({"problems": [_problem_spec(g, command) for g in generated],
                   "seconds": seconds, "trace": bool(trace)}, fh, indent=1)
    return generated


def measure(workdir, timeout=WORKER_TIMEOUT_S):
    """Run the worker in a fresh process; returns its result, or None if it failed."""
    # one solver thread, and no BLAS or OpenMP pool competing for the 2nd core
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), workdir],
                          cwd=ROOT, env=env, timeout=timeout)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return None
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bregman_consensus", "__init__.py")):
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}-t{args.trace}")
    command = "diagnose" if args.workload == "diagnose" else "run"
    generated = prepare(workdir, workloads.WORKLOADS[args.workload], args.seed, command,
                        args.seconds, args.trace)
    result = measure(workdir)
    if result is None:
        return 1

    attempted, failed = result["attempted"], result["failed"]
    checked = True
    for g in generated:
        try:
            _check_problem(g, result["warmup"][g.problem.name], workdir, command)
            if command == "run":
                attempted += 1
                failed += _threads_identity(g, workdir) != 0
        except oracle.CheckFailed as exc:
            print(f"check failed on {g.problem.name}: {exc}", file=sys.stderr)
            checked = False
    for line in result["drift"]:
        print(f"check failed: {line} differs from the warm-up round", file=sys.stderr)
    correct = checked and not result["drift"] and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
