"""The timed process of one benchmark run.

``run.py`` writes the inputs and a ``spec.json`` into a work directory and
starts this script in a fresh interpreter, so that ``ru_maxrss`` covers only
the program's work: no input generation and no oracle check happens here.

Each round performs, for every problem of the workload, three operations:

* set-up: ``load_prob_csv`` plus ``load_partitions_csv`` and
  ``coassociation_similarity``, or ``load_similarity_triplets``;
* fit: ``BregmanConsensus(..., threads=1).fit(pi, similarity)``;
* the command line: ``cli.main`` with ``--threads 1`` (``run`` or ``diagnose``).

The first round is a warm-up and is not timed; its outputs are saved for the
checks in ``run.py``.  Timed rounds follow until the next one would overrun
the run length, with at least ``MIN_ROUNDS`` and fewer than 40 of them.  With
``trace`` set, each round also times the public calls inside each layer;
see ``README.md`` for the list.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import bregman_consensus  # noqa: E402
from bregman_consensus import (  # noqa: E402
    BregmanConsensus,
    SolverConfig,
    check_probabilities,
    check_similarity,
    cli,
    coassociation_similarity,
    diagnostics,
    divergence_spec,
    lambda_threshold,
    objective_j,
    run,
)
from bregman_consensus.ensemble_inputs import (  # noqa: E402
    load_partitions_csv,
    load_prob_csv,
    load_similarity_triplets,
)

MIN_ROUNDS = 3
MAX_ROUNDS = 39  # medians only: a tail percentile needs 40 samples or more
PROBE_REPEATS = 25  # repeats of the millisecond-scale divergence probes
BURN_IN = 5  # the diagnose command's default


class Tracer:
    """Spans kept in memory: [name, round, problem, parent, start, end].

    ``span(name)`` always records; ``span(name, detail=True)`` records only
    when tracing, so the untraced run times nothing below an operation.
    """

    def __init__(self, detail: bool):
        self.detail = detail
        self.spans = []
        self._stack = []
        self.where = (0, "")

    @contextlib.contextmanager
    def span(self, name, detail=False):
        if detail and not self.detail:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = [name, *self.where, parent, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def total(self, name, rnd, problem=None):
        """Summed duration of spans called ``name`` in one round."""
        return sum(s[5] - s[4] for s in self.spans
                   if s[0] == name and s[1] == rnd and (problem is None or s[2] == problem))


def _cli_argv(p, workdir):
    paths = p["paths"]
    source = (["--partitions", paths["partitions"]] if "partitions" in paths
              else ["--similarity", paths["similarity"]])
    common = ["--pi", paths["pi"], *source, *p["flags"], "--threads", "1"]
    if p["command"] == "diagnose":
        report = os.path.join(workdir, f"{p['name']}_report.txt")
        return ["diagnose", *common, "--report-out", report]
    return ["run", *common, "--labels-out", os.path.join(workdir, f"{p['name']}_labels.csv")]


def _setup(p, tracer):
    paths = p["paths"]
    parts = None
    with tracer.span("setup"):
        with tracer.span("load_pi", detail=True):
            pi = load_prob_csv(paths["pi"])
        if "partitions" in paths:
            with tracer.span("load_partitions", detail=True):
                parts = load_partitions_csv(paths["partitions"])
            with tracer.span("coassociation", detail=True):
                similarity = coassociation_similarity(parts)
        else:
            with tracer.span("load_triplets", detail=True):
                similarity = load_similarity_triplets(paths["similarity"], n=pi.shape[0])
    return pi, parts, similarity


def _probe_layers(p, pi, parts, similarity, model, tracer, counts):
    """Traced mode: one timed call into each layer at the fitted state."""
    spec = divergence_spec(p["divergence"], pi.shape[1])
    with tracer.span("estimator.check", detail=True):
        pi_c = check_probabilities(pi, spec)
        check_similarity(similarity, pi.shape[0])
    with tracer.span("ensemble_inputs.symmetrized_csr", detail=True):
        similarity.symmetrized_csr()
    config = SolverConfig(divergence=spec, alpha=p["alpha"], lam=p["lam"],
                          epsilon=p["epsilon"], threads=1)
    state = model.state_
    with tracer.span("solver.objective", detail=True):
        objective_j(state, pi_c, similarity, config)
    yl, yr = state.y_left, state.y_right
    g = spec.grad(yr)
    for name, call in (("divergences.grad", lambda: spec.grad(yr)),
                       ("divergences.grad_inv", lambda: spec.grad_inv(g)),
                       ("divergences.bregman", lambda: spec.bregman(yl, yr))):
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        counts[name] = counts.get(name, 0.0) + statistics.median(times)
    if parts is not None:
        tracemalloc.start()
        coassociation_similarity(parts)
        counts["coassociation_alloc_mb"] = (counts.get("coassociation_alloc_mb", 0.0)
                                            + tracemalloc.get_traced_memory()[1] / 2**20)
        tracemalloc.stop()
    if p["command"] == "diagnose":
        _probe_diagnostics(pi_c, similarity, config, tracer, counts)


def _probe_diagnostics(pi, similarity, config, tracer, counts):
    """Replay the diagnose command's pipeline from its public calls."""
    tight = SolverConfig(divergence=config.divergence, alpha=config.alpha, lam=config.lam,
                         epsilon=1e-14, max_iters=config.max_iters, threads=1)
    with tracer.span("diagnostics.record_run", detail=True):
        _, state = run(pi, similarity, config, record_copies=True)
    with tracer.span("diagnostics.reference_run", detail=True):
        _, star = run(pi, similarity, tight)
    counts["diagnostics.reference_iterations"] = (
        counts.get("diagnostics.reference_iterations", 0) + star.iteration)
    counts["diagnostics.snapshots"] = (
        counts.get("diagnostics.snapshots", 0) + len(state.copy_history))
    with tracer.span("diagnostics.qlinear", detail=True):
        diagnostics.qlinear_ratios(state.copy_history, (star.y_left, star.y_right),
                                   burn_in=BURN_IN)
    with tracer.span("diagnostics.delta_j_monitor", detail=True):
        diagnostics.DeltaJMonitor.from_history(star.y_left, state.copy_history,
                                               similarity, config)
    small = 2 * pi.shape[0] * pi.shape[1] <= 200  # the command's size gate
    if small and config.divergence.supports_hessian:
        with tracer.span("diagnostics.hessian", detail=True):
            blocks = diagnostics.hessian_blocks(state, pi, similarity, config)
            diagnostics.check_positive_definite(blocks)
            diagnostics.quadratic_form_identity(blocks, state, pi)
    if small:
        with tracer.span("diagnostics.lambda_threshold", detail=True):
            lambda_threshold(pi, similarity, config, state)


def one_round(problems, workdir, tracer, rnd):
    """Run every problem once; returns the per-problem outcomes.

    The warm-up round (``rnd == 0``) saves its outputs for the checks.  The
    fit's inputs and model are dropped before the command line runs, so the
    command starts from the files alone, as it would for a user.
    """
    outcomes = {}
    for p in problems:
        tracer.where = (rnd, p["name"])
        pi, parts, similarity = _setup(p, tracer)
        with tracer.span("fit"):
            model = BregmanConsensus(divergence=p["divergence"], alpha=p["alpha"],
                                     lam=p["lam"], epsilon=p["epsilon"], threads=1)
            model.fit(pi, similarity)
        counts = {"nnz": similarity.nnz, "iterations": model.n_iter_}
        if tracer.detail:
            _probe_layers(p, pi, parts, similarity, model, tracer, counts)
        if rnd == 0:
            _save_outputs(os.path.join(workdir, f"{p['name']}_outputs.npz"), similarity, model)
        outcome = {"counts": counts, "final_j": model.objective_trace_[-1],
                   "digest": hashlib.sha256(model.labels_.tobytes()
                                            + model.probabilities_.tobytes()).hexdigest()}
        del pi, parts, similarity, model
        out = io.StringIO()
        with tracer.span("cli"), contextlib.redirect_stdout(out):
            outcome["code"] = cli.main(_cli_argv(p, workdir))
        outcome["summary"] = out.getvalue().strip()
        outcomes[p["name"]] = outcome
    return outcomes


def _save_outputs(path, similarity, model):
    np.savez(path, rows=similarity.rows, cols=similarity.cols, vals=similarity.vals,
             labels=model.labels_, probabilities=model.probabilities_,
             trace=np.asarray(model.objective_trace_), y_left=model.state_.y_left,
             y_right=model.state_.y_right, iterations=model.n_iter_,
             converged=model.converged_)


def _median(values):
    return float(statistics.median(values))


def _e2e_metrics(tracer, rounds, peak_rss_mb):
    per = {name: [tracer.total(span, r) for r in rounds]
           for name, span in (("setup_s", "setup"), ("fit_s", "fit"), ("run_s", "cli"))}
    metrics = {name: {"value": _median(v), "unit": "s"} for name, v in per.items()}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    return metrics


TIME_SPANS = {
    "ensemble_inputs.load_pi_s": "load_pi",
    "ensemble_inputs.load_partitions_s": "load_partitions",
    "ensemble_inputs.load_triplets_s": "load_triplets",
    "ensemble_inputs.coassociation_s": "coassociation",
    "ensemble_inputs.symmetrized_csr_s": "ensemble_inputs.symmetrized_csr",
    "estimator.check_s": "estimator.check",
    "diagnostics.record_run_s": "diagnostics.record_run",
    "diagnostics.reference_run_s": "diagnostics.reference_run",
    "diagnostics.delta_j_monitor_s": "diagnostics.delta_j_monitor",
    "diagnostics.qlinear_s": "diagnostics.qlinear",
    "diagnostics.hessian_s": "diagnostics.hessian",
    "diagnostics.lambda_threshold_s": "diagnostics.lambda_threshold",
}
# values each problem records in a round (counts, probe medians, the
# tracemalloc peak), summed over the workload's problems
SUMMED = {
    "ensemble_inputs.nnz": ("nnz", "count"),
    "solver.iterations": ("iterations", "count"),
    "diagnostics.reference_iterations": ("diagnostics.reference_iterations", "count"),
    "diagnostics.snapshots": ("diagnostics.snapshots", "count"),
    "ensemble_inputs.coassociation_alloc_mb": ("coassociation_alloc_mb", "MB"),
    "divergences.grad_s": ("divergences.grad", "s"),
    "divergences.grad_inv_s": ("divergences.grad_inv", "s"),
    "divergences.bregman_s": ("divergences.bregman", "s"),
}


def _layer_metrics(tracer, rounds, outcomes):
    """Per-layer medians over timed rounds; a layer that never runs reads 0."""
    series = {}

    def add(name, value, unit):
        series.setdefault(name, ([], unit))[0].append(value)

    for r in rounds:
        for name, span in TIME_SPANS.items():
            add(name, tracer.total(span, r), "s")
        summed = {}
        for outcome in outcomes[r].values():
            for key, value in outcome["counts"].items():
                summed[key] = summed.get(key, 0) + value
        for name, (key, unit) in SUMMED.items():
            add(name, summed.get(key, 0), unit)
        fit, run_s = tracer.total("fit", r), tracer.total("cli", r)
        iters = summed["iterations"]
        # iteration-weighted objective time: one objective_j per problem
        weighted = sum(tracer.total("solver.objective", r, name) * o["counts"]["iterations"]
                       for name, o in outcomes[r].items()) / iters
        obj_calls = sum(tracer.total("solver.objective", r, name) * (o["counts"]["iterations"] + 1)
                        for name, o in outcomes[r].items())
        add("solver.iter_s", fit / iters, "s")
        add("solver.objective_s", weighted, "s")
        add("solver.objective_share", obj_calls / fit, "ratio")
        add("solver.rest_iter_s", fit / iters - weighted, "s")
        add("cli.rest_s", run_s - tracer.total("setup", r) - fit, "s")
        add("trace.run_s", run_s, "s")
    return {name: {"value": _median(values), "unit": unit}
            for name, (values, unit) in series.items()}


def main(workdir):
    with open(os.path.join(workdir, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if not os.path.realpath(bregman_consensus.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"bregman_consensus imported from {bregman_consensus.__file__}, "
                         f"not from {SRC}")
    problems, seconds = spec["problems"], spec["seconds"]
    tracer = Tracer(detail=spec["trace"])
    ops_per_round = 3 * len(problems)

    warm = one_round(problems, workdir, tracer, rnd=0)
    # the peak of a fresh process that has done the work once; later rounds
    # would add heap fragmentation that grows with the number of rounds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = {0: warm}
    start = time.perf_counter()
    durations = []
    while len(durations) < MAX_ROUNDS:
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_ROUNDS and elapsed + _median(durations) > seconds:
            break
        rnd = len(durations) + 1
        t0 = time.perf_counter()
        outcomes[rnd] = one_round(problems, workdir, tracer, rnd)
        durations.append(time.perf_counter() - t0)
    rounds = list(range(1, len(durations) + 1))

    all_outcomes = [o for r in outcomes.values() for o in r.values()]
    failed = sum(o["code"] != 0 for o in all_outcomes)
    # every timed round must reproduce the warm-up round exactly
    drift = [f"round {r} {name}" for r in rounds for name, o in outcomes[r].items()
             if (o["final_j"], o["digest"], o["summary"])
             != (warm[name]["final_j"], warm[name]["digest"], warm[name]["summary"])]
    metrics = (_layer_metrics(tracer, rounds, outcomes) if spec["trace"]
               else _e2e_metrics(tracer, rounds, peak_rss_mb))
    result = {
        "attempted": ops_per_round * (len(rounds) + 1),
        "failed": failed,
        "rounds": len(rounds),
        "drift": drift,
        "warmup": warm,
        "metrics": metrics,
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if spec["trace"]:
        with open(os.path.join(workdir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "round", "problem", "parent", "start", "end"],
                       "spans": tracer.spans}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
