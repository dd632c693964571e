"""Command-line frontend.

Three subcommands:

* ``run``      - ingest a probability CSV plus either a partition CSV or a
  similarity triplet file, solve, and write labels (and optionally an
  objective trace and a diagnostics report).
* ``generate`` - sample a synthetic dataset, train the built-in classifier
  on a small labeled fraction, cluster the target set, and write the pi /
  partition / truth files the ``run`` command consumes.
* ``diagnose`` - run the solver capturing per-iteration snapshots and emit
  the convergence-theory report (rate ratios, descent monitors, Hessian
  positive-definiteness where closed forms exist).

Exit codes: 0 success, 2 input error or non-finite objective, 3 hit the
iteration cap before the tolerance fired (outputs are still written), 4
Hessian-only diagnosis asked for a divergence without closed-form blocks.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import sys

import numpy as np

from . import diagnostics as diag
from . import solver
from .datasets import synthetic_problem
from .divergences import DivergenceKind, divergence_spec
from .ensemble_inputs import (
    SimilarityMatrix,
    array_rows,
    coassociation_similarity,
    load_labels,
    load_partitions_csv,
    load_prob_csv,
    load_similarity_triplets,
    save_labels_txt,
    save_matrix_csv,
    sparsify,
)
from .estimator import check_probabilities
from .exceptions import (BregmanConsensusError, InsufficientTraceError,
                         UnsupportedDivergenceError)
from .solver import SolverConfig, lambda_threshold

_DIVERGENCE_TOKENS = tuple(kind.value for kind in DivergenceKind)
_REFERENCE_EPSILON = 1e-14  # tolerance of the diagnostics' converged reference


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--divergence", choices=_DIVERGENCE_TOKENS, default="gen-i")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--epsilon", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--sparsify", type=float, default=0.0,
                   help="drop similarity entries below this threshold")
    p.add_argument("--threads", type=int, default=1,
                   help="must be at least 1; otherwise ignored, since the solve runs in "
                        "one thread")


def _add_input_flags(p: argparse.ArgumentParser):
    p.add_argument("--pi", required=True, help="class-probability CSV (n rows, k columns)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--partitions", help="partition CSV (n rows, one column per clusterer)")
    group.add_argument("--similarity", help="triplet file with 'i,j,s' lines")


@functools.cache  # parse_args leaves the parser as it is: one per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bregman-consensus",
        description="Consensus labeling from classifier and cluster ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve and write labels")
    _add_input_flags(p_run)
    p_run.add_argument("--truth", help="optional true-label file; prints accuracy")
    _add_solver_flags(p_run)
    p_run.add_argument("--labels-out", default="labels.csv")
    p_run.add_argument("--trace-out", help="per-iteration objective CSV (iteration,J)")
    p_run.add_argument("--diagnostics-out", help="write the diagnostics report here too")

    p_gen = sub.add_parser("generate", help="write synthetic pi/partition/truth files")
    p_gen.add_argument("--kind", choices=("half-moon", "circles"), required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--noise", type=float, default=0.1)
    p_gen.add_argument("--label-fraction", type=float, default=0.02)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-dir", required=True)

    p_diag = sub.add_parser("diagnose", help="emit convergence diagnostics")
    _add_input_flags(p_diag)
    _add_solver_flags(p_diag)
    p_diag.add_argument("--burn-in", type=int, default=5)
    p_diag.add_argument("--report-out", default="diagnostics.txt")
    p_diag.add_argument("--trace-out", help="per-iteration CSV (iteration,J,delta_J,ratio)")
    p_diag.add_argument("--hessian-only", action="store_true",
                        help="fail (exit 4) instead of skipping when blocks are unavailable")
    return parser


def _load_problem(args):
    pi = load_prob_csv(args.pi)
    spec = divergence_spec(args.divergence, pi.shape[1])
    pi = check_probabilities(pi, spec)
    if args.partitions:
        parts = load_partitions_csv(args.partitions)
        if parts.shape[0] != pi.shape[0]:
            raise BregmanConsensusError(
                f"partition file has {parts.shape[0]} rows, pi has {pi.shape[0]}")
        similarity = coassociation_similarity(parts)
    else:
        similarity = load_similarity_triplets(args.similarity, n=pi.shape[0])
    similarity = sparsify(similarity, args.sparsify)
    config = SolverConfig(divergence=spec, alpha=args.alpha, lam=args.lam,
                          epsilon=args.epsilon, max_iters=args.max_iters, threads=args.threads)
    return pi, similarity, config


def _write_labels(path, labeling):
    header = "index,label," + ",".join(f"p{i + 1}" for i in range(labeling.probabilities.shape[1]))
    rows = ([i, label, *p] for i, (label, p) in enumerate(
        array_rows(labeling.labels, labeling.probabilities)))
    save_matrix_csv(path, rows, header=header)


def _summary_line(labeling, trace):
    return (f"converged={'true' if labeling.converged else 'false'} "
            f"iters={labeling.iterations_used} J={trace[-1]!r}")


def _recorded_solve(pi, similarity, config):
    """``config``'s run and the 1e-14 reference run, read off one recorded solve.

    Both are ``(labeling, state)`` pairs.  The solve runs at the tighter of
    the two tolerances, so it goes as far as both; ``max_iters`` caps both,
    and a capped reference says so in its ``converged``.
    """
    tight = dataclasses.replace(config, epsilon=min(config.epsilon, _REFERENCE_EPSILON))
    _, record = solver.run(pi, similarity, tight, record_copies=True)
    reference = solver.prefix(record, dataclasses.replace(config, epsilon=_REFERENCE_EPSILON))
    return solver.prefix(record, config), reference


def _diagnostics_entries(recorded, reference, pi, similarity, config, hessian_only, burn_in):
    """Report entries and trace rows from a recorded run and its reference.

    ``recorded`` is the ``(labeling, state)`` of a ``record_copies=True`` run
    with ``config``, and ``reference`` that of a run at ``epsilon=1e-14``,
    as :func:`_recorded_solve` gives them.  With ``hessian_only``, skipped
    Hessian checks raise instead of being reported.  A reference that hit
    the iteration cap is reported with its iteration count, and the rate,
    whose ratios would be measured against it, as skipped; so is the rate
    of a history too short for ``burn_in``.  A skipped rate leaves the trace
    rows without a ratio.
    """
    record, state = recorded
    star_run, star = reference
    rate = None
    if star_run.converged:
        with contextlib.suppress(InsufficientTraceError):
            rate = diag.qlinear_ratios(state.copy_history, (star.y_left, star.y_right),
                                       burn_in=burn_in)
    monitor = diag.DeltaJMonitor.from_history(star.y_left, state.copy_history,
                                              similarity, config)
    entries = [
        ("divergence", config.divergence.kind.value),
        ("n", pi.shape[0]),
        ("k", pi.shape[1]),
        ("alpha", float(config.alpha)),
        ("lambda", float(config.lam)),
        ("iterations", record.iterations_used),
        ("converged", record.converged),
        ("final_objective", float(state.objective_trace[-1])),
        ("descent_violation", diag.descent_violation(state.objective_trace)),
        ("delta_j_monotone", monitor.is_monotone()),
    ]
    if not star_run.converged:
        entries += [
            ("reference_converged", False),
            ("reference_iterations", star_run.iterations_used),
            ("rate", "skipped=reference"),
        ]
    elif rate is None:
        entries.append(("rate", "skipped=short"))
    else:
        entries += [
            ("qlinear", rate.qlinear),
            ("rho_estimate", float(rate.rho_estimate)),
            ("ratios_checked", len(rate.past_burn_in(burn_in))),
        ]

    supported = config.divergence.supports_hessian
    small = diag.hessian_fits(*pi.shape)
    if supported and small:
        blocks = diag.hessian_blocks(state, pi, similarity, config)
        pd, min_eig = diag.check_positive_definite(blocks)
        value, expected, residual = diag.quadratic_form_identity(blocks, state, pi)
        entries += [
            ("pd", pd),
            ("min_eigenvalue", float(min_eig)),
            ("quadratic_form_value", float(value)),
            ("quadratic_form_expected", float(expected)),
            ("quadratic_form_residual", float(residual)),
        ]
    else:
        reason = "unsupported" if not supported else "size"
        if hessian_only:
            raise UnsupportedDivergenceError(
                f"hessian checks skipped ({reason}) for {config.divergence.kind.value}")
        entries.append(("hessian", f"skipped={reason}"))
    if small:
        entries.append(("lambda_hat", float(lambda_threshold(pi, similarity, config, state))))

    ratio_at = {} if rate is None else dict(zip(rate.indices, rate.ratios))
    trace_rows = []
    for t, value in enumerate(state.objective_trace):
        ratio = repr(ratio_at[t]) if t in ratio_at else ""
        trace_rows.append(f"{t},{value!r},{monitor.values[t]!r},{ratio}")
    return entries, trace_rows


def _cmd_run(args) -> int:
    pi, similarity, config = _load_problem(args)
    truth = None
    if args.truth:  # checked before the solve, so a bad file leaves no output behind
        truth = load_labels(args.truth)
        if truth.shape[0] != pi.shape[0]:
            raise BregmanConsensusError(
                f"truth file has {truth.shape[0]} labels, expected {pi.shape[0]}")
    if args.diagnostics_out:
        (labeling, state), reference = _recorded_solve(pi, similarity, config)
    else:
        labeling, state = solver.run(pi, similarity, config)
    _write_labels(args.labels_out, labeling)
    if args.trace_out:
        save_matrix_csv(args.trace_out, enumerate(state.objective_trace))
    if args.diagnostics_out:
        entries, _ = _diagnostics_entries((labeling, state), reference, pi, similarity, config,
                                          False, burn_in=5)
        with open(args.diagnostics_out, "w", encoding="utf-8") as fh:
            fh.write(diag.render_report(entries))
    line = _summary_line(labeling, state.objective_trace)
    if truth is not None:
        accuracy = float(np.mean(truth == labeling.labels))
        line += f" accuracy={accuracy!r}"
    print(line)
    return 0 if labeling.converged else 3


def _cmd_generate(args) -> int:
    problem = synthetic_problem(args.kind, args.n, args.noise, args.label_fraction, args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    save_matrix_csv(os.path.join(args.out_dir, "pi.csv"), problem.pi)
    save_matrix_csv(os.path.join(args.out_dir, "partitions.csv"), problem.partitions)
    save_labels_txt(os.path.join(args.out_dir, "truth.csv"), problem.truth)
    print(f"wrote pi.csv partitions.csv truth.csv to {args.out_dir} "
          f"(targets={problem.pi.shape[0]} train={problem.train_count})")
    return 0


def _cmd_diagnose(args) -> int:
    pi, similarity, config = _load_problem(args)
    recorded, reference = _recorded_solve(pi, similarity, config)
    entries, trace_rows = _diagnostics_entries(recorded, reference, pi, similarity, config,
                                               args.hessian_only, burn_in=args.burn_in)
    with open(args.report_out, "w", encoding="utf-8") as fh:
        fh.write(diag.render_report(entries))
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(trace_rows) + "\n")
    print(f"report written to {args.report_out}")
    return 0 if recorded[0].converged else 3


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "generate": _cmd_generate, "diagnose": _cmd_diagnose}
    try:
        return handlers[args.command](args)
    except UnsupportedDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (BregmanConsensusError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
