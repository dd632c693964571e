"""Command-line behaviour: exit codes, file outputs, determinism."""

import argparse

import numpy as np
import pytest

from bregman_consensus import ensemble_inputs
from bregman_consensus.cli import main
from bregman_consensus.ensemble_inputs import (SimilarityMatrix, load_prob_csv, save_matrix_csv,
                                               save_similarity_triplets)
from bregman_consensus.solver import Labeling

from conftest import ALL_TOKENS, random_pi, random_similarity, traced_peak


@pytest.fixture
def problem_files(tmp_path):
    code = main(["generate", "--kind", "half-moon", "--n", "120", "--noise", "0.1",
                 "--label-fraction", "0.05", "--seed", "3",
                 "--out-dir", str(tmp_path / "data")])
    assert code == 0
    d = tmp_path / "data"
    return d / "pi.csv", d / "partitions.csv", d / "truth.csv"


def _run_args(pi, parts, tmp_path, tag, *extra):
    return ["run", "--pi", str(pi), "--partitions", str(parts),
            "--labels-out", str(tmp_path / f"labels_{tag}.csv"),
            "--trace-out", str(tmp_path / f"trace_{tag}.csv"), *extra]


class TestGenerate:
    def test_files_and_shapes(self, problem_files):
        pi_path, parts_path, truth_path = problem_files
        pi = load_prob_csv(pi_path)
        assert pi.shape == (114, 2)  # 120 minus 6 stratified training points
        parts = load_prob_csv(parts_path)
        assert parts.shape == (114, 5)

    def test_same_seed_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            main(["generate", "--kind", "circles", "--n", "80", "--noise", "0.05",
                  "--label-fraction", "0.1", "--seed", "11",
                  "--out-dir", str(tmp_path / d)])
        for name in ("pi.csv", "partitions.csv", "truth.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_files_match_a_whole_list_oracle(self, tmp_path):
        from bregman_consensus.datasets import synthetic_problem

        main(["generate", "--kind", "half-moon", "--n", "1100", "--noise", "0.1",
              "--label-fraction", "0.05", "--seed", "4", "--out-dir", str(tmp_path)])
        problem = synthetic_problem("half-moon", 1100, 0.1, 0.05, 4)
        assert problem.pi.shape[0] > ensemble_inputs._WRITE_ROWS  # more than one block
        for name, array in (("pi.csv", problem.pi), ("partitions.csv", problem.partitions),
                            ("truth.csv", problem.truth[:, None])):
            assert (tmp_path / name).read_text() == "".join(
                ",".join(map(repr, row)) + "\n" for row in array.tolist())


class TestRun:
    def test_summary_line_and_accuracy(self, problem_files, tmp_path, capsys):
        pi, parts, truth = problem_files
        code = main(_run_args(pi, parts, tmp_path, "x", "--truth", str(truth),
                              "--alpha", "0.0001", "--lambda", "0.1"))
        out = capsys.readouterr().out.strip()
        assert code == 0
        fields = dict(f.split("=") for f in out.split())
        assert fields["converged"] == "true"
        assert int(fields["iters"]) >= 1
        float(fields["J"])
        assert 0.0 <= float(fields["accuracy"]) <= 1.0

    def test_alpha_zero_labels_are_argmax_of_pi(self, problem_files, tmp_path):
        pi, parts, _ = problem_files
        main(_run_args(pi, parts, tmp_path, "z", "--alpha", "0.0"))
        rows = np.loadtxt(tmp_path / "labels_z.csv", delimiter=",", skiprows=1)
        expected = load_prob_csv(pi).argmax(axis=1)
        np.testing.assert_array_equal(rows[:, 1].astype(int), expected)

    def test_labels_file_round_trips_probabilities(self, problem_files, tmp_path):
        pi, parts, _ = problem_files
        main(_run_args(pi, parts, tmp_path, "r", "--alpha", "0.5"))
        rows = load_prob_csv(tmp_path / "labels_r.csv")
        probs = rows[:, 2:]
        np.testing.assert_array_equal(rows[:, 1].astype(int), probs.argmax(axis=1))
        # repr formatting round-trips exactly: re-parsed argmax and re-written
        # file are byte-identical
        again = tmp_path / "again.csv"
        save_matrix_csv(again, probs)
        np.testing.assert_array_equal(load_prob_csv(again), probs)

    @pytest.mark.parametrize("source", ["partitions", "pairs"])
    def test_labels_file_matches_in_memory_labeling_exactly(self, request, tmp_path, source):
        from bregman_consensus.divergences import divergence_spec
        from bregman_consensus.ensemble_inputs import coassociation_similarity, load_partitions_csv
        from bregman_consensus.estimator import check_probabilities
        from bregman_consensus.solver import SolverConfig, run

        if source == "partitions":  # gen-i, k = 2
            pi_path, parts_path, _ = request.getfixturevalue("problem_files")
            argv = _run_args(pi_path, parts_path, tmp_path, "exact")
            token, pi = "gen-i", load_prob_csv(pi_path)
            similarity = coassociation_similarity(load_partitions_csv(parts_path))
        else:  # stored pairs, kl, k = 4
            rng = np.random.default_rng(21)
            token, pi, similarity = "kl", random_pi("kl", rng, 50, 4), random_similarity(rng, 50)
            save_matrix_csv(tmp_path / "pi.csv", pi)
            save_similarity_triplets(tmp_path / "sim.csv", similarity)
            argv = ["run", "--pi", str(tmp_path / "pi.csv"), "--similarity",
                    str(tmp_path / "sim.csv"), "--divergence", token,
                    "--labels-out", str(tmp_path / "labels_exact.csv")]
        assert main([*argv, "--alpha", "0.3", "--lambda", "0.2", "--threads", "1"]) == 0
        parsed = load_prob_csv(tmp_path / "labels_exact.csv")

        spec = divergence_spec(token, pi.shape[1])
        labeling, _ = run(check_probabilities(pi, spec), similarity,
                          SolverConfig(divergence=spec, alpha=0.3, lam=0.2, threads=1))
        assert parsed.shape == (pi.shape[0], 2 + pi.shape[1])
        np.testing.assert_array_equal(parsed[:, 0], np.arange(pi.shape[0]))
        np.testing.assert_array_equal(parsed[:, 1].astype(int), labeling.labels)
        np.testing.assert_array_equal(parsed[:, 2:], labeling.probabilities)

    def test_sparsified_labels_file_matches_library_calls(self, problem_files, tmp_path):
        from bregman_consensus.cli import _write_labels
        from bregman_consensus.divergences import divergence_spec
        from bregman_consensus.ensemble_inputs import (coassociation_similarity,
                                                       load_partitions_csv, sparsify)
        from bregman_consensus.estimator import check_probabilities
        from bregman_consensus.solver import SolverConfig, run

        pi_path, parts_path, _ = problem_files
        main(_run_args(pi_path, parts_path, tmp_path, "sp5", "--alpha", "0.3",
                       "--sparsify", "0.5"))
        spec = divergence_spec("gen-i", 2)
        pi = check_probabilities(load_prob_csv(pi_path), spec)
        similarity = sparsify(coassociation_similarity(load_partitions_csv(parts_path)), 0.5)
        assert 0 < similarity.nnz
        labeling, _ = run(pi, similarity, SolverConfig(divergence=spec, alpha=0.3))
        _write_labels(tmp_path / "library.csv", labeling)
        assert ((tmp_path / "labels_sp5.csv").read_bytes()
                == (tmp_path / "library.csv").read_bytes())

    def test_sparsify_zero_is_byte_identical(self, problem_files, tmp_path):
        pi, parts, _ = problem_files
        main(_run_args(pi, parts, tmp_path, "plain", "--alpha", "0.7"))
        main(_run_args(pi, parts, tmp_path, "sp0", "--alpha", "0.7", "--sparsify", "0"))
        assert ((tmp_path / "labels_plain.csv").read_bytes()
                == (tmp_path / "labels_sp0.csv").read_bytes())
        assert ((tmp_path / "trace_plain.csv").read_bytes()
                == (tmp_path / "trace_sp0.csv").read_bytes())

    def test_thread_count_is_byte_identical(self, problem_files, tmp_path):
        pi, parts, _ = problem_files
        main(_run_args(pi, parts, tmp_path, "t1", "--alpha", "0.7", "--threads", "1"))
        main(_run_args(pi, parts, tmp_path, "t4", "--alpha", "0.7", "--threads", "4"))
        assert ((tmp_path / "labels_t1.csv").read_bytes()
                == (tmp_path / "labels_t4.csv").read_bytes())

    @pytest.mark.parametrize("command", ["run", "diagnose"])
    def test_seed_is_rejected(self, command, tmp_path):
        # only generate draws random numbers; run and diagnose take no seed
        with pytest.raises(SystemExit) as exc:
            main([command, "--pi", str(tmp_path / "pi.csv"),
                  "--partitions", str(tmp_path / "parts.csv"), "--seed", "1"])
        assert exc.value.code == 2

    def test_similarity_triplet_input(self, tmp_path, rng):
        pi = random_pi("gen-i", rng, 8, 2)
        save_matrix_csv(tmp_path / "pi.csv", pi)
        save_similarity_triplets(tmp_path / "sim.txt", random_similarity(rng, 8))
        code = main(["run", "--pi", str(tmp_path / "pi.csv"),
                     "--similarity", str(tmp_path / "sim.txt"),
                     "--labels-out", str(tmp_path / "labels.csv")])
        assert code == 0

    def test_malformed_csv_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "pi.csv"
        bad.write_text("0.3,0.7\n0.4,nope\n")
        parts = tmp_path / "parts.csv"
        parts.write_text("0\n1\n")
        code = main(["run", "--pi", str(bad), "--partitions", str(parts),
                     "--labels-out", str(tmp_path / "labels.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "pi.csv:2" in err

    def test_non_convergence_exits_3_but_writes(self, problem_files, tmp_path):
        pi, parts, _ = problem_files
        code = main(_run_args(pi, parts, tmp_path, "cap", "--alpha", "0.7",
                              "--max-iters", "2", "--epsilon", "1e-14"))
        assert code == 3
        assert (tmp_path / "labels_cap.csv").exists()


class TestDiagnose:
    def _diag(self, tmp_path, rng, token, n=5, extra=()):
        pi = random_pi(token, rng, n, 2)
        save_matrix_csv(tmp_path / "pi.csv", pi)
        save_similarity_triplets(tmp_path / "sim.txt", random_similarity(rng, n))
        report = tmp_path / f"report_{token}.txt"
        trace = tmp_path / f"trace_{token}.csv"
        code = main(["diagnose", "--pi", str(tmp_path / "pi.csv"),
                     "--similarity", str(tmp_path / "sim.txt"),
                     "--divergence", token, "--alpha", "0.8", "--lambda", "0.5",
                     "--report-out", str(report), "--trace-out", str(trace), *extra])
        return code, report, trace

    def test_kl_report_contains_pd_and_qlinear(self, tmp_path, rng):
        code, report, trace = self._diag(tmp_path, rng, "kl")
        assert code == 0
        text = report.read_text()
        assert "pd=true" in text
        assert "qlinear=true" in text
        assert "lambda_hat=" in text

    def test_euclidean_skips_hessian_but_reports_rate(self, tmp_path, rng):
        code, report, _ = self._diag(tmp_path, rng, "euclidean")
        assert code == 0
        text = report.read_text()
        assert "hessian=skipped=unsupported" in text
        assert "qlinear=" in text

    def test_hessian_only_unsupported_exits_4(self, tmp_path, rng):
        code, _, _ = self._diag(tmp_path, rng, "euclidean", extra=("--hessian-only",))
        assert code == 4

    def test_trace_has_iterations_plus_one_rows(self, tmp_path, rng):
        code, report, trace = self._diag(tmp_path, rng, "gen-i")
        assert code == 0
        iters = int(dict(line.split("=") for line in
                         report.read_text().strip().splitlines())["iterations"])
        rows = trace.read_text().strip().splitlines()
        assert len(rows) == iters + 1


def test_missing_file_exits_2(tmp_path, capsys):
    code = main(["run", "--pi", str(tmp_path / "absent.csv"),
                 "--partitions", str(tmp_path / "p.csv"),
                 "--labels-out", str(tmp_path / "l.csv")])
    assert code == 2


def test_partition_rows_other_than_pi_rows_exit_2(tmp_path, capsys):
    (tmp_path / "pi.csv").write_text("0.3,0.7\n0.6,0.4\n0.5,0.5\n")
    (tmp_path / "parts.csv").write_text("0,1\n1,1\n")
    code = main(["run", "--pi", str(tmp_path / "pi.csv"),
                 "--partitions", str(tmp_path / "parts.csv"),
                 "--labels-out", str(tmp_path / "labels.csv")])
    assert code == 2
    assert "partition file has 2 rows, pi has 3" in capsys.readouterr().err
    assert not (tmp_path / "labels.csv").exists()


def test_truth_of_another_length_exits_2(tmp_path, capsys):
    (tmp_path / "pi.csv").write_text("0.3,0.7\n0.6,0.4\n0.5,0.5\n")
    (tmp_path / "sim.txt").write_text("0,1,0.5\n1,2,0.9\n")
    (tmp_path / "truth.csv").write_text("0\n1\n")
    code = main(["run", "--pi", str(tmp_path / "pi.csv"),
                 "--similarity", str(tmp_path / "sim.txt"), "--truth", str(tmp_path / "truth.csv"),
                 "--labels-out", str(tmp_path / "labels.csv")])
    assert code == 2
    assert "truth file has 2 labels, expected 3" in capsys.readouterr().err


def test_truth_of_another_length_writes_no_output(tmp_path, capsys):
    # the truth file used to be read after the solve, once every output was on disk
    (tmp_path / "pi.csv").write_text("0.3,0.7\n0.6,0.4\n0.5,0.5\n")
    (tmp_path / "sim.txt").write_text("0,1,0.5\n1,2,0.9\n")
    (tmp_path / "truth.csv").write_text("0\n1\n")
    outputs = [tmp_path / name for name in ("labels.csv", "trace.csv", "report.txt")]
    code = main(["run", "--pi", str(tmp_path / "pi.csv"),
                 "--similarity", str(tmp_path / "sim.txt"), "--truth", str(tmp_path / "truth.csv"),
                 "--labels-out", str(outputs[0]), "--trace-out", str(outputs[1]),
                 "--diagnostics-out", str(outputs[2])])
    assert code == 2
    assert "truth file has 2 labels, expected 3" in capsys.readouterr().err
    assert not any(path.exists() for path in outputs)


def test_diagnostics_out_reuses_the_main_solve(problem_files, tmp_path, monkeypatch):
    import dataclasses

    from bregman_consensus import cli, solver
    from bregman_consensus import diagnostics as diag

    pi, parts, _ = problem_files
    report = tmp_path / "report.txt"
    argv = _run_args(pi, parts, tmp_path, "d", "--alpha", "0.001", "--threads", "1",
                     "--diagnostics-out", str(report))
    pi_arr, similarity, config = cli._load_problem(cli.build_parser().parse_args(argv))
    recorded = solver.run(pi_arr, similarity, config, record_copies=True)
    reference = solver.run(pi_arr, similarity, dataclasses.replace(config, epsilon=1e-14))
    fresh = reference[1]
    assert fresh.iteration > recorded[1].iteration  # the reference goes past the main solve

    sweeps = []
    real_right = solver._Problem.right

    def counting_right(self, *args):
        sweeps.append(1)
        return real_right(self, *args)

    monkeypatch.setattr(solver._Problem, "right", counting_right)
    assert main(argv) == 0
    # one recorded solve, as long as the fresh 1e-14 run
    assert len(sweeps) == fresh.iteration
    monkeypatch.undo()

    # the report equals one built from a separate record_copies=True run
    entries, _ = cli._diagnostics_entries(recorded, reference, pi_arr, similarity, config, None,
                                          burn_in=5)
    assert report.read_bytes() == diag.render_report(entries).encode("utf-8")


@pytest.mark.parametrize("token", ALL_TOKENS)
def test_stored_pair_outputs_match_the_row_kernel_bytewise(tmp_path, monkeypatch, capsys, token):
    # the operator reads the canonical CSR through its CSC view; S is symmetric,
    # so each y_i adds the same terms in the same order as the row-major CSR did
    rng = np.random.default_rng(ALL_TOKENS.index(token))
    n, k = 24, 4  # 2 n k = 192: the Hessian checks fit
    save_matrix_csv(tmp_path / "pi.csv", random_pi(token, rng, n, k))
    save_similarity_triplets(tmp_path / "sim.csv", random_similarity(rng, n, density=0.3))
    save_matrix_csv(tmp_path / "truth.csv", rng.integers(0, k, n))
    source = ["--pi", str(tmp_path / "pi.csv"), "--similarity", str(tmp_path / "sim.csv"),
              "--divergence", token, "--alpha", "0.8", "--lambda", "0.5"]
    commands = {
        "converged": ["run", *source, "--truth", str(tmp_path / "truth.csv")],
        "capped": ["run", *source, "--truth", str(tmp_path / "truth.csv"), "--max-iters", "5"],
        "diagnose": ["diagnose", *source],
    }

    def outputs():  # each kernel writes the same paths, which stdout names
        got = {}
        for case, argv in commands.items():
            files = [tmp_path / f"{case}_{name}"
                     for name in ("labels.csv", "trace.csv", "report.txt")]
            written = (["--labels-out", str(files[0])] if argv[0] == "run"
                       else ["--report-out", str(files[2])])
            code = main([*argv, *written, "--trace-out", str(files[1])])
            got[case] = (code, capsys.readouterr().out,
                         [path.read_bytes() for path in files if path.exists()])
        return got

    real = ensemble_inputs._symmetric_csr
    monkeypatch.setattr(ensemble_inputs, "_symmetric_csr", lambda similarity: real(similarity).T)
    assert random_similarity(rng, 3).operator._matrix.format == "csr"  # .T.T: the row kernel
    rows = outputs()
    monkeypatch.undo()
    assert random_similarity(rng, 3).operator._matrix.format == "csc"
    columns = outputs()
    assert rows["converged"][0] == 0 and rows["capped"][0] == 3 and rows["diagnose"][0] == 0
    report = rows["diagnose"][2][1].decode()
    assert "hessian=skipped=size" not in report and "lambda_hat=" in report
    assert columns == rows


# the 1e-14 reference stops after the run (continued), before it (snapshot),
# or with it at the iteration cap
_REFERENCE_BRANCHES = {
    "continued": ("--epsilon", "1e-10"),
    "snapshot": ("--epsilon", "1e-16"),
    "capped": ("--epsilon", "1e-10", "--max-iters", "8"),
}
_OUTPUTS = {"diagnose": ("--report-out", "--trace-out"),
            "run": ("--labels-out", "--trace-out", "--diagnostics-out")}


@pytest.mark.parametrize("command", sorted(_OUTPUTS))
@pytest.mark.parametrize("branch", sorted(_REFERENCE_BRANCHES))
def test_reference_outputs_match_a_second_solve_bytewise(problem_files, tmp_path, monkeypatch,
                                                         command, branch):
    import dataclasses

    from bregman_consensus import cli, solver

    from conftest import two_solve_reference

    pi, parts, _ = problem_files
    argv = [command, "--pi", str(pi), "--partitions", str(parts), "--alpha", "0.001",
            *_REFERENCE_BRANCHES[branch]]

    def outputs(tag):
        paths = [tmp_path / f"{tag}{flag}" for flag in _OUTPUTS[command]]
        code = main(argv + [a for flag, path in zip(_OUTPUTS[command], paths)
                            for a in (flag, str(path))])
        return code, [path.read_bytes() for path in paths]

    pi_arr, similarity, config = cli._load_problem(cli.build_parser().parse_args(argv))
    _, recorded = solver.run(pi_arr, similarity, config)
    _, fresh = solver.run(pi_arr, similarity, dataclasses.replace(config, epsilon=1e-14))
    if recorded.iteration == config.max_iters:
        taken = "capped"
    elif fresh.iteration > recorded.iteration:
        taken = "continued"
    else:
        taken = "snapshot" if fresh.iteration < recorded.iteration else "final state"
    assert taken == branch

    one_solve = outputs("one_solve")
    monkeypatch.setattr(cli, "_recorded_solve", two_solve_reference)
    assert outputs("two_solves") == one_solve
    assert one_solve[0] == (3 if branch == "capped" else 0)


def test_negative_burn_in_exits_2(problem_files, tmp_path, capsys):
    pi, parts, _ = problem_files
    code = main(["diagnose", "--pi", str(pi), "--partitions", str(parts), "--alpha", "0.001",
                 "--burn-in", "-1", "--report-out", str(tmp_path / "report.txt")])
    assert code == 2
    assert "burn_in" in capsys.readouterr().err


@pytest.mark.parametrize("alpha, message", [("1e308", "iteration 1"), ("nan", "alpha"),
                                            ("inf", "alpha")])
def test_non_finite_alpha_or_objective_exits_2(tmp_path, capsys, alpha, message):
    (tmp_path / "pi.csv").write_text("0.3,0.7\n0.6,0.4\n0.5,0.5\n")
    (tmp_path / "sim.txt").write_text("0,1,0.5\n1,2,0.9\n")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        code = main(["run", "--pi", str(tmp_path / "pi.csv"),
                     "--similarity", str(tmp_path / "sim.txt"),
                     "--divergence", "itakura-saito", "--alpha", alpha,
                     "--labels-out", str(tmp_path / "labels.csv")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag, name", [("--alpha", "alpha"), ("--lambda", "lam")])
def test_subnormal_weight_exits_2(tmp_path, capsys, flag, name):
    (tmp_path / "pi.csv").write_text("0.3,0.7\n0.6,0.4\n0.5,0.5\n")
    (tmp_path / "sim.txt").write_text("0,1,0.5\n1,2,0.9\n")
    code = main(["run", "--pi", str(tmp_path / "pi.csv"),
                 "--similarity", str(tmp_path / "sim.txt"), flag, "5e-324",
                 "--labels-out", str(tmp_path / "labels.csv")])
    assert code == 2
    assert f"{name} must be 0 or at least" in capsys.readouterr().err
    assert not (tmp_path / "labels.csv").exists()


@pytest.mark.parametrize("command", ["run", "diagnose"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2(tmp_path, capsys, command, threads):
    # SolverConfig(threads=-3) raises; the command line used to drop the value and exit 0
    (tmp_path / "pi.csv").write_text("0.3,0.7\n0.6,0.4\n0.5,0.5\n")
    (tmp_path / "sim.txt").write_text("0,1,0.5\n1,2,0.9\n")
    out = tmp_path / "out.txt"
    code = main([command, "--pi", str(tmp_path / "pi.csv"),
                 "--similarity", str(tmp_path / "sim.txt"), "--threads", threads,
                 "--labels-out" if command == "run" else "--report-out", str(out)])
    assert code == 2
    assert f"threads must be positive, got {threads}" in capsys.readouterr().err
    assert not out.exists()


def test_reference_failure_exits_2_before_writing(problem_files, tmp_path, monkeypatch, capsys):
    from bregman_consensus import cli, solver
    from bregman_consensus.exceptions import NonFiniteObjectiveError

    pi, parts, _ = problem_files
    argv = _run_args(pi, parts, tmp_path, "r", "--alpha", "0.001",
                     "--diagnostics-out", str(tmp_path / "report.txt"))
    pi_arr, similarity, config = cli._load_problem(cli.build_parser().parse_args(argv))
    stop = solver.run(pi_arr, similarity, config)[0].iterations_used
    real_finite = solver._finite

    def failing_after_the_run(iteration, value):  # J turns non-finite past the user's stop
        if iteration > stop:
            raise NonFiniteObjectiveError(f"objective is nan at iteration {iteration}")
        return real_finite(iteration, value)

    monkeypatch.setattr(solver, "_finite", failing_after_the_run)
    assert main(argv) == 2
    assert f"iteration {stop + 1}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_r.csv"))  # neither labels nor trace
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("threshold", ["-0.5", "1.5"])
def test_sparsify_outside_the_unit_interval_exits_2(tmp_path, capsys, threshold):
    (tmp_path / "pi.csv").write_text("0.3,0.7\n0.6,0.4\n0.5,0.5\n")
    (tmp_path / "sim.txt").write_text("0,1,0.5\n1,2,0.9\n")
    code = main(["run", "--pi", str(tmp_path / "pi.csv"),
                 "--similarity", str(tmp_path / "sim.txt"), "--sparsify", threshold,
                 "--labels-out", str(tmp_path / "labels.csv")])
    assert code == 2
    assert "sparsify threshold" in capsys.readouterr().err


def _short_problem(tmp_path, rng):
    """20 nodes, k = 2 and 4 partitions of 3 clusters, as pi and partition files."""
    n = 20
    save_matrix_csv(tmp_path / "pi.csv", random_pi("gen-i", rng, n, 2))
    save_matrix_csv(tmp_path / "parts.csv", rng.integers(0, 3, (n, 4)))
    return ["--pi", str(tmp_path / "pi.csv"), "--partitions", str(tmp_path / "parts.csv")]


def _report_fields(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def test_run_shorter_than_the_burn_in_writes_its_diagnostics(tmp_path, rng, capsys):
    # it exited 2 (burn_in + 3 = 8 snapshots needed, got 4), with no summary or report
    report = tmp_path / "d.txt"
    code = main(["run", *_short_problem(tmp_path, rng), "--max-iters", "3",
                 "--labels-out", str(tmp_path / "labels.csv"), "--diagnostics-out", str(report)])
    assert code == 3
    assert capsys.readouterr().out.startswith("converged=false iters=3 J=")
    fields = _report_fields(report)
    assert fields["iterations"] == "3"
    # the 1e-14 reference is capped at 3 iterations too, which takes precedence
    assert fields["rate"] == "skipped=reference"
    assert (fields["reference_converged"], fields["reference_iterations"]) == ("false", "3")
    assert not {"qlinear", "rho_estimate", "ratios_checked"} & fields.keys()
    assert {"delta_j_monotone", "pd", "lambda_hat"} <= fields.keys()


def test_diagnose_shorter_than_the_burn_in_reports_the_rate_skipped(tmp_path, rng):
    # alpha = lambda = 0 stops at iteration 2; it exited 2 with no report
    report, trace = tmp_path / "report.txt", tmp_path / "trace.csv"
    code = main(["diagnose", *_short_problem(tmp_path, rng), "--alpha", "0", "--lambda", "0",
                 "--report-out", str(report), "--trace-out", str(trace)])
    assert code == 0
    fields = _report_fields(report)
    assert fields["converged"] == "true" and fields["iterations"] == "2"
    assert fields["rate"] == "skipped=short"
    assert not {"qlinear", "rho_estimate", "ratios_checked"} & fields.keys()
    rows = trace.read_text().splitlines()
    assert len(rows) == 3
    assert all(row.endswith(",") for row in rows)  # no ratio column


@pytest.mark.parametrize("command", ["run", "diagnose"])
def test_a_capped_reference_is_marked_and_no_rate_is_reported(tmp_path, rng, command):
    # the ratios were measured against the run's own last iterate, the capped
    # reference, and reported as qlinear=true
    inputs = _short_problem(tmp_path, rng)
    report, trace = tmp_path / "report.txt", tmp_path / "trace.csv"
    if command == "run":
        outputs = ["--labels-out", str(tmp_path / "labels.csv"), "--diagnostics-out"]
    else:
        outputs = ["--trace-out", str(trace), "--report-out"]
    for flags in ((), ("--max-iters", "12")):
        code = main([command, *inputs, *flags, *outputs, str(report)])
        fields = _report_fields(report)
        if not flags:  # a converged reference adds no entry
            assert code == 0 and int(fields["iterations"]) > 12
            assert not {"reference_converged", "reference_iterations"} & fields.keys()
            assert "qlinear" in fields
    assert code == 3 and fields["iterations"] == "12"
    assert (fields["reference_converged"], fields["reference_iterations"]) == ("false", "12")
    assert fields["rate"] == "skipped=reference"
    assert not {"qlinear", "rho_estimate", "ratios_checked"} & fields.keys()
    assert {"delta_j_monotone", "pd", "lambda_hat"} <= fields.keys()
    if command == "diagnose":
        rows = trace.read_text().splitlines()
        assert len(rows) == 13
        assert all(row.endswith(",") for row in rows)  # no ratio column


def test_a_second_main_builds_no_parser(tmp_path, monkeypatch):
    argv = ["run", "--pi", str(tmp_path / "absent.csv"),
            "--similarity", str(tmp_path / "absent.txt")]
    assert main(argv) == 2
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(argv) == 2
    assert built == []


class TestBlockedWriters:
    def test_labels_writer_peak_stays_flat(self, tmp_path):
        # one tolist() of the whole labeling made n (k + 2) Python objects: 19 MB here
        from bregman_consensus.cli import _write_labels

        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(4), 100_000)
        labeling = Labeling(probabilities=p, labels=np.argmax(p, axis=1), iterations_used=1,
                            converged=True)
        _, peak = traced_peak(lambda: _write_labels(tmp_path / "labels.csv", labeling))
        assert peak < 2_000_000, peak

    @pytest.mark.parametrize("blocks", [0, 1 / 1024, 1, 2.5],
                             ids=["empty", "one-row", "one-block", "blocks"])
    def test_writers_match_a_whole_list_oracle(self, tmp_path, blocks):
        from bregman_consensus.cli import _write_labels

        rng = np.random.default_rng(6)
        n = int(blocks * ensemble_inputs._WRITE_ROWS)
        p = rng.uniform(size=(n, 3))
        p[::5, 0] = -0.0
        p[1::7, 1] = 1e-300
        labels = rng.integers(-3, 1 << 40, n)
        ints = rng.integers(-(1 << 60), 1 << 60, (n, 2))

        def oracle(rows, header=""):
            return header + "".join(",".join(map(repr, row)) + "\n" for row in rows)

        _write_labels(tmp_path / "labels.csv", Labeling(probabilities=p, labels=labels,
                                                        iterations_used=1, converged=True))
        want = oracle(([i, label, *q] for i, (label, q) in
                       enumerate(zip(labels.tolist(), p.tolist()))), "index,label,p1,p2,p3\n")
        assert (tmp_path / "labels.csv").read_text() == want
        for name, array in (("floats", p), ("ints", ints)):
            save_matrix_csv(tmp_path / name, array)
            assert (tmp_path / name).read_text() == oracle(array.tolist())
        save_matrix_csv(tmp_path / "truth", labels)
        assert (tmp_path / "truth").read_text() == oracle([x] for x in labels.tolist())
        trace = p[:, 2].tolist()  # Python floats beside an index column, as --trace-out writes
        save_matrix_csv(tmp_path / "trace", np.arange(len(trace)), trace)
        assert (tmp_path / "trace").read_text() == oracle(enumerate(trace))
        if n >= 2:
            pairs = SimilarityMatrix.from_pairs(n, np.arange(n - 1), np.arange(1, n),
                                                np.maximum(p[1:, 1], 1e-300))
            save_similarity_triplets(tmp_path / "pairs", pairs)
            assert (tmp_path / "pairs").read_text() == oracle(
                zip(pairs.rows.tolist(), pairs.cols.tolist(), pairs.vals.tolist()))
