"""Command-line behaviour: exit codes, file outputs, determinism."""

import numpy as np
import pytest

from bregman_consensus.cli import main
from bregman_consensus.ensemble_inputs import load_prob_csv, save_matrix_csv

from conftest import random_pi, random_similarity
from bregman_consensus.ensemble_inputs import save_similarity_triplets


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

    def test_labels_file_matches_in_memory_labeling_exactly(self, problem_files, tmp_path):
        from bregman_consensus.divergences import divergence_spec
        from bregman_consensus.ensemble_inputs import coassociation_similarity, load_partitions_csv
        from bregman_consensus.estimator import check_probabilities
        from bregman_consensus.solver import SolverConfig, run

        pi_path, parts_path, _ = problem_files
        main(_run_args(pi_path, parts_path, tmp_path, "exact",
                       "--alpha", "0.3", "--lambda", "0.2", "--threads", "1"))
        parsed = load_prob_csv(tmp_path / "labels_exact.csv")

        spec = divergence_spec("gen-i", 2)
        pi = check_probabilities(load_prob_csv(pi_path), spec)
        similarity = coassociation_similarity(load_partitions_csv(parts_path))
        labeling, _ = run(pi, similarity,
                          SolverConfig(divergence=spec, alpha=0.3, lam=0.2, threads=1))
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


def test_diagnostics_out_reuses_the_main_solve(problem_files, tmp_path, monkeypatch):
    from bregman_consensus import cli, solver
    from bregman_consensus import diagnostics as diag

    pi, parts, _ = problem_files
    report = tmp_path / "report.txt"
    argv = _run_args(pi, parts, tmp_path, "d", "--alpha", "0.001", "--threads", "1",
                     "--diagnostics-out", str(report))
    calls = []
    real_run = solver.run

    def counting_run(*args, **kwargs):
        calls.append(kwargs.get("record_copies", False))
        return real_run(*args, **kwargs)

    monkeypatch.setattr(solver, "run", counting_run)
    assert main(argv) == 0
    assert calls == [True, False]  # the recorded main solve and the 1e-14 reference
    monkeypatch.undo()

    # the report equals one built from a separate record_copies=True run
    pi_arr, similarity, config = cli._load_problem(cli.build_parser().parse_args(argv))
    recorded = solver.run(pi_arr, similarity, config, record_copies=True)
    entries, _ = cli._diagnostics_entries(recorded, pi_arr, similarity, config, None, burn_in=5)
    assert report.read_bytes() == diag.render_report(entries).encode("utf-8")



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


@pytest.mark.parametrize("threshold", ["-0.5", "1.5"])
def test_sparsify_outside_the_unit_interval_exits_2(tmp_path, capsys, threshold):
    (tmp_path / "pi.csv").write_text("0.3,0.7\n0.6,0.4\n0.5,0.5\n")
    (tmp_path / "sim.txt").write_text("0,1,0.5\n1,2,0.9\n")
    code = main(["run", "--pi", str(tmp_path / "pi.csv"),
                 "--similarity", str(tmp_path / "sim.txt"), "--sparsify", threshold,
                 "--labels-out", str(tmp_path / "labels.csv")])
    assert code == 2
    assert "sparsify threshold" in capsys.readouterr().err
