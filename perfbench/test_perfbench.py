"""Quick tests of the benchmark's generator, oracles and output checks.

Run from the repository root:
``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import dataclasses
import itertools
import os
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import workloads  # noqa: E402
from bregman_consensus import SimilarityMatrix, SolverConfig, SolverState  # noqa: E402
from bregman_consensus import divergence_spec, objective_j  # noqa: E402

SMALL = {
    "partitions": dataclasses.replace(workloads.WORKLOADS["partitions-dense"][0], n=60),
    "triplets": dataclasses.replace(workloads.WORKLOADS["triplets-sparse"][0], n=80),
}


def _file_bytes(inputs):
    return {key: pathlib.Path(path).read_bytes() for key, path in inputs.paths.items()}


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_generator_is_deterministic_for_a_seed(tmp_path, kind):
    problem = SMALL[kind]
    a = workloads.write(workloads.generate(problem, 7), str(tmp_path / "a"))
    b = workloads.write(workloads.generate(problem, 7), str(tmp_path / "b"))
    c = workloads.write(workloads.generate(problem, 8), str(tmp_path / "c"))
    assert _file_bytes(a) == _file_bytes(b)
    assert _file_bytes(a)["pi"] != _file_bytes(c)["pi"]


def test_triplets_are_distinct_canonical_pairs():
    rows, cols, vals = workloads.generate(SMALL["triplets"], 3).triplets
    p = SMALL["triplets"]
    assert rows.size == p.n * p.degree
    assert np.all(rows < cols)
    assert np.unique(rows * p.n + cols).size == rows.size
    assert np.all((vals > 0) & (vals <= 1))


def test_coassociation_matches_pairwise_loop():
    parts = np.random.default_rng(0).integers(0, 3, size=(9, 4))
    rows, cols, vals = oracle.coassociation(parts)
    want = [(i, j, np.mean(parts[i] == parts[j]))
            for i, j in itertools.combinations(range(9), 2) if np.any(parts[i] == parts[j])]
    assert list(zip(rows.tolist(), cols.tolist())) == [(i, j) for i, j, _ in want]
    np.testing.assert_allclose(vals, [s for _, _, s in want], rtol=0, atol=1e-12)


@pytest.mark.parametrize("divergence", ["gen-i", "kl"])
def test_objective_matches_program_objective(divergence):
    rng = np.random.default_rng(1)
    n, k = 7, 3
    y_left, y_right, pi = (rng.dirichlet(np.ones(k), size=n) for _ in range(3))
    rows, cols, vals = oracle.coassociation(rng.integers(0, 3, size=(n, 3)))
    config = SolverConfig(divergence=divergence_spec(divergence, k), alpha=0.7, lam=0.3)
    state = SolverState(y_left=y_left, y_right=y_right, iteration=0, objective_trace=[])
    want = objective_j(state, pi, SimilarityMatrix(n, rows, cols, vals), config)
    got = oracle.objective(y_left, y_right, pi, (rows, cols, vals), divergence, 0.7, 0.3)
    assert got == pytest.approx(want, rel=1e-12)


# -- each check rejects a wrong answer ---------------------------------------


def test_similarity_check_rejects_a_dropped_pair_and_a_wrong_value():
    pairs = oracle.coassociation(np.random.default_rng(2).integers(0, 2, size=(8, 3)))
    oracle.check_similarity(pairs, pairs)
    dropped = tuple(a[1:] for a in pairs)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_similarity(dropped, pairs)
    nudged = (pairs[0], pairs[1], pairs[2] + np.eye(1, pairs[2].size).ravel() * 1e-9)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_similarity(nudged, pairs)


def test_trace_check_rejects_a_rise_and_a_wrong_final_value():
    trace = [5.0, 3.0, 2.5, 2.4]
    oracle.check_trace(trace, 2.4)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_trace([5.0, 3.0, 3.1, 2.4], 2.4)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_trace(trace, 2.4 * (1 + 1e-6))


def _labels_file(path, labels, probs):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,label," + ",".join(f"p{c + 1}" for c in range(probs.shape[1])) + "\n")
        for i, (label, row) in enumerate(zip(labels, probs)):
            fh.write(",".join([str(i), str(label), *map(repr, row.tolist())]) + "\n")


def test_labels_check_rejects_flipped_labels(tmp_path):
    probs = np.random.default_rng(3).dirichlet(np.ones(2), size=6)
    labels = probs.argmax(axis=1)
    _labels_file(tmp_path / "good.csv", labels, probs)
    got = oracle.parse_labels_file(tmp_path / "good.csv", 2)
    oracle.check_labels(*got, labels, probs)
    flipped = labels.copy()
    flipped[0] = 1 - flipped[0]
    _labels_file(tmp_path / "bad.csv", flipped, probs)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_labels(*oracle.parse_labels_file(tmp_path / "bad.csv", 2), labels, probs)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_labels(*got, flipped, probs)
    with pytest.raises(oracle.CheckFailed):
        oracle.parse_labels_file(tmp_path / "good.csv", 3)


def test_accuracy_check_rejects_labels_worse_than_the_classifier():
    truth = np.array([0, 1, 1, 0])
    pi = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.7, 0.3]])
    assert oracle.check_accuracy(truth, pi, truth) == 1.0
    with pytest.raises(oracle.CheckFailed):
        oracle.check_accuracy(1 - truth, pi, truth)


def test_report_check_rejects_each_bad_entry():
    pi = np.full((4, 2), 0.5)
    good = {"descent_violation": "0.0", "delta_j_monotone": "true", "qlinear": "true",
            "rho_estimate": "0.5", "pd": "true", "lambda_hat": "0.1",
            "quadratic_form_expected": repr(4.0 * oracle.SCALE["kl"])}
    oracle.check_report(good, pi, "kl", desk=True)
    for key, bad in [("descent_violation", "1e-09"), ("delta_j_monotone", "false"),
                     ("qlinear", "false"), ("rho_estimate", "1.0"), ("pd", "false"),
                     ("quadratic_form_expected", "4.0")]:
        with pytest.raises(oracle.CheckFailed):
            oracle.check_report({**good, key: bad}, pi, "kl", desk=True)
