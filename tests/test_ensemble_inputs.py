"""Averaging, co-association, sparsification, and file round-trips."""

import numpy as np
import pytest

from bregman_consensus.divergences import divergence_spec
from bregman_consensus.ensemble_inputs import (
    SimilarityMatrix,
    average_class_probabilities,
    coassociation_similarity,
    load_labels,
    load_partitions_csv,
    load_prob_csv,
    load_similarity_triplets,
    save_matrix_csv,
    save_similarity_triplets,
    sparsify,
)
from bregman_consensus.exceptions import (
    DomainError,
    EmptyEnsembleError,
    InputFormatError,
    RangeError,
    ShapeError,
)
from bregman_consensus.solver import SolverConfig, run

from conftest import random_similarity


class TestAveraging:
    def test_single_classifier_is_identity(self):
        pi = np.array([[0.3, 0.7], [0.9, 0.1]])
        out = average_class_probabilities([pi])
        np.testing.assert_allclose(out, pi, atol=1e-9)

    def test_two_one_hot_classifiers_average_to_half(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(average_class_probabilities([a, b]),
                                   [[0.5, 0.5]], atol=1e-9)

    def test_three_row_mean(self):
        mats = [np.array([[0.9, 0.1]]), np.array([[0.6, 0.4]]), np.array([[0.6, 0.4]])]
        np.testing.assert_allclose(average_class_probabilities(mats),
                                   [[0.7, 0.3]], atol=1e-9)

    def test_rows_sum_to_one_after_smoothing(self):
        out = average_class_probabilities([np.array([[1.0, 0.0], [0.0, 1.0]])])
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0)  # smoothing keeps rows interior

    def test_order_free(self, rng):
        mats = [rng.uniform(0, 1, (5, 3)) for _ in range(4)]
        a = average_class_probabilities(mats)
        b = average_class_probabilities(mats[::-1])
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_errors(self):
        with pytest.raises(EmptyEnsembleError):
            average_class_probabilities([])
        with pytest.raises(ShapeError):
            average_class_probabilities([np.zeros((2, 2)), np.zeros((3, 2))])
        with pytest.raises(DomainError):
            average_class_probabilities([np.array([[-0.1, 1.1]])])


class TestCoassociation:
    def test_full_agreement(self):
        parts = np.array([[0, 0], [0, 0], [1, 1]])
        s = coassociation_similarity(parts)
        assert s.get(0, 1) == 1.0

    def test_half_agreement(self):
        parts = np.array([[0, 0], [0, 1], [1, 1]])
        s = coassociation_similarity(parts)
        assert s.get(0, 1) == 0.5

    def test_never_cocluster_absent(self):
        parts = np.array([[0, 0], [1, 1]])
        s = coassociation_similarity(parts)
        assert s.nnz == 0
        assert s.get(0, 1) == 0.0

    def test_identical_partitions_give_zero_or_one(self, rng):
        col = rng.integers(0, 3, 12)
        parts = np.column_stack([col, col, col])
        s = coassociation_similarity(parts)
        assert set(np.unique(s.vals)) <= {1.0}

    def test_symmetry_of_reads(self, rng):
        s = random_similarity(rng, 20)
        for _ in range(1000):
            i, j = rng.integers(0, 20, 2)
            assert s.get(i, j) == s.get(j, i)

    def test_values_in_unit_interval(self, rng):
        parts = rng.integers(0, 4, (15, 6))
        s = coassociation_similarity(parts)
        assert np.all(s.vals > 0.0) and np.all(s.vals <= 1.0)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            coassociation_similarity(np.zeros((1, 2), dtype=int))


class TestSimilarityMatrix:
    def test_rejects_diagonal_and_bad_values(self):
        with pytest.raises(ShapeError):
            SimilarityMatrix(3, np.array([1]), np.array([1]), np.array([0.5]))
        with pytest.raises(RangeError):
            SimilarityMatrix(3, np.array([0]), np.array([1]), np.array([1.5]))

    def test_rejects_duplicate_and_mirrored_pairs(self):
        with pytest.raises(ShapeError, match="more than once"):
            SimilarityMatrix.from_pairs(3, [0, 1], [1, 0], [0.5, 0.5])
        with pytest.raises(ShapeError, match="more than once"):
            SimilarityMatrix(4, np.array([2, 0, 2]), np.array([3, 1, 3]),
                             np.array([0.1, 0.2, 0.3]))

    def test_operator_is_built_once_and_read_only(self, rng):
        s = random_similarity(rng, 6)
        op = s.operator
        assert s.operator is op
        indptr, indices, data = s.symmetrized_csr()
        assert indptr is op.indptr and indices is op.indices and data is op.data
        for arr in (indptr, indices, data, op.row_sum):
            assert not arr.flags.writeable

    def test_from_dense_roundtrip(self, rng):
        s = random_similarity(rng, 8)
        again = SimilarityMatrix.from_dense(s.to_dense())
        np.testing.assert_array_equal(s.rows, again.rows)
        np.testing.assert_allclose(s.vals, again.vals)

    def test_symmetrized_csr_row_sums(self, rng):
        s = random_similarity(rng, 10)
        indptr, indices, data = s.symmetrized_csr()
        dense = s.to_dense()
        for i in range(10):
            np.testing.assert_allclose(
                np.sort(indices[indptr[i]:indptr[i + 1]]),
                np.flatnonzero(dense[i]),
            )
            assert data[indptr[i]:indptr[i + 1]].sum() == pytest.approx(dense[i].sum())


class TestSparsify:
    def test_threshold_zero_is_identity(self, rng):
        s = random_similarity(rng, 12)
        out = sparsify(s, 0.0)
        np.testing.assert_array_equal(out.rows, s.rows)
        np.testing.assert_array_equal(out.vals, s.vals)

    def test_filter_semantics(self):
        s = SimilarityMatrix(4, np.array([0, 0, 1]), np.array([1, 2, 3]),
                             np.array([0.2, 0.5, 0.9]))
        out = sparsify(s, 0.4)
        np.testing.assert_allclose(sorted(out.vals), [0.5, 0.9])

    def test_threshold_out_of_range(self, rng):
        with pytest.raises(RangeError):
            sparsify(random_similarity(rng, 4), 1.5)

    def test_emptied_matrix_reduces_to_alpha_zero_run(self, rng):
        # dropping every entry must reproduce the alpha=0 fixed point exactly
        pi = rng.uniform(0.2, 1.0, (6, 3))
        s = random_similarity(rng, 6)
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 3), alpha=0.8, lam=0.3)
        cfg0 = SolverConfig(divergence=divergence_spec("gen-i", 3), alpha=0.0, lam=0.3)
        lab_empty, _ = run(pi, sparsify(s, 1.0), cfg)
        assert sparsify(s, 1.0).nnz == 0
        lab_zero, _ = run(pi, s, cfg0)
        np.testing.assert_array_equal(lab_empty.probabilities, lab_zero.probabilities)


class TestFileFormats:
    def test_prob_csv_roundtrip_and_header(self, tmp_path, rng):
        m = rng.uniform(0, 1, (5, 3))
        path = tmp_path / "pi.csv"
        save_matrix_csv(path, m, header="a,b,c")
        back = load_prob_csv(path)
        np.testing.assert_array_equal(back, m)  # repr round-trips exactly

    def test_partitions_roundtrip(self, tmp_path, rng):
        parts = rng.integers(0, 5, (6, 4))
        path = tmp_path / "parts.csv"
        save_matrix_csv(path, parts)
        np.testing.assert_array_equal(load_partitions_csv(path), parts)

    def test_partitions_reject_floats(self, tmp_path):
        path = tmp_path / "parts.csv"
        path.write_text("0,1\n0.5,1\n")
        with pytest.raises(InputFormatError):
            load_partitions_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "pi.csv"
        path.write_text("0.1,0.9\n0.4,oops\n")
        with pytest.raises(InputFormatError) as err:
            load_prob_csv(path)
        assert err.value.line_no == 2

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "pi.csv"
        path.write_text("0.1,0.9\n0.4\n")
        with pytest.raises(InputFormatError) as err:
            load_prob_csv(path)
        assert err.value.line_no == 2

    def test_similarity_triplets_roundtrip(self, tmp_path, rng):
        s = random_similarity(rng, 9)
        path = tmp_path / "sim.txt"
        save_similarity_triplets(path, s)
        back = load_similarity_triplets(path, n=9)
        np.testing.assert_array_equal(back.rows, s.rows)
        np.testing.assert_array_equal(back.vals, s.vals)

    def test_similarity_triplets_validation(self, tmp_path):
        path = tmp_path / "sim.txt"
        path.write_text("0,0,0.5\n")
        with pytest.raises(InputFormatError):
            load_similarity_triplets(path)
        path.write_text("0,1,1.5\n")
        with pytest.raises(InputFormatError):
            load_similarity_triplets(path)

    def test_similarity_triplets_reject_repeated_pair(self, tmp_path):
        path = tmp_path / "sim.txt"
        path.write_text("i,j,s\n0,1,0.5\n1,2,0.3\n\n2,3,0.1\n1,0,0.5\n0,1,0.5\n")
        with pytest.raises(InputFormatError) as err:
            load_similarity_triplets(path)
        assert err.value.path == str(path)
        assert err.value.line_no == 6  # the mirrored copy, not the later exact one
        assert "(0, 1)" in str(err.value)

    def test_labels_file(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("1\n0\n1\n")
        np.testing.assert_array_equal(load_labels(path), [1, 0, 1])
