"""Averaging, co-association, sparsification, and file round-trips."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert s.to_dense()[0, 1] == 1.0

    def test_half_agreement(self):
        parts = np.array([[0, 0], [0, 1], [1, 1]])
        s = coassociation_similarity(parts)
        assert s.to_dense()[0, 1] == 0.5

    def test_never_cocluster_absent(self):
        parts = np.array([[0, 0], [1, 1]])
        s = coassociation_similarity(parts)
        assert s.nnz == 0
        assert s.to_dense()[0, 1] == 0.0

    def test_identical_partitions_give_zero_or_one(self, rng):
        col = rng.integers(0, 3, 12)
        parts = np.column_stack([col, col, col])
        s = coassociation_similarity(parts)
        assert set(np.unique(s.vals)) <= {1.0}

    def test_symmetry_of_reads(self, rng):
        dense = random_similarity(rng, 20).to_dense()
        for _ in range(1000):
            i, j = rng.integers(0, 20, 2)
            assert dense[i, j] == dense[j, i]

    def test_values_in_unit_interval(self, rng):
        parts = rng.integers(0, 4, (15, 6))
        s = coassociation_similarity(parts)
        assert np.all(s.vals > 0.0) and np.all(s.vals <= 1.0)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            coassociation_similarity(np.zeros((1, 2), dtype=int))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5])
    def test_rejects_labels_that_are_not_finite_integers(self, bad):
        # grouping by value would put every NaN in one cluster
        parts = np.array([[0.0, 1.0], [1.0, bad], [0.0, bad]])
        with pytest.raises(DomainError, match="row 1, column 1"):
            coassociation_similarity(parts)

    def test_integral_float_labels_match_integer_labels(self, rng):
        parts = rng.integers(-3, 3, (10, 4))
        s = coassociation_similarity(parts.astype(np.float64))
        np.testing.assert_array_equal(s.to_dense(), coassociation_similarity(parts).to_dense())


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

    def test_threshold_zero_keeps_the_partition_backing(self, rng):
        s = coassociation_similarity(rng.integers(0, 3, (10, 4)))
        assert sparsify(s, 0.0) is s
        pi = rng.uniform(0.2, 1.0, (10, 2))
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=0.8, lam=0.3)
        lab, state = run(pi, sparsify(s, 0.0), cfg)
        lab_s, state_s = run(pi, s, cfg)
        assert lab.probabilities.tobytes() == lab_s.probabilities.tobytes()
        assert state.objective_trace == state_s.objective_trace

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


# -- the one file grammar ------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
# blank and whitespace-only lines the reader must skip
blanks = st.lists(st.sampled_from(["", " ", "\t", "  \t "]), max_size=2)


def _interleave(text, data, header):
    """``text``'s lines with blank lines drawn in between and an optional header first."""
    lines = text.splitlines()
    if header:
        lines.insert(0, header)
    out = []
    for line in lines:
        out += data.draw(blanks) + [line]
    return "\n".join(out + data.draw(blanks)) + "\n"


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 4),
       header=st.sampled_from([None, "a", "p1,p2", "#x, y"]))
def test_matrix_roundtrip_is_bitwise(data, rows, cols, header):
    m = np.array(data.draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols)),
                 dtype=np.float64).reshape(rows, cols)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.csv")
        save_matrix_csv(path, m)
        with open(path, encoding="utf-8") as fh:
            text = _interleave(fh.read(), data, header)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert _same_bits(load_prob_csv(path), m)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 9), header=st.sampled_from([None, "i,j,s"]))
def test_triplet_roundtrip_is_bitwise(data, n, header):
    iu, ju = np.triu_indices(n, k=1)
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=iu.size, max_size=iu.size)))
    vals = data.draw(st.lists(st.floats(0.0, 1.0, exclude_min=True),
                              min_size=int(keep.sum()), max_size=int(keep.sum())))
    s = SimilarityMatrix(n, iu[keep], ju[keep], np.array(vals, dtype=np.float64))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "sim.csv")
        save_similarity_triplets(path, s)
        with open(path, encoding="utf-8") as fh:
            text = _interleave(fh.read(), data, header)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        back = load_similarity_triplets(path, n=n)
    assert back.n == n
    for a, b in ((back.rows, s.rows), (back.cols, s.cols), (back.vals, s.vals)):
        assert _same_bits(a, b)


def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return path


# Each file has a header on line 1 and a blank line 3; line 4 gets corrupted.
GOOD = {
    load_prob_csv: "p1,p2\n0.25,0.75\n\n0.5,0.5\n0.875,0.125\n",
    load_partitions_csv: "c1,c2\n0,1\n\n1,1\n2,0\n",
    load_similarity_triplets: "i,j,s\n0,1,0.5\n\n1,2,0.25\n0,2,1.0\n",
    load_labels: "label\n1\n\n0\n1\n",
}
CORRUPT = {
    "non-numeric": lambda fields: fields[:-1] + ["oops"],
    "missing": lambda fields: fields[:-1],
    "extra": lambda fields: fields + ["0"],
    "empty": lambda fields: fields[:-1] + [""],
}


@pytest.mark.parametrize("loader", list(GOOD), ids=lambda f: f.__name__)
@pytest.mark.parametrize("kind", list(CORRUPT))
def test_corrupted_line_is_reported_at_its_line(tmp_path, loader, kind):
    lines = GOOD[loader].splitlines()
    assert loader(_write(tmp_path, GOOD[loader])) is not None
    corrupted = ",".join(CORRUPT[kind](lines[3].split(",")))
    if not corrupted.strip():
        corrupted = ","  # a one-field row cannot lose its field without turning blank
    lines[3] = corrupted
    path = _write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(InputFormatError) as err:
        loader(path)
    assert err.value.path == str(path)
    assert err.value.line_no == 4
    assert f"{path}:4:" in str(err.value)


class TestGrammar:
    def test_non_numeric_line_after_the_first_is_rejected_in_triplets(self, tmp_path):
        path = _write(tmp_path, "0,1,0.5\nfoo,bar\n1,2,0.9\n")
        with pytest.raises(InputFormatError) as err:
            load_similarity_triplets(path)
        assert err.value.line_no == 2

    def test_non_numeric_line_after_the_first_is_rejected_in_labels(self, tmp_path):
        path = _write(tmp_path, "1\nfoo\n0\n")
        with pytest.raises(InputFormatError) as err:
            load_labels(path)
        assert err.value.line_no == 2

    def test_second_header_line_is_rejected(self, tmp_path):
        path = _write(tmp_path, "a,b\nc,d\n0.1,0.9\n")
        with pytest.raises(InputFormatError) as err:
            load_prob_csv(path)
        assert err.value.line_no == 2

    def test_non_integer_partition_names_its_line(self, tmp_path):
        path = _write(tmp_path, "0,1\n\n1,1\n1,2.5\n")
        with pytest.raises(InputFormatError) as err:
            load_partitions_csv(path)
        assert err.value.line_no == 4

    @pytest.mark.parametrize("text, line_no", [
        ("0,1,0.5\n1,1,0.5\n", 2),  # diagonal
        ("0,1,0.5\n1,2,nan\n", 2),  # similarity outside [0, 1]
        ("s\n0,1.5,0.5\n", 2),  # non-integer index
        ("0,1,0.5\n-1,2,0.5\n", 2),  # negative index
        ("0,1\n", 1),  # wrong width
    ])
    def test_triplet_rules_name_the_line(self, tmp_path, text, line_no):
        with pytest.raises(InputFormatError) as err:
            load_similarity_triplets(_write(tmp_path, text))
        assert err.value.line_no == line_no

    def test_index_beyond_n_names_the_line(self, tmp_path):
        path = _write(tmp_path, "0,1,0.5\n\n2,5,0.5\n")
        with pytest.raises(InputFormatError) as err:
            load_similarity_triplets(path, n=5)
        assert err.value.line_no == 3

    def test_labels_must_be_one_integer_per_row(self, tmp_path):
        with pytest.raises(InputFormatError) as err:
            load_labels(_write(tmp_path, "1,0.5\n0,0.5\n"))
        assert err.value.line_no == 1
        with pytest.raises(InputFormatError) as err:
            load_labels(_write(tmp_path, "1\n0.5\n"))
        assert err.value.line_no == 2

    def test_whitespace_only_lines_are_skipped(self, tmp_path):
        path = _write(tmp_path, "   \n0.25,0.75\n \t \n0.5,0.5\n\n")
        np.testing.assert_array_equal(load_prob_csv(path), [[0.25, 0.75], [0.5, 0.5]])

    @pytest.mark.parametrize("text", ["", "\n  \n", "i,j,s\n\n"])
    def test_empty_or_header_only_files(self, tmp_path, text):
        path = _write(tmp_path, text)
        assert load_similarity_triplets(path).nnz == 0
        assert load_similarity_triplets(path, n=4).n == 4
        assert load_labels(path).shape == (0,)
        for loader in (load_prob_csv, load_partitions_csv):
            with pytest.raises(InputFormatError, match="no data rows"):
                loader(path)


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as spreadsheet tools write, is not a header."""

    @staticmethod
    def _write_bom(tmp_path, text):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        return path

    def test_prob_csv_keeps_its_first_row(self, tmp_path):
        path = self._write_bom(tmp_path, "0.25,0.75\n0.5,0.5\n")
        np.testing.assert_array_equal(load_prob_csv(path), [[0.25, 0.75], [0.5, 0.5]])

    def test_partitions_keep_their_first_row(self, tmp_path):
        path = self._write_bom(tmp_path, "0,1\n1,0\n")
        np.testing.assert_array_equal(load_partitions_csv(path), [[0, 1], [1, 0]])

    def test_triplets_keep_their_first_pair(self, tmp_path):
        s = load_similarity_triplets(self._write_bom(tmp_path, "0,1,0.5\n1,2,0.9\n"))
        assert s.nnz == 2
        np.testing.assert_array_equal(s.to_dense()[[0, 1], [1, 2]], [0.5, 0.9])

    def test_labels_keep_their_first_label(self, tmp_path):
        labels = load_labels(self._write_bom(tmp_path, "0\n1\n"))
        np.testing.assert_array_equal(labels, [0, 1])

    def test_header_after_the_mark_is_still_a_header(self, tmp_path):
        path = self._write_bom(tmp_path, "p1,p2\n0.25,0.75\n")
        np.testing.assert_array_equal(load_prob_csv(path), [[0.25, 0.75]])

    def test_rejection_names_the_same_line(self, tmp_path):
        path = self._write_bom(tmp_path, "0,1,0.5\n1,2,0.9\n2,2,0.5\n")
        with pytest.raises(InputFormatError) as err:
            load_similarity_triplets(path)
        assert err.value.line_no == 3
