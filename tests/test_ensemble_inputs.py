"""Averaging, co-association, sparsification, and file round-trips."""

import math
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregman_consensus import ensemble_inputs
from bregman_consensus.divergences import divergence_spec
from bregman_consensus.ensemble_inputs import (
    SimilarityMatrix,
    SimilarityOperator,
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
    BregmanConsensusError,
    DomainError,
    EmptyEnsembleError,
    InputFormatError,
    RangeError,
    ShapeError,
)
from bregman_consensus.solver import SolverConfig, run

from conftest import (argsort_csr, layout_similarity, partition_similarity, random_similarity,
                      reduceat_matvec, streamed_read_table, traced_peak)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, value):
        # a NaN gave a NaN row, +inf [nan, 0.] with a RuntimeWarning, -inf a DomainError
        good = np.array([[0.3, 0.7], [0.5, 0.5]])
        bad = good.copy()
        bad[1, 0] = value
        with pytest.raises(ShapeError, match="non-finite"):
            average_class_probabilities([good, bad])


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
        with pytest.raises(ShapeError, match="at least one partition"):
            coassociation_similarity(np.zeros((3, 0), dtype=int))

    def test_one_dimensional_labels_are_one_partition(self, rng):
        labels = rng.integers(0, 3, 9)
        s, column = coassociation_similarity(labels), coassociation_similarity(labels[:, None])
        np.testing.assert_array_equal(s.to_dense(), column.to_dense())
        Y = rng.normal(size=(9, 2))
        assert s.operator.matvec(Y).tobytes() == column.operator.matvec(Y).tobytes()

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

    @pytest.mark.parametrize("build", ["constructor", "from_pairs"])
    def test_rejects_nan_weights(self, build):
        # NaN failed neither "<= 0" nor "> 1", and run then stopped with
        # "objective is nan at iteration 0"
        make = (SimilarityMatrix if build == "constructor" else SimilarityMatrix.from_pairs)
        with pytest.raises(RangeError, match=re.escape("must lie in (0, 1]")):
            make(3, np.array([0, 1]), np.array([1, 2]), np.array([0.5, np.nan]))

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
        assert not op.row_sum.flags.writeable
        for got, want in zip(s.symmetrized_csr(), argsort_csr(s)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    @pytest.mark.parametrize("backing", ["pairs", "partitions"])
    def test_equality_and_hash_are_by_identity(self, backing):
        # the generated __eq__ compared the arrays and raised on two matrices
        def build():
            if backing == "partitions":
                return coassociation_similarity(np.arange(12).reshape(6, 2) % 3)
            return SimilarityMatrix.from_pairs(4, [0, 1], [1, 2], [0.5, 0.25])

        a, b = build(), build()
        assert a == a and a != b and not a == b
        assert hash(a) == hash(a) and len({a, b}) == 2

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


class TestOperatorBuild:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 12), layout=st.sampled_from(["random", "empty", "gaps", "partitions"]),
           seed=st.integers(0, 2**32 - 1))
    def test_csr_matches_argsort_oracle_bytewise(self, n, layout, seed):
        rng = np.random.default_rng(seed)
        if layout == "partitions" and n >= 2:  # enumerated pairs of a partition ensemble
            similarity = coassociation_similarity(rng.integers(0, 4, (n, 3)))
        else:  # random pairs leave empty rows; "gaps" isolates three nodes
            similarity = layout_similarity("random" if layout == "partitions" else layout,
                                           rng, n)
        for got, want in zip(similarity.symmetrized_csr(), argsort_csr(similarity)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    def test_csr_matches_argsort_oracle_at_size(self):
        similarity = _large_graph()
        want = argsort_csr(similarity)
        for got, oracle in zip(similarity.symmetrized_csr(), want):
            assert got.dtype == oracle.dtype
            assert got.tobytes() == oracle.tobytes()
        matrix = SimilarityOperator(similarity)._matrix
        assert matrix.has_canonical_format
        for got, oracle in zip((matrix.indptr, matrix.indices, matrix.data), want):
            assert np.array_equal(got, oracle)

    def test_build_peak_stays_below_2_25_times_the_stored_arrays(self):
        similarity = _large_graph()
        import scipy.sparse  # noqa: F401  a first import inside the window would count the module
        op, peak = traced_peak(lambda: SimilarityOperator(similarity))
        stored = similarity.rows.nbytes + similarity.cols.nbytes + similarity.vals.nbytes
        assert peak < 2.25 * stored, peak / stored
        # int32 indices: both orientations take about the stored arrays' bytes
        held = sum(a.nbytes for a in (op._matrix.indptr, op._matrix.indices, op._matrix.data))
        assert held < 1.05 * stored, held / stored


def _large_graph():
    """128 000 random stored pairs on 16 000 nodes."""
    rng = np.random.default_rng(16)
    n, m = 16_000, 128_000
    i, j = rng.integers(0, n, 2 * m), rng.integers(0, n, 2 * m)
    key = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    key = rng.permutation(key[key // n != key % n])[:m]
    similarity = SimilarityMatrix.from_pairs(n, key // n, key % n, rng.uniform(0.05, 1.0, m))
    assert similarity.nnz == m
    return similarity


def _star(rng, n):
    """One random hub joined to every other node, as stored pairs."""
    hub = int(rng.integers(0, n))
    others = np.delete(np.arange(n), hub)
    return SimilarityMatrix.from_pairs(n, np.full(n - 1, hub), others,
                                       rng.uniform(0.05, 1.0, n - 1))


def _stored_pairs(layout, rng, n):
    if layout == "star" and n >= 2:
        return _star(rng, n)
    if layout == "partitions" and n >= 2:  # a partition ensemble's pairs, enumerated
        return coassociation_similarity(rng.integers(0, rng.integers(1, 6), (n, 3)))
    return layout_similarity(layout if layout in ("empty", "gaps") else "random", rng, n)


class TestStoredPairProduct:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 60), m=st.integers(1, 5),
           layout=st.sampled_from(["random", "empty", "gaps", "star", "partitions"]),
           order=st.sampled_from(["C", "F", "sliced"]), seed=st.integers(0, 2**32 - 1))
    def test_product_matches_reduceat_and_dense_oracles(self, n, m, layout, order, seed):
        rng = np.random.default_rng(seed)
        similarity = _stored_pairs(layout, rng, n)
        op = SimilarityOperator(similarity)
        Y = rng.normal(size=(n, 2 * m))
        Y[rng.uniform(size=Y.shape) < 0.3] = -0.0
        Y = {"C": Y[:, :m].copy(), "F": np.asfortranarray(Y[:, :m]), "sliced": Y[::-1, ::2]}[order]
        csr = similarity.symmetrized_csr()
        dense = similarity.to_dense()
        bound = 1e-12 * (dense @ np.abs(Y))  # a row's terms may cancel
        got = op.matvec(Y)
        assert got.shape == (n, m)
        assert np.all(np.abs(got - reduceat_matvec(*csr, Y)) <= bound)
        assert np.all(np.abs(got - dense @ Y) <= bound)
        ones = np.ones((n, 1))
        row_bound = 1e-12 * dense.sum(axis=1)
        assert np.all(np.abs(op.row_sum - reduceat_matvec(*csr, ones)[:, 0]) <= row_bound)
        assert np.all(np.abs(op.row_sum - dense.sum(axis=1)) <= row_bound)

        empty = np.diff(csr[0]) == 0
        assert got[empty].tobytes() == np.zeros((int(empty.sum()), m)).tobytes()
        assert op.row_sum[empty].tobytes() == np.zeros(int(empty.sum())).tobytes()
        # a fixed summation order: perfbench's round-drift check compares fresh builds
        again = SimilarityOperator(SimilarityMatrix(n, similarity.rows, similarity.cols,
                                                    similarity.vals))
        assert again.matvec(Y).tobytes() == got.tobytes() == op.matvec(Y).tobytes()
        assert again.row_sum.tobytes() == op.row_sum.tobytes()

    @pytest.mark.parametrize("backing, shape", [
        ("pairs", (4, 2)), ("pairs", (6, 2)), ("pairs", (5,)),
        ("partitions", (4, 2)), ("partitions", (6, 2)), ("partitions", (5,)),
    ], ids=["4", "6", "1-D", "partitions-4", "partitions-6", "partitions-1-D"])
    def test_rejects_an_operand_with_other_than_n_rows(self, backing, shape, rng):
        # the gathers clip their indices, so a short operand would read its last
        # row; the partition bins raised numpy's ValueError or an IndexError
        if backing == "pairs":
            op = random_similarity(rng, 5).operator
        else:
            op = partition_similarity(rng, 5).operator
        with pytest.raises(ShapeError, match=r"expected an \(5, m\) array, got shape "
                                             + re.escape(str(shape))):
            op.matvec(np.ones(shape))

class TestFromPairs:
    def test_peak_stays_below_twice_the_stored_arrays(self):
        rng = np.random.default_rng(128)
        n, m = 50_000, 128_000
        i, j = rng.integers(0, n, 2 * m), rng.integers(0, n, 2 * m)
        distinct = np.unique(np.minimum(i, j) * n + np.maximum(i, j), return_index=True)[1]
        picked = rng.permutation(distinct[i[distinct] != j[distinct]])[:m]
        i, j = i[picked], j[picked]  # random order and orientation
        s = rng.uniform(0.05, 1.0, m)
        s[rng.random(m) < 0.05] = 0.0
        similarity, peak = traced_peak(lambda: SimilarityMatrix.from_pairs(n, i, j, s))
        stored = similarity.rows.nbytes + similarity.cols.nbytes + similarity.vals.nbytes
        assert peak < 2 * stored, (peak, stored)
        keep = s != 0.0
        want = SimilarityMatrix(n, np.minimum(i, j)[keep], np.maximum(i, j)[keep], s[keep])
        for name in ("rows", "cols", "vals"):
            assert getattr(similarity, name).tobytes() == getattr(want, name).tobytes()

    def test_rejects_bad_shapes_and_indices(self):
        with pytest.raises(ShapeError, match="equal-length"):
            SimilarityMatrix.from_pairs(3, [0, 1], [1], [0.5, 0.5])
        with pytest.raises(ShapeError, match="out of range"):
            SimilarityMatrix.from_pairs(3, [0, -1], [1, 2], [0.5, 0.5])
        with pytest.raises(ShapeError, match="out of range"):
            SimilarityMatrix.from_pairs(3, [0, 3], [1, 1], [0.5, 0.5])
        assert SimilarityMatrix.from_pairs(4, [], [], []).nnz == 0

    def test_constructor_never_freezes_the_callers_arrays(self):
        rows, cols, vals = np.array([0, 1]), np.array([1, 2]), np.array([0.5, 0.9])
        s = SimilarityMatrix(3, rows, cols, vals)  # already canonical
        for mine, stored in ((rows, s.rows), (cols, s.cols), (vals, s.vals)):
            assert mine.flags.writeable and not stored.flags.writeable
            assert not np.shares_memory(mine, stored)


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

    def test_peak_stays_below_1_75_times_the_kept_arrays(self):
        # the kept pairs reach the constructor read-only and are kept as they
        # are; copied there a second time, the peak was 2.4 times
        similarity = _large_graph()
        out, peak = traced_peak(lambda: sparsify(similarity, 0.5))
        kept = out.rows.nbytes + out.cols.nbytes + out.vals.nbytes
        assert 0 < out.nnz < similarity.nnz
        assert peak < 1.75 * kept, peak / kept

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


# -- the path parse and the stream ---------------------------------------------

LOADERS = (load_prob_csv, load_partitions_csv, load_similarity_triplets, load_labels)
cells = st.one_of(st.integers(0, 4).map(str), st.floats(0.0, 1.0).map(repr), finite.map(repr),
                  st.sampled_from(["oops", "", " 1", "2 ", "nan", "-inf", "1e400", "1_0"]))
# each line's end; a lone CR before an empty line reads as one CRLF
endings = st.sampled_from(["\n", "\r\n", "\r"])
# whitespace-only by str.isspace: the stream skips these lines, numpy does not
spaces = st.sampled_from(["", " ", "\t", "  \t ", "\x0c", "\x1c", "\x85", "\u2028", "\u3000"])


@st.composite
def data_files(draw):
    """The bytes of a file in the input grammar, or near it."""
    width = draw(st.integers(1, 3))
    row = st.lists(cells, min_size=width, max_size=width).map(",".join)
    ragged = st.lists(cells, min_size=1, max_size=4).map(",".join)
    line = st.one_of(row, row, row, spaces, ragged)
    lines = draw(st.lists(spaces, max_size=2))
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["a", "p1,p2", "i,j,s", "#x, y"])))
    lines += draw(st.lists(line, max_size=8))
    text = "".join(body + draw(endings) for body in lines)
    if text and draw(st.booleans()):
        text = text[:-1]  # no final newline, or a CR left of a CRLF
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 9)) == 7:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]  # not UTF-8
    return data


def _outcome(loader, path):
    """What ``loader`` returns, as bytes, or the exception it raises."""
    try:
        out = loader(path)
    except (BregmanConsensusError, ValueError) as exc:  # ValueError: not UTF-8
        return type(exc), str(exc), getattr(exc, "line_no", None)
    arrays = (out.rows, out.cols, out.vals) if isinstance(out, SimilarityMatrix) else (out,)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=400, deadline=None)
@given(data=data_files())
def test_every_loader_reads_as_the_streamed_oracle(data):
    # every file with a data line goes to the path parse first
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "data.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        for loader in LOADERS:
            with mock.patch.object(ensemble_inputs, "_read_table", streamed_read_table):
                want = _outcome(loader, path)
            assert _outcome(loader, path) == want, loader.__name__


class TestPathParse:
    LEAD = "\r\n \t\r\np1,p2\r\n\r\n"  # blank lines and a header

    @staticmethod
    def _crlf_file(tmp_path, rows, inside="", lead=LEAD):
        """``rows`` under a byte-order mark and ``lead``, with CRLF endings."""
        lines = [f"{a!r},{b!r}" for a, b in rows.tolist()]
        if inside:
            lines.insert(len(lines) // 2, inside)
        text = lead + "\r\n".join(lines) + "\r\n"
        path = tmp_path / "big.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        return path

    @staticmethod
    def _spy(monkeypatch):
        calls, loadtxt = [], np.loadtxt

        def spy(fname, *args, **kwargs):
            calls.append(fname)
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        return calls

    @pytest.mark.parametrize("lead", [LEAD, ""],
                             ids=["blank-lines-and-header", "mark-on-the-first-row"])
    def test_a_large_file_is_parsed_by_path(self, tmp_path, monkeypatch, lead):
        rows = np.random.default_rng(18).uniform(size=(2000, 2))
        path = self._crlf_file(tmp_path, rows, lead=lead)
        calls = self._spy(monkeypatch)
        assert _same_bits(load_prob_csv(path), rows)
        assert len(calls) == 1
        assert isinstance(calls[0], str) and os.path.samefile(calls[0], path)

    def test_a_small_file_is_parsed_by_path(self, tmp_path, monkeypatch):
        rows = np.random.default_rng(18).uniform(size=(48, 2))
        path = self._crlf_file(tmp_path, rows)
        calls = self._spy(monkeypatch)
        assert _same_bits(load_prob_csv(path), rows)
        assert len(calls) == 1
        assert isinstance(calls[0], str) and os.path.samefile(calls[0], path)

    def test_a_bad_last_row_is_found_in_few_parses(self, tmp_path, monkeypatch):
        rows = 20_000
        path = tmp_path / "sim.csv"
        path.write_text("i,j,s\n" + "".join(f"{r},{r + 1},0.5\n" for r in range(rows - 1))
                        + "7,8\n")
        spy = mock.Mock(side_effect=ensemble_inputs._parse)
        monkeypatch.setattr(ensemble_inputs, "_parse", spy)
        with pytest.raises(InputFormatError, match="as wide as the first: '7,8'") as err:
            load_similarity_triplets(path)
        assert err.value.line_no == rows + 1  # after the header
        assert spy.call_count <= 2 * math.ceil(math.log2(rows)) + 4

    def test_a_whitespace_only_line_inside_falls_back_to_the_stream(self, tmp_path,
                                                                    monkeypatch):
        rows = np.random.default_rng(18).uniform(size=(2000, 2))
        path = self._crlf_file(tmp_path, rows, inside=" \t ")
        calls = self._spy(monkeypatch)
        assert _same_bits(load_prob_csv(path), rows)
        assert isinstance(calls[0], str) and not isinstance(calls[1], str)

    def test_a_compressed_suffix_keeps_the_stream(self, tmp_path, monkeypatch):
        # numpy's open would read "big.csv.gz" as gzip data
        rows = np.random.default_rng(18).uniform(size=(2000, 2))
        path = self._crlf_file(tmp_path, rows).rename(tmp_path / "big.csv.gz")
        calls = self._spy(monkeypatch)
        assert _same_bits(load_prob_csv(path), rows)
        assert not any(isinstance(fname, str) for fname in calls)

    def test_a_sorted_triplet_file_is_kept_without_a_copy(self, tmp_path, monkeypatch):
        s = random_similarity(np.random.default_rng(18), 60)
        path = tmp_path / "sim.csv"
        save_similarity_triplets(path, s)
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", mock.Mock(side_effect=argsort))
        back = load_similarity_triplets(path, n=60)
        assert not np.argsort.called  # ascending keys hold no repeat and need no sort
        for a, b in ((back.rows, s.rows), (back.cols, s.cols), (back.vals, s.vals)):
            assert _same_bits(a, b) and a.flags.owndata and not a.flags.writeable
