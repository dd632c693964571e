"""Averaging, co-association, sparsification, and file round-trips."""

import math
import os
import re
import tempfile
import warnings
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

from conftest import (admitted_pairs, argsort_csr, layout_similarity, partition_similarity,
                      random_similarity, reduceat_matvec, streamed_read_table, traced_peak)


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
        # the CSC view of the canonical CSR: S is symmetric, so column j is row j
        assert matrix.format == "csc" and matrix.has_canonical_format
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


def _operand_with_negative_zeros(rng, n, m, order):
    """An (n, m) operand, C-ordered, F-ordered or a strided slice, about 30 % -0.0."""
    Y = rng.normal(size=(n, 2 * m))
    Y[rng.uniform(size=Y.shape) < 0.3] = -0.0
    return {"C": Y[:, :m].copy(), "F": np.asfortranarray(Y[:, :m]), "sliced": Y[::-1, ::2]}[order]


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
        Y = _operand_with_negative_zeros(rng, n, m, order)
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

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 60), m=st.integers(1, 8),
           layout=st.sampled_from(["random", "empty", "gaps", "star", "partitions"]),
           order=st.sampled_from(["C", "F", "sliced"]), seed=st.integers(0, 2**32 - 1))
    def test_column_kernel_gives_the_row_kernels_bits(self, n, m, layout, order, seed):
        # column j of the view is row j, and each y_i still adds s_ij x_j in ascending j
        from scipy import sparse

        rng = np.random.default_rng(seed)
        similarity = _stored_pairs(layout, rng, n)
        op = SimilarityOperator(similarity)
        Y = _operand_with_negative_zeros(rng, n, m, order)
        indptr, indices, data = similarity.symmetrized_csr()
        rows = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
        assert op.matvec(Y).tobytes() == (rows @ Y).tobytes()
        assert op.row_sum.tobytes() == (rows @ np.ones((n, 1)))[:, 0].tobytes()

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


@st.composite
def pair_lists(draw, n):
    """``(i, j, s)`` tuples on n nodes: distinct pairs in any order and orientation,
    some indices as integral floats and some weights 0, then up to two faults
    inserted anywhere: a repeat (mirrored or not, any weight), a diagonal pair,
    an index outside [0, n), a fractional index or a weight outside [0, 1].
    """
    node = st.integers(0, max(n - 1, 0))
    index = st.one_of(node, node, node.map(float))
    weight = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0]))
    pairs = []
    if n >= 2:
        pair = st.tuples(index, index, weight).filter(lambda p: p[0] != p[1])
        pairs = draw(st.lists(pair, max_size=8, unique_by=lambda p: (min(p[:2]), max(p[:2]))))
    for fault in draw(st.lists(st.sampled_from(["repeat", "diagonal", "range", "fraction",
                                                "value"]), max_size=2)):
        i, j, s = draw(index), draw(index), draw(weight)
        if fault == "repeat" and pairs:
            i, j, _ = draw(st.sampled_from(pairs))
            i, j = draw(st.permutations([i, j]))
        elif fault == "diagonal":
            j = i
        elif fault == "range":
            i = draw(st.sampled_from([-1, n, n + 3]))
        elif fault == "fraction":
            i = i + 0.5
        elif fault == "value":
            s = draw(st.sampled_from([-0.25, 1.5, math.inf, math.nan]))
        pairs.insert(draw(st.integers(0, len(pairs))), (i, j, s))
    return pairs


class TestAdmission:
    """Every entry of stored pairs admits them alike (``_canonical_pairs``)."""

    @pytest.mark.parametrize("build", ["constructor", "from_pairs"])
    @pytest.mark.parametrize("i, j", [([0.7], [1.9]), (["0"], ["1"]), ([True], [False])],
                             ids=["fractions", "strings", "booleans"])
    def test_rejects_non_integer_indices(self, build, i, j):
        # each was stored as the pair (0, 1)
        make = SimilarityMatrix if build == "constructor" else SimilarityMatrix.from_pairs
        with pytest.raises(ShapeError, match="indices must be integers"):
            make(3, i, j, [0.5])

    @pytest.mark.parametrize("n", [3.0, -1])
    def test_rejects_an_n_that_is_not_a_count(self, n):
        # it was kept, and the operator build then raised a bare TypeError or ValueError
        for make, pairs in ((SimilarityMatrix, ([0], [1], [0.5])),
                            (SimilarityMatrix.from_pairs, ([], [], [])),
                            (SimilarityMatrix.empty, ())):
            with pytest.raises(ShapeError, match=f"n must be a nonnegative integer, got {n}"):
                make(n, *pairs)

    def test_an_all_negative_file_names_its_line_without_n(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text("-5,-3,0.5\n")
        with pytest.raises(InputFormatError, match="out of range") as err:
            load_similarity_triplets(path)
        assert err.value.line_no == 1

    def test_a_numpy_unsigned_n_is_a_count(self):
        assert SimilarityMatrix.from_pairs(np.uint64(3), [1], [0], [0.5]).rows.tolist() == [0]

    def test_integral_float_indices_are_integers(self):
        got = SimilarityMatrix.from_pairs(4, [2.0, 0.0], [3.0, 1.0], [0.5, 0.25])
        assert got.rows.tolist() == [0, 2] and got.cols.tolist() == [1, 3]

    @pytest.mark.parametrize("i, j, s", [([0, 0], [1, 1], [0.5, 0.0]),
                                         ([0, 1], [1, 0], [0.0, 0.5]),
                                         ([2, 0, 1], [1, 1, 2], [0.0, 0.5, 0.0])],
                             ids=["repeated", "mirrored", "both-zero"])
    def test_a_repeat_with_a_zero_weight_is_a_repeat(self, tmp_path, i, j, s):
        # from_pairs dropped the zero weight first and kept one pair; the loader rejected
        with pytest.raises(ShapeError, match="more than once"):
            SimilarityMatrix.from_pairs(3, i, j, s)
        path = tmp_path / "sim.csv"
        save_matrix_csv(path, i, j, s)
        with pytest.raises(InputFormatError, match="more than once") as err:
            load_similarity_triplets(path)
        assert err.value.line_no == len(i)  # the repeat is the last line

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 7.0, -3.0, 1.0 + 1e-12])
    def test_from_dense_checks_its_diagonal(self, value):
        # the diagonal was never read: a NaN, an inf or a 7.0 there passed
        dense = np.array([[0.0, 0.5], [0.5, 0.0]])
        dense[1, 1] = value
        with pytest.raises(RangeError, match=re.escape(f"diagonal entry (1, 1) is {value!r}")):
            SimilarityMatrix.from_dense(dense)

    @pytest.mark.parametrize("value", [0.0, 0.3, 1.0])
    def test_from_dense_ignores_a_valid_diagonal(self, value):
        dense = np.array([[value, 0.5, 0.0], [0.5, value, 0.2], [0.0, 0.2, value]])
        s = SimilarityMatrix.from_dense(dense)
        assert (s.rows.tolist(), s.cols.tolist(), s.vals.tolist()) == ([0, 1], [1, 2], [0.5, 0.2])

    def test_from_dense_names_nan_as_a_bad_value(self):
        # it was named an asymmetry: NaN never compares equal to its mirror
        with pytest.raises(RangeError, match=re.escape("must lie in (0, 1]")):
            SimilarityMatrix.from_dense([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ShapeError, match="symmetric"):
            SimilarityMatrix.from_dense([[0.0, np.nan], [0.5, 0.0]])

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), n=st.integers(0, 9))
    def test_every_entry_admits_the_same_pairs(self, data, n):
        pairs = data.draw(pair_lists(n))
        want, rejected = admitted_pairs(n, pairs)
        i, j, s = (list(column) for column in zip(*pairs)) if pairs else ([], [], [])
        entries = {"from_pairs": lambda: SimilarityMatrix.from_pairs(n, i, j, s)}
        if all(a < b and v > 0.0 for a, b, v in pairs):  # the constructor's contract
            entries["constructor"] = lambda: SimilarityMatrix(n, i, j, s)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "sim.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(f"{a!r},{b!r},{v!r}\n" for a, b, v in pairs)
            if rejected is None:
                got = load_similarity_triplets(path, n=n)
            else:
                with pytest.raises(InputFormatError) as err:
                    load_similarity_triplets(path, n=n)
                assert err.value.line_no == rejected[1] + 1, pairs
        if rejected is None:
            assert got.n == n
            for entry in [got] + [build() for build in entries.values()]:
                for a, b in zip((entry.rows, entry.cols, entry.vals), want):
                    assert _same_bits(a, b), pairs
        else:
            for build in entries.values():
                with pytest.raises(rejected[0]):
                    build()

    @staticmethod
    def _argsort_spy(monkeypatch):
        spy = mock.Mock(side_effect=np.argsort)
        monkeypatch.setattr(np, "argsort", spy)
        return spy

    @pytest.mark.parametrize("entry", ["constructor", "from_pairs", "loader"])
    @pytest.mark.parametrize("shuffled, sorts", [(True, 1), (False, 0)],
                             ids=["unsorted", "sorted"])
    def test_each_entry_sorts_at_most_once(self, tmp_path, monkeypatch, entry, shuffled, sorts):
        # the loader sorted twice: once to find repeats, once in the constructor
        s = random_similarity(np.random.default_rng(18), 60)
        order = np.random.default_rng(19).permutation(s.nnz) if shuffled else np.arange(s.nnz)
        rows, cols, vals = s.rows[order], s.cols[order], s.vals[order]
        path = tmp_path / "sim.csv"
        save_matrix_csv(path, cols, rows, vals)  # mirrored
        build = {"constructor": lambda: SimilarityMatrix(60, rows, cols, vals),
                 "from_pairs": lambda: SimilarityMatrix.from_pairs(60, cols, rows, vals),
                 "loader": lambda: load_similarity_triplets(path, n=60)}[entry]
        spy = self._argsort_spy(monkeypatch)
        got = build()
        assert spy.call_count == sorts
        for a, b in ((got.rows, s.rows), (got.cols, s.cols), (got.vals, s.vals)):
            assert _same_bits(a, b) and not a.flags.writeable

    @pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "shuffled"])
    def test_loading_peaks_below_3_25_times_the_stored_arrays(self, tmp_path, shuffled):
        # the loader and then the constructor each checked and keyed the rows: 3.77 and 4.84 times
        rng = np.random.default_rng(40)
        n, m = 20_000, 60_000
        key = np.unique(rng.integers(0, n * n, 2 * m))
        key = key[key // n < key % n][:m]
        if shuffled:
            key = rng.permutation(key)
        path = tmp_path / "sim.csv"
        save_matrix_csv(path, key // n, key % n, rng.uniform(0.05, 1.0, key.size))
        similarity, peak = traced_peak(lambda: load_similarity_triplets(path, n=n))
        stored = similarity.rows.nbytes + similarity.cols.nbytes + similarity.vals.nbytes
        assert similarity.nnz == key.size
        assert peak < 3.25 * stored, peak / stored

    def test_pairs_listed_canonical_are_not_sorted_again(self, monkeypatch):
        s = random_similarity(np.random.default_rng(18), 60)
        dense = s.to_dense()
        spy = self._argsort_spy(monkeypatch)
        kept = sparsify(s, 0.5)
        again = SimilarityMatrix.from_dense(dense)
        assert SimilarityMatrix.empty(4).nnz == 0
        assert spy.call_count == 0
        assert 0 < kept.nnz < s.nnz and not kept.rows.flags.writeable
        assert _same_bits(again.rows, s.rows) and _same_bits(again.vals, s.vals)


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

    @pytest.mark.parametrize("columns", [(np.arange(5), np.arange(3), np.ones(4)),
                                         (np.arange(3), np.ones((4, 2))),
                                         (np.ones((2, 2, 2)),), (np.float64(1.0),), ()],
                             ids=["unequal", "unequal-wide", "3-d", "0-d", "none"])
    def test_writer_rejects_columns_before_opening(self, tmp_path, columns):
        # zip truncated unequal columns to the shortest: 3 rows and no error
        path = tmp_path / "out.csv"
        with pytest.raises(ShapeError, match="one length n"):
            save_matrix_csv(path, *columns)
        assert not path.exists()

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


class TestIntegerRead:
    def test_partition_labels_above_2_53_are_read_exactly(self, tmp_path):
        # float64 holds all three as 2**62, which would make them one cluster
        path = _write(tmp_path, "4611686018427387905\n4611686018427387906\n4611686018427387905\n")
        parts = load_partitions_csv(path)
        assert parts[:, 0].tolist() == [2**62 + 1, 2**62 + 2, 2**62 + 1]
        assert coassociation_similarity(parts).clusters[:, 0].tolist() == [0, 1, 0]

    def test_a_label_above_2_53_is_read_exactly(self, tmp_path):
        assert load_labels(_write(tmp_path, "9007199254740993\n")).tolist() == [2**53 + 1]

    def test_triplet_indices_are_read_as_integers(self, tmp_path):
        path = _write(tmp_path, "9007199254740993,0,0.5\n")
        with pytest.raises(InputFormatError, match="out of range") as err:
            load_similarity_triplets(path, n=2**53 + 1)
        assert err.value.line_no == 1

    @pytest.mark.parametrize("loader, text", [
        (load_partitions_csv, "1.0,0\n9007199254740993,1\n"),
        (load_partitions_csv, "1.0,0\n-9007199254740992,1\n"),
        (load_labels, "1.0\n9007199254740993\n"),
        (load_labels, "1.0\n9007199254740992\n"),
        (load_similarity_triplets, "0,1.0,0.5\n9007199254740992,1,0.5\n"),
    ], ids=["partitions", "partitions-negative", "labels", "labels-2**53", "triplets"])
    def test_a_float_file_rejects_integers_from_2_53(self, tmp_path, loader, text):
        # float64 reads 9007199254740993 as 9007199254740992
        with pytest.raises(InputFormatError, match="below 2\\*\\*53") as err:
            loader(_write(tmp_path, text))
        assert err.value.line_no == 2

    def test_a_compressed_name_rejects_integers_from_2_53(self, tmp_path):
        # a compressed name always takes the float stream
        path = tmp_path / "truth.csv.gz"
        path.write_text("0\n9007199254740993\n")
        with pytest.raises(InputFormatError, match="below 2\\*\\*53") as err:
            load_labels(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("loader, text", [
        (load_partitions_csv, "0,1\n{},2\n"),
        (load_labels, "0\n{}\n"),
        (load_similarity_triplets, "0,1,0.5\n{},2,0.5\n"),
    ], ids=["partitions", "labels", "triplets"])
    @pytest.mark.parametrize("cell", ["3.5", "-0.5", "nan", "1e400", "18446744073709551615"])
    def test_a_non_integer_is_rejected_with_warnings_ignored(self, tmp_path, loader, text, cell):
        # some numpy releases only warn on a float cell in an integer parse,
        # and warnings are ignored by default outside a test run
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(InputFormatError, match="must be integers") as err:
                loader(_write(tmp_path, text.format(cell)))
        assert err.value.line_no == 2

    def test_a_parse_via_float_that_only_warns_takes_the_float_read(self, tmp_path, monkeypatch):
        # numpy releases within the supported range parse "3.5" in an integer
        # field as 3 with only a DeprecationWarning, and raise ValueError when
        # that warning is an error; this stand-in does the same
        loadtxt = np.loadtxt

        def warns_and_truncates(fname, *args, dtype=np.float64, **kwargs):
            if np.dtype(dtype) == np.float64:
                return loadtxt(fname, *args, dtype=dtype, **kwargs)
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert string to int64") from exc
            return loadtxt(fname, *args, dtype=np.float64, **kwargs).astype(dtype)

        monkeypatch.setattr(np, "loadtxt", warns_and_truncates)
        path = _write(tmp_path, "0,1\n3.5,2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(InputFormatError, match="must be integers") as err:
                load_partitions_csv(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_integer_files_skip_the_float_path_and_a_float_takes_it(self, tmp_path, monkeypatch,
                                                                     action):
        def load_both():  # under either warning filter
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                return [load_partitions_csv(part_path), load_similarity_triplets(sim_path, n=30)]

        parts = np.random.default_rng(38).integers(0, 6, (40, 3))
        s = random_similarity(np.random.default_rng(38), 30)
        part_path, sim_path = tmp_path / "parts.csv", tmp_path / "sim.csv"
        save_matrix_csv(part_path, parts)
        save_similarity_triplets(sim_path, s)
        with monkeypatch.context() as m:
            m.setattr(ensemble_inputs, "_integers", mock.Mock(side_effect=AssertionError))
            direct = load_both()
        for path in (part_path, sim_path):  # one index or label of 3 written as 3.0
            text = path.read_text()
            at = re.search(r"(?m)^3,|,3,|,3$", text).start()
            path.write_text(text[:at] + text[at:].replace("3", "3.0", 1))
        spy = mock.Mock(side_effect=ensemble_inputs._integers)
        monkeypatch.setattr(ensemble_inputs, "_integers", spy)
        floats = load_both()
        assert spy.call_count == 2
        assert _same_bits(direct[0], parts) and _same_bits(floats[0], parts)
        for a, b, c in ((direct[1].rows, floats[1].rows, s.rows),
                        (direct[1].cols, floats[1].cols, s.cols),
                        (direct[1].vals, floats[1].vals, s.vals)):
            assert _same_bits(a, c) and _same_bits(b, c)


@st.composite
def integer_partitions(draw):
    """An (n, r2) integer partition array: negative, gapped, singleton and extreme labels.

    Each column's span max - min + 1 runs from one label to many times n,
    and its minimum lies near the type's ends, around 0 and around 2**53.
    """
    dtype = np.dtype(draw(st.sampled_from(["int8", "int16", "int64", "uint8", "uint64"])))
    info = np.iinfo(dtype)
    n = draw(st.integers(2, 30))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        span = min(draw(st.sampled_from([1, 2, n, 8 * n, 40 * n])), 1 + info.max - info.min)
        top = info.max - span + 1  # the highest minimum
        near = [info.min, top, -(span // 2), 2**53 - span // 2]
        lo = draw(st.one_of(st.sampled_from([v for v in near if info.min <= v <= top]),
                            st.integers(info.min, top)))
        inner = st.integers(lo, lo + span - 1)
        labels = [lo, lo + span - 1] + draw(st.lists(inner, min_size=n - 2, max_size=n - 2))
        columns.append(draw(st.permutations(labels)))
    return np.array(columns, dtype=dtype).T


@settings(max_examples=200, deadline=None)
@given(parts=integer_partitions())
def test_the_array_and_its_file_give_one_numbering(parts):
    clusters = coassociation_similarity(parts).clusters
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "parts.csv")
        save_matrix_csv(path, parts)
        if parts.dtype == np.uint64 and int(parts.max()) > np.iinfo(np.int64).max:
            with pytest.raises(InputFormatError, match="below 2\\*\\*53"):
                load_partitions_csv(path)  # past int64, read as floats: not exact
            return
        back = load_partitions_csv(path)
    assert back.tolist() == parts.tolist()
    assert coassociation_similarity(back).clusters.tobytes() == clusters.tobytes()


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
# the integer read and the float read agree on every cell below 2**53 in magnitude
cells = st.one_of(st.integers(0, 4).map(str), st.floats(0.0, 1.0).map(repr), finite.map(repr),
                  st.sampled_from(["oops", "", " 1", "2 ", "nan", "-inf", "1e400", "1_0",
                                   "+3", "-0", "007", "\t4", "1e3", "3.0"]))
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
    # every file with a data line goes to the path parse first, as integers
    # where the loader wants them; the oracle reads floats only
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
