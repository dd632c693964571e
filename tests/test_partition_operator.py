"""The partition-backed co-association against the dense and whole-list oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregman_consensus import ensemble_inputs
from bregman_consensus.divergences import divergence_spec
from bregman_consensus.ensemble_inputs import SimilarityMatrix, coassociation_similarity, sparsify
from bregman_consensus.estimator import BregmanConsensus, check_probabilities
from bregman_consensus.exceptions import ShapeError
from bregman_consensus.solver import SolverConfig, run

from conftest import (ALL_TOKENS, column_loop_matvec, dense_coassociation, enumerated_pairs,
                      random_pi, traced_peak)

# how one partition column labels its n nodes
COLUMN_LAYOUTS = ("random", "singletons", "single", "gapped", "negative", "huge")


def _column(layout, rng, n):
    if layout == "singletons":
        return rng.permutation(n) * 3 + 1
    if layout == "single":
        return np.full(n, 5)
    labels = rng.integers(0, rng.integers(1, n + 1), n)
    if layout == "gapped":
        return labels ** 3 * 7 + 2
    if layout == "negative":
        return -1 - labels
    if layout == "huge":
        return 2**62 + labels
    return labels


def _check_against_dense_oracle(layouts, n, k, seed):
    rng = np.random.default_rng(seed)
    parts = np.column_stack([_column(layout, rng, n) for layout in layouts])
    s, oracle = coassociation_similarity(parts), dense_coassociation(parts)
    op, want_op = s.operator, oracle.operator

    np.testing.assert_allclose(op.row_sum, want_op.row_sum, rtol=1e-12, atol=0.0)
    Y = rng.normal(size=(n, k))
    got, want = op.matvec(Y), want_op.matvec(Y)
    # relative to the summed magnitudes, since a row's terms may cancel; a
    # cluster adds Y_i and takes it out again, so |Y_i| counts as well
    assert np.all(np.abs(got - want) <= 1e-12 * (want_op.matvec(np.abs(Y)) + np.abs(Y)))
    isolated = want_op.row_sum == 0.0
    zeros = np.zeros((int(isolated.sum()), k))
    assert op.row_sum[isolated].tobytes() == zeros[:, 0].tobytes()
    assert got[isolated].tobytes() == zeros.tobytes()
    # sums of 0/1 columns are exact, so the hessian's S @ I is the oracle's bits
    assert op.matvec(np.eye(n)).tobytes() == oracle.to_dense().tobytes()

    for name in ("rows", "cols", "vals"):
        a, b = getattr(s, name), getattr(oracle, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert s.nnz == oracle.nnz


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 12), r2=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_partition_operator_matches_dense_oracle(data, n, r2, seed):
    layouts = data.draw(st.lists(st.sampled_from(COLUMN_LAYOUTS), min_size=r2, max_size=r2))
    _check_against_dense_oracle(layouts, n, data.draw(st.integers(1, n)), seed)


def test_product_rounding_is_relative_to_the_row_itself():
    # parts [[0, 0, 1], [0, 1, 1]]: row 0's error 2.8e-17 exceeds 1e-12 (|S| |Y|)_0 = 1.5e-17
    _check_against_dense_oracle(["random"] * 3, n=2, k=1, seed=357862)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 12), r2=st.integers(1, 8),
       order=st.sampled_from(("C", "F", "sliced")), seed=st.integers(0, 2**32 - 1))
def test_partition_product_matches_column_loop_bitwise(data, n, r2, order, seed):
    layouts = data.draw(st.lists(st.sampled_from(COLUMN_LAYOUTS), min_size=r2, max_size=r2))
    k = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    s = coassociation_similarity(np.column_stack([_column(layout, rng, n) for layout in layouts]))
    Y = rng.normal(size=(n, 2 * k))
    Y[rng.uniform(size=Y.shape) < 0.3] = -0.0
    Y = {"C": Y[:, :k].copy(), "F": np.asfortranarray(Y[:, :k]), "sliced": Y[::-1, ::2]}[order]
    op = s.operator
    assert op.row_sum.tobytes() == column_loop_matvec(s.clusters, np.ones((n, 1)))[:, 0].tobytes()
    # the widths alternate, so bins kept for one width must not serve another
    for Z in (Y, np.eye(n), Y, np.ones((n, 1)), Y):
        got = op.matvec(Z)
        assert got.shape == (n, Z.shape[1])
        assert got.tobytes() == column_loop_matvec(s.clusters, Z).tobytes()


def test_one_bincount_per_partition_whatever_the_width(monkeypatch, rng):
    n, r2 = 10, 4
    op = coassociation_similarity(rng.integers(0, 3, (n, r2))).operator
    calls = []
    bincount = np.bincount

    def counting(*args, **kwargs):
        calls.append(args)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting)
    for m in (2, 1, n, 2):
        calls.clear()
        op.matvec(rng.normal(size=(n, m)))
        assert len(calls) == r2, m
    # the bins of a width are formed once and kept
    assert op._bins_of_width(2) is op._bins_of_width(2)


OPERANDS = {
    "list": lambda Y: Y.tolist(),
    "int": lambda Y: Y.astype(np.int64),
    "float32": lambda Y: Y.astype(np.float32),
    "non-contiguous": lambda Y: np.repeat(Y, 2, axis=1)[:, ::2],
    "fortran": np.asfortranarray,
}


@pytest.mark.parametrize("operand", sorted(OPERANDS))
def test_both_backings_convert_an_operand_alike(operand, rng):
    # the partition product raised AttributeError on a list
    n = 7
    parts = rng.integers(0, 3, (n, 4))
    Y = rng.integers(-3, 4, (n, 3)).astype(np.float64)
    given_ = OPERANDS[operand](Y)
    float64 = np.asarray(given_, dtype=np.float64)
    products = []
    for s in (coassociation_similarity(parts), dense_coassociation(parts)):
        got = s.operator.matvec(given_)
        assert got.dtype == np.float64 and got.shape == (n, 3)
        assert got.tobytes() == s.operator.matvec(np.ascontiguousarray(float64)).tobytes()
        products.append(got)
    np.testing.assert_allclose(products[0], products[1], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", [(7,), (6, 2), (8, 1), (7, 2, 1), ()],
                         ids=["flat", "short", "long", "3-d", "scalar"])
def test_both_backings_reject_an_operand_of_the_wrong_shape(shape, rng):
    parts = rng.integers(0, 3, (7, 4))
    for s in (coassociation_similarity(parts), dense_coassociation(parts)):
        with pytest.raises(ShapeError, match=r"expected an \(7, m\) array"):
            s.operator.matvec(np.ones(shape))
        with pytest.raises(ShapeError):
            s.operator.matvec(np.ones(shape).tolist())


def test_node_never_co_clustered_reads_exact_zeros(rng):
    # up to 5 copies of a float add up to exactly r2 times it, 7 need not: only
    # taking Y_i out inside each partition's term leaves an exact zero here
    parts = rng.integers(0, 2, (6, 7))
    parts[0] = 5  # node 0 is alone in every partition
    op = coassociation_similarity(parts).operator
    row = op.matvec(rng.normal(size=(6, 50)))[0]
    assert op.row_sum[0] == 0.0
    assert row.tobytes() == np.zeros(50).tobytes()


@pytest.mark.parametrize("token", ALL_TOKENS)
def test_all_singleton_partitions_solve_as_alpha_zero(token, rng):
    n, k = 9, 3
    spec = divergence_spec(token, k)
    pi = check_probabilities(random_pi(token, rng, n, k), spec)
    s = coassociation_similarity(np.column_stack([rng.permutation(n) for _ in range(4)]))
    lab, state = run(pi, s, SolverConfig(divergence=spec, alpha=0.8, lam=0.3))
    lab0, state0 = run(pi, s, SolverConfig(divergence=spec, alpha=0.0, lam=0.3))
    assert lab.probabilities.tobytes() == lab0.probabilities.tobytes()
    assert state.y_left.tobytes() == state0.y_left.tobytes()
    assert state.y_right.tobytes() == state0.y_right.tobytes()
    assert state.objective_trace == state0.objective_trace


@pytest.mark.parametrize("token", ALL_TOKENS)
def test_partition_and_pair_backings_solve_alike(token, rng):
    n, k = 30, 3
    spec = divergence_spec(token, k)
    pi = check_probabilities(random_pi(token, rng, n, k), spec)
    parts = rng.integers(0, 4, (n, 5))
    config = SolverConfig(divergence=spec, alpha=0.5, lam=0.2)
    lab, state = run(pi, coassociation_similarity(parts), config)
    lab_d, state_d = run(pi, dense_coassociation(parts), config)
    np.testing.assert_array_equal(lab.labels, lab_d.labels)
    assert state.objective_trace[-1] == pytest.approx(state_d.objective_trace[-1], rel=1e-12)


def test_fit_at_scale_allocates_nothing_quadratic():
    # an n-by-n float64 array at n = 50 000 is 20 GB
    n = 50_000
    rng = np.random.default_rng(5)
    parts = rng.integers(0, 10, (n, 5))
    pi = random_pi("gen-i", rng, n, 2)
    model, peak = traced_peak(
        lambda: BregmanConsensus(max_iter=3).fit(pi, coassociation_similarity(parts)))
    assert model.n_iter_ == 3
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_no_compute_path_enumerates_the_pairs(tmp_path, monkeypatch, rng):
    from bregman_consensus.cli import main
    from bregman_consensus.diagnostics import hessian_blocks
    from bregman_consensus.solver import lambda_threshold

    # 36 target nodes and k = 2: small enough for the Hessian and lambda_hat
    data = tmp_path / "data"
    assert main(["generate", "--kind", "half-moon", "--n", "40", "--label-fraction", "0.1",
                 "--seed", "2", "--out-dir", str(data)]) == 0

    def enumerate_pairs(clusters, threshold):
        raise AssertionError("a partition ensemble's pairs were enumerated")

    monkeypatch.setattr(ensemble_inputs, "_coassociation_pairs", enumerate_pairs)
    inputs = ["--pi", str(data / "pi.csv"), "--partitions", str(data / "partitions.csv"),
              "--alpha", "0.01"]
    report = tmp_path / "report.txt"
    assert main(["run", *inputs, "--labels-out", str(tmp_path / "labels.csv")]) == 0
    assert main(["run", *inputs, "--labels-out", str(tmp_path / "labels_d.csv"),
                 "--diagnostics-out", str(report)]) == 0
    assert "lambda_hat=" in report.read_text()
    assert main(["diagnose", *inputs, "--report-out", str(report)]) == 0
    assert "pd=true" in report.read_text() and "lambda_hat=" in report.read_text()

    n, k = 9, 3
    similarity = coassociation_similarity(rng.integers(0, 3, (n, 4)))
    pi = random_pi("gen-i", rng, n, k)
    model = BregmanConsensus(alpha=0.5, epsilon=1e-12).fit(pi, similarity)
    config = SolverConfig(divergence=divergence_spec("gen-i", k), alpha=0.5, epsilon=1e-12)
    assert lambda_threshold(pi, similarity, config, model.state_) >= 0.0
    hessian_blocks(model.state_, pi, similarity, config)
    assert "_pairs" not in vars(similarity)


def _partitions(layouts, rng, n):
    parts = np.column_stack([_column(layout, rng, n) for layout in layouts])
    return coassociation_similarity(parts)


def _same_bytes(got, want):
    for name, a, b in zip(("rows", "cols", "vals"), got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 30), r2=st.integers(1, 11), block=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_pairs_match_the_whole_list_oracle(data, n, r2, block, seed):
    # a budget of a few keys cuts the rows into many blocks, and single rows
    # with more keys than the budget into blocks of their own
    layouts = data.draw(st.lists(st.sampled_from(COLUMN_LAYOUTS), min_size=r2, max_size=r2))
    s = _partitions(layouts, np.random.default_rng(seed), n)
    with mock.patch.object(ensemble_inputs, "_PAIR_BLOCK", block):
        got = (s.rows, s.cols, s.vals)
    _same_bytes(got, enumerated_pairs(s.clusters))


@pytest.mark.parametrize("case", ["r2 > 255", "no pairs"])
def test_blocked_pairs_at_the_edges(case, rng):
    # 300 partitions, nodes 0 and 1 together in all: a count no longer fits one byte
    n, r2 = (12, 300) if case == "r2 > 255" else (9, 3)
    if case == "r2 > 255":
        parts = rng.integers(0, 2, (n, r2))
        parts[1] = parts[0]
    else:
        parts = np.column_stack([rng.permutation(n) for _ in range(r2)])
    s = coassociation_similarity(parts)
    with mock.patch.object(ensemble_inputs, "_PAIR_BLOCK", 5):
        got = (s.rows, s.cols, s.vals)
    want = enumerated_pairs(s.clusters)
    _same_bytes(got, want)
    assert (want[0].size == 0) == (case == "no pairs")
    if case == "r2 > 255":
        assert np.any(want[2] * r2 > 255)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 30), r2=st.integers(1, 11), block=st.integers(1, 40),
       where=st.sampled_from(["on", "between", "ulp below", "ulp above"]),
       seed=st.integers(0, 2**32 - 1))
def test_sparsify_on_partitions_lists_only_the_kept_pairs(data, n, r2, block, where, seed):
    layouts = data.draw(st.lists(st.sampled_from(COLUMN_LAYOUTS), min_size=r2, max_size=r2))
    s = _partitions(layouts, np.random.default_rng(seed), n)
    if where == "between":
        t = (data.draw(st.integers(0, r2 - 1)) + 0.5) / r2
    else:
        level = data.draw(st.integers(1, r2)) / r2
        t = {"on": level, "ulp below": np.nextafter(level, 0.0),
             "ulp above": min(np.nextafter(level, 2.0), 1.0)}[where]
    with mock.patch.object(ensemble_inputs, "_PAIR_BLOCK", block):
        got = sparsify(s, t)
    want = sparsify(SimilarityMatrix(n, *enumerated_pairs(s.clusters)), t)
    assert type(got) is SimilarityMatrix
    _same_bytes((got.rows, got.cols, got.vals), (want.rows, want.cols, want.vals))
    assert "_pairs" not in vars(s)  # the full list is never cached on the source


def _planted_partitions(n, seed):
    """The benchmark's partition shape: 5 partitions, each splitting 2 classes into 3
    clusters apiece, with a tenth of the nodes moved to another of the 6 clusters."""
    rng = np.random.default_rng(seed)
    truth = np.arange(n) % 2
    parts = []
    for _ in range(5):
        col = truth * 3 + rng.permutation(n) % 3
        moved = rng.choice(n, size=n // 10, replace=False)
        col[moved] = (col[moved] + rng.integers(1, 6, moved.size)) % 6
        parts.append(col)
    return np.column_stack(parts)


def test_reading_the_pairs_peaks_below_1_5_times_their_bytes():
    # listing every partition's pairs before one np.unique peaked at 2.97 times
    s = coassociation_similarity(_planted_partitions(1200, seed=1))
    _, peak = traced_peak(lambda: s.rows)
    held = s.rows.nbytes + s.cols.nbytes + s.vals.nbytes
    assert peak < 1.5 * held, peak / held


def test_sparsify_on_partitions_peaks_below_twice_the_kept_bytes():
    # the whole pair list was enumerated and kept first: 18.8 times here
    s = coassociation_similarity(_planted_partitions(4000, seed=1))
    out, peak = traced_peak(lambda: sparsify(s, 0.5))
    kept = out.rows.nbytes + out.cols.nbytes + out.vals.nbytes
    assert out.nnz > 4 * ensemble_inputs._PAIR_BLOCK  # the budget is small beside them
    assert peak < 2 * kept, peak / kept
    assert "_pairs" not in vars(s)
