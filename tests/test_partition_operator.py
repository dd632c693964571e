"""The partition-backed co-association against the dense oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregman_consensus.divergences import divergence_spec
from bregman_consensus.ensemble_inputs import coassociation_similarity
from bregman_consensus.estimator import BregmanConsensus, check_probabilities
from bregman_consensus.solver import SolverConfig, run

from conftest import ALL_TOKENS, dense_coassociation, random_pi

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


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 12), r2=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_partition_operator_matches_dense_oracle(data, n, r2, seed):
    layouts = data.draw(st.lists(st.sampled_from(COLUMN_LAYOUTS), min_size=r2, max_size=r2))
    k = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    parts = np.column_stack([_column(layout, rng, n) for layout in layouts])
    s, oracle = coassociation_similarity(parts), dense_coassociation(parts)
    op, want_op = s.operator, oracle.operator

    np.testing.assert_allclose(op.row_sum, want_op.row_sum, rtol=1e-12, atol=0.0)
    Y = rng.normal(size=(n, k))
    got, want = op.matvec(Y), want_op.matvec(Y)
    # relative to the summed magnitudes, since a row's terms may cancel
    assert np.all(np.abs(got - want) <= 1e-12 * want_op.matvec(np.abs(Y)))
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
    tracemalloc.start()
    try:
        model = BregmanConsensus(max_iter=3).fit(pi, coassociation_similarity(parts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.n_iter_ == 3
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.1f} MB"
