"""Solver: objectives, closed-form updates, descent, fixed points, coupling."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregman_consensus.diagnostics import hessian_blocks
from bregman_consensus.divergences import DivergenceSpec, divergence_spec
from bregman_consensus.ensemble_inputs import SimilarityMatrix, coassociation_similarity
from bregman_consensus.exceptions import (ArgumentError, BregmanConsensusError, DomainError,
                                         NonFiniteObjectiveError, ShapeError)
from bregman_consensus.solver import (
    _J0_TOL,
    Labeling,
    SolverConfig,
    SolverState,
    _Problem,
    _or_none,
    lambda_threshold,
    minimize_j0,
    objective_j,
    objective_j0,
    prefix,
    run,
    update_left,
    update_right,
)

from conftest import (
    ALL_TOKENS,
    CheckedProblem,
    checked_lambda_threshold,
    checked_run,
    doubling_minimize_j0,
    eq_left_objective,
    eq_right_objective,
    fd_projected_gradient_j0,
    interior_points,
    layout_similarity,
    nelder_mead_minimize,
    partition_similarity,
    project_domain,
    random_instance,
    random_pi,
    random_similarity,
    weights,
    where_left_sweep,
)


def _state(y_left, y_right):
    return SolverState(y_left=np.asarray(y_left, float), y_right=np.asarray(y_right, float),
                       iteration=0, objective_trace=[])


class TestGraphWeightedSums:
    """Neighbor sums against a dense oracle, including empty-row layouts."""

    def _check(self, similarity, rng):
        graph = similarity.operator
        dense = similarity.to_dense()
        np.testing.assert_allclose(graph.row_sum, dense.sum(axis=1), atol=1e-12)
        for k in (1, 3):
            Y = rng.normal(size=(similarity.n, k))
            np.testing.assert_allclose(graph.matvec(Y), dense @ Y, atol=1e-12)

    def test_trailing_empty_rows(self, rng):
        # rows past the last stored pair have no entries; their presence must
        # not truncate the preceding row's reduction
        s = SimilarityMatrix(6, np.array([0, 0, 1]), np.array([1, 3, 3]),
                             np.array([0.9, 0.4, 0.7]))
        self._check(s, rng)

    def test_leading_and_interior_empty_rows(self, rng):
        s = SimilarityMatrix(6, np.array([1, 1]), np.array([3, 5]), np.array([0.5, 0.8]))
        self._check(s, rng)

    def test_random_sparsity(self, rng):
        for density in (0.1, 0.4, 0.9):
            self._check(random_similarity(rng, 11, density=density), rng)

    def test_empty_similarity(self, rng):
        self._check(SimilarityMatrix.empty(5), rng)


class TestObjectives:
    def test_j0_zero_at_pi_with_alpha_zero(self, rng):
        pi = rng.uniform(0.2, 1.0, (4, 2))
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=0.0, lam=0.5)
        assert objective_j0(pi, pi, random_similarity(rng, 4), cfg) == pytest.approx(0.0, abs=1e-12)

    def test_j0_single_instance_has_no_pair_term(self):
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=5.0, lam=0.1)
        pi = np.array([[1.0, 2.0]])
        y = np.array([[2.0, 1.0]])
        expected = divergence_spec("gen-i", 2).bregman(pi[0], y[0])
        assert objective_j0(y, pi, SimilarityMatrix.empty(1), cfg) == pytest.approx(expected)

    def test_j0_hand_value_is_exactly_one(self):
        # fit terms (1 - ln 2) + pair terms (1 - ln 2) + (2 ln 2 - 1) = 1
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 1), alpha=1.0, lam=0.3)
        pi = np.array([[1.0], [1.0]])
        y = np.array([[1.0], [2.0]])
        s = SimilarityMatrix(2, np.array([0]), np.array([1]), np.array([1.0]))
        assert objective_j0(y, pi, s, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_j_equals_j0_when_copies_coincide(self, rng):
        pi, s, cfg = random_instance("gen-i", rng, 5, 3)
        y = interior_points("gen-i", rng, 5, 3)
        st = _state(y, y)
        assert objective_j(st, pi, s, cfg) == pytest.approx(objective_j0(y, pi, s, cfg), rel=1e-12)

    def test_j_zero_when_everything_uniform(self, rng):
        n, k = 4, 2
        pi = np.full((n, k), 1.0 / k)
        cfg = SolverConfig(divergence=divergence_spec("kl", k), alpha=1.0, lam=2.0)
        st = _state(pi, pi)
        assert objective_j(st, pi, random_similarity(rng, n), cfg) == pytest.approx(0.0, abs=1e-12)

    def test_j_ignores_left_copies_when_alpha_and_lam_vanish(self, rng):
        pi, s, _ = random_instance("gen-i", rng, 4, 2)
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=0.0, lam=0.0)
        yr = interior_points("gen-i", rng, 4, 2)
        a = objective_j(_state(interior_points("gen-i", rng, 4, 2), yr), pi, s, cfg)
        b = objective_j(_state(interior_points("gen-i", rng, 4, 2), yr), pi, s, cfg)
        assert a == pytest.approx(b, rel=1e-15)


class TestUpdateRight:
    def test_reduces_to_pi_without_neighbors_or_coupling(self, rng):
        pi = rng.uniform(0.2, 1.0, (3, 2))
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=1.0, lam=0.0)
        st = _state(np.full((3, 2), 0.5), np.full((3, 2), 0.5))
        out = update_right(1, st, pi, SimilarityMatrix.empty(3), cfg)
        np.testing.assert_allclose(out, pi[1], atol=1e-15)

    def test_fixed_point_of_identical_inputs(self):
        c = np.array([0.3, 0.7])
        pi = np.tile(c, (2, 1))
        s = SimilarityMatrix(2, np.array([0]), np.array([1]), np.array([1.0]))
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=2.0, lam=0.7)
        st = _state(np.tile(c, (2, 1)), np.tile(c, (2, 1)))
        np.testing.assert_allclose(update_right(0, st, pi, s, cfg), c, atol=1e-15)

    def test_hand_value(self):
        # (0.9 + 0.5 + 0.5)/3, (0.1 + 0.5 + 0.5)/3
        pi = np.array([[0.9, 0.1], [0.5, 0.5]])
        s = SimilarityMatrix(2, np.array([0]), np.array([1]), np.array([1.0]))
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=1.0, lam=1.0)
        st = _state(np.full((2, 2), 0.5), np.full((2, 2), 0.5))
        np.testing.assert_allclose(update_right(0, st, pi, s, cfg),
                                   [1.9 / 3.0, 1.1 / 3.0], atol=1e-12)


class TestUpdateLeft:
    def test_common_right_copy_is_returned(self, rng):
        c = np.array([0.4, 1.1])
        yr = np.tile(c, (3, 1))
        s = random_similarity(rng, 3, density=1.0)
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=1.3, lam=0.4)
        st = _state(interior_points("gen-i", rng, 3, 2), yr)
        np.testing.assert_allclose(update_left(0, st, s, cfg), c, atol=1e-12)

    def test_empty_row_with_coupling_returns_right_copy(self, rng):
        yr = interior_points("gen-i", rng, 3, 2)
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=1.0, lam=0.8)
        st = _state(interior_points("gen-i", rng, 3, 2), yr)
        np.testing.assert_allclose(update_left(2, st, SimilarityMatrix.empty(3), cfg),
                                   yr[2], atol=1e-12)

    def test_vacuous_subproblem_leaves_copy_unchanged(self, rng):
        yl = interior_points("gen-i", rng, 3, 2)
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=0.0, lam=0.0)
        st = _state(yl, interior_points("gen-i", rng, 3, 2))
        np.testing.assert_array_equal(update_left(1, st, SimilarityMatrix.empty(3), cfg), yl[1])

    def test_hand_value_dual_mean(self):
        # gradients (1 + ln 1) = 1 and (1 + ln e) = 2 average to 1.5; exp(0.5)
        yr = np.array([[1.0], [math.e]])
        s = SimilarityMatrix(2, np.array([0]), np.array([1]), np.array([1.0]))
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 1), alpha=1.0, lam=1.0)
        st = _state(np.ones((2, 1)), yr)
        np.testing.assert_allclose(update_left(0, st, s, cfg), [math.exp(0.5)], atol=1e-12)

    def test_kl_left_copy_stays_on_simplex(self, rng):
        pi, s, _ = random_instance("kl", rng, 5, 3)
        cfg = SolverConfig(divergence=divergence_spec("kl", 3), alpha=1.0, lam=0.5)
        _, state = run(pi, s, cfg)
        np.testing.assert_allclose(state.y_left.sum(axis=1), 1.0, atol=1e-9)


class TestLeftSweepInactiveRows:
    """Rows with ``alpha * r_i + lam == 0`` keep their copy; the rest match the np.where form."""

    @pytest.mark.parametrize("token", ALL_TOKENS)
    @pytest.mark.parametrize("alpha, lam", [(0.7, 0.0), (0.0, 0.0), (0.7, 0.3)])
    def test_against_where_oracle(self, token, alpha, lam, rng):
        n, k = 7, 3
        linked = np.array([1, 2, 4, 5])  # nodes 0, 3 and 6 are isolated
        iu, ju = np.triu_indices(linked.size, k=1)
        similarity = SimilarityMatrix(n, linked[iu], linked[ju], rng.uniform(0.05, 1.0, iu.size))
        spec = divergence_spec(token, k)
        y_left = interior_points(token, rng, n, k)
        grad_right = spec.grad(interior_points(token, rng, n, k))
        op = similarity.operator
        # the placeholder dual must stay in range: itakura-saito and
        # bose-einstein would raise RangeError otherwise
        config = SolverConfig(divergence=spec, alpha=alpha, lam=lam)
        got, nbr = _Problem(None, similarity, config).left(grad_right, y_left)
        want, want_nbr = where_left_sweep(grad_right, op, spec, y_left, alpha, lam)
        inactive = np.zeros(n, dtype=bool)
        if lam == 0.0:
            inactive[[0, 3, 6] if alpha > 0.0 else slice(None)] = True
        assert got[inactive].tobytes() == y_left[inactive].tobytes()
        np.testing.assert_allclose(got[~inactive], want[~inactive], rtol=1e-15, atol=0.0)
        assert nbr.tobytes() == want_nbr.tobytes()


class TestHalfStepOptimality:
    @pytest.mark.parametrize("token", ALL_TOKENS)
    def test_right_update_minimizes_its_subobjective(self, token, rng):
        pi, s, cfg = random_instance(token, rng, 4, 3)
        yl = interior_points(token, rng, 4, 3)
        st = _state(yl, interior_points(token, rng, 4, 3))
        j = 2
        best = update_right(j, st, pi, s, cfg)
        objective = eq_right_objective(j, yl, pi, s, cfg)
        base = objective(best)
        for _ in range(20):
            other = cfg.divergence.clamp(best + rng.normal(0.0, 0.05, 3))
            if cfg.divergence.simplex_domain:
                other = other / other.sum()
            assert objective(other) >= base - 1e-10

    @pytest.mark.parametrize("token", ALL_TOKENS)
    def test_left_update_minimizes_its_subobjective(self, token, rng):
        pi, s, cfg = random_instance(token, rng, 4, 3)
        yr = interior_points(token, rng, 4, 3)
        st = _state(interior_points(token, rng, 4, 3), yr)
        i = 1
        best = update_left(i, st, s, cfg)
        objective = eq_left_objective(i, yr, s, cfg)
        base = objective(best)
        for _ in range(20):
            other = cfg.divergence.clamp(best + rng.normal(0.0, 0.05, 3))
            if cfg.divergence.simplex_domain:
                other = other / other.sum()
            assert objective(other) >= base - 1e-10


class TestClosedFormAgainstDerivativeFree:
    @pytest.mark.parametrize("token", ["gen-i", "kl", "euclidean", "logistic"])
    def test_both_updates_match_nelder_mead(self, token, rng):
        pi, s, cfg = random_instance(token, rng, 3, 2)
        yl = interior_points(token, rng, 3, 2)
        yr = interior_points(token, rng, 3, 2)
        st = _state(yl, yr)
        j = int(rng.integers(0, 3))
        closed = update_right(j, st, pi, s, cfg)
        oracle = nelder_mead_minimize(token, eq_right_objective(j, yl, pi, s, cfg), 2, seed=1)
        np.testing.assert_allclose(closed, oracle, atol=1e-6)
        i = int(rng.integers(0, 3))
        closed_l = update_left(i, st, s, cfg)
        oracle_l = nelder_mead_minimize(token, eq_left_objective(i, yr, s, cfg), 2, seed=2)
        np.testing.assert_allclose(closed_l, oracle_l, atol=1e-6)


class TestRun:
    @pytest.mark.parametrize("token", ALL_TOKENS)
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), k=st.integers(1, 4),
           backing=st.sampled_from(["pairs", "partitions"]),
           lam=st.floats(0.0, 2.0, exclude_min=True, allow_subnormal=False),
           seed=st.integers(0, 2**32 - 1))
    def test_alpha_zero_fixed_point(self, token, n, k, backing, lam, seed):
        # at alpha = 0 both copies move toward pi by the factor lam / (1 + lam)
        # per iteration, whatever the similarity: 200 iterations reach it.  The
        # stopping rule fires only by chance there (J tends to 0), so the
        # probabilities are checked and `converged` is not.
        rng = np.random.default_rng(seed)
        similarity = (partition_similarity(rng, n) if backing == "partitions" and n > 1
                      else random_similarity(rng, n))
        pi = random_pi(token, rng, n, k)
        cfg = SolverConfig(divergence=divergence_spec(token, k), alpha=0.0, lam=lam,
                           max_iters=200)
        labeling, _ = run(pi, similarity, cfg)
        expected = pi / pi.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(labeling.probabilities, expected, rtol=0.0, atol=1e-12)

    def test_uniform_input_converges_in_one_iteration(self):
        pi = np.full((5, 4), 0.25)
        cfg = SolverConfig(divergence=divergence_spec("kl", 4), alpha=1.0, lam=0.5)
        s = SimilarityMatrix(5, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 0.5]))
        labeling, state = run(pi, s, cfg)
        assert labeling.converged and labeling.iterations_used == 1
        np.testing.assert_allclose(labeling.probabilities, 0.25, atol=1e-12)

    def test_trace_has_iterations_plus_one_entries(self, rng):
        pi, s, cfg = random_instance("gen-i", rng, 5, 2)
        labeling, state = run(pi, s, cfg)
        assert len(state.objective_trace) == labeling.iterations_used + 1

    @pytest.mark.parametrize("token", ALL_TOKENS)
    def test_objective_trace_never_increases(self, token, rng):
        for _ in range(4):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, 5))
            pi, s, cfg = random_instance(token, rng, n, k, epsilon=1e-13, max_iters=100)
            _, state = run(pi, s, cfg)
            trace = np.array(state.objective_trace)
            assert np.all(np.diff(trace) <= 1e-12 * np.maximum(np.abs(trace[:-1]), 1.0))

    def test_instance_permutation_equivariance(self, rng):
        n, k = 6, 3
        pi, s, cfg = random_instance("gen-i", rng, n, k, threads=1)
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        dense = s.to_dense()[np.ix_(perm, perm)]
        lab_a, st_a = run(pi, s, cfg)
        lab_b, st_b = run(pi[perm], SimilarityMatrix.from_dense(dense), cfg)
        np.testing.assert_allclose(st_b.y_left[inv], st_a.y_left, atol=1e-12)
        np.testing.assert_allclose(lab_b.probabilities[inv], lab_a.probabilities, atol=1e-12)

    def test_thread_count_does_not_change_results(self, rng):
        pi, s, _ = random_instance("kl", rng, 13, 3)
        spec = divergence_spec("kl", 3)
        runs = []
        for threads in (1, 4):
            cfg = SolverConfig(divergence=spec, alpha=0.9, lam=0.2, threads=threads)
            _, state = run(pi, s, cfg)
            runs.append(state)
        np.testing.assert_array_equal(runs[0].y_left, runs[1].y_left)
        np.testing.assert_array_equal(runs[0].y_right, runs[1].y_right)

    def test_shape_validation(self, rng):
        pi = rng.uniform(0.2, 1.0, (4, 2))
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2))
        with pytest.raises(ShapeError):
            run(pi, SimilarityMatrix.empty(5), cfg)
        with pytest.raises(ShapeError):
            run(pi[:, :1], SimilarityMatrix.empty(4), cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_run_rejects_non_finite_pi(self, bad):
        pi = np.full((3, 2), 0.5)
        pi[1, 0] = bad
        s = SimilarityMatrix(3, np.array([0, 1]), np.array([1, 2]), np.array([0.5, 0.5]))
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), max_iters=50)
        with pytest.raises(ShapeError, match="non-finite"):
            run(pi, s, cfg)

    def test_run_rejects_kl_rows_off_the_simplex(self):
        # the estimator normalizes such rows first; run must not solve them as given
        from bregman_consensus import BregmanConsensus, check_probabilities

        pi = np.array([[0.6, 0.6], [0.2, 0.5], [0.9, 0.3]])
        s = SimilarityMatrix(3, np.array([0, 1]), np.array([1, 2]), np.array([0.5, 0.9]))
        cfg = SolverConfig(divergence=divergence_spec("kl", 2), alpha=1.0, lam=0.1)
        with pytest.raises(DomainError, match="row 0 sums to 1.2"):
            run(pi, s, cfg)
        labeling, state = run(check_probabilities(pi, cfg.divergence), s, cfg)
        model = BregmanConsensus(divergence="kl", alpha=1.0, lam=0.1).fit(pi, s)
        np.testing.assert_array_equal(model.probabilities_, labeling.probabilities)
        assert model.objective_trace_ == state.objective_trace

    def test_run_accepts_kl_rows_within_the_simplex_tolerance(self):
        pi = np.array([[0.25, 0.75 + 5e-10], [0.5, 0.5]])
        cfg = SolverConfig(divergence=divergence_spec("kl", 2), alpha=0.0, lam=0.1)
        labeling, _ = run(pi, SimilarityMatrix.empty(2), cfg)
        assert labeling.converged

    def test_run_checks_kl_row_sums_before_clamping(self):
        # clamping an exact one-hot row to the floor lifts its sum by (k - 2) * floor
        pi = np.array([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
        cfg = SolverConfig(divergence=divergence_spec("kl", 3, domain_floor=1e-3), lam=0.1)
        labeling, _ = run(pi, SimilarityMatrix(2, np.array([0]), np.array([1]), np.array([0.5])),
                          cfg)
        assert labeling.labels[0] == 0

    def test_fit_accepts_one_hot_kl_rows_with_a_large_floor(self):
        from bregman_consensus import BregmanConsensus

        model = BregmanConsensus(divergence="kl", domain_floor=1e-3)
        model.fit([[1.0, 0.0], [0.5, 0.5]], np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert model.probabilities_.shape == (2, 2)

    def test_config_validation(self):
        spec = divergence_spec("gen-i", 2)
        with pytest.raises(ArgumentError):
            SolverConfig(divergence=spec, alpha=-1.0)
        with pytest.raises(ArgumentError):
            SolverConfig(divergence=spec, epsilon=0.0)
        with pytest.raises(ArgumentError, match="max_iters must be positive, got 0"):
            SolverConfig(divergence=spec, max_iters=0)
        with pytest.raises(ArgumentError, match="threads must be positive, got 0"):
            SolverConfig(divergence=spec, threads=0)
        # range() raised a bare TypeError mid-solve; a fractional thread count passed silently
        for name, value in [("max_iters", 2.5), ("max_iters", math.nan), ("max_iters", 3.0),
                            ("max_iters", "3"), ("threads", 1.5)]:
            with pytest.raises(ArgumentError, match=f"{name} must be an integer, got "
                                                    + re.escape(repr(value))):
                SolverConfig(divergence=spec, **{name: value})
        # a bool passed as an integer read as 1 or 0
        for name in ("max_iters", "threads"):
            with pytest.raises(ArgumentError, match=f"{name} must be an integer, got True"):
                SolverConfig(divergence=spec, **{name: True})
        # comparing these with numbers raised a bare TypeError; a bool read as 1 or 0
        for name, value in [("alpha", "0.5"), ("lam", None), ("epsilon", 1j), ("alpha", True),
                            ("lam", np.bool_(False))]:
            with pytest.raises(ArgumentError, match=f"{name} must be a real number, got "
                                                    + re.escape(repr(value))):
                SolverConfig(divergence=spec, **{name: value})
        from bregman_consensus import BregmanConsensus

        with pytest.raises(ArgumentError, match="max_iters must be an integer, got 2.5"):
            BregmanConsensus(max_iter=2.5).fit([[1.0, 0.0], [0.5, 0.5]],
                                               np.array([[0.0, 0.5], [0.5, 0.0]]))
        with pytest.raises(ArgumentError, match="alpha must be a real number, got '0.5'"):
            BregmanConsensus(alpha="0.5").fit([[1.0, 0.0], [0.5, 0.5]],
                                              np.array([[0.0, 0.5], [0.5, 0.0]]))
        SolverConfig(divergence=spec, alpha=np.float32(0.5), lam=np.int64(1),
                     epsilon=np.float64(1e-9))
        cfg = SolverConfig(divergence=spec, max_iters=np.int32(3), threads=np.int64(2))
        labeling, _ = run(np.array([[0.6, 0.4], [0.3, 0.7]]), SimilarityMatrix.empty(2), cfg)
        assert labeling.iterations_used <= 3

    def test_signed_domain_finalization(self, rng):
        # squared-loss runs can average to negative coordinates; labels come
        # from the raw argmax and probabilities from clamped L1 scaling
        pi = np.array([[-1.0, -3.0], [2.0, 1.0]])
        cfg = SolverConfig(divergence=divergence_spec("squared", 2), alpha=0.0, lam=0.5)
        labeling, _ = run(pi, SimilarityMatrix.empty(2), cfg)
        np.testing.assert_array_equal(labeling.labels, [0, 0])
        assert np.all(labeling.probabilities >= 0.0)
        np.testing.assert_allclose(labeling.probabilities.sum(axis=1), 1.0, atol=1e-12)


def _with_entry(value):
    def bad(pi):
        pi = pi.copy()
        pi[0, 0] = value
        return pi
    return bad


# divergence and the change that makes a valid 3-by-2 pi invalid
_BAD_PI = {
    "nan-entry": ("gen-i", _with_entry(np.nan)),
    "out-of-domain": ("gen-i", _with_entry(-5.0)),
    "wrong-k": ("gen-i", lambda pi: np.hstack([pi, pi[:, :1]])),
    "wrong-n": ("gen-i", lambda pi: np.vstack([pi, pi[:1]])),
    "kl-off-simplex": ("kl", lambda pi: pi * np.array([[1.2], [1.0], [1.0]])),
}
_PI_ENTRIES = {
    "objective_j": lambda pi, s, cfg, state: objective_j(state, pi, s, cfg),
    "objective_j0": lambda pi, s, cfg, state: objective_j0(state.y_right, pi, s, cfg),
    "update_right": lambda pi, s, cfg, state: update_right(0, state, pi, s, cfg),
    "minimize_j0": lambda pi, s, cfg, state: minimize_j0(pi, s, cfg),
    "lambda_threshold": lambda pi, s, cfg, state: lambda_threshold(pi, s, cfg, state),
    "hessian_blocks": lambda pi, s, cfg, state: hessian_blocks(state, pi, s, cfg),
}


@pytest.mark.parametrize("entry", sorted(_PI_ENTRIES))
@pytest.mark.parametrize("case", sorted(_BAD_PI))
def test_every_entry_rejects_a_bad_pi_as_run_does(case, entry, rng):
    # update_right used to return [nan, 0.5] for a NaN entry and minimize_j0
    # to clamp a -5 silently, where run raised ShapeError and DomainError
    token, corrupt = _BAD_PI[case]
    pi = interior_points(token, rng, 3, 2)
    s = random_similarity(rng, 3, density=1.0)
    cfg = SolverConfig(divergence=divergence_spec(token, 2), alpha=0.5, lam=0.1)
    _, state = run(pi, s, cfg)
    bad = corrupt(pi)
    with pytest.raises(BregmanConsensusError) as from_run:
        run(bad, s, cfg)
    with pytest.raises(BregmanConsensusError) as from_entry:
        _PI_ENTRIES[entry](bad, s, cfg, state)
    assert type(from_entry.value) is type(from_run.value)
    assert str(from_entry.value) == str(from_run.value)


# a change that makes a valid 3-by-2 gen-i copy invalid, and the error it raises
_OUT_OF_DOMAIN = re.escape("gen-i: coordinate -5.0 below domain lower bound 0.0")
_BAD_COPY = {
    "nan-entry": (_with_entry(np.nan), ShapeError),
    "inf-entry": (_with_entry(np.inf), ShapeError),
    "extra-row": (lambda y: np.vstack([y, y[:1]]), ShapeError),
    "extra-column": (lambda y: np.hstack([y, y[:, :1]]), ShapeError),
    "flat": (np.ravel, ShapeError),
    "out-of-domain": (_with_entry(-5.0), DomainError),
}
_COPY_ENTRIES = {
    "objective_j": lambda pi, s, cfg, state: objective_j(state, pi, s, cfg),
    "objective_j0": lambda pi, s, cfg, state: objective_j0(state.y_right, pi, s, cfg),
    "update_right": lambda pi, s, cfg, state: update_right(0, state, pi, s, cfg),
    "update_left": lambda pi, s, cfg, state: update_left(0, state, s, cfg),
    "lambda_threshold": lambda pi, s, cfg, state: lambda_threshold(pi, s, cfg, state),
    "hessian_blocks": lambda pi, s, cfg, state: hessian_blocks(state, pi, s, cfg),
}


@pytest.mark.parametrize("entry", sorted(_COPY_ENTRIES))
@pytest.mark.parametrize("case", sorted(_BAD_COPY))
def test_every_entry_rejects_bad_copies(case, entry, rng):
    # objective_j0 used to return nan for a NaN Y, and a 4-row state on 3
    # nodes failed in numpy broadcasting rather than with ShapeError;
    # update_right returned a right copy outside the domain for a -5 entry,
    # and hessian_blocks accepted it
    pi = interior_points("gen-i", rng, 3, 2)
    s = random_similarity(rng, 3, density=1.0)
    cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=0.5, lam=0.1)
    y_left, y_right = interior_points("gen-i", rng, 3, 2), interior_points("gen-i", rng, 3, 2)
    _COPY_ENTRIES[entry](pi, s, cfg, _state(y_left, y_right))
    corrupt, error = _BAD_COPY[case]
    match = _OUT_OF_DOMAIN if error is DomainError else "y_left|y_right|Y"
    with pytest.raises(error, match=match):
        _COPY_ENTRIES[entry](pi, s, cfg, _state(corrupt(y_left), corrupt(y_right)))


@pytest.mark.parametrize("case", sorted(_BAD_COPY))
def test_lambda_threshold_rejects_a_bad_supplied_minimizer(case, rng):
    pi = interior_points("gen-i", rng, 3, 2)
    s = random_similarity(rng, 3, density=1.0)
    cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=0.5, lam=0.1)
    state = _state(interior_points("gen-i", rng, 3, 2), interior_points("gen-i", rng, 3, 2))
    lambda_threshold(pi, s, cfg, state, j0_minimizer=pi)
    corrupt, error = _BAD_COPY[case]
    match = _OUT_OF_DOMAIN if error is DomainError else "j0_minimizer"
    with pytest.raises(error, match=match):
        lambda_threshold(pi, s, cfg, state, j0_minimizer=corrupt(pi))


class TestLambdaThreshold:
    def test_coinciding_copies_return_current_lam(self, rng):
        pi = random_pi("gen-i", rng, 4, 2)
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=0.0, lam=0.1,
                           epsilon=1e-12, max_iters=500)
        _, state = run(pi, SimilarityMatrix.empty(4), cfg)
        assert lambda_threshold(pi, SimilarityMatrix.empty(4), cfg, state) == pytest.approx(0.1)

    def test_distinct_copies_ratio_against_numeric_minimizer(self, rng):
        pi, s, _ = random_instance("gen-i", rng, 3, 2)
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=0.4, lam=0.1,
                           epsilon=1e-14, max_iters=5000)
        _, state = run(pi, s, cfg)
        spec = cfg.divergence
        gap = np.atleast_1d(spec.bregman(state.y_left, state.y_right))
        assert gap.max() > 1e-9  # copies genuinely distinct at this lam

        value = lambda_threshold(pi, s, cfg, state)

        # independent oracle: finite-difference projected gradient on J0
        y_star = fd_projected_gradient_j0(pi, s, cfg)
        num = objective_j0(y_star, pi, s, cfg) - _Problem(pi, s, cfg).objective(
            state.y_left, state.y_right, lam=0.0)
        oracle = num / float(gap.sum())
        assert value == pytest.approx(oracle, rel=1e-4, abs=1e-8)

    def test_coalescence_above_threshold(self, rng):
        pi, s, _ = random_instance("gen-i", rng, 3, 2, alpha=0.05)
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=0.05, lam=0.1,
                           epsilon=1e-14, max_iters=20000)
        _, state = run(pi, s, cfg)
        lam_hat = lambda_threshold(pi, s, cfg, state)
        big = SolverConfig(divergence=cfg.divergence, alpha=0.05,
                           lam=max(lam_hat, 400.0), epsilon=1e-15, max_iters=60000)
        _, state_big = run(pi, s, big)
        gap = np.atleast_1d(cfg.divergence.bregman(state_big.y_left, state_big.y_right))
        assert gap.max() <= 1e-6


def test_minimize_j0_matches_fd_oracle(rng):
    pi, s, _ = random_instance("gen-i", rng, 3, 2)
    cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=0.5, lam=0.1)
    a = minimize_j0(pi, s, cfg)
    b = fd_projected_gradient_j0(pi, s, cfg)
    np.testing.assert_allclose(a, b, atol=2e-5)
    assert objective_j0(a, pi, s, cfg) <= objective_j0(b, pi, s, cfg) + 1e-9


@settings(max_examples=300, deadline=None)
@given(token=st.sampled_from(ALL_TOKENS), n=st.integers(2, 59), k=st.integers(1, 4),
       alpha=weights, partitions=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_grad_j0_is_one_product_with_the_bits_of_two(token, n, k, alpha, partitions, seed):
    # S G and S Y were two products; one of [G, Y] sums each column in the same order
    rng = np.random.default_rng(seed)
    pi, s, cfg = random_instance(token, rng, n, k, alpha=alpha)
    if partitions:
        s = partition_similarity(rng, n)
    problem = _Problem(pi, s, cfg)
    Y = interior_points(token, rng, n, k)
    widths = []
    matvec = problem.op.matvec

    def counted(Z):
        widths.append(Z.shape[1])
        return matvec(Z)

    problem.op.matvec = counted
    got = problem.grad_j0(Y)
    assert widths == ([2 * k] if alpha > 0.0 else [])
    del problem.op.matvec
    assert got.tobytes() == CheckedProblem(pi, s, cfg).grad_j0(Y).tobytes()


@settings(max_examples=60, deadline=None)
@given(token=st.sampled_from(ALL_TOKENS), n=st.integers(1, 6), k=st.integers(2, 4),
       alpha=st.floats(0.01, 2.0), lam=st.floats(0.01, 2.0), partitions=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_bb_minimize_j0_matches_doubling_oracle(token, n, k, alpha, lam, partitions, seed):
    rng = np.random.default_rng(seed)
    pi, s, cfg = random_instance(token, rng, n, k, alpha=alpha, lam=lam,
                                 epsilon=1e-12, max_iters=3000)
    if partitions and n > 1:
        s = partition_similarity(rng, n)
    spec = cfg.divergence
    y = minimize_j0(pi, s, cfg)
    # first-order stationary, read in the oracle's Euclidean geometry:
    # measured at most 2.0e-7 on 700 random problems
    grad = _Problem(pi, s, cfg).grad_j0(y)
    assert float(np.abs(y - project_domain(y - grad, spec)).max()) <= 1e-5

    oracle = doubling_minimize_j0(pi, s, cfg)
    j, j_oracle = objective_j0(y, pi, s, cfg), objective_j0(oracle, pi, s, cfg)
    # J0 is summed from terms of the size of sum |phi(pi)|; when it cancels
    # far below them (kl, n=3: J0 = 5.0e-4 from terms of order 1) both
    # minimizers sit at its rounding floor, so the 1e-13 is taken relative to
    # the larger of the two.  Measured on 1400 random problems: at most
    # 5.0e-14 of J0 and 1.4e-15 of that scale above the oracle.
    scale = max(abs(j_oracle), float(np.abs(spec.phi_terms(spec.clamp(pi))).sum()))
    assert j <= j_oracle + 1e-13 * scale

    _, state = run(pi, s, cfg)
    got = lambda_threshold(pi, s, cfg, state)
    expected = lambda_threshold(pi, s, cfg, state, j0_minimizer=oracle)
    # lambda_hat is a J0 difference over the copy gap, so J0's bound carries
    # over divided by the gap (kl, n=2: a gap of 6.4e-8 turns a J0 change of
    # 7.6e-17 into 5.6e-10 of lambda_hat).  Measured: within 4.4e-12 relative
    # on the 1400 random problems.
    gap = float(np.sum(spec.bregman(state.y_left, state.y_right)))
    bound = 1e-10 * abs(expected) + (1e-13 * scale / gap if gap > 0.0 else 0.0)
    assert got <= expected + bound
    if j_oracle <= j + 1e-13 * scale:  # the oracle reached the minimum too
        assert abs(got - expected) <= bound


def test_minimize_j0_reaches_the_squared_minimizer_where_doubling_stalls():
    # Doubling from the accepted step 0.25 always fails back to 0.25, about
    # 2 / (2 + 6 alpha), where the stiff direction contracts by -0.99998 per
    # step: the doubling rule ends at its 20000-iteration cap with J0 = 1.449
    # and lambda_hat = 14.57 instead of 0.5475 and 2.1875.
    pi = np.array([[1.3, 0.6], [0.2, 0.1]])
    s = SimilarityMatrix.from_pairs(2, [0], [1], [0.75])
    cfg = SolverConfig(divergence=divergence_spec("squared", 2), alpha=0.99999, lam=1.0,
                       epsilon=1e-12, max_iters=3000)
    # J0 = |Y - pi|^2 + alpha sum_ij s_ij |Y_i - Y_j|^2 is stationary where
    # (I + 2 alpha (R - S)) Y = pi
    exact = np.linalg.solve(np.eye(2) + 2 * cfg.alpha * (np.diag(s.operator.row_sum)
                                                         - s.to_dense()), pi)
    np.testing.assert_allclose(minimize_j0(pi, s, cfg), exact, rtol=0.0, atol=1e-9)
    _, state = run(pi, s, cfg)
    assert lambda_threshold(pi, s, cfg, state) == pytest.approx(
        lambda_threshold(pi, s, cfg, state, j0_minimizer=exact), rel=1e-10, abs=0.0)


def test_minimize_j0_falls_back_to_doubling_where_the_gradient_turns_back(monkeypatch):
    # itakura-saito's divergence is not convex in its second argument, so
    # neither is J0: along some accepted moves, the change s of grad phi and
    # the change y of J0's gradient have s'y <= 0, where the Barzilai-Borwein
    # quotient is no step length.  Among seeds 0-399 of this shape, 309 is
    # the one whose descent takes such a move and more than ten steps
    pi, s, cfg = random_instance("itakura-saito", np.random.default_rng(309), 2, 2, alpha=10.0)
    points = []
    grad_j0 = _Problem.grad_j0

    def recorded(self, Y):
        points.append((Y, grad_j0(self, Y)))
        return points[-1][1]

    monkeypatch.setattr(_Problem, "grad_j0", recorded)
    y = minimize_j0(pi, s, cfg)
    monkeypatch.undo()
    # the gradient is evaluated once per accepted point
    duals = [(cfg.divergence.grad(Y), g) for Y, g in points]
    assert any(np.vdot(d1 - d0, g1 - g0) <= 0.0
               for (d0, g0), (d1, g1) in zip(duals, duals[1:]))
    oracle = doubling_minimize_j0(pi, s, cfg)
    scale = float(np.abs(cfg.divergence.phi_terms(cfg.divergence.clamp(pi))).sum())
    assert objective_j0(y, pi, s, cfg) <= objective_j0(oracle, pi, s, cfg) + 1e-13 * scale


@pytest.mark.parametrize("token", ["squared", "itakura-saito", "kl", "gen-i"])
def test_minimize_j0_stops_once_the_trial_no_longer_moves(token, monkeypatch):
    # on these instances a trial still moves Y at J0's rounding floor, where
    # no halving lowers J0: the halvings must end on the move test, at the
    # first trial that neither moves nor lowers J0, not after a count of
    # failures
    pi, s, cfg = random_instance(token, np.random.default_rng(0), 5, 2)
    values = []
    objective = _Problem.objective

    def counted(self, *args, **kwargs):
        values.append(objective(self, *args, **kwargs))
        return values[-1]

    monkeypatch.setattr(_Problem, "objective", counted)
    minimize_j0(pi, s, cfg)
    # a rejected trial never lowers J0, so each new minimum is an accepted step
    accepted = [i for i, v in enumerate(values) if v < min(values[:i], default=np.inf)]
    assert len(accepted) > 10
    assert len(values) - 1 - accepted[-1] < 60


def test_minimize_j0_reads_no_negative_j0(monkeypatch):
    # J0 is 0.0 at pi here; its fit term read -8.87e-17 at the first trial and
    # the descent took that step, which lowered only rounding
    pi, s, cfg = random_instance("itakura-saito", np.random.default_rng(0), 2, 2, alpha=10.0)
    values = []
    j0 = _Problem.j0

    def counted(self, Y):
        values.append(j0(self, Y))
        return values[-1]

    monkeypatch.setattr(_Problem, "j0", counted)
    y = minimize_j0(pi, s, cfg)
    assert len(values) > 1 and min(values) >= 0.0
    assert y.tobytes() == _Problem(pi, s, cfg).pi.tobytes()


@settings(max_examples=200, deadline=None)
@given(token=st.sampled_from(ALL_TOKENS), n=st.integers(1, 8), k=st.integers(2, 4),
       scale=st.floats(1e-3, 1e8), share=st.floats(0.0, 0.999), gscale=st.floats(1e-6, 1e6),
       seed=st.integers(0, 2**32 - 1))
def test_a_zero_mirror_step_lands_on_the_round_trip(token, n, k, scale, share, gscale, seed):
    # minimize_j0's halving ends because a vanishing step lands on Y's round
    # trip through the map, bit for bit at step 0, at any floor below 1/k.
    # Y itself is no such fixed point: a round trip can move a large
    # coordinate by more than the move tolerance
    floor = max(share / k, 1e-12)
    spec = divergence_spec(token, k, domain_floor=floor)
    problem = _Problem(None, SimilarityMatrix.empty(n), SolverConfig(divergence=spec))
    rng = np.random.default_rng(seed)
    Y = project_domain(rng.normal(size=(n, k)) * scale, spec)
    dual, g = spec.grad(Y), rng.normal(size=(n, k)) * gscale
    here = _or_none(problem.primal, dual)
    assert here is not None
    assert _or_none(problem.primal, dual - 0.0 * g).tobytes() == here.tobytes()
    step = 1.0
    for _ in range(200):
        trial = _or_none(problem.primal, dual - step * g)
        if trial is not None and float(np.abs(trial - here).max()) < _J0_TOL:
            break
        step *= 0.5
    else:
        raise AssertionError("no step of 2**-199 or more lands within the move tolerance")


def _j0_calls(monkeypatch, limit):
    """A list that grows by one per J0 evaluation; the call past ``limit`` fails."""
    calls = []
    j0 = _Problem.j0

    def counted(self, Y):
        calls.append(1)
        assert len(calls) <= limit, f"the J0 descent takes more than {limit} evaluations"
        return j0(self, Y)

    monkeypatch.setattr(_Problem, "j0", counted)
    return calls


def test_lambda_threshold_returns_under_a_wide_kl_floor(monkeypatch):
    # the halving never ended here while a Euclidean projection onto
    # {y >= floor, sum y = 1} moved its own output.  At alpha = 0, J0 is
    # the fit term alone, 0 at pi clamped, where the descent starts, and so
    # is J at the run's right copies: lambda_hat is 0.  The projection kept
    # J0's minimizer off pi and read 0.271
    calls = _j0_calls(monkeypatch, 2000)
    pi = np.eye(2)[np.random.default_rng(0).integers(0, 2, 7)]
    s = SimilarityMatrix.empty(7)
    cfg = SolverConfig(divergence=divergence_spec("kl", 2, domain_floor=0.3), alpha=0.0, lam=0.0)
    _, state = run(pi, s, cfg)
    assert lambda_threshold(pi, s, cfg, state) == 0.0
    assert calls


@settings(max_examples=100, deadline=None)
@given(token=st.sampled_from(ALL_TOKENS), n=st.integers(1, 6), k=st.integers(2, 4),
       alpha=st.floats(0.01, 2.0), partitions=st.booleans(),
       spread=st.one_of(st.just(0.0), st.floats(1e-12, 1e-2)), seed=st.integers(0, 2**32 - 1))
def test_minimize_j0_is_short_on_one_hot_pi(token, n, k, alpha, partitions, spread, seed):
    # one-hot rows of pi, clamped to the floor, sent the Euclidean projected
    # descent to its 20000-iteration cap (itakura-saito: up to 159924 J0
    # evaluations and 4.5 s in one call).  Mirror steps reach the floor
    # geometrically: at most 1389 evaluations (itakura-saito) in 4 480 draws
    # from this test's distribution, a third of them with pi exactly one-hot
    rng = np.random.default_rng(seed)
    pi, s, cfg = random_instance(token, rng, n, k, alpha=alpha)
    pi = (1.0 - spread) * np.eye(k)[rng.integers(0, k, n)] + spread * pi
    if partitions and n > 1:
        s = partition_similarity(rng, n)
    with pytest.MonkeyPatch.context() as patch:
        calls = _j0_calls(patch, 2000)
        y = minimize_j0(pi, s, cfg)
    assert calls
    # mirror-stationary: a unit step from y lands back on it; the residual
    # measured at most 3.0e-7 (itakura-saito) on the same draws
    problem = _Problem(pi, s, cfg)
    step = _or_none(problem.primal, cfg.divergence.grad(y) - problem.grad_j0(y))
    assert step is not None
    assert float(np.abs(y - step).max()) <= 1e-6


@pytest.mark.parametrize("token", ALL_TOKENS)
@pytest.mark.parametrize("partitions", [False, True])
def test_lambda_threshold_is_permutation_invariant(token, partitions, rng):
    n, k = 7, 3
    pi, s, cfg = random_instance(token, rng, n, k, epsilon=1e-12, max_iters=3000)
    perm = rng.permutation(n)
    if partitions:
        parts = rng.integers(0, 3, (n, 4))
        s, permuted = coassociation_similarity(parts), coassociation_similarity(parts[perm])
    else:
        inv = np.argsort(perm)  # node i of the original is node inv[i] of the permuted
        permuted = SimilarityMatrix.from_pairs(n, inv[s.rows], inv[s.cols], s.vals)
    _, state = run(pi, s, cfg)
    _, state_p = run(pi[perm], permuted, cfg)
    expected = lambda_threshold(pi, s, cfg, state)
    # the minimizer itself moves by up to about 1e-8 under a permutation, but
    # J0 is flat there: lambda_hat moved by at most 1.9e-13 relative on 140
    # random problems and 1.6e-15 on the benchmark's desk problem
    assert lambda_threshold(pi[perm], permuted, cfg, state_p) == pytest.approx(
        expected, rel=1e-10, abs=0.0)


def _partitions_with_singletons(rng, n):
    parts = rng.integers(0, int(rng.integers(1, 5)), (n, int(rng.integers(1, 5))))
    alone = rng.uniform(size=parts.shape) < rng.uniform(0.0, 0.5)
    parts[alone] = parts.max() + 1 + np.arange(int(alone.sum()))  # one node each
    return parts


@settings(max_examples=140, deadline=None)
@given(token=st.sampled_from(ALL_TOKENS), n=st.integers(2, 40), k=st.integers(2, 4),
       layout=st.sampled_from(["random", "gaps", "empty", "partitions"]),
       seed=st.integers(0, 2**32 - 1))
def test_stored_pair_relabelling_permutes_product_and_run(token, n, k, layout, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    Y = rng.normal(size=(n, k))
    if layout == "partitions":
        # permuting the nodes permutes the rows of the partition matrix, and
        # with them each cluster's members; a cluster adds Y_i and takes it
        # out again, so its rounding is relative to |Y_i| as well
        parts = _partitions_with_singletons(rng, n)
        s, permuted = coassociation_similarity(parts), coassociation_similarity(parts[perm])
        bound = 1e-12 * (s.operator.matvec(np.abs(Y)) + np.abs(Y))
    else:
        s = layout_similarity(layout, rng, n)
        inv = np.argsort(perm)  # node i of the original is node inv[i] of the permuted
        permuted = SimilarityMatrix.from_pairs(n, inv[s.rows], inv[s.cols], s.vals)
        # the layout orders rows by degree, then node, so the sums take other orders
        bound = 1e-12 * s.operator.matvec(np.abs(Y))
    assert np.all(np.abs(permuted.operator.matvec(Y[perm]) - s.operator.matvec(Y)[perm])
                  <= bound[perm])

    pi = random_pi(token, rng, n, k)
    # the same number of sweeps: at epsilon=1e-300 a run stops only where J repeats
    # bit for bit, which the rounding decides, and the copies may still move
    cfg = SolverConfig(divergence=divergence_spec(token, k), alpha=float(rng.uniform(0.1, 1.5)),
                       lam=float(rng.uniform(0.05, 1.0)), epsilon=1e-300, max_iters=30)
    sweeps = min(run(pi, s, cfg)[1].iteration, run(pi[perm], permuted, cfg)[1].iteration)
    cfg = dataclasses.replace(cfg, max_iters=sweeps)
    labeling, state = run(pi, s, cfg)
    labeling_p, state_p = run(pi[perm], permuted, cfg)
    assert state.iteration == state_p.iteration == sweeps
    # measured on 2800 problems, 100 per token and layout: copies within
    # 4.9e-15, J within 4.3e-14 relative
    for got, want in ((labeling_p.probabilities, labeling.probabilities),
                      (state_p.y_left, state.y_left), (state_p.y_right, state.y_right)):
        np.testing.assert_allclose(got, want[perm], rtol=0.0, atol=1e-10)
    assert state_p.objective_trace[-1] == pytest.approx(state.objective_trace[-1],
                                                        rel=1e-12, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(token=st.sampled_from(ALL_TOKENS), n=st.integers(2, 8), k=st.integers(2, 4),
       layout=st.sampled_from(["random", "gaps", "empty", "partitions"]),
       alpha=weights, lam=weights, seed=st.integers(0, 2**32 - 1))
def test_objective_trace_never_rises(token, n, k, layout, alpha, lam, seed):
    # each half-step minimizes J exactly over one copy, so J cannot rise
    # beyond rounding; on both backings, with either weight at 0
    rng = np.random.default_rng(seed)
    if layout == "partitions":
        s = coassociation_similarity(_partitions_with_singletons(rng, n))
    else:
        s = layout_similarity(layout, rng, n)
    pi = random_pi(token, rng, n, k)
    cfg = SolverConfig(divergence=divergence_spec(token, k), alpha=alpha, lam=lam,
                       epsilon=1e-300, max_iters=60)
    trace = np.array(run(pi, s, cfg)[1].objective_trace)
    slack = 1e-12 * np.maximum(np.abs(trace[:-1]), 1.0)
    assert np.all(np.diff(trace) <= slack)


_EPSILONS = (1e-6, 1e-10, 1e-14, 1e-16)


def _bitwise_states(got, want):
    """Two solver states agree bit for bit: iteration, trace, copies and history."""
    assert got.iteration == want.iteration
    assert np.array(got.objective_trace).tobytes() == np.array(want.objective_trace).tobytes()
    assert got.y_left.tobytes() == want.y_left.tobytes()
    assert got.y_right.tobytes() == want.y_right.tobytes()
    if want.copy_history is None:
        assert got.copy_history is None
        return
    assert len(got.copy_history) == len(want.copy_history)
    for (a, b), (c, d) in zip(got.copy_history, want.copy_history):
        assert a.tobytes() == c.tobytes() and b.tobytes() == d.tobytes()


@settings(max_examples=200, deadline=None)
@given(token=st.sampled_from(ALL_TOKENS), n=st.integers(1, 6), k=st.integers(2, 4),
       alpha=weights, lam=weights, recorded=st.sampled_from(_EPSILONS),
       target=st.sampled_from(_EPSILONS), recorded_cap=st.integers(1, 80),
       target_cap=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_prefix_is_bitwise_a_fresh_run(token, n, k, alpha, lam, recorded, target,
                                       recorded_cap, target_cap, seed):
    recorded, target = sorted((recorded, target))  # the record's tolerance is no looser
    rng = np.random.default_rng(seed)
    pi, s, cfg = random_instance(token, rng, n, k, alpha=alpha, lam=lam,
                                 epsilon=recorded, max_iters=recorded_cap)
    _, state = run(pi, s, cfg, record_copies=True)
    kept = (state.y_left.copy(), state.y_right.copy(), list(state.objective_trace),
            [(a.copy(), b.copy()) for a, b in state.copy_history])
    target_cfg = dataclasses.replace(cfg, epsilon=target, max_iters=target_cap)
    try:
        fresh_labeling, fresh = run(pi, s, target_cfg, record_copies=True)
    except BregmanConsensusError:
        fresh = None  # every recorded J is finite, so this fresh run went past the record

    if fresh is None or fresh.iteration > state.iteration:
        with pytest.raises(ArgumentError, match="before the test"):
            prefix(state, target_cfg)
    else:
        labeling, got = prefix(state, target_cfg)
        assert labeling.iterations_used == fresh.iteration
        assert labeling.converged == fresh_labeling.converged
        _bitwise_states(got, fresh)
        for a, b in ((labeling.probabilities, fresh_labeling.probabilities),
                     (labeling.labels, fresh_labeling.labels)):
            assert a.tobytes() == b.tobytes()
    with pytest.raises(ArgumentError, match="copy history"):
        prefix(dataclasses.replace(state, copy_history=None), target_cfg)

    assert state.y_left.tobytes() == kept[0].tobytes()
    assert state.y_right.tobytes() == kept[1].tobytes()
    assert state.objective_trace == kept[2]
    assert len(state.copy_history) == len(kept[3])
    for (a, b), (c, d) in zip(state.copy_history, kept[3]):
        assert a.tobytes() == c.tobytes() and b.tobytes() == d.tobytes()


def _same_outcome(call, reference):
    """``call()`` and ``reference()`` both return, or raise alike; the values or None."""
    try:
        want = reference()
    except BregmanConsensusError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            call()
        return None, None
    return call(), want


def _oracle_problem(token, n, k, alpha, lam, backing, isolated, seed, hard=False, floor=1e-12,
                    max_iters=1000):
    """(pi, similarity, config) for the checked-reference tests.

    ``isolated`` gives node 0 (stored pairs: nodes 0, n // 2 and n - 1) no
    neighbour and sets lam to 0, so those rows are inactive in the left
    sweep; ``hard`` makes about half the rows of pi one-hot.
    """
    rng = np.random.default_rng(seed)
    pi = random_pi(token, rng, n, k)
    if hard:
        one_hot = rng.uniform(size=n) < 0.5
        pi[one_hot] = np.eye(k)[rng.integers(0, k, n)][one_hot]
    if backing == "partitions" and n > 1:
        parts = rng.integers(0, 3, (n, 4))
        if isolated:
            parts[0] = 3  # a cluster of its own in every partition
        s = coassociation_similarity(parts)
    else:
        s = layout_similarity("gaps" if isolated else "random", rng, n)
    cfg = SolverConfig(divergence=divergence_spec(token, k, domain_floor=floor), alpha=alpha,
                       lam=0.0 if isolated else lam, epsilon=1e-12, max_iters=max_iters)
    return pi, s, cfg


@settings(max_examples=200, deadline=None)
@given(token=st.sampled_from(ALL_TOKENS), n=st.integers(1, 8), k=st.integers(2, 4),
       alpha=weights, lam=weights, backing=st.sampled_from(["pairs", "partitions"]),
       isolated=st.booleans(), hard=st.booleans(), floor=st.sampled_from([1e-12, 0.05, 0.3]),
       record=st.booleans(), max_iters=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_run_is_bitwise_the_checked_reference(token, n, k, alpha, lam, backing, isolated, hard,
                                              floor, record, max_iters, seed):
    # the loop clamps each copy once and runs the raw kernels; the reference
    # checks and clamps on every evaluator call.  One-hot rows of pi and a
    # wide floor (above 1/k for k = 4) make the clamps move values: of pi,
    # of right copies rounded below the floor, and of the uniform start
    try:
        pi, s, cfg = _oracle_problem(token, n, k, alpha, lam, backing, isolated, seed,
                                     hard=hard, floor=floor, max_iters=max_iters)
    except DomainError:  # building the spec rejects a kl floor with no simplex point
        assert token == "kl" and k * floor >= 1.0
        return
    got, want = _same_outcome(lambda: run(pi, s, cfg, record_copies=record),
                              lambda: checked_run(pi, s, cfg, record_copies=record))
    if want is None:
        return
    labeling, state = got
    probs, labels, reference = want
    assert labeling.probabilities.tobytes() == probs.tobytes()
    assert labeling.labels.tobytes() == labels.tobytes()
    assert labeling.iterations_used == reference.iteration
    _bitwise_states(state, reference)


@settings(max_examples=100, deadline=None)
@given(token=st.sampled_from(ALL_TOKENS), n=st.integers(1, 6), k=st.integers(2, 4),
       alpha=weights, lam=weights, backing=st.sampled_from(["pairs", "partitions"]),
       isolated=st.booleans(), hard=st.booleans(), floor=st.sampled_from([1e-12, 0.05, 0.3]),
       seed=st.integers(0, 2**32 - 1))
def test_lambda_threshold_is_bitwise_the_checked_reference(token, n, k, alpha, lam, backing,
                                                           isolated, hard, floor, seed):
    # the J0 descent clamps each iterate once per evaluation and runs the raw
    # kernels; one-hot rows start it at the floor, on the simplex's faces
    # for kl.  A kl floor of 0.3 at k = 4 leaves no simplex point, which
    # building the spec rejects
    try:
        pi, s, cfg = _oracle_problem(token, n, k, alpha, lam, backing, isolated, seed,
                                     hard=hard, floor=floor)
    except DomainError:
        assert token == "kl" and k * floor >= 1.0
        return
    try:
        _, state = run(pi, s, cfg)
    except BregmanConsensusError:
        return  # run's failures are the other test's
    got, want = _same_outcome(lambda: lambda_threshold(pi, s, cfg, state),
                              lambda: checked_lambda_threshold(pi, s, cfg, state))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("token", ALL_TOKENS)
@pytest.mark.parametrize("partitions", [False, True])
def test_the_loop_makes_no_domain_scan(token, partitions, rng, monkeypatch):
    # the copies are checked where they enter; a scan per kernel call would
    # grow the count with the number of iterations
    pi, s, cfg = random_instance(token, rng, 12, 3, epsilon=1e-300)
    if partitions:
        s = partition_similarity(rng, 12)
    calls = []
    check_domain = DivergenceSpec.check_domain

    def counted(self, p):
        calls.append(1)
        return check_domain(self, p)

    monkeypatch.setattr(DivergenceSpec, "check_domain", counted)
    counts = []
    for max_iters in (2, 20):
        calls.clear()
        _, state = run(pi, s, dataclasses.replace(cfg, max_iters=max_iters), record_copies=True)
        assert state.iteration == max_iters
        counts.append(len(calls))
    assert counts[0] == counts[1]


class TestNonFinite:
    """Hyperparameters must be finite, and a non-finite objective stops the run."""

    @pytest.mark.parametrize("name", ["alpha", "lam", "epsilon"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_config_rejects_non_finite(self, name, bad):
        with pytest.raises(ArgumentError, match=name):
            SolverConfig(divergence=divergence_spec("gen-i", 2), **{name: bad})

    @pytest.mark.parametrize("name", ["alpha", "lam"])
    @pytest.mark.parametrize("bad", [5e-324, np.finfo(float).tiny / 2])
    def test_config_rejects_subnormal_weights(self, name, bad):
        # lam=5e-324 left y_left at [1.5, 0.5] for pi [1.31, 0.61] (squared) after
        # one iteration: the left sweep's products underflowed
        with pytest.raises(ArgumentError, match=f"^{name} must be 0 or at least"):
            SolverConfig(divergence=divergence_spec("gen-i", 2), **{name: bad})
        tiny = np.finfo(float).tiny
        assert getattr(SolverConfig(divergence=divergence_spec("gen-i", 2),
                                    **{name: tiny}), name) == tiny

    def test_overflowing_objective_names_its_iteration(self):
        # alpha=1e308 used to give the trace 0.215, inf, inf, 3.0e12, ... and converged=True
        pi = np.array([[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]])
        s = SimilarityMatrix.from_pairs(3, [0, 1], [1, 2], [0.5, 0.9])
        cfg = SolverConfig(divergence=divergence_spec("itakura-saito", 2), alpha=1e308)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            with pytest.raises(NonFiniteObjectiveError, match="at iteration 1$"):
                run(pi, s, cfg)
