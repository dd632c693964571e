"""Solver: objectives, closed-form updates, descent, fixed points, coupling."""

import math

import numpy as np
import pytest

from bregman_consensus.divergences import divergence_spec
from bregman_consensus.ensemble_inputs import SimilarityMatrix
from bregman_consensus.exceptions import ArgumentError, NonFiniteObjectiveError, ShapeError
from bregman_consensus.solver import (
    Labeling,
    SolverConfig,
    SolverState,
    lambda_threshold,
    minimize_j0,
    objective_j,
    objective_j0,
    run,
    update_left,
    update_right,
)

from conftest import (
    ALL_TOKENS,
    eq_left_objective,
    eq_right_objective,
    fd_projected_gradient_j0,
    interior_points,
    nelder_mead_minimize,
    random_instance,
    random_pi,
    random_similarity,
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
    def test_alpha_zero_fixed_point(self, token, rng):
        pi = random_pi(token, rng, 6, 3)
        cfg = SolverConfig(divergence=divergence_spec(token, 3), alpha=0.0, lam=1.0,
                           epsilon=1e-10, max_iters=200)
        labeling, _ = run(pi, SimilarityMatrix.empty(6), cfg)
        expected = pi / pi.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(labeling.probabilities, expected, atol=1e-8)

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

    def test_config_validation(self):
        spec = divergence_spec("gen-i", 2)
        with pytest.raises(ArgumentError):
            SolverConfig(divergence=spec, alpha=-1.0)
        with pytest.raises(ArgumentError):
            SolverConfig(divergence=spec, epsilon=0.0)

    def test_signed_domain_finalization(self, rng):
        # squared-loss runs can average to negative coordinates; labels come
        # from the raw argmax and probabilities from clamped L1 scaling
        pi = np.array([[-1.0, -3.0], [2.0, 1.0]])
        cfg = SolverConfig(divergence=divergence_spec("squared", 2), alpha=0.0, lam=0.5)
        labeling, _ = run(pi, SimilarityMatrix.empty(2), cfg)
        np.testing.assert_array_equal(labeling.labels, [0, 0])
        assert np.all(labeling.probabilities >= 0.0)
        np.testing.assert_allclose(labeling.probabilities.sum(axis=1), 1.0, atol=1e-12)


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
        from bregman_consensus.solver import _objective
        num = objective_j0(y_star, pi, s, cfg) - _objective(
            state.y_left, state.y_right, pi, s, cfg, lam=0.0)
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


class TestNonFinite:
    """Hyperparameters must be finite, and a non-finite objective stops the run."""

    @pytest.mark.parametrize("name", ["alpha", "lam", "epsilon"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_config_rejects_non_finite(self, name, bad):
        with pytest.raises(ArgumentError, match=name):
            SolverConfig(divergence=divergence_spec("gen-i", 2), **{name: bad})

    def test_overflowing_objective_names_its_iteration(self):
        # alpha=1e308 used to give the trace 0.215, inf, inf, 3.0e12, ... and converged=True
        pi = np.array([[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]])
        s = SimilarityMatrix.from_pairs(3, [0, 1], [1, 2], [0.5, 0.9])
        cfg = SolverConfig(divergence=divergence_spec("itakura-saito", 2), alpha=1e308)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            with pytest.raises(NonFiniteObjectiveError, match="at iteration 1$"):
                run(pi, s, cfg)
