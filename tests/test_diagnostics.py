"""Hessian blocks, positive definiteness, rate ratios, and descent monitors."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregman_consensus import diagnostics
from bregman_consensus.diagnostics import (
    MAX_HESSIAN_DIM,
    DeltaJMonitor,
    RateReport,
    check_positive_definite,
    delta_j,
    descent_violation,
    hessian_blocks,
    qlinear_ratios,
    quadratic_form_identity,
    render_report,
)
from bregman_consensus.divergences import divergence_spec
from bregman_consensus.ensemble_inputs import SimilarityMatrix, coassociation_similarity
from bregman_consensus.exceptions import (ArgumentError, DomainError, InsufficientTraceError,
                                         ShapeError, UnsupportedDivergenceError)
from bregman_consensus.solver import SolverConfig, SolverState, _Problem, run

from conftest import (ALL_TOKENS, LAYOUTS, assemble, grad_objective, interior_points,
                      layout_similarity, pair_block, pairwise_hessian, pointwise_delta_j,
                      random_instance, random_pi, random_similarity, weights)


def _state(y_left, y_right):
    return SolverState(y_left=np.asarray(y_left, float), y_right=np.asarray(y_right, float),
                       iteration=0, objective_trace=[])


def _interior_state(token, rng, n, k):
    return _state(interior_points(token, rng, n, k), interior_points(token, rng, n, k))


class TestHessianBlocks:
    def test_unsupported_kinds_raise(self, rng):
        pi, s, _ = random_instance("euclidean", rng, 3, 2)
        cfg = SolverConfig(divergence=divergence_spec("euclidean", 2))
        with pytest.raises(UnsupportedDivergenceError):
            hessian_blocks(_interior_state("euclidean", rng, 3, 2), pi, s, cfg)

    def test_single_instance_alpha_zero_left_block(self, rng):
        # all similarity sums empty: left-left block is lam * diag(1/y_left)
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 3), alpha=0.0, lam=0.7)
        st = _interior_state("gen-i", rng, 1, 3)
        pi = random_pi("gen-i", rng, 1, 3)
        blocks = hessian_blocks(st, pi, SimilarityMatrix.empty(1), cfg)
        np.testing.assert_allclose(pair_block(blocks, "l", 0, "l", 0),
                                   np.diag(0.7 / st.y_left[0]), atol=1e-15)

    def test_assembled_matrix_is_symmetric(self, rng):
        pi, s, cfg = random_instance("gen-i", rng, 4, 3)
        st = _interior_state("gen-i", rng, 4, 3)
        H = assemble(hessian_blocks(st, pi, s, cfg))
        assert np.abs(H - H.T).max() == 0.0

    def test_off_diagonal_same_side_blocks_are_zero(self, rng):
        pi, s, cfg = random_instance("kl", rng, 3, 2)
        st = _interior_state("kl", rng, 3, 2)
        blocks = hessian_blocks(st, pi, s, cfg)
        assert np.all(pair_block(blocks, "l", 0, "l", 1) == 0.0)
        assert np.all(pair_block(blocks, "r", 1, "r", 2) == 0.0)

    @pytest.mark.parametrize("token", ["kl", "gen-i"])
    def test_blocks_match_finite_differences_of_gradient(self, token, rng):
        n, k = 3, 2
        for _ in range(10):
            pi, s, cfg = random_instance(token, rng, n, k)
            st = _interior_state(token, rng, n, k)
            H = assemble(hessian_blocks(st, pi, s, cfg))
            z0 = np.concatenate([st.y_left.ravel(), st.y_right.ravel()])
            h = 1e-5
            fd = np.zeros_like(H)
            for c in range(z0.size):
                zp, zm = z0.copy(), z0.copy()
                zp[c] += h
                zm[c] -= h
                fd[:, c] = (_grad_at(zp, n, k, pi, s, cfg) - _grad_at(zm, n, k, pi, s, cfg)) / (2 * h)
            np.testing.assert_allclose(H, fd, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("token", ["kl", "gen-i"])
    def test_gradient_matches_finite_differences_of_objective(self, token, rng):
        n, k = 4, 3
        pi, s, cfg = random_instance(token, rng, n, k)
        st = _interior_state(token, rng, n, k)
        g = grad_objective(st, pi, s, cfg)
        z0 = np.concatenate([st.y_left.ravel(), st.y_right.ravel()])
        h = 1e-6
        fd = np.zeros_like(z0)
        for c in range(z0.size):
            zp, zm = z0.copy(), z0.copy()
            zp[c] += h
            zm[c] -= h
            fd[c] = (_objective_at(zp, n, k, pi, s, cfg) - _objective_at(zm, n, k, pi, s, cfg)) / (2 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("token", ["kl", "gen-i"])
    def test_quadratic_form_identity(self, token, rng):
        # z' H z at the evaluation point telescopes to scale * sum(pi)
        n, k = 4, 3
        for _ in range(20):
            pi, s, cfg = random_instance(token, rng, n, k)
            st = _interior_state(token, rng, n, k)
            blocks = hessian_blocks(st, pi, s, cfg)
            value, expected, residual = quadratic_form_identity(blocks, st, pi)
            assert residual <= 1e-8
            assert expected == pytest.approx(blocks.scale * pi.sum())


@pytest.mark.parametrize("bad", [
    lambda pi: np.where(np.arange(pi.size).reshape(pi.shape) == 0, np.nan, pi),
    lambda pi: np.full_like(pi, np.inf),
    lambda pi: np.hstack([pi, pi[:, :1]]),
    lambda pi: np.vstack([pi, pi[:1]]),
    np.ravel,
], ids=["nan", "inf", "extra-column", "extra-row", "flat"])
def test_quadratic_form_identity_rejects_a_pi_unlike_the_blocks(bad, rng):
    # a 3-column or 4-row pi used to give a number (1.4, 1.0) and NaN a nan residual
    pi, s, cfg = random_instance("gen-i", rng, 3, 2)
    st_ = _interior_state("gen-i", rng, 3, 2)
    blocks = hessian_blocks(st_, pi, s, cfg)
    quadratic_form_identity(blocks, st_, pi)
    with pytest.raises(ShapeError, match="pi"):
        quadratic_form_identity(blocks, st_, bad(pi))
    with pytest.raises(ShapeError, match="y_right"):
        quadratic_form_identity(blocks, _state(st_.y_left, bad(st_.y_right)), pi)


@settings(max_examples=300, deadline=None)
@given(token=st.sampled_from(["kl", "gen-i"]), n=st.integers(1, 8), k=st.integers(2, 4),
       layout=st.sampled_from(LAYOUTS), alpha=weights, lam=weights,
       seed=st.integers(0, 2**32 - 1))
def test_hessian_matches_pairwise_oracle_bitwise(token, n, k, layout, alpha, lam, seed):
    rng = np.random.default_rng(seed)
    similarity = layout_similarity(layout, rng, n)
    if layout == "uniform":
        pi = yl = yr = np.full((n, k), 1.0 / k)
    else:
        pi = random_pi(token, rng, n, k)
        yl, yr = interior_points(token, rng, n, k), interior_points(token, rng, n, k)
    config = SolverConfig(divergence=divergence_spec(token, k), alpha=alpha, lam=lam)
    state = _state(yl, yr)
    got = assemble(hessian_blocks(state, pi, similarity, config))
    want = pairwise_hessian(state, pi, similarity, config)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bitwise, signed zeros included


def test_hessian_keeps_positive_zeros_where_alpha_underflows_a_pair_weight(rng):
    # alpha * s = 2.2e-325 rounds to 0; -(c alpha kron(S, I) + c lam I) / yr
    # would store -0.0 there, the pairwise form +0.0
    n, k = 3, 2
    similarity = SimilarityMatrix.from_pairs(n, [0, 1], [1, 2], [1e-17, 0.5])
    config = SolverConfig(divergence=divergence_spec("gen-i", k),
                          alpha=float(np.finfo(float).tiny), lam=0.3)
    pi = random_pi("gen-i", rng, n, k)
    state = _state(interior_points("gen-i", rng, n, k), interior_points("gen-i", rng, n, k))
    got = assemble(hessian_blocks(state, pi, similarity, config))
    assert got.tobytes() == pairwise_hessian(state, pi, similarity, config).tobytes()


def test_hessian_over_the_cap_raises_shape_error(rng):
    k = 2
    n = MAX_HESSIAN_DIM // (2 * k) + 1
    cfg = SolverConfig(divergence=divergence_spec("gen-i", k))
    with pytest.raises(ShapeError, match="desk-scale cap"):
        hessian_blocks(_interior_state("gen-i", rng, n, k), random_pi("gen-i", rng, n, k),
                       random_similarity(rng, n), cfg)
    blocks = hessian_blocks(_interior_state("gen-i", rng, n - 1, k),
                            random_pi("gen-i", rng, n - 1, k), random_similarity(rng, n - 1), cfg)
    assert assemble(blocks).shape == (2 * (n - 1) * k,) * 2


@settings(max_examples=200, deadline=None)
@given(token=st.sampled_from(["kl", "gen-i"]), n=st.integers(1, 12), k=st.integers(2, 4),
       layout=st.sampled_from(LAYOUTS + ("partitions",)), alpha=weights, lam=weights,
       seed=st.integers(0, 2**32 - 1))
def test_per_block_checks_match_the_dense_matrix(token, n, k, layout, alpha, lam, seed):
    # the smallest eigenvalue and z' H z from the k coordinate blocks, against
    # the dense 2nk-by-2nk matrix
    rng = np.random.default_rng(seed)
    if layout == "partitions":
        similarity = (coassociation_similarity(rng.integers(0, 3, (n, 4))) if n > 1
                      else SimilarityMatrix.empty(n))
    else:
        similarity = layout_similarity(layout, rng, n)
    pi = random_pi(token, rng, n, k)
    state = _interior_state(token, rng, n, k)
    config = SolverConfig(divergence=divergence_spec(token, k), alpha=alpha, lam=lam)
    blocks = hessian_blocks(state, pi, similarity, config)
    H = assemble(blocks)
    pd, smallest = check_positive_definite(blocks)
    dense = float(np.linalg.eigvalsh(H)[0])
    assert abs(smallest - dense) <= 1e-10 * max(1.0, abs(dense))
    assert pd == (smallest > 0.0)
    value, expected, residual = quadratic_form_identity(blocks, state, pi)
    z = np.concatenate([state.y_left.ravel(), state.y_right.ravel()])
    assert abs(value - float(z @ H @ z)) <= 1e-12 * abs(expected)
    assert residual <= 1e-12 * abs(expected)


class TestPositiveDefiniteness:
    def test_random_interior_states_are_pd(self, rng):
        for _ in range(20):
            pi, s, cfg = random_instance("kl", rng, 4, 3)
            st = _interior_state("kl", rng, 4, 3)
            pd, smallest = check_positive_definite(hessian_blocks(st, pi, s, cfg))
            assert pd and smallest > 0.0

    def test_degenerate_weights_are_not_pd(self, rng):
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=0.0, lam=0.0)
        st = _interior_state("gen-i", rng, 1, 2)
        pi = random_pi("gen-i", rng, 1, 2)
        pd, smallest = check_positive_definite(
            hessian_blocks(st, pi, SimilarityMatrix.empty(1), cfg))
        assert not pd
        assert smallest == pytest.approx(0.0, abs=1e-12)

    def test_kl_and_gen_i_verdicts_agree_at_same_point(self, rng):
        n, k = 3, 3
        pi = random_pi("kl", rng, n, k)
        s = random_similarity(rng, n)
        yl = interior_points("kl", rng, n, k)
        yr = interior_points("kl", rng, n, k)
        verdicts = []
        for token in ("kl", "gen-i"):
            cfg = SolverConfig(divergence=divergence_spec(token, k), alpha=0.8, lam=0.3)
            pd, _ = check_positive_definite(hessian_blocks(_state(yl, yr), pi, s, cfg))
            verdicts.append(pd)
        assert verdicts[0] == verdicts[1]


class TestQlinear:
    def test_alpha_zero_contraction_is_half(self, rng):
        # with alpha=0, lam=1 the iteration is affine toward pi with factor 1/2
        pi = random_pi("gen-i", rng, 5, 2)
        spec = divergence_spec("gen-i", 2)
        cfg = SolverConfig(divergence=spec, alpha=0.0, lam=1.0, epsilon=1e-10, max_iters=100)
        _, state = run(pi, SimilarityMatrix.empty(5), cfg, record_copies=True)
        tight = SolverConfig(divergence=spec, alpha=0.0, lam=1.0, epsilon=1e-14, max_iters=5000)
        _, star = run(pi, SimilarityMatrix.empty(5), tight)
        report = qlinear_ratios(state.copy_history, (star.y_left, star.y_right), burn_in=5)
        post = report.past_burn_in(5)
        assert post and all(abs(r - 0.5) <= 0.05 for r in post)

    def test_already_converged_start_reports_empty_ratios(self, rng):
        n, k = 4, 2
        pi = np.full((n, k), 0.5)
        spec = divergence_spec("kl", k)
        cfg = SolverConfig(divergence=spec, alpha=1.0, lam=0.5, max_iters=10)
        s = random_similarity(rng, n)
        # pad the two-snapshot history so the burn-in precondition is met
        _, state = run(pi, s, cfg, record_copies=True)
        history = state.copy_history + [state.copy_history[-1]] * 8
        report = qlinear_ratios(history, (state.y_left, state.y_right), burn_in=5)
        assert report.qlinear and report.ratios == []
        assert report.rho_estimate == 0.0

    @pytest.mark.parametrize("token", ["kl", "gen-i"])
    def test_random_instances_contract(self, token, rng):
        pi, s, cfg = random_instance(token, rng, 5, 3, alpha=1.0, lam=1.0,
                                     epsilon=1e-12, max_iters=500)
        _, state = run(pi, s, cfg, record_copies=True)
        tight = SolverConfig(divergence=cfg.divergence, alpha=1.0, lam=1.0,
                             epsilon=1e-15, max_iters=5000)
        _, star = run(pi, s, tight)
        report = qlinear_ratios(state.copy_history, (star.y_left, star.y_right), burn_in=5)
        post = report.past_burn_in(5)
        assert post and max(post) < 1.0 and report.qlinear
        tail = report.ratios[-5:]
        assert max(tail) - min(tail) < 0.2  # empirical rate stabilization

    def test_negative_burn_in_is_rejected(self):
        # burn_in=-1 used to count the ratio taken at the uniform start
        snapshots = [(np.full((2, 2), 0.5 ** t), np.full((2, 2), 0.5 ** t)) for t in range(8)]
        with pytest.raises(ArgumentError, match="burn_in"):
            qlinear_ratios(snapshots, (np.zeros((2, 2)), np.zeros((2, 2))), burn_in=-1)

    def test_insufficient_snapshots(self, rng):
        with pytest.raises(InsufficientTraceError):
            qlinear_ratios([(np.zeros((2, 2)), np.zeros((2, 2)))] * 4,
                           (np.zeros((2, 2)), np.zeros((2, 2))), burn_in=5)


class TestDeltaJ:
    def test_zero_iff_equal(self, rng):
        pi, s, cfg = random_instance("gen-i", rng, 4, 2)
        a = interior_points("gen-i", rng, 4, 2)
        assert delta_j(a, a, s, cfg) == pytest.approx(0.0, abs=1e-12)
        b = interior_points("gen-i", rng, 4, 2)
        assert delta_j(a, b, s, cfg) > 0.0

    @pytest.mark.parametrize("case", ["all-nan", "four-rows", "three-columns"])
    @pytest.mark.parametrize("which", ["left_a", "left_b"])
    def test_rejects_a_configuration_not_finite_or_not_n_by_k(self, case, which, rng):
        # it returned nan, failed in numpy's broadcasting, and returned 0.0318
        _, s, _ = random_instance("gen-i", rng, 3, 2)
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=0.5, lam=0.1)
        good = interior_points("gen-i", rng, 3, 2)
        bad = {"all-nan": np.full((3, 2), np.nan),
               "four-rows": interior_points("gen-i", rng, 4, 2),
               "three-columns": interior_points("gen-i", rng, 3, 3)}[case]
        args = {"left_a": good, "left_b": good, which: bad}
        with pytest.raises(ShapeError, match=which):
            delta_j(args["left_a"], args["left_b"], s, cfg)
        if case != "all-nan":  # both of one wrong shape were compared with each other
            with pytest.raises(ShapeError, match="left_a"):
                delta_j(bad, bad, s, cfg)

    def test_empty_similarity_reduces_to_lam_weighted_sum(self, rng):
        cfg = SolverConfig(divergence=divergence_spec("gen-i", 2), alpha=3.0, lam=0.4)
        a = interior_points("gen-i", rng, 4, 2)
        b = interior_points("gen-i", rng, 4, 2)
        expected = 0.4 * float(np.sum(cfg.divergence.bregman(a, b)))
        assert delta_j(a, b, SimilarityMatrix.empty(4), cfg) == pytest.approx(expected)

    def test_three_point_inequality_after_exact_left_sweep(self, rng):
        # J(yl, yr) - J(yl*, yr) >= delta_j(yl, yl*) for the sweep minimizer yl*
        from bregman_consensus.solver import update_left

        for _ in range(10):
            pi, s, cfg = random_instance("gen-i", rng, 4, 3)
            yl = interior_points("gen-i", rng, 4, 3)
            yr = interior_points("gen-i", rng, 4, 3)
            st = _state(yl, yr)
            yl_star = np.stack([update_left(i, st, s, cfg) for i in range(4)])
            problem = _Problem(pi, s, cfg)
            drop = problem.objective(yl, yr) - problem.objective(yl_star, yr)
            assert drop >= delta_j(yl, yl_star, s, cfg) - 1e-10

    def test_monitor_non_increasing_along_trajectory(self, rng):
        from conftest import ALL_TOKENS

        for token in ALL_TOKENS:
            pi, s, cfg = random_instance(token, rng, 5, 3, epsilon=1e-12, max_iters=300)
            _, state = run(pi, s, cfg, record_copies=True)
            tight = SolverConfig(divergence=cfg.divergence, alpha=cfg.alpha, lam=cfg.lam,
                                 epsilon=1e-15, max_iters=5000)
            _, star = run(pi, s, tight)
            monitor = DeltaJMonitor.from_history(star.y_left, state.copy_history, s, cfg)
            assert monitor.is_monotone(slack=1e-10)


def _out_of_domain(token, snapshot):
    """The snapshot with one coordinate outside the token's domain, or NaN where it has none."""
    bad = snapshot.copy()
    bad.flat[0] = {"squared": np.nan, "euclidean": np.nan, "logistic": 1.5}.get(token, -0.5)
    return bad


@settings(max_examples=300, deadline=None)
@given(token=st.sampled_from(ALL_TOKENS), n=st.integers(1, 8), k=st.integers(1, 4),
       length=st.integers(1, 30), block=st.sampled_from([1, 5, 17, 1 << 16]),
       defect=st.sampled_from([None, None, "domain", "nan", "inf", "shape"]),
       alpha=weights, lam=weights, seed=st.integers(0, 2**32 - 1))
def test_monitor_is_bitwise_one_delta_j_per_snapshot(token, n, k, length, block, defect,
                                                    alpha, lam, seed):
    # the monitor evaluates the snapshots together, block by block, against
    # one pointwise evaluation per snapshot
    rng = np.random.default_rng(seed)
    similarity = random_similarity(rng, n)
    config = SolverConfig(divergence=divergence_spec(token, k), alpha=alpha, lam=lam)
    reference = interior_points(token, rng, n, k)
    history = [(interior_points(token, rng, n, k), None) for _ in range(length)]
    if defect is not None:
        t = int(rng.integers(0, length))
        y = history[t][0]
        y = {"domain": lambda: _out_of_domain(token, y),
             "nan": lambda: np.where(rng.uniform(size=y.shape) < 0.5, np.nan, y),
             "inf": lambda: np.full_like(y, -np.inf),
             "shape": lambda: y[:, :-1] if k > 1 else y[:-1]}[defect]()
        history[t] = (y, None)
    want, error = [], None
    for y, _ in history:
        try:
            want.append(pointwise_delta_j(reference, y, similarity, config))
        except (ShapeError, DomainError) as exc:
            error = exc
            break
    with mock.patch.object(diagnostics, "_MONITOR_BLOCK", block):
        if error is None:
            got = DeltaJMonitor.from_history(reference, history, similarity, config).values
            assert np.array(got).tobytes() == np.array(want).tobytes()
        else:
            with pytest.raises(type(error)) as raised:
                DeltaJMonitor.from_history(reference, history, similarity, config)
            assert str(raised.value) == str(error)


def test_monitor_memory_does_not_grow_with_the_history(rng):
    # the snapshots go a bounded block at a time: about 7 copies' bytes at
    # the peak here, where stacking all 40 at once peaked at 182
    n, k = 20_000, 2
    similarity = random_similarity(rng, 40)
    similarity = SimilarityMatrix.from_pairs(n, similarity.rows, similarity.cols, similarity.vals)
    config = SolverConfig(divergence=divergence_spec("gen-i", k), alpha=0.5, lam=0.1)
    reference = interior_points("gen-i", rng, n, k)
    history = [(interior_points("gen-i", rng, n, k), None) for _ in range(40)]
    similarity.operator  # built outside the measurement
    tracemalloc.start()
    try:
        monitor = DeltaJMonitor.from_history(reference, history, similarity, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(monitor.values) == 40
    assert peak < 12 * reference.nbytes, f"peak {peak / reference.nbytes:.1f} copies"


class TestReporting:
    def test_descent_violation_zero_for_monotone(self):
        assert descent_violation([3.0, 2.0, 2.0, 1.5]) == 0.0
        assert descent_violation([1.0, 1.1]) == pytest.approx(0.1)

    def test_render_report_format(self):
        text = render_report([("pd", True), ("rho", 0.5), ("n", 7)])
        assert "pd=true" in text
        assert "rho=0.5" in text
        assert text.endswith("n=7\n")


def _grad_at(z, n, k, pi, s, cfg):
    z = z.reshape(2, n, k)
    return grad_objective(_state(z[0], z[1]), pi, s, cfg)


def _objective_at(z, n, k, pi, s, cfg):
    z = z.reshape(2, n, k)
    return _Problem(pi, s, cfg).objective(z[0], z[1])
