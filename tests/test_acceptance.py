"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <nn> <name>: PASS`` (or FAIL) line;
run with ``pytest -v -s tests/test_acceptance.py`` to see them.  Tolerances
and runtime caps are pinned in the assertions.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bregman_consensus.datasets import synthetic_problem
from bregman_consensus.diagnostics import (
    check_positive_definite,
    hessian_blocks,
    qlinear_ratios,
    quadratic_form_identity,
)
from bregman_consensus.divergences import divergence_spec
from bregman_consensus.ensemble_inputs import SimilarityMatrix, coassociation_similarity
from bregman_consensus.solver import (
    SolverConfig,
    SolverState,
    lambda_threshold,
    objective_j,
    run,
    update_left,
    update_right,
)

from conftest import (
    ALL_TOKENS,
    assemble,
    eq_left_objective,
    eq_right_objective,
    fd_projected_gradient_j0,
    grad_objective,
    interior_points,
    nelder_mead_minimize,
    random_instance,
    random_pi,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


def _state(y_left, y_right):
    return SolverState(y_left=y_left, y_right=y_right, iteration=0, objective_trace=[])


def test_01_closed_form_half_steps_match_derivative_free_search():
    rng = np.random.default_rng(101)
    with criterion(1, "closed-form updates vs derivative-free minimization"):
        started = time.perf_counter()
        for trial in range(50):
            token = ALL_TOKENS[trial % len(ALL_TOKENS)]
            n = int(rng.integers(2, 5))
            k = int(rng.integers(2, 4))
            pi, s, cfg = random_instance(token, rng, n, k)
            yl = interior_points(token, rng, n, k)
            yr = interior_points(token, rng, n, k)
            st = _state(yl, yr)

            j = int(rng.integers(0, n))
            closed_r = update_right(j, st, pi, s, cfg)
            oracle_r = nelder_mead_minimize(
                token, eq_right_objective(j, yl, pi, s, cfg), k, seed=trial)
            np.testing.assert_allclose(closed_r, oracle_r, atol=1e-6)

            i = int(rng.integers(0, n))
            closed_l = update_left(i, st, s, cfg)
            oracle_l = nelder_mead_minimize(
                token, eq_left_objective(i, yr, s, cfg), k, seed=trial + 1)
            np.testing.assert_allclose(closed_l, oracle_l, atol=1e-6)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_02_objective_trace_is_monotone():
    rng = np.random.default_rng(202)
    with criterion(2, "monotone objective descent"):
        started = time.perf_counter()
        for trial in range(50):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, 5))
            seeds = rng.integers(0, 2**31, size=len(ALL_TOKENS))
            for token, seed in zip(ALL_TOKENS, seeds):
                local = np.random.default_rng(seed)
                pi, s, cfg = random_instance(token, local, n, k,
                                             epsilon=1e-30, max_iters=100)
                _, state = run(pi, s, cfg)
                trace = np.array(state.objective_trace)
                slack = 1e-12 * np.maximum(np.abs(trace[:-1]), 1.0)
                assert np.all(np.diff(trace) <= slack), f"descent violated for {token}"
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def test_03_alpha_zero_recovers_row_normalized_pi():
    rng = np.random.default_rng(303)
    with criterion(3, "alpha=0 fixed point equals row-normalized pi"):
        for token in ALL_TOKENS:
            pi = random_pi(token, rng, 7, 3)
            cfg = SolverConfig(divergence=divergence_spec(token, 3), alpha=0.0,
                               lam=1.0, epsilon=1e-10, max_iters=200)
            labeling, _ = run(pi, SimilarityMatrix.empty(7), cfg)
            assert labeling.iterations_used <= 200
            expected = pi / pi.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(labeling.probabilities, expected, atol=1e-8,
                                       err_msg=f"fixed point drifted for {token}")


def test_04_primal_divergence_equals_dual_divergence():
    rng = np.random.default_rng(404)
    with criterion(4, "Legendre dual identity on 1e4 pairs per divergence"):
        for token in ALL_TOKENS:
            spec = divergence_spec(token, 3)
            p = interior_points(token, rng, 10_000, 3)
            q = interior_points(token, rng, 10_000, 3)
            primal = spec.bregman(p, q)
            dual = spec.bregman_dual(spec.grad(q), spec.grad(p))
            worst = float(np.max(np.abs(primal - dual)))
            assert worst <= 1e-9, f"{token}: worst dual mismatch {worst}"


def test_05_hessian_blocks_positive_definiteness_and_quadratic_form():
    rng = np.random.default_rng(505)
    n, k = 4, 3
    with criterion(5, "entropy-type Hessian verification"):
        started = time.perf_counter()
        for token in ("kl", "gen-i"):
            # analytic blocks against central finite differences of the gradient
            for _ in range(10):
                pi, s, cfg = random_instance(token, rng, n, k)
                st = _state(interior_points(token, rng, n, k),
                            interior_points(token, rng, n, k))
                H = assemble(hessian_blocks(st, pi, s, cfg))
                z0 = np.concatenate([st.y_left.ravel(), st.y_right.ravel()])
                fd = np.zeros_like(H)
                h = 1e-5
                for c in range(z0.size):
                    zp, zm = z0.copy(), z0.copy()
                    zp[c] += h
                    zm[c] -= h
                    gp = grad_objective(_state(*zp.reshape(2, n, k)), pi, s, cfg)
                    gm = grad_objective(_state(*zm.reshape(2, n, k)), pi, s, cfg)
                    fd[:, c] = (gp - gm) / (2 * h)
                np.testing.assert_allclose(H, fd, rtol=1e-4, atol=1e-7)

            # quadratic-form identity and strict positive definiteness
            for _ in range(20):
                pi, s, cfg = random_instance(token, rng, n, k)
                assert np.all(pi > 0.0)
                st = _state(interior_points(token, rng, n, k),
                            interior_points(token, rng, n, k))
                blocks = hessian_blocks(st, pi, s, cfg)
                _, _, residual = quadratic_form_identity(blocks, st, pi)
                assert residual <= 1e-8
                pd, smallest = check_positive_definite(blocks)
                assert pd and smallest > 0.0
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def test_06_qlinear_rate_and_contraction_oracle():
    rng = np.random.default_rng(606)
    with criterion(6, "q-linear distance ratios"):
        for token in ("kl", "gen-i"):
            for _ in range(10):
                pi, s, cfg = random_instance(token, rng, 5, 3, alpha=1.0, lam=1.0,
                                             epsilon=1e-12, max_iters=500)
                _, state = run(pi, s, cfg, record_copies=True)
                tight = SolverConfig(divergence=cfg.divergence, alpha=1.0, lam=1.0,
                                     epsilon=1e-14, max_iters=5000)
                _, star = run(pi, s, tight)
                report = qlinear_ratios(state.copy_history,
                                        (star.y_left, star.y_right), burn_in=5)
                post = report.past_burn_in(5)
                assert post, f"{token}: no usable ratios past burn-in"
                assert max(post) < 1.0
                tail = report.ratios[-5:]
                assert max(tail) - min(tail) < 0.2  # empirical rate stabilization

            # closed-form contraction oracle: with alpha=0 and lam=1 the
            # recursion is affine toward pi with factor lam/(1+lam) = 0.5
            pi = random_pi(token, rng, 5, 3)
            spec = divergence_spec(token, 3)
            cfg = SolverConfig(divergence=spec, alpha=0.0, lam=1.0,
                               epsilon=1e-10, max_iters=100)
            _, state = run(pi, SimilarityMatrix.empty(5), cfg, record_copies=True)
            tight = SolverConfig(divergence=spec, alpha=0.0, lam=1.0,
                                 epsilon=1e-14, max_iters=5000)
            _, star = run(pi, SimilarityMatrix.empty(5), tight)
            report = qlinear_ratios(state.copy_history,
                                    (star.y_left, star.y_right), burn_in=5)
            post = report.past_burn_in(5)
            assert post and all(abs(r - 0.5) <= 0.05 for r in post)


def test_07_equality_of_solutions_above_coupling_threshold():
    rng = np.random.default_rng(707)
    with criterion(7, "copy coalescence and single-copy minimizer match"):
        for token in ("gen-i", "euclidean"):
            for _ in range(2):
                pi, s, _ = random_instance(token, rng, 3, 2, alpha=0.05)
                spec = divergence_spec(token, 2)
                base = SolverConfig(divergence=spec, alpha=0.05, lam=0.1,
                                    epsilon=1e-14, max_iters=20000)
                _, state = run(pi, s, base)
                lam_hat = lambda_threshold(pi, s, base, state)
                lam_run = max(lam_hat, 500.0)
                big = SolverConfig(divergence=spec, alpha=0.05, lam=lam_run,
                                   epsilon=1e-15, max_iters=120000)
                _, coupled = run(pi, s, big)
                gap = np.atleast_1d(spec.bregman(coupled.y_left, coupled.y_right))
                assert float(gap.max()) <= 1e-6

                y_star = fd_projected_gradient_j0(pi, s, big)
                y_final = 0.5 * (coupled.y_left + coupled.y_right)
                worst = float(np.abs(y_final - y_star).max())
                assert worst <= 1e-4, f"{token}: coordinate error {worst}"


def test_08_convergence_speed_at_desk_scale():
    rng = np.random.default_rng(808)
    with criterion(8, "convergence within 100 iterations at 1e-10"):
        iteration_counts = []
        plans = [(50, 3), (200, 3), (800, 2)]
        tokens = ["gen-i", "kl", "euclidean", "logistic", "squared",
                  "bose-einstein", "itakura-saito", "gen-i"]
        trial = 0
        for n, repeats in plans:
            for _ in range(repeats):
                token = tokens[trial % len(tokens)]
                trial += 1
                k = int(rng.integers(2, 5))
                pi = random_pi(token, rng, n, k)
                parts = rng.integers(0, 6, (n, 5))
                similarity = coassociation_similarity(parts)
                # operating range matching the published parameter studies:
                # small alpha, lam around 0.1-0.3
                alpha = float(10.0 ** rng.uniform(-4.0, np.log10(2.0 / n)))
                lam = float(rng.uniform(0.1, 0.3))
                cfg = SolverConfig(divergence=divergence_spec(token, k),
                                   alpha=alpha, lam=lam,
                                   epsilon=1e-10, max_iters=1000)
                labeling, _ = run(pi, similarity, cfg)
                assert labeling.converged, f"{token} n={n} failed to converge"
                assert labeling.iterations_used <= 100
                iteration_counts.append(labeling.iterations_used)
        dist = sorted(iteration_counts)
        print(f"\n  iteration distribution over {len(dist)} runs: "
              f"min={dist[0]} median={statistics.median(dist)} max={dist[-1]} ({dist})")


def test_09_half_moon_end_to_end_beats_its_ensemble():
    with criterion(9, "half-moon consensus accuracy"):
        started = time.perf_counter()
        ensemble_acc, consensus_acc = [], []
        for seed in range(10):
            problem = synthetic_problem("half-moon", 800, noise=0.1,
                                        label_fraction=0.02, seed=seed)
            assert problem.pi.shape[0] == 784
            ensemble_acc.append(float((problem.pi.argmax(axis=1) == problem.truth).mean()))
            similarity = coassociation_similarity(problem.partitions)
            cfg = SolverConfig(divergence=divergence_spec("gen-i", 2),
                               alpha=1e-4, lam=0.1, epsilon=1e-10, max_iters=1000)
            labeling, _ = run(problem.pi, similarity, cfg)
            consensus_acc.append(float((labeling.labels == problem.truth).mean()))
        mean_ensemble = statistics.mean(ensemble_acc)
        mean_consensus = statistics.mean(consensus_acc)
        elapsed = time.perf_counter() - started
        print(f"\n  ensemble={mean_ensemble:.4f} consensus={mean_consensus:.4f} "
              f"({elapsed:.1f}s)")
        assert mean_consensus >= mean_ensemble
        assert mean_consensus >= 0.95
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_10_sparsify_identity_and_thread_determinism(tmp_path):
    from bregman_consensus.cli import main

    with criterion(10, "sparsify-0 identity and worker-count determinism"):
        data = tmp_path / "data"
        assert main(["generate", "--kind", "half-moon", "--n", "200", "--noise", "0.1",
                     "--label-fraction", "0.05", "--seed", "5",
                     "--out-dir", str(data)]) == 0
        variants = {
            "plain": [],
            "sp0": ["--sparsify", "0"],
            "t1": ["--threads", "1"],
            "t4": ["--threads", "4"],
        }
        outputs = {}
        for tag, extra in variants.items():
            labels = tmp_path / f"labels_{tag}.csv"
            trace = tmp_path / f"trace_{tag}.csv"
            code = main(["run", "--pi", str(data / "pi.csv"),
                         "--partitions", str(data / "partitions.csv"),
                         "--alpha", "0.01", "--lambda", "0.1",
                         "--labels-out", str(labels), "--trace-out", str(trace),
                         *extra])
            assert code == 0
            outputs[tag] = (labels.read_bytes(), trace.read_bytes())
        assert outputs["plain"] == outputs["sp0"]
        assert outputs["t1"] == outputs["t4"] == outputs["plain"]
