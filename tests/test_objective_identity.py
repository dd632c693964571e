"""The per-node-sum objective against the pairwise oracle, property-based."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregman_consensus.divergences import divergence_spec
from bregman_consensus.estimator import check_probabilities
from bregman_consensus.solver import (
    SolverConfig,
    SolverState,
    _Problem,
    objective_j,
    objective_j0,
    run,
)

from conftest import (ALL_TOKENS, LAYOUTS, interior_points, layout_similarity,
                      pairwise_objective, random_pi, weights)


@settings(max_examples=300, deadline=None)
@given(token=st.sampled_from(ALL_TOKENS), n=st.integers(1, 8), k=st.integers(2, 4),
       layout=st.sampled_from(LAYOUTS), alpha=weights, lam=weights,
       seed=st.integers(0, 2**32 - 1))
def test_objectives_match_pairwise_oracle(token, n, k, layout, alpha, lam, seed):
    rng = np.random.default_rng(seed)
    similarity = layout_similarity(layout, rng, n)
    if layout == "uniform":  # the fixed point of uniform input: J = 0
        pi = yl = yr = np.full((n, k), 1.0 / k)
    else:
        pi = random_pi(token, rng, n, k)
        yl, yr = interior_points(token, rng, n, k), interior_points(token, rng, n, k)
    config = SolverConfig(divergence=divergence_spec(token, k), alpha=alpha, lam=lam)
    state = SolverState(y_left=yl, y_right=yr, iteration=0, objective_trace=[])

    def close(got, want):
        assert got >= 0.0  # a weighted sum of divergences, rounding included
        assert abs(got - want) <= 1e-12 + 1e-10 * abs(want), (got, want)

    problem = _Problem(pi, similarity, config)
    close(problem.objective(yl, yr),
          pairwise_objective(yl, yr, pi, similarity, config))
    close(problem.objective(yl, yr, lam=0.0),
          pairwise_objective(yl, yr, pi, similarity, config, lam=0.0))
    close(objective_j(state, pi, similarity, config),
          pairwise_objective(yl, yr, pi, similarity, config))
    close(objective_j0(yr, pi, similarity, config),
          pairwise_objective(yr, yr, pi, similarity, config, lam=0.0))
    # one array as both copies takes the shared phi terms and clamp: same bits
    assert objective_j0(yr, pi, similarity, config) == problem.objective(
        yr, yr.copy(), lam=0.0)


@pytest.mark.parametrize("token", ALL_TOKENS)
def test_solver_trace_matches_pairwise_oracle(token, rng):
    pi = random_pi(token, rng, 7, 3)
    similarity = layout_similarity("gaps", rng, 7)
    config = SolverConfig(divergence=divergence_spec(token, 3), alpha=0.7, lam=0.2,
                          max_iters=20, threads=3)
    pi_c = check_probabilities(pi, config.divergence)
    _, state = run(pi_c, similarity, config, record_copies=True)
    for value, (yl, yr) in zip(state.objective_trace, state.copy_history):
        want = pairwise_objective(yl, yr, pi_c, similarity, config)
        assert value == pytest.approx(want, rel=1e-10, abs=1e-12)
