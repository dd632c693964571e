"""The solver's objective trace against the pairwise oracle, and J's noise floor."""

import numpy as np
import pytest

from bregman_consensus.divergences import divergence_spec
from bregman_consensus.ensemble_inputs import SimilarityMatrix
from bregman_consensus.estimator import check_probabilities
from bregman_consensus.solver import SolverConfig, run

from conftest import (ALL_TOKENS, pairwise_objective, partition_similarity, random_pi,
                      random_similarity)


@pytest.mark.parametrize("backing", ["pairs", "partitions"])
@pytest.mark.parametrize("token", ALL_TOKENS)
def test_every_trace_entry_matches_pairwise_oracle(token, backing, rng):
    n, k = 9, 3
    similarity = (random_similarity(rng, n) if backing == "pairs"
                  else partition_similarity(rng, n))
    spec = divergence_spec(token, k)
    pi = check_probabilities(random_pi(token, rng, n, k), spec)
    config = SolverConfig(divergence=spec, alpha=0.6, lam=0.3, max_iters=30)
    _, state = run(pi, similarity, config, record_copies=True)
    assert len(state.objective_trace) == len(state.copy_history) > 2
    for value, (yl, yr) in zip(state.objective_trace, state.copy_history):
        want = pairwise_objective(yl, yr, pi, similarity, config)
        assert value >= 0.0
        assert abs(value - want) <= 1e-12 + 1e-10 * abs(want), (value, want)


@pytest.mark.parametrize("token", ["squared", "logistic", "itakura-saito", "gen-i"])
def test_alpha_zero_fixed_point_noise_floor(token):
    """Near the alpha = 0 fixed point, |J| stays within one ulp of 1 times sum |phi(pi)|.

    Each Bregman term is differenced per coordinate before any sum, so its
    parts cancel locally; on these instances that keeps |J| at 0.15-0.4 of
    the bound.  Regrouping J into global sums (sum phi(pi) - sum phi(yr) -
    ...) gives 2 to 5 times the bound, and the 1e-14 reference runs of
    acceptance criterion 6 then stop early.
    """
    rng = np.random.default_rng(606)
    spec = divergence_spec(token, 3)
    config = SolverConfig(divergence=spec, alpha=0.0, lam=1.0, epsilon=1e-14, max_iters=200)
    for _ in range(10):
        pi = check_probabilities(random_pi(token, rng, 5, 3), spec)
        _, state = run(pi, SimilarityMatrix.empty(5), config)
        bound = np.finfo(float).eps * float(np.sum(np.abs(spec.phi_terms(pi))))
        assert np.abs(state.objective_trace[-5:]).max() <= bound
