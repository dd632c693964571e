"""Estimator-style front end over the consensus solver.

:class:`BregmanConsensus` follows the scikit-learn parameter protocol
(keyword-only constructor mirrored by ``get_params``/``set_params``, fitted
attributes with trailing underscores) so it drops into pipelines and model
selection utilities without importing scikit-learn itself.  The transductive
``fit`` consumes the two ensemble products directly: a class-probability
matrix and a similarity over the same instances.
"""

from __future__ import annotations

import numpy as np

from .divergences import DivergenceSpec, divergence_spec, validate_probabilities
from .ensemble_inputs import SimilarityMatrix
from .exceptions import ShapeError
from .solver import SolverConfig, run


def check_probabilities(pi, spec: DivergenceSpec) -> np.ndarray:
    """Validate and clean a class-probability matrix for the given divergence.

    Checks shape and finiteness, clamps into the divergence domain (the same
    check :func:`~bregman_consensus.solver.run` makes), and for the
    simplex-domain kind re-normalizes rows to unit L1.
    """
    pi = validate_probabilities(spec, pi)
    if spec.simplex_domain:
        pi = pi / pi.sum(axis=1, keepdims=True)
    return pi


def check_similarity(similarity, n: int) -> SimilarityMatrix:
    """Coerce dense arrays or pass through sparse similarities; check size."""
    if not isinstance(similarity, SimilarityMatrix):
        similarity = SimilarityMatrix.from_dense(np.asarray(similarity, dtype=np.float64))
    if similarity.n != n:
        raise ShapeError(f"similarity covers {similarity.n} instances, expected {n}")
    return similarity


class BregmanConsensus:
    """Consolidate classifier probabilities with cluster-ensemble similarity.

    Parameters
    ----------
    divergence : str or DivergenceKind or DivergenceSpec, default "gen-i"
        Loss family for all three objective terms.
    alpha : float, default 1.0
        Weight of the similarity (cluster-ensemble) term.
    lam : float, default 0.1
        Coupling penalty tying each instance's two copies together.
    epsilon : float, default 1e-10
        Relative objective-change tolerance of the stopping rule.
    max_iter : int, default 1000
        Iteration cap; the best iterate so far is still returned when hit.
    domain_floor : float, default 1e-12
        Clamping epsilon applied to log-domain inputs.
    threads : int, default 1
        Accepted for compatibility and ignored; the solve runs in one
        thread.

    Attributes
    ----------
    probabilities_ : (n, k) ndarray
        Consolidated per-instance class probabilities.
    labels_ : (n,) ndarray
        Row-wise argmax of the consolidated probabilities.
    n_iter_ : int
    converged_ : bool
    objective_trace_ : list of float
    state_ : SolverState
        Final left/right copies, for diagnostics.
    """

    def __init__(self, divergence="gen-i", alpha=1.0, lam=0.1, epsilon=1e-10,
                 max_iter=1000, domain_floor=1e-12, threads=1):
        self.divergence = divergence
        self.alpha = alpha
        self.lam = lam
        self.epsilon = epsilon
        self.max_iter = max_iter
        self.domain_floor = domain_floor
        self.threads = threads

    _PARAMS = ("divergence", "alpha", "lam", "epsilon", "max_iter", "domain_floor", "threads")

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._PARAMS}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in self._PARAMS:
                raise ValueError(f"invalid parameter {name!r} for BregmanConsensus")
            setattr(self, name, value)
        return self

    def _spec(self, k: int) -> DivergenceSpec:
        if isinstance(self.divergence, DivergenceSpec):
            return self.divergence
        return divergence_spec(self.divergence, k, self.domain_floor)

    def fit(self, pi, similarity):
        """Run the consensus solve on a probability matrix and a similarity.

        Parameters
        ----------
        pi : (n, k) array
            Averaged classifier probabilities for the target instances.
        similarity : SimilarityMatrix or (n, n) array
            Symmetric co-association weights in [0, 1].
        """
        pi = np.asarray(pi, dtype=np.float64)
        if pi.ndim != 2:
            raise ShapeError(f"probabilities must be 2-D (n, k), got shape {pi.shape}")
        spec = self._spec(pi.shape[1])
        pi = check_probabilities(pi, spec)
        similarity = check_similarity(similarity, pi.shape[0])
        config = SolverConfig(divergence=spec, alpha=self.alpha, lam=self.lam,
                              epsilon=self.epsilon, max_iters=self.max_iter,
                              threads=self.threads)
        labeling, state = run(pi, similarity, config)
        self.probabilities_ = labeling.probabilities
        self.labels_ = labeling.labels
        self.n_iter_ = labeling.iterations_used
        self.converged_ = labeling.converged
        self.objective_trace_ = state.objective_trace
        self.state_ = state
        return self

    def fit_predict(self, pi, similarity):
        """Fit and return the consolidated labels."""
        return self.fit(pi, similarity).labels_
