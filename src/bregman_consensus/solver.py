"""Alternating closed-form consensus solver.

Each instance i carries two copies of its probability vector: a left copy
used wherever the vector appears as a first divergence argument and a right
copy for second-argument occurrences, tied together by a coupling penalty
``lam``.  The objective minimized over all copies is::

    J = sum_i d(pi_i, yr_i)
      + alpha * sum_{i,j} s_ij d(yl_i, yr_j)
      + lam   * sum_i d(yl_i, yr_i)

with the pair sum running over ordered pairs, the similarity read
symmetrically and the diagonal absent.  Both half-steps have closed forms:

* right copies are weighted arithmetic means of ``pi_j``, the neighbours'
  left copies and the instance's own left copy;
* left copies are weighted means in the gradient (dual) space, mapped back
  through the gradient inverse.

The pair term is never evaluated pair by pair.  With ``r = S 1`` the row
sums of the symmetric similarity, it equals the per-node sums (the
Bregman-information identity of Banerjee et al., "Clustering with Bregman
Divergences", JMLR 2005)::

    sum_i r_i (phi(yl_i) - phi(yr_i) + <yr_i, grad phi(yr_i)>)
      - sum_i <yl_i, (S grad phi(yr))_i>

The left sweep already forms ``S grad phi(yr)`` for the same right copies,
so each iteration's objective costs O(n k) on top of the sweeps; a bare
objective call costs one product of S with an n-by-k matrix.  The solver,
the objective and the diagnostics read the similarity only through its
operator (``n``, ``row_sum``, ``matvec``), built once per
:class:`~bregman_consensus.ensemble_inputs.SimilarityMatrix`: a symmetrized
CSR for stored pairs, O(nnz k) per product, or the partition-factored
co-association, O(n k r2) per product.

Within a half-step the per-instance updates are mutually independent (right
updates read only left copies and ``pi``; left updates read only right
copies), so each sweep is one vectorised pass over all instances built on a
single product with the similarity.  Every inner summation runs in fixed
ascending-index order, so results are reproducible bit for bit.  The solve
runs in one thread; ``SolverConfig.threads`` is accepted for compatibility
and ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .divergences import SIMPLEX_ATOL, DivergenceSpec, validate_probabilities
from .ensemble_inputs import SimilarityMatrix
from .exceptions import (ArgumentError, DivisionDegenerateError, DomainError,
                         NonFiniteObjectiveError, ShapeError)

_TRACE_GUARD = 1e-300  # denominator guard for the relative objective test


@dataclass
class SolverConfig:
    """Hyperparameters of one solve.

    ``alpha`` weights the cluster-ensemble term, ``lam`` is the global
    left/right coupling penalty (one value shared by every instance), and
    convergence fires when the relative objective change drops below
    ``epsilon``.  ``threads`` is accepted for compatibility and ignored; the
    solve runs in one thread.
    """

    divergence: DivergenceSpec
    alpha: float = 1.0
    lam: float = 0.1
    epsilon: float = 1e-10
    max_iters: int = 1000
    threads: int = 1

    def __post_init__(self):
        if not 0 <= self.alpha < np.inf:
            raise ArgumentError(f"alpha must be finite and nonnegative, got {self.alpha}")
        if not 0 <= self.lam < np.inf:
            raise ArgumentError(f"lam must be finite and nonnegative, got {self.lam}")
        if not 0 < self.epsilon < np.inf:
            raise ArgumentError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ArgumentError(f"max_iters must be positive, got {self.max_iters}")
        if self.threads < 1:
            raise ArgumentError(f"threads must be positive, got {self.threads}")


@dataclass
class SolverState:
    """Evolving left/right copies plus the objective trace."""

    y_left: np.ndarray
    y_right: np.ndarray
    iteration: int
    objective_trace: list
    copy_history: Optional[list] = field(default=None, repr=False)


@dataclass
class Labeling:
    """Final consolidated labeling."""

    probabilities: np.ndarray
    labels: np.ndarray
    iterations_used: int
    converged: bool


def _right_sweep(op, pi, y_left, alpha, lam):
    """All right copies at once: weighted means of pi, neighbours and own left copy."""
    denom = (1.0 + alpha * op.row_sum + lam)[:, None]
    return (pi + alpha * op.matvec(y_left) + lam * y_left) / denom


def _left_sweep(grad_right, op, spec, y_left, alpha, lam):
    """All left copies at once, plus ``S grad phi(yr)`` for the objective.

    Rows whose weights ``alpha * r_i + lam`` vanish keep their old copy.
    """
    nbr = op.matvec(grad_right)
    denom = alpha * op.row_sum + lam
    active = denom > 0.0
    dual = np.where(
        active[:, None],
        (alpha * nbr + lam * grad_right) / np.where(active, denom, 1.0)[:, None],
        grad_right,  # placeholder; inactive rows keep their old copy below
    )
    updated = spec.grad_inv(dual)
    if spec.simplex_domain:
        updated = updated / updated.sum(axis=1, keepdims=True)
    return np.where(active[:, None], updated, y_left), nbr


def _objective(y_left, y_right, pi, similarity, config, lam=None,
               grad_right=None, nbr_grad=None):
    """Split objective J at the given copies; ``lam`` overrides the coupling.

    ``grad_right`` (grad phi of the right copies) and ``nbr_grad`` (its
    product with the similarity) may be passed in when the caller already
    has them; otherwise they are computed here.  The pair term is a weighted
    sum of divergences, so it is clamped at 0 against rounding.
    """
    spec = config.divergence
    lam = config.lam if lam is None else lam
    phi_l, phi_r = spec.phi(y_left), spec.phi(y_right)
    if grad_right is None:
        grad_right = spec.grad(y_right)
    y_left, y_right = spec.clamp(y_left), spec.clamp(y_right)

    def to_right(p, phi_p):  # per-row d(p_i, yr_i)
        return phi_p - phi_r - np.sum((p - y_right) * grad_right, axis=-1)

    total = float(np.sum(to_right(spec.clamp(pi), spec.phi(pi))))
    if config.alpha > 0.0:
        op = similarity.operator
        if nbr_grad is None:
            nbr_grad = op.matvec(grad_right)
        per_node = (op.row_sum * (phi_l - phi_r + np.sum(y_right * grad_right, axis=-1))
                    - np.sum(y_left * nbr_grad, axis=-1))
        total += config.alpha * max(float(np.sum(per_node)), 0.0)
    if lam > 0.0:
        total += lam * float(np.sum(to_right(y_left, phi_l)))
    return total


def objective_j0(Y, pi, similarity, config) -> float:
    """Single-copy objective: fit term plus the similarity-weighted pair term."""
    Y = np.asarray(Y, dtype=np.float64)
    return _objective(Y, Y, pi, similarity, config, lam=0.0)


def objective_j(state: SolverState, pi, similarity, config) -> float:
    """Split objective over the state's left and right copies."""
    return _objective(state.y_left, state.y_right, pi, similarity, config)


def update_right(j: int, state: SolverState, pi, similarity, config) -> np.ndarray:
    """Closed-form minimizer for instance ``j``'s right copy, left copies fixed.

    This is row ``j`` of a full right sweep, so one call costs a whole sweep.
    """
    return _right_sweep(similarity.operator, np.asarray(pi, dtype=np.float64), state.y_left,
                        config.alpha, config.lam)[j]


def update_left(i: int, state: SolverState, similarity, config) -> np.ndarray:
    """Closed-form minimizer for instance ``i``'s left copy, right copies fixed.

    The minimization runs in the dual space: the gradient of the new left
    copy is the weighted mean of the right copies' gradients, with weights
    ``alpha * s_ij`` and ``lam``.  When both weights vanish the subproblem is
    vacuous and the old copy is returned unchanged.  This is row ``i`` of a
    full left sweep, so one call costs a whole sweep.
    """
    y_left, _ = _left_sweep(config.divergence.grad(state.y_right), similarity.operator,
                            config.divergence, state.y_left, config.alpha, config.lam)
    return y_left[i]


def _finalize(y_left, y_right, spec):
    y = 0.5 * (y_left + y_right)
    labels = np.argmax(y, axis=1)  # np.argmax breaks ties toward the lowest index
    if spec.nonnegative_domain:
        v = y
    else:
        v = np.maximum(y, 0.0)  # signed domains: clamp before scaling
    sums = v.sum(axis=1, keepdims=True)
    k = y.shape[1]
    probs = np.where(sums > 0.0, v / np.where(sums > 0.0, sums, 1.0), 1.0 / k)
    return probs, labels


def _finite(iteration: int, value: float) -> float:
    if not np.isfinite(value):
        raise NonFiniteObjectiveError(f"objective is {value!r} at iteration {iteration}")
    return value


def run(pi, similarity: SimilarityMatrix, config: SolverConfig,
        record_copies: bool = False):
    """Run the alternating solve to convergence.

    Every copy starts at the uniform vector 1/k.  Each iteration performs a
    full right sweep followed by a full left sweep, then appends the
    objective to the trace; the loop stops when the relative objective change
    falls below ``config.epsilon`` or after ``config.max_iters`` iterations.
    The final vectors are the averages of the two copies, normalized per row.
    A non-finite objective raises ``NonFiniteObjectiveError`` naming the
    iteration (0 for the starting copies).

    Parameters
    ----------
    pi : (n, k) array
        Averaged classifier probabilities.  For the simplex-domain kind
        (``kl``) every row must sum to 1 within ``SIMPLEX_ATOL``, or
        ``DomainError`` is raised; ``estimator.check_probabilities``
        normalizes rows first.
    similarity : SimilarityMatrix
        Co-association weights over the same n instances.
    config : SolverConfig
    record_copies : bool
        When true, ``state.copy_history`` holds an (y_left, y_right) snapshot
        per iteration, including the initial one.

    Returns
    -------
    (Labeling, SolverState)
    """
    spec = config.divergence
    raw = np.asarray(pi, dtype=np.float64)
    pi = validate_probabilities(spec, raw)
    if spec.simplex_domain:
        sums = raw.sum(axis=1)  # before clamping, which moves exact rows off the simplex
        off = np.flatnonzero(np.abs(sums - 1.0) > SIMPLEX_ATOL)
        if off.size:
            row = int(off[0])
            raise DomainError(f"{spec.kind.value}: pi row {row} sums to {float(sums[row])!r}, "
                              "not 1; normalize the rows first")
    n, k = pi.shape
    if similarity.n != n:
        raise ShapeError(f"similarity is over {similarity.n} instances, pi over {n}")

    op = similarity.operator
    y_left = np.full((n, k), 1.0 / k)
    y_right = np.full((n, k), 1.0 / k)
    trace = [_finite(0, _objective(y_left, y_right, pi, similarity, config))]
    history = [(y_left.copy(), y_right.copy())] if record_copies else None

    converged = False
    iteration = 0
    for iteration in range(1, config.max_iters + 1):
        y_right = _right_sweep(op, pi, y_left, config.alpha, config.lam)
        grad_right = spec.grad(y_right)
        y_left, nbr_grad = _left_sweep(grad_right, op, spec, y_left, config.alpha, config.lam)
        value = _finite(iteration, _objective(y_left, y_right, pi, similarity, config,
                                              grad_right=grad_right, nbr_grad=nbr_grad))
        trace.append(value)
        if history is not None:
            history.append((y_left.copy(), y_right.copy()))
        previous = trace[-2]
        if abs(value - previous) / max(previous, _TRACE_GUARD) < config.epsilon:
            converged = True
            break

    probs, labels = _finalize(y_left, y_right, spec)
    labeling = Labeling(probabilities=probs, labels=labels,
                        iterations_used=iteration, converged=converged)
    state = SolverState(y_left=y_left, y_right=y_right, iteration=iteration,
                        objective_trace=trace, copy_history=history)
    return labeling, state


# -- threshold for copy coalescence ------------------------------------------


def _grad_j0(Y, pi, op, config):
    spec = config.divergence
    G = spec.grad(Y)
    H = spec.hess_diag(Y)
    grad = H * (Y - pi)
    if config.alpha > 0.0:
        rs = op.row_sum[:, None]
        nbr_g = op.matvec(G)
        nbr_y = op.matvec(Y)
        grad += config.alpha * (rs * G - nbr_g)  # first-argument occurrences
        grad += config.alpha * H * (rs * Y - nbr_y)  # second-argument occurrences
    return grad


def _project_simplex(v):
    """Euclidean projection of each row onto the probability simplex."""
    n, k = v.shape
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    idx = np.arange(1, k + 1)
    cond = u - css / idx > 0
    rho = k - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(n), rho] / (rho + 1.0)
    return np.maximum(v - theta[:, None], 0.0)


def _project_domain(Y, spec):
    if spec.simplex_domain:
        Y = _project_simplex(Y)
        Y = spec.clamp(Y)
        return Y / Y.sum(axis=1, keepdims=True)
    return spec.clamp(Y)


def minimize_j0(pi, similarity, config, y0=None, max_iters=20000, tol=1e-12):
    """Projected-gradient minimizer of the single-copy objective.

    Used as the fallback when no externally computed minimizer is supplied to
    :func:`lambda_threshold`; Armijo backtracking on the exact objective.
    """
    spec = config.divergence
    pi = spec.clamp(np.asarray(pi, dtype=np.float64))
    Y = _project_domain(pi.copy() if y0 is None else np.asarray(y0, dtype=np.float64), spec)
    value = objective_j0(Y, pi, similarity, config)
    step = 1.0
    for _ in range(max_iters):
        g = _grad_j0(Y, pi, similarity.operator, config)
        improved = False
        trial = step
        for _ in range(60):  # backtrack until the projected step descends
            Y_new = _project_domain(Y - trial * g, spec)
            v_new = objective_j0(Y_new, pi, similarity, config)
            if v_new < value:
                improved = True
                break
            trial *= 0.5
        if not improved:
            break
        move = float(np.abs(Y_new - Y).max())
        drop = value - v_new
        Y, value = Y_new, v_new
        step = min(trial * 2.0, 1e6)
        if move < tol and drop < tol * max(1.0, abs(value)):
            break
    return Y


def lambda_threshold(pi, similarity, config, state: SolverState, j0_minimizer=None):
    """Coupling weight above which left and right copies coincide.

    If the converged copies already coincide (max per-row divergence at most
    1e-9) the run's own ``lam`` is returned.  Otherwise the bound is the
    objective gap to a single-copy minimizer divided by the accumulated
    divergence between the copies::

        (J0(y*) - J(yl*, yr*; lam=0)) / sum_i d(yl_i, yr_i)

    ``j0_minimizer`` may supply y* directly; otherwise a projected-gradient
    minimization of the single-copy objective computes it.
    """
    spec = config.divergence
    per_row = np.atleast_1d(spec.bregman(state.y_left, state.y_right))
    if float(per_row.max()) <= 1e-9:
        return config.lam
    y_star = j0_minimizer if j0_minimizer is not None else minimize_j0(pi, similarity, config)
    numerator = objective_j0(y_star, pi, similarity, config) - _objective(
        state.y_left, state.y_right, pi, similarity, config, lam=0.0
    )
    denominator = float(per_row.sum())
    if denominator < 1e-15:
        raise DivisionDegenerateError(
            f"copies reported distinct but divergence sum is {denominator}"
        )
    return max(numerator / denominator, 0.0)
