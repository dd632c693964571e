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
objective call costs one product of S with an n-by-k matrix.

What is constant for a problem is formed once, by one private object that
every public entry builds.  It checks pi as :func:`run` documents, so all
entries reject a bad pi alike, checks the copies an entry is given (shape
(n, k) and finite, or ``ShapeError``; inside the domain up to the clamping
floor, or ``DomainError``), and holds pi clamped, phi(pi) per coordinate,
the similarity's operator with its row sums and both sweeps' denominators.
The row sums and the denominators are held at the copies' full (n, k)
shape, not as (n, 1) columns: against a column operand numpy's inner loop
runs only k long, which about doubles the cost of each division and product
with them.  Checks happen there, at the entries, and in the public
:class:`~bregman_consensus.divergences.DivergenceSpec` evaluators, not per
kernel call: inside the loop each copy is clamped once per iteration (by
``np.maximum``/``np.minimum``, not ``np.clip``, whose per-call overhead is
several times the work at desk sizes), phi and its gradient run as the
divergence's raw kernels on the clamped copy, and the gradient inverse
checks only the dual's range where it is bounded, so no call scans the
domain.  Each Bregman term is differenced per coordinate and each of the
objective's three terms (fit, pair, coupling) is reduced by one whole-array
sum, so beyond its two products with S an iteration makes a fixed, small
number of O(n k) elementwise passes.  phi(yl) - phi(yr) is formed anew in
the pair and the coupling term: as an unnamed temporary, numpy reuses its
buffer for the next operation, which at n = 10^5 made the objective about
7 % faster than one shared, named difference.  The solver and the diagnostics
read the similarity only through its operator (``n``, ``row_sum``,
``matvec``), built once per
:class:`~bregman_consensus.ensemble_inputs.SimilarityMatrix`: for stored
pairs both orientations as one canonical ``scipy.sparse`` CSR matrix read
through its CSC view, O(nnz k) per product in scipy's compiled column loop,
or the partition-factored co-association, O(n k r2) per product.  S is
symmetric, so the column loop adds each (S Y)_i's terms in ascending j, as
the row loop does, and gives its bits; at k = 4 it is about 15 % faster
per product, and only the one width-1 ``row_sum`` product, 9-17 % slower
there, runs per build.

Within a half-step the per-instance updates are mutually independent (right
updates read only left copies and ``pi``; left updates read only right
copies), so each sweep is one vectorised pass over all instances built on a
single product with the similarity.  Every inner summation runs in an
order fixed for a given operator, so a run repeats bit for bit: the
partition product's grouped sums add sequentially in ascending node order,
and each row of the stored-pair product adds its entries in ascending
column order, left to right, whatever the operand's width.  The solve runs
in one thread; ``SolverConfig.threads`` is accepted for compatibility and
ignored.

:func:`run` is the loop's only entry, always from the uniform start.  Only
its stopping test reads ``epsilon``, so a run at a looser tolerance is a
prefix of a run at a tighter one: :func:`prefix` reads it off a recorded
run, which is how one diagnostics solve gives both the user's run and its
tightly converged reference.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .divergences import SIMPLEX_ATOL, DivergenceSpec, validate_probabilities
from .ensemble_inputs import SimilarityMatrix
from .exceptions import (ArgumentError, DivisionDegenerateError, DomainError,
                         NonFiniteObjectiveError, RangeError, ShapeError)

_TRACE_GUARD = 1e-300  # denominator guard for the relative objective test
_TINY = float(np.finfo(np.float64).tiny)  # smallest normal weight the sweeps accept
_J0_MAX_ITERS = 20000  # iteration cap of minimize_j0
_J0_TOL = 1e-12  # minimize_j0 stops at a trial that moves less and does not lower J0


@dataclass
class SolverConfig:
    """Hyperparameters of one solve.

    ``alpha`` weights the cluster-ensemble term, ``lam`` is the global
    left/right coupling penalty (one value shared by every instance), and
    convergence fires when the relative objective change drops below
    ``epsilon``.  A positive ``alpha`` or ``lam`` must be a normal float:
    a subnormal weight underflows the sweeps' products.  ``threads`` is
    accepted for compatibility and ignored; the solve runs in one thread.
    """

    divergence: DivergenceSpec
    alpha: float = 1.0
    lam: float = 0.1
    epsilon: float = 1e-10
    max_iters: int = 1000
    threads: int = 1

    def __post_init__(self):
        for name in ("alpha", "lam", "epsilon"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ArgumentError(f"{name} must be a real number, got {value!r}")
        for name in ("alpha", "lam"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise ArgumentError(f"{name} must be finite and nonnegative, got {value}")
            if 0 < value < _TINY:  # the sweeps' products with it would underflow
                raise ArgumentError(f"{name} must be 0 or at least {_TINY!r} (normal), "
                                    f"got {value!r}")
        if not 0 < self.epsilon < np.inf:
            raise ArgumentError(f"epsilon must be finite and positive, got {self.epsilon}")
        for name in ("max_iters", "threads"):
            value = getattr(self, name)
            # range() would reject a non-integer mid-solve; True would read as 1
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ArgumentError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ArgumentError(f"{name} must be positive, got {value}")


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


class _Problem:
    """One problem's constants (see the module docstring), half-steps, J and J0's gradient.

    ``pi`` is checked here, as :func:`run` documents, and copies from
    outside by :meth:`copies`; :func:`run` forms its own.  ``pi=None``
    (:func:`update_left`) skips the check and the pi constants: the left
    sweep never reads pi.  Rows whose left weights ``alpha r_i + lam``
    vanish are inactive: their left copy keeps its old value.  The methods
    run the divergence's raw kernels (``rule``), so the copies they read
    must have been checked and, where a method says so, clamped.
    """

    def __init__(self, pi, similarity, config):
        spec = config.divergence
        self.spec, self.rule = spec, spec._rule
        self.alpha, self.lam = config.alpha, config.lam
        if pi is not None:
            raw = np.asarray(pi, dtype=np.float64)
            pi = validate_probabilities(spec, raw)
            if spec.simplex_domain:
                sums = raw.sum(axis=1)  # before clamping, which moves exact rows off the simplex
                off = np.flatnonzero(np.abs(sums - 1.0) > SIMPLEX_ATOL)
                if off.size:
                    row = int(off[0])
                    raise DomainError(f"{spec.kind.value}: pi row {row} sums to "
                                      f"{float(sums[row])!r}, not 1; normalize the rows first")
            if similarity.n != pi.shape[0]:
                raise ShapeError(f"similarity is over {similarity.n} instances, "
                                 f"pi over {pi.shape[0]}")
            self.pi, self.phi_pi = pi, self.rule.phi_terms(pi)
        self.op = similarity.operator
        r = self.op.row_sum
        left = self.alpha * r + self.lam
        self.inactive = np.flatnonzero(left <= 0.0)
        # per-row constants at the copies' full (n, k) shape: against an
        # (n, 1) operand numpy's inner loop would run only k long
        k = spec.dimension
        self.row_sum = np.repeat(r[:, None], k, axis=1)
        self.right_denom = np.repeat((1.0 + self.alpha * r + self.lam)[:, None], k, axis=1)
        self.left_denom = np.repeat(np.where(left > 0.0, left, 1.0)[:, None], k, axis=1)
        self.ones = np.ones(k)

    def copies(self, **arrays):
        """The named copies as float64 arrays, each checked: finite, (n, k) and in the domain."""
        checked = _finite_of_shape((self.op.n, self.spec.dimension), **arrays)
        for a in checked:
            self.spec.check_domain(a)
        return checked

    def right(self, y_left):
        """All right copies at once: weighted means of pi, neighbours and own left copy."""
        nbr = self.op.matvec(y_left)
        return (self.pi + self.alpha * nbr + self.lam * y_left) / self.right_denom

    def left(self, grad_right, y_left):
        """All left copies at once, plus ``S grad phi(yr)`` for the objective.

        An inactive row's dual is patched to its own ``grad phi(yr_i)``,
        which lies in the gradient range, before :meth:`primal`; its old copy
        is put back after.
        """
        nbr = self.op.matvec(grad_right)
        dual = (self.alpha * nbr + self.lam * grad_right) / self.left_denom
        inactive = self.inactive
        if inactive.size:
            dual[inactive] = grad_right[inactive]
        updated = self.primal(dual)
        if inactive.size:
            updated[inactive] = y_left[inactive]
        return updated, nbr

    def primal(self, dual):
        """The clamped point whose gradient is ``dual``; for ``kl``, rows over their sums."""
        point = self.spec.grad_inv(dual)
        if self.spec.simplex_domain:
            point /= (point @ self.ones)[:, None]
        return point

    def objective(self, y_left, y_right, lam=None, grad_right=None, nbr_grad=None):
        """J at the given copies, already clamped; ``lam`` overrides the coupling.

        One array passed as both copies (the single-copy objective J0) has
        its phi terms computed once.

        ``grad_right`` (grad phi of the right copies) and ``nbr_grad`` (its
        product with the similarity) may be passed in when the caller
        already has them.  The pair term is a weighted sum of divergences,
        so it is clamped at 0 against rounding.

        Each Bregman term is differenced per coordinate before the one sum
        per term.  The differences stay local on purpose: near the alpha = 0
        fixed point the terms cancel to rounding, and regrouping them into
        global sums (sum phi(pi) - sum phi(yr) - ...) raises J's noise floor
        about tenfold.
        """
        rule = self.rule
        lam = self.lam if lam is None else lam
        phi_l = rule.phi_terms(y_left)
        phi_r = phi_l if y_left is y_right else rule.phi_terms(y_right)
        if grad_right is None:
            grad_right = rule.grad(y_right)
        total = float((self.phi_pi - phi_r - (self.pi - y_right) * grad_right).sum())
        if self.alpha > 0.0:
            if nbr_grad is None:
                nbr_grad = self.op.matvec(grad_right)
            pair = (self.row_sum * (phi_l - phi_r + y_right * grad_right)
                    - y_left * nbr_grad).sum()
            total += self.alpha * max(float(pair), 0.0)
        if lam > 0.0:
            total += lam * float((phi_l - phi_r - (y_left - y_right) * grad_right).sum())
        return total

    def j0(self, Y):
        """The single-copy objective J0 at ``Y``: J with ``Y``, clamped once, as both copies.

        J0 is a sum of divergences, so it is clamped at 0 against rounding,
        and the descent takes no step that only lowers rounding below 0.  J
        is not clamped: near the alpha = 0 fixed point its trace keeps
        distinct rounding values, where a clamp would repeat 0.0 and fire
        the stopping test before the copies reach pi.
        """
        Y = self.spec.clamp(Y)
        return max(self.objective(Y, Y, lam=0.0), 0.0)

    def grad_j0(self, Y):
        """Gradient of J0 at ``Y``; phi's derivatives are taken at ``Y`` clamped.

        ``S G`` and ``S Y`` come from one product with ``[G, Y]``: each
        column's sums run in an order the operator fixes, whatever the
        operand's width, so they are the bits of two separate products.
        """
        clamped = self.spec.clamp(Y)
        G = self.rule.grad(clamped)
        H = self.rule.hess_diag(clamped)
        grad = H * (Y - self.pi)
        if self.alpha > 0.0:
            k = Y.shape[1]
            nbr = self.op.matvec(np.hstack([G, Y]))
            grad += self.alpha * (self.row_sum * G - nbr[:, :k])  # first-argument occurrences
            grad += self.alpha * H * (self.row_sum * Y - nbr[:, k:])  # second-argument occurrences
        return grad


def _finite_of_shape(shape, **arrays):
    """The named arrays as float64; one not finite or not of ``shape`` raises ShapeError."""
    checked = []
    for name, a in arrays.items():
        a = np.asarray(a, dtype=np.float64)
        if a.shape != shape:
            raise ShapeError(f"{name} has shape {a.shape}, expected {shape}")
        if not np.all(np.isfinite(a)):
            raise ShapeError(f"{name} contains non-finite values")
        checked.append(a)
    return checked


def objective_j0(Y, pi, similarity, config) -> float:
    """Single-copy objective: fit term plus the similarity-weighted pair term."""
    problem = _Problem(pi, similarity, config)
    (Y,) = problem.copies(Y=Y)
    return problem.j0(Y)


def objective_j(state: SolverState, pi, similarity, config) -> float:
    """Split objective over the state's left and right copies."""
    problem = _Problem(pi, similarity, config)
    y_left, y_right = problem.copies(y_left=state.y_left, y_right=state.y_right)
    return problem.objective(problem.spec.clamp(y_left), problem.spec.clamp(y_right))


def update_right(j: int, state: SolverState, pi, similarity, config) -> np.ndarray:
    """Closed-form minimizer for instance ``j``'s right copy, left copies fixed.

    This is row ``j`` of a full right sweep, so one call costs a whole sweep.
    """
    problem = _Problem(pi, similarity, config)
    (y_left,) = problem.copies(y_left=state.y_left)
    return problem.right(y_left)[j]


def update_left(i: int, state: SolverState, similarity, config) -> np.ndarray:
    """Closed-form minimizer for instance ``i``'s left copy, right copies fixed.

    The minimization runs in the dual space: the gradient of the new left
    copy is the weighted mean of the right copies' gradients, with weights
    ``alpha * s_ij`` and ``lam``.  When both weights vanish the subproblem is
    vacuous and the old copy is returned unchanged.  This is row ``i`` of a
    full left sweep, so one call costs a whole sweep.
    """
    problem = _Problem(None, similarity, config)
    y_left, y_right = problem.copies(y_left=state.y_left, y_right=state.y_right)
    y_left, _ = problem.left(config.divergence.grad(y_right), y_left)
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
    if not math.isfinite(value):
        raise NonFiniteObjectiveError(f"objective is {value!r} at iteration {iteration}")
    return value


def _stops(previous: float, value: float, epsilon: float) -> bool:
    """The stopping test: the relative objective change is below ``epsilon``."""
    return abs(value - previous) / max(previous, _TRACE_GUARD) < epsilon


def _result(y_left, y_right, iteration, converged, trace, history, spec):
    probs, labels = _finalize(y_left, y_right, spec)
    labeling = Labeling(probabilities=probs, labels=labels,
                        iterations_used=iteration, converged=converged)
    state = SolverState(y_left=y_left, y_right=y_right, iteration=iteration,
                        objective_trace=trace, copy_history=history)
    return labeling, state


def run(pi, similarity: SimilarityMatrix, config: SolverConfig,
        record_copies: bool = False):
    """Run the alternating solve to convergence.

    Every copy starts at the uniform vector 1/k.  Each iteration performs a
    full right sweep followed by a full left sweep, then appends the
    objective to the trace; the loop stops when the relative objective change
    falls below ``config.epsilon`` or after ``config.max_iters`` iterations.
    The final vectors are the averages of the two copies, normalized per row.
    A non-finite objective raises ``NonFiniteObjectiveError`` naming the
    iteration (0 for the starting copies).  Only the stopping test reads
    ``epsilon``, so this run is a prefix of a recorded run at a tolerance no
    looser; :func:`prefix` reads it off one.

    Parameters
    ----------
    pi : (n, k) array
        Averaged classifier probabilities: finite, with ``similarity.n``
        rows and the divergence's dimension as columns, or ``ShapeError``
        is raised, and inside the domain up to the clamping floor, or
        ``DomainError`` is raised.  For the simplex-domain kind (``kl``)
        every row must also sum to 1 within ``SIMPLEX_ATOL`` before
        clamping, or ``DomainError`` is raised;
        ``estimator.check_probabilities`` normalizes rows first.  Every
        public entry of this module that takes ``pi`` checks it this way.
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
    problem = _Problem(pi, similarity, config)
    spec, grad = problem.spec, problem.rule.grad
    n, k = problem.pi.shape
    y_left = np.full((n, k), 1.0 / k)
    y_right = np.full((n, k), 1.0 / k)
    trace = [_finite(0, problem.objective(spec.clamp(y_left), spec.clamp(y_right)))]
    history = [(y_left.copy(), y_right.copy())] if record_copies else None
    converged = False
    iteration = 0
    for iteration in range(1, config.max_iters + 1):
        # each copy is clamped once; grad phi, phi and J all read the clamped copy
        y_right = problem.right(y_left)
        clamped_right = spec.clamp(y_right)
        grad_right = grad(clamped_right)
        y_left, nbr_grad = problem.left(grad_right, y_left)
        value = _finite(iteration, problem.objective(spec.clamp(y_left), clamped_right,
                                                     grad_right=grad_right, nbr_grad=nbr_grad))
        trace.append(value)
        if history is not None:
            history.append((y_left.copy(), y_right.copy()))
        if _stops(trace[-2], value, config.epsilon):
            converged = True
            break
    return _result(y_left, y_right, iteration, converged, trace, history, spec)


def prefix(state: SolverState, config: SolverConfig):
    """What ``run(pi, similarity, config)`` returns, read off a recorded run.

    ``state`` is a ``record_copies=True`` run of the same problem that goes
    at least as far: at a tolerance no looser than ``config.epsilon``, or to
    ``config.max_iters``.  An iteration depends only on the copies before
    it, so the result is, bit for bit, the record cut at the first iteration
    that passes ``config``'s stopping test, or at ``config.max_iters``, with
    the trace and history up to the cut.  ``state`` is not modified.  A
    record without history, or one that stops too early, raises
    ``ArgumentError``.
    """
    history = state.copy_history
    if history is None:
        raise ArgumentError("the recorded run has no copy history")
    trace = state.objective_trace
    last = min(state.iteration, config.max_iters)
    stop = next((t for t in range(1, last + 1)
                 if _stops(trace[t - 1], trace[t], config.epsilon)), None)
    converged = stop is not None
    if not converged:
        if config.max_iters > state.iteration:
            raise ArgumentError(f"the recorded run stops at iteration {state.iteration}, "
                                f"before the test at epsilon={config.epsilon!r} fires")
        stop = config.max_iters
    y_left, y_right = history[stop]
    return _result(y_left.copy(), y_right.copy(), stop, converged, trace[:stop + 1],
                   history[:stop + 1], config.divergence)


# -- threshold for copy coalescence ------------------------------------------


def minimize_j0(pi, similarity, config):
    """Spectral mirror-descent minimizer of the single-copy objective J0.

    From pi, a trial with step ``t`` at ``Y`` maps ``grad phi(Y) - t grad
    J0(Y)`` back by the left sweep's :meth:`_Problem.primal`, so it stays in
    the domain (for ``kl``, on the simplex).  ``t`` starts at 1, then at the
    Barzilai-Borwein step ``s's / s'y`` over the last accepted move (``s``
    the change of ``grad phi``, ``y`` of J0's gradient), clipped to [1e-10,
    1e6], or twice the last step when ``s'y <= 0``; it is halved until J0
    drops, and while the trial leaves the gradient range or overflows.  The
    descent returns the last accepted point at the first trial that does
    not lower J0 and lands within :data:`_J0_TOL` of ``Y``'s round trip
    through the map, or after :data:`_J0_MAX_ITERS` iterations.  J0 is read
    first: near the floor an itakura-saito trial can move less and still
    lower J0 a lot.  The minimizer is fixed only to about 1e-8, where plain
    decrease compares J0 values an ulp apart and J0 is flat.

    Beck & Teboulle, Oper. Res. Lett. 2003; Barzilai & Borwein, IMA J.
    Numer. Anal. 1988.  Used by :func:`lambda_threshold` when no minimizer
    is supplied.
    """
    return _minimize_j0(_Problem(pi, similarity, config))


def _or_none(fn, arg):
    """``fn(arg)``, or None where it raises ``RangeError``, overflows or divides by zero."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return fn(arg)
    except (RangeError, FloatingPointError):
        return None


def _minimize_j0(problem):
    grad_phi, clamp = problem.rule.grad, problem.spec.clamp
    Y = problem.pi.copy()
    value, g, dual = problem.j0(Y), problem.grad_j0(Y), grad_phi(Y)
    step = 1.0
    for _ in range(_J0_MAX_ITERS):
        here = _or_none(problem.primal, dual)  # a zero step; may move Y by more than _J0_TOL
        if here is None:
            return Y
        trial = step
        while True:  # halve until the mirror step descends; a failed one is halved too
            Y_new = _or_none(problem.primal, dual - trial * g)
            if Y_new is not None:
                v_new = _or_none(problem.j0, Y_new)
                if v_new is not None and v_new < value:
                    break
                if float(np.abs(Y_new - here).max()) < _J0_TOL:
                    return Y
            trial *= 0.5
        g_new, dual_new = problem.grad_j0(Y_new), grad_phi(clamp(Y_new))
        s, y = dual_new - dual, g_new - g
        sy = float(np.vdot(s, y))
        if sy > 0.0:
            step = min(max(float(np.vdot(s, s)) / sy, 1e-10), 1e6)
        else:
            step = min(trial * 2.0, 1e6)
        Y, value, g, dual = Y_new, v_new, g_new, dual_new
    return Y


def lambda_threshold(pi, similarity, config, state: SolverState, j0_minimizer=None):
    """Coupling weight above which left and right copies coincide.

    If the converged copies already coincide (max per-row divergence at most
    1e-9) the run's own ``lam`` is returned.  Otherwise the bound is the
    objective gap to a single-copy minimizer divided by the accumulated
    divergence between the copies::

        (J0(y*) - J(yl*, yr*; lam=0)) / sum_i d(yl_i, yr_i)

    ``j0_minimizer`` may supply y* directly; otherwise :func:`minimize_j0`
    computes it by spectral mirror descent.  y* is fixed only to about
    1e-8, but J0 is flat there, so the result is limited by J0's rounding
    divided by the copy gap: under a permutation of the nodes or a change of
    step rule it moved by about 1e-13 relative on random problems.
    """
    problem = _Problem(pi, similarity, config)
    y_left, y_right = problem.copies(y_left=state.y_left, y_right=state.y_right)
    per_row = np.atleast_1d(problem.spec.bregman(y_left, y_right))
    if float(per_row.max()) <= 1e-9:
        return config.lam
    if j0_minimizer is None:
        y_star = _minimize_j0(problem)
    else:
        (y_star,) = problem.copies(j0_minimizer=j0_minimizer)
    clamp = problem.spec.clamp
    numerator = problem.j0(y_star) - problem.objective(clamp(y_left), clamp(y_right), lam=0.0)
    denominator = float(per_row.sum())
    if denominator < 1e-15:
        raise DivisionDegenerateError(
            f"copies reported distinct but divergence sum is {denominator}"
        )
    return max(numerator / denominator, 0.0)
