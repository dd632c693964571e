"""Shared samplers and independent oracles for the test suite."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from bregman_consensus.divergences import DivergenceKind, divergence_spec
from bregman_consensus.ensemble_inputs import SimilarityMatrix, coassociation_similarity
from bregman_consensus.solver import SolverConfig, _finite_of_shape

ALL_TOKENS = ["squared", "logistic", "bose-einstein", "itakura-saito",
              "euclidean", "kl", "gen-i"]

# Interior sampling windows per divergence.  Kept away from domain boundaries
# so finite-difference steps stay interior and tolerances are meaningful.
_WINDOWS = {
    "squared": (-2.0, 2.0),
    "logistic": (0.1, 0.9),
    "bose-einstein": (0.2, 2.5),
    "itakura-saito": (0.2, 2.5),
    "euclidean": (-2.0, 2.0),
    "kl": (0.1, 1.0),  # normalized to the simplex afterwards
    "gen-i": (0.2, 2.5),
}


def interior_points(token, rng, m, k):
    """Draw m interior points of dimension k for the given divergence."""
    lo, hi = _WINDOWS[token]
    pts = rng.uniform(lo, hi, (m, k))
    if token == "kl":
        pts = pts / pts.sum(axis=1, keepdims=True)
    return pts


def random_pi(token, rng, n, k):
    """Probability-matrix-shaped input: nonnegative class scores."""
    if token in ("squared", "euclidean"):
        return rng.uniform(0.1, 2.0, (n, k))
    return interior_points(token, rng, n, k)


def random_similarity(rng, n, density=0.6):
    """Random sparse symmetric similarity with entries in (0, 1]."""
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.uniform(size=iu.size) < density
    vals = rng.uniform(0.05, 1.0, size=iu.size)
    return SimilarityMatrix(n, iu[keep], ju[keep], vals[keep])


LAYOUTS = ("random", "empty", "gaps", "uniform")


def layout_similarity(layout, rng, n):
    """Random pairs; none; pairs that skip the first, a middle and the last node.

    ``"uniform"`` draws random pairs too; callers pair it with uniform points.
    """
    if layout == "empty" or n < 2:
        return SimilarityMatrix.empty(n)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.uniform(size=iu.size) < rng.uniform(0.2, 1.0)
    if layout == "gaps":
        skipped = np.array([0, n // 2, n - 1])
        keep &= ~np.isin(iu, skipped) & ~np.isin(ju, skipped)
    return SimilarityMatrix(n, iu[keep], ju[keep], rng.uniform(0.05, 1.0, iu.size)[keep])


# alpha and lambda, 0 included; SolverConfig rejects subnormal weights
weights = st.one_of(st.just(0.0), st.floats(0.0, 2.0, allow_subnormal=False))


def random_instance(token, rng, n, k, alpha=None, lam=None, **kwargs):
    """A complete solver problem: (pi, similarity, config)."""
    pi = random_pi(token, rng, n, k)
    similarity = random_similarity(rng, n)
    config = SolverConfig(
        divergence=divergence_spec(token, k),
        alpha=float(rng.uniform(0.1, 1.5)) if alpha is None else alpha,
        lam=float(rng.uniform(0.05, 1.0)) if lam is None else lam,
        **kwargs,
    )
    return pi, similarity, config


def partition_similarity(rng, n, r2=4, clusters=3):
    parts = rng.integers(0, clusters, (n, r2))
    return coassociation_similarity(parts)


def traced_peak(fn):
    """``fn()`` and the peak bytes tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def enumerated_pairs(clusters):
    """Canonical (rows, cols, vals) of a co-association, every pair listed at once.

    The direct form the blocked enumeration behind ``PartitionSimilarity``
    must reproduce byte for byte: each partition lists the pairs i < j
    inside each of its relabelled clusters as keys ``i * n + j``, and one
    ``np.unique`` over all of them counts each pair; its value is the count
    over r2.
    """
    n, r2 = clusters.shape
    keys = []
    for ids in clusters.T:
        members = np.argsort(ids, kind="stable")  # by cluster, ascending inside each
        sizes = np.bincount(ids)
        position = np.arange(n)
        later = np.repeat(np.cumsum(sizes), sizes) - position - 1  # members after it
        first = np.repeat(position, later)
        step = np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
        keys.append(members[first] * n + members[first + step + 1])
    key, count = np.unique(np.concatenate(keys), return_counts=True)
    rows, cols = np.divmod(key, n)
    return rows, cols, count / r2


def dense_coassociation(partitions):
    """The co-association built as a dense n-by-n count, stored as pairs.

    The direct form the partition-backed similarity must reproduce: each
    partition adds 1 where two labels are equal, and the upper triangle's
    positive counts over r2 are stored.
    """
    parts = np.asarray(partitions)
    n, r2 = parts.shape
    counts = np.zeros((n, n), dtype=np.float64)
    for col in range(r2):
        labels = parts[:, col]
        counts += labels[:, None] == labels[None, :]
    iu, ju = np.triu_indices(n, k=1)
    vals = counts[iu, ju] / r2
    keep = vals > 0.0
    return SimilarityMatrix(n, iu[keep], ju[keep], vals[keep])


def column_loop_matvec(clusters, Y):
    """``S @ Y`` for a partition co-association, one bincount per partition and column.

    The direct form ``PartitionOperator.matvec`` must reproduce bit for bit:
    each cluster sums a column of ``Y`` in ascending node order, ``Y_i`` is
    taken out inside each partition's term, the terms are added in partition
    order from zeros and the total is divided by r2 once.
    """
    n, r2 = clusters.shape
    out = np.zeros((n, Y.shape[1]))
    for ids in clusters.T:
        for c in range(Y.shape[1]):
            y = Y[:, c]
            out[:, c] += np.bincount(ids, weights=y)[ids] - y
    out /= r2
    return out


def argsort_csr(similarity):
    """The symmetrized CSR (indptr, indices, data) by one stable argsort of all keys.

    The direct form ``symmetrized_csr`` (the arrays of the scipy build
    behind every stored-pair operator, as int64) must reproduce byte for
    byte: both orientations of every stored pair, keyed row-major and sorted
    together, with ``indptr`` counted by ``np.add.at``.
    """
    n = similarity.n
    i2 = np.concatenate([similarity.rows, similarity.cols])
    j2 = np.concatenate([similarity.cols, similarity.rows])
    order = np.argsort(i2 * n + j2, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, i2 + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, j2[order], np.concatenate([similarity.vals, similarity.vals])[order]


def reduceat_matvec(indptr, indices, data, Y):
    """``S @ Y`` from a symmetrized CSR, one ``np.add.reduceat`` per column.

    A numpy form apart from the operator's scipy product: each column is
    gathered over ``indices`` and scaled by ``data``, and every nonempty row
    reduces its own contiguous slice; empty rows are 0.0.
    """
    n = indptr.size - 1
    nonempty = np.flatnonzero(np.diff(indptr))
    out = np.zeros((n, Y.shape[1]))
    for c in range(Y.shape[1] if nonempty.size else 0):
        out[nonempty, c] = np.add.reduceat(data * Y[:, c][indices], indptr[nonempty])
    return out


def where_left_sweep(grad_right, op, spec, y_left, alpha, lam):
    """The left sweep as full-size ``np.where`` passes over every row.

    The direct form the solver's left half-step must reproduce: inactive
    rows (``alpha * r_i + lam == 0``) take ``grad_right`` as their dual
    placeholder and keep ``y_left``.
    """
    nbr = op.matvec(grad_right)
    denom = alpha * op.row_sum + lam
    active = denom > 0.0
    dual = np.where(active[:, None],
                    (alpha * nbr + lam * grad_right) / np.where(active, denom, 1.0)[:, None],
                    grad_right)
    updated = spec.grad_inv(dual)
    if spec.simplex_domain:
        updated = updated / updated.sum(axis=1, keepdims=True)
    return np.where(active[:, None], updated, y_left), nbr


def pairwise_objective(y_left, y_right, pi, similarity, config, lam=None):
    """The split objective summed pair by pair over the stored triplets.

    The direct form the solver's per-node-sum objective must reproduce:
    every stored pair (i < j) is read in both orders.
    """
    spec = config.divergence
    lam = config.lam if lam is None else lam
    total = float(np.sum(spec.bregman(pi, y_right)))
    if config.alpha > 0.0 and similarity.nnz:
        r, c, v = similarity.rows, similarity.cols, similarity.vals
        pair = np.sum(v * spec.bregman(y_left[r], y_right[c])) + np.sum(
            v * spec.bregman(y_left[c], y_right[r])
        )
        total += config.alpha * float(pair)
    if lam > 0.0:
        total += lam * float(np.sum(spec.bregman(y_left, y_right)))
    return total


def grad_objective(state, pi, similarity, config):
    """Analytic gradient of the split objective, flattened (left block first).

    Valid for any divergence kind; the Hessian is checked against finite
    differences of it.
    """
    spec = config.divergence
    pi = np.asarray(pi, dtype=np.float64)
    yl, yr = state.y_left, state.y_right
    op = similarity.operator
    alpha, lam = config.alpha, config.lam

    Gl, Gr = spec.grad(yl), spec.grad(yr)
    Hr = spec.hess_diag(yr)
    rs = op.row_sum[:, None]
    nbr_gr = op.matvec(Gr)
    nbr_yl = op.matvec(yl)

    gl = alpha * (rs * Gl - nbr_gr) + lam * (Gl - Gr)
    gr = Hr * ((1.0 + alpha * op.row_sum + lam)[:, None] * yr
               - pi - alpha * nbr_yl - lam * yl)
    return np.concatenate([gl.ravel(), gr.ravel()])


def pairwise_hessian(state, pi, similarity, config):
    """The kl/gen-i split-objective Hessian, assembled pair by pair.

    The direct form ``diagnostics.hessian_blocks`` must reproduce: per-node
    diagonal blocks, then every stored pair (i < j) coupling left i with
    right j and left j with right i, scattered into a dense 2nk-by-2nk
    matrix (left copies first).
    """
    spec = config.divergence
    pi = np.asarray(pi, dtype=np.float64)
    yl, yr = state.y_left, state.y_right
    n, k = yl.shape
    c = spec.curvature_scale
    alpha, lam = config.alpha, config.lam
    op = similarity.operator
    nbr_left = op.matvec(yl)  # sum_i s_ij * yl_i

    diagonals = {}
    for i in range(n):
        diagonals[(("l", i), ("l", i))] = c * (alpha * op.row_sum[i] + lam) / yl[i]
        diagonals[(("r", i), ("r", i))] = (
            c * (pi[i] + alpha * nbr_left[i] + lam * yl[i]) / (yr[i] ** 2)
        )
        if lam > 0.0:
            diagonals[(("l", i), ("r", i))] = -c * lam / yr[i]
    for i, j, s in zip(similarity.rows.tolist(), similarity.cols.tolist(),
                       similarity.vals.tolist()):
        for a, b in ((i, j), (j, i)):
            key = (("l", a), ("r", b))
            diagonals[key] = diagonals.get(key, np.zeros(k)) - c * alpha * s / yr[b]

    H = np.zeros((2 * n * k, 2 * n * k))
    idx = np.arange(k)
    for ((side_a, a), (side_b, b)), diag in diagonals.items():
        ra = (a if side_a == "l" else n + a) * k + idx
        cb = (b if side_b == "l" else n + b) * k + idx
        H[ra, cb] = diag
        H[cb, ra] = diag
    return H


def assemble(blocks):
    """The dense symmetric 2nk-by-2nk matrix of ``HessianBlocks``, left copies first.

    Each instance's k coordinates are contiguous, and entries that couple
    two coordinates are +0.0.
    """
    k, m, _ = blocks.blocks.shape
    H = np.zeros((m, k, m, k))
    for a in range(k):
        H[:, a, :, a] = blocks.blocks[a]
    return H.reshape(m * k, m * k)


def pair_block(blocks, side_i, i, side_j, j):
    """The diagonal k-by-k block of ``HessianBlocks`` for an ordered copy pair.

    ``side_i`` and ``side_j`` are ``"l"`` or ``"r"``; one entry per
    coordinate block.
    """
    n = blocks.blocks.shape[1] // 2
    row = {"l": 0, "r": n}
    return np.diag(blocks.blocks[:, row[side_i] + i, row[side_j] + j])


def pointwise_delta_j(left_a, left_b, similarity, config):
    """delta_j by one Bregman evaluation of the two configurations.

    The direct form ``DeltaJMonitor.from_history`` must reproduce bit for
    bit on every snapshot, with the same errors: each configuration checked
    finite and (n, k) in turn, then the domain by ``spec.bregman``.
    """
    spec = config.divergence
    left_a, left_b = _finite_of_shape((similarity.n, spec.dimension), left_a=left_a,
                                      left_b=left_b)
    row_weights = config.lam + config.alpha * similarity.operator.row_sum
    return float(np.sum(row_weights * np.atleast_1d(spec.bregman(left_a, left_b))))


# -- independent derivative-free minimization of the two half-step objectives


def _to_domain(token, u):
    if token in ("squared", "euclidean"):
        return u
    if token == "logistic":
        return 1.0 / (1.0 + np.exp(-u))
    if token == "kl":
        e = np.exp(u - u.max())
        return e / e.sum()
    return np.exp(u)  # positive-orthant kinds


def nelder_mead_minimize(token, objective, k, seed=0):
    """Derivative-free minimization over the divergence domain.

    Runs scipy Nelder-Mead in unconstrained coordinates mapped into the
    domain (identity / sigmoid / exp / softmax) from a neutral start and one
    seeded restart; returns the best domain-space point.
    """
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    best_u, best_v = None, np.inf
    for u0 in (np.zeros(k), rng.normal(0.0, 0.8, k)):
        res = minimize(lambda u: float(objective(_to_domain(token, u))), u0,
                       method="Nelder-Mead",
                       options={"xatol": 1e-11, "fatol": 1e-15,
                                "maxiter": 20000, "maxfev": 20000})
        if res.fun < best_v:
            best_u, best_v = res.x, res.fun
    return _to_domain(token, best_u)


def eq_right_objective(j, y_left, pi, similarity, config):
    """The right half-step subobjective for instance j as a function of q."""
    spec = config.divergence
    col = similarity.to_dense()[:, j]
    idx = np.flatnonzero(col)
    firsts = np.vstack([pi[j], y_left[idx], y_left[j]])
    weights = np.concatenate([[1.0], config.alpha * col[idx], [config.lam]])

    def value(q):
        return float(weights @ spec.bregman(firsts, np.asarray(q)))

    return value


def eq_left_objective(i, y_right, similarity, config):
    """The left half-step subobjective for instance i as a function of p."""
    spec = config.divergence
    row = similarity.to_dense()[i]
    idx = np.flatnonzero(row)
    seconds = np.vstack([y_right[idx], y_right[i]])
    weights = np.concatenate([config.alpha * row[idx], [config.lam]])

    def value(p):
        return float(weights @ spec.bregman(np.asarray(p), seconds))

    return value


def doubling_minimize_j0(pi, similarity, config, max_iters=20000, tol=1e-12):
    """Projected gradient on J0 whose first trial doubles the last accepted step.

    The form ``solver.minimize_j0`` had before its Barzilai-Borwein steps:
    the same start, projection, plain-decrease backtracking (at most 60
    halvings) and stopping rule, with a first trial of 1 and then twice the
    last accepted step, capped at 1e6.  The gradient is recomputed at the
    top of every iteration.
    """
    from bregman_consensus.solver import _Problem, _project_domain

    spec = config.divergence
    pi = spec.clamp(np.asarray(pi, dtype=np.float64))
    problem = _Problem(pi, similarity, config)
    Y = _project_domain(pi.copy(), spec)
    value = problem.objective(Y, Y, lam=0.0)
    step = 1.0
    for _ in range(max_iters):
        g = problem.grad_j0(Y)
        improved = False
        trial = step
        for _ in range(60):
            Y_new = _project_domain(Y - trial * g, spec)
            v_new = problem.objective(Y_new, Y_new, lam=0.0)
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


def two_solve_reference(pi, similarity, config):
    """The diagnostics' run and reference as two fresh solves.

    The form ``cli._recorded_solve`` must reproduce bit for bit: a
    ``record_copies=True`` run at ``config``, then a separate run from the
    uniform start at ``epsilon=1e-14``, each a ``(labeling, state)`` pair.
    """
    import dataclasses

    from bregman_consensus.solver import run

    recorded = run(pi, similarity, config, record_copies=True)
    return recorded, run(pi, similarity, dataclasses.replace(config, epsilon=1e-14))


def fd_projected_gradient_j0(pi, similarity, config, iters=3000):
    """Projected gradient on the single-copy objective with FD gradients.

    Fully independent of the solver's analytic gradients; desk-scale only.
    """
    from bregman_consensus.solver import _project_domain, objective_j0

    spec = config.divergence
    Y = _project_domain(np.array(pi, dtype=float), spec)
    h = 1e-7
    value = objective_j0(Y, pi, similarity, config)
    step = 0.5
    for _ in range(iters):
        g = np.zeros_like(Y)
        for idx in np.ndindex(Y.shape):
            Yp, Ym = Y.copy(), Y.copy()
            Yp[idx] += h
            Ym[idx] -= h
            g[idx] = (objective_j0(Yp, pi, similarity, config)
                      - objective_j0(Ym, pi, similarity, config)) / (2 * h)
        moved = False
        trial = step
        for _ in range(40):
            Y_new = _project_domain(Y - trial * g, spec)
            v_new = objective_j0(Y_new, pi, similarity, config)
            if v_new < value:
                moved = True
                break
            trial *= 0.5
        if not moved:
            break
        Y, value = Y_new, v_new
        step = min(trial * 2, 10.0)
    return Y


class CheckedProblem:
    """The solver's per-problem constants, half-steps and J, all through checked evaluators.

    The direct form ``solver.run`` and ``solver.lambda_threshold`` must
    reproduce bit for bit: each phi, gradient, Hessian diagonal and gradient
    inverse goes through the public :class:`DivergenceSpec` evaluator, which
    checks and clamps its argument on every call, and J clamps both copies
    itself; every sum runs in the solver's order.  J0's gradient takes
    ``S G`` and ``S Y`` as two products, where the solver makes one.
    """

    def __init__(self, pi, similarity, config):
        from bregman_consensus.divergences import validate_probabilities

        spec = self.spec = config.divergence
        self.alpha, self.lam = config.alpha, config.lam
        self.pi = validate_probabilities(spec, pi)
        self.phi_pi = spec.phi_terms(self.pi)
        self.op = similarity.operator
        r = self.op.row_sum
        self.row_sum = r[:, None]
        self.right_denom = (1.0 + self.alpha * r + self.lam)[:, None]
        left = self.alpha * r + self.lam
        self.inactive = np.flatnonzero(left <= 0.0)
        self.left_denom = np.where(left > 0.0, left, 1.0)[:, None]

    def right(self, y_left):
        nbr = self.op.matvec(y_left)
        return (self.pi + self.alpha * nbr + self.lam * y_left) / self.right_denom

    def left(self, grad_right, y_left):
        nbr = self.op.matvec(grad_right)
        dual = (self.alpha * nbr + self.lam * grad_right) / self.left_denom
        dual[self.inactive] = grad_right[self.inactive]
        updated = self.spec.grad_inv(dual)
        if self.spec.simplex_domain:
            updated /= (updated @ np.ones(self.spec.dimension))[:, None]
        updated[self.inactive] = y_left[self.inactive]
        return updated, nbr

    def objective(self, y_left, y_right, lam=None, grad_right=None, nbr_grad=None):
        spec = self.spec
        lam = self.lam if lam is None else lam
        shared = y_left is y_right
        phi_l = spec.phi_terms(y_left)
        phi_r = phi_l if shared else spec.phi_terms(y_right)
        if grad_right is None:
            grad_right = spec.grad(y_right)
        y_left = spec.clamp(y_left)
        y_right = y_left if shared else spec.clamp(y_right)
        total = float(np.sum(self.phi_pi - phi_r - (self.pi - y_right) * grad_right))
        if self.alpha > 0.0:
            if nbr_grad is None:
                nbr_grad = self.op.matvec(grad_right)
            pair = np.sum(self.row_sum * (phi_l - phi_r + y_right * grad_right)
                          - y_left * nbr_grad)
            total += self.alpha * max(float(pair), 0.0)
        if lam > 0.0:
            total += lam * float(np.sum(phi_l - phi_r - (y_left - y_right) * grad_right))
        return total

    def grad_j0(self, Y):
        G = self.spec.grad(Y)
        H = self.spec.hess_diag(Y)
        grad = H * (Y - self.pi)
        if self.alpha > 0.0:
            grad += self.alpha * (self.row_sum * G - self.op.matvec(G))
            grad += self.alpha * H * (self.row_sum * Y - self.op.matvec(Y))
        return grad

    def minimize_j0(self):
        from bregman_consensus.solver import _J0_MAX_ITERS, _J0_TOL, _project_domain

        Y = _project_domain(self.pi.copy(), self.spec)
        value = self.objective(Y, Y, lam=0.0)
        g = self.grad_j0(Y)
        step = 1.0
        for _ in range(_J0_MAX_ITERS):
            trial = step
            while True:
                Y_new = _project_domain(Y - trial * g, self.spec)
                if float(np.abs(Y_new - Y).max()) < _J0_TOL:
                    return Y
                v_new = self.objective(Y_new, Y_new, lam=0.0)
                if v_new < value:
                    break
                trial *= 0.5
            g_new = self.grad_j0(Y_new)
            s, y = Y_new - Y, g_new - g
            sy = float(np.vdot(s, y))
            if sy > 0.0:
                step = min(max(float(np.vdot(s, s)) / sy, 1e-10), 1e6)
            else:
                step = min(trial * 2.0, 1e6)
            Y, value, g = Y_new, v_new, g_new
        return Y


def checked_run(pi, similarity, config, record_copies=False):
    """``solver.run`` on :class:`CheckedProblem`: (probabilities, labels, state).

    The final copies are averaged and normalized by ``solver._finalize``,
    which reads no divergence kernel.
    """
    from bregman_consensus.exceptions import NonFiniteObjectiveError
    from bregman_consensus.solver import SolverState, _finalize, _stops

    def finite(iteration, value):
        if not np.isfinite(value):
            raise NonFiniteObjectiveError(f"objective is {value!r} at iteration {iteration}")
        return value

    problem = CheckedProblem(pi, similarity, config)
    spec = problem.spec
    n, k = problem.pi.shape
    y_left = np.full((n, k), 1.0 / k)
    y_right = np.full((n, k), 1.0 / k)
    trace = [finite(0, problem.objective(y_left, y_right))]
    history = [(y_left.copy(), y_right.copy())] if record_copies else None
    iteration = 0
    for iteration in range(1, config.max_iters + 1):
        y_right = problem.right(y_left)
        grad_right = spec.grad(y_right)
        y_left, nbr_grad = problem.left(grad_right, y_left)
        trace.append(finite(iteration, problem.objective(y_left, y_right, grad_right=grad_right,
                                                         nbr_grad=nbr_grad)))
        if history is not None:
            history.append((y_left.copy(), y_right.copy()))
        if _stops(trace[-2], trace[-1], config.epsilon):
            break
    probs, labels = _finalize(y_left, y_right, spec)
    return probs, labels, SolverState(y_left=y_left, y_right=y_right, iteration=iteration,
                                      objective_trace=trace, copy_history=history)


def checked_lambda_threshold(pi, similarity, config, state):
    """``solver.lambda_threshold`` on :class:`CheckedProblem`, its own J0 descent included."""
    from bregman_consensus.exceptions import DivisionDegenerateError

    problem = CheckedProblem(pi, similarity, config)
    y_left, y_right = state.y_left, state.y_right
    per_row = np.atleast_1d(problem.spec.bregman(y_left, y_right))
    if float(per_row.max()) <= 1e-9:
        return config.lam
    y_star = problem.minimize_j0()
    numerator = (problem.objective(y_star, y_star, lam=0.0)
                 - problem.objective(y_left, y_right, lam=0.0))
    denominator = float(per_row.sum())
    if denominator < 1e-15:
        raise DivisionDegenerateError(
            f"copies reported distinct but divergence sum is {denominator}")
    return max(numerator / denominator, 0.0)


def streamed_read_table(path):
    """The data rows of ``path``, every nonblank line streamed to ``np.loadtxt``.

    The direct form ``ensemble_inputs._read_table`` must reproduce bit for
    bit, rejections included: the lines go to the parser one Python string
    at a time after the optional header, and a failure is located by
    parsing each data line next to the first.  The line numbering and the
    rejection are written out here, so this form does not move with the
    code it checks.
    """
    import itertools

    from bregman_consensus.ensemble_inputs import _is_header, _parse
    from bregman_consensus.exceptions import InputFormatError

    def numbered_data_lines():
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = [(no, line) for no, line in enumerate(fh, start=1) if not line.isspace()]
        return lines[1:] if lines and _is_header(lines[0][1]) else lines

    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = (line for line in fh if not line.isspace())
        first = next(lines, None)
        if first is not None and _is_header(first):
            first = next(lines, None)
        if first is None:
            return np.empty((0, 0))
        try:
            return _parse(itertools.chain([first], lines))
        except ValueError:
            pass
    numbered = numbered_data_lines()
    for line_no, line in numbered:
        try:
            _parse([numbered[0][1], line])
        except ValueError:
            raise InputFormatError(path, line_no, "expected a row of numbers as wide as the "
                                   f"first: {line.strip()!r}")
    raise InputFormatError(path, 0, "file does not parse")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
