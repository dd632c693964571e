"""Shared samplers and independent oracles for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

from bregman_consensus.divergences import DivergenceKind, divergence_spec
from bregman_consensus.ensemble_inputs import SimilarityMatrix, coassociation_similarity
from bregman_consensus.solver import SolverConfig

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


weights = st.one_of(st.just(0.0), st.floats(0.0, 2.0))  # alpha and lambda, 0 included


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
