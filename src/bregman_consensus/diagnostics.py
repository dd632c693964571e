"""Numerical verification of the solver's convergence behaviour.

This module checks, on desk-scale instances, the structural facts the
solver's convergence rests on: the split objective's Hessian blocks and
their positive definiteness (closed forms exist for the two entropy-type
divergences), the quadratic-form identity the positive-definiteness argument
reduces to, q-linear distance ratios toward the fixed point, and the two
descent monitors (the objective trace itself and the weighted left-copy
divergence to the converged reference, which lower-bounds per-step descent).

Analytic blocks are scaled consistently with the implemented generating
functions; the base-2 ``kl`` kind therefore carries a 1/ln(2) factor
everywhere, including in the expected value of the quadratic form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .divergences import DivergenceKind
from .ensemble_inputs import SimilarityMatrix
from .exceptions import InsufficientTraceError, ShapeError, UnsupportedDivergenceError
from .solver import SolverConfig, SolverState

_HESSIAN_KINDS = (DivergenceKind.KL, DivergenceKind.GENERALIZED_I)
_MAX_EIG_DIM = 200  # diagnostics are desk-scale verifiers, not production paths


@dataclass
class HessianBlocks:
    """Nonzero blocks of the split objective's Hessian.

    Every block of the entropy-type Hessian is diagonal, so blocks are stored
    as length-k diagonal vectors keyed by ``((side_a, i), (side_b, j))`` with
    side ``"l"`` or ``"r"``.  Off-diagonal left-left and right-right blocks
    are identically zero and never stored.  ``scale`` is the curvature
    constant of the generating function (1 for natural log, 1/ln 2 for the
    base-2 kind).
    """

    n: int
    k: int
    scale: float
    diagonals: dict = field(repr=False)

    def block(self, side_i: str, i: int, side_j: str, j: int) -> np.ndarray:
        """Return the k-by-k block for the ordered copy pair; zero if absent."""
        key = ((side_i, i), (side_j, j))
        if key in self.diagonals:
            return np.diag(self.diagonals[key])
        mirror = ((side_j, j), (side_i, i))
        if mirror in self.diagonals:
            return np.diag(self.diagonals[mirror])
        return np.zeros((self.k, self.k))

    def _flat_index(self, side: str, i: int) -> slice:
        base = 0 if side == "l" else self.n * self.k
        return slice(base + i * self.k, base + (i + 1) * self.k)

    def assemble(self) -> np.ndarray:
        """Dense symmetric 2nk-by-2nk matrix, left copies first."""
        dim = 2 * self.n * self.k
        H = np.zeros((dim, dim))
        idx = np.arange(self.k)
        for ((side_i, i), (side_j, j)), diag in self.diagonals.items():
            ri = self._flat_index(side_i, i)
            cj = self._flat_index(side_j, j)
            H[ri.start + idx, cj.start + idx] = diag
            if (side_i, i) != (side_j, j):
                H[cj.start + idx, ri.start + idx] = diag
        return H


def hessian_blocks(state: SolverState, pi, similarity: SimilarityMatrix,
                   config: SolverConfig) -> HessianBlocks:
    """Closed-form Hessian blocks of the split objective at the given state.

    Only the two entropy-type kinds have these closed forms; other kinds
    raise :class:`UnsupportedDivergenceError`.
    """
    spec = config.divergence
    if spec.kind not in _HESSIAN_KINDS:
        raise UnsupportedDivergenceError(
            f"analytic Hessian blocks exist only for kl/gen-i, not {spec.kind.value}"
        )
    pi = np.asarray(pi, dtype=np.float64)
    yl, yr = state.y_left, state.y_right
    n, k = yl.shape
    c = spec.curvature_scale
    alpha, lam = config.alpha, config.lam
    op = similarity.operator
    nbr_left = op.matvec(yl)  # sum_i s_ij * yl_i

    diagonals = {}
    for i in range(n):
        gamma = alpha * op.row_sum[i]
        diagonals[(("l", i), ("l", i))] = c * (gamma + lam) / yl[i]
        diagonals[(("r", i), ("r", i))] = (
            c * (pi[i] + alpha * nbr_left[i] + lam * yl[i]) / (yr[i] ** 2)
        )
        if lam > 0.0:
            diagonals[(("l", i), ("r", i))] = -c * lam / yr[i]
    for i, j, s in zip(similarity.rows, similarity.cols, similarity.vals):
        diagonals[(("l", int(i)), ("r", int(j)))] = diagonals.get(
            (("l", int(i)), ("r", int(j))), np.zeros(k)
        ) - c * alpha * s / yr[int(j)]
        diagonals[(("l", int(j)), ("r", int(i)))] = diagonals.get(
            (("l", int(j)), ("r", int(i))), np.zeros(k)
        ) - c * alpha * s / yr[int(i)]
    return HessianBlocks(n=n, k=k, scale=c, diagonals=diagonals)


def check_positive_definite(blocks: HessianBlocks) -> Tuple[bool, float]:
    """Dense symmetric eigensolve; returns (is PD, smallest eigenvalue)."""
    dim = 2 * blocks.n * blocks.k
    if dim > _MAX_EIG_DIM:
        raise ShapeError(f"assembled dimension {dim} exceeds the desk-scale cap {_MAX_EIG_DIM}")
    H = blocks.assemble()
    eigs = np.linalg.eigvalsh(H)
    smallest = float(eigs[0])
    return smallest > 0.0, smallest


def quadratic_form_identity(blocks: HessianBlocks, state: SolverState, pi):
    """Evaluate z' H z at z = (left copies, right copies) itself.

    For the entropy-type Hessian this telescopes to ``scale * sum(pi)``.
    Returns ``(value, expected, residual)``.
    """
    z = np.concatenate([state.y_left.ravel(), state.y_right.ravel()])
    H = blocks.assemble()
    value = float(z @ H @ z)
    expected = blocks.scale * float(np.asarray(pi).sum())
    return value, expected, abs(value - expected)


def grad_objective(state: SolverState, pi, similarity: SimilarityMatrix,
                   config: SolverConfig) -> np.ndarray:
    """Analytic gradient of the split objective, flattened (left block first).

    Valid for any divergence kind; used to validate the analytic Hessian
    against finite differences.
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


@dataclass
class RateReport:
    """Distance ratios toward the converged copies.

    ``ratios`` holds the defined ratios ||z_{t+1} - z*|| / ||z_t - z*|| in
    iteration order, ``indices`` the t each one belongs to; ratios whose
    denominator is below the zero-distance guard are excluded.
    """

    ratios: List[float]
    indices: List[int]
    rho_estimate: float
    qlinear: bool

    def past_burn_in(self, burn_in: int) -> List[float]:
        return [r for r, t in zip(self.ratios, self.indices) if t >= burn_in]


def _flatten_copies(copies) -> np.ndarray:
    yl, yr = copies
    return np.concatenate([np.asarray(yl).ravel(), np.asarray(yr).ravel()])


def qlinear_ratios(snapshots, z_star, burn_in: int = 5) -> RateReport:
    """Per-iteration contraction ratios of the copy trajectory.

    ``snapshots`` is a sequence of per-iteration ``(y_left, y_right)`` pairs,
    such as a run's ``copy_history``; ``z_star`` the converged pair from a
    run at tight tolerance.  Distances below ``1e-12 * max(1, ||z*||)`` are
    treated as already converged and produce no ratio.
    """
    if len(snapshots) < burn_in + 3:
        raise InsufficientTraceError(
            f"need at least burn_in + 3 = {burn_in + 3} snapshots, got {len(snapshots)}"
        )
    star = _flatten_copies(z_star)
    guard = 1e-12 * max(1.0, float(np.linalg.norm(star)))
    dists = [float(np.linalg.norm(_flatten_copies(s) - star)) for s in snapshots]
    ratios, indices = [], []
    for t in range(len(dists) - 1):
        if dists[t] > guard and dists[t + 1] > guard:
            ratios.append(dists[t + 1] / dists[t])
            indices.append(t)
    post = [r for r, t in zip(ratios, indices) if t >= burn_in]
    rho = max(post) if post else 0.0
    qlinear = (not post) or rho < 1.0
    return RateReport(ratios=ratios, indices=indices, rho_estimate=rho, qlinear=qlinear)


def delta_j(left_a, left_b, similarity: SimilarityMatrix, config: SolverConfig) -> float:
    """Weighted divergence between two left-copy configurations.

    ``sum_i (lam + alpha * sum_{j != i} s_ij) d(a_i, b_i)``; nonnegative and
    zero exactly when the configurations coincide.  Along the solver's
    trajectory, its value against the converged reference never increases.
    """
    spec = config.divergence
    left_a = np.asarray(left_a, dtype=np.float64)
    left_b = np.asarray(left_b, dtype=np.float64)
    if left_a.shape != left_b.shape:
        raise ShapeError(f"shape mismatch {left_a.shape} vs {left_b.shape}")
    weights = config.lam + config.alpha * similarity.operator.row_sum
    return float(np.sum(weights * np.atleast_1d(spec.bregman(left_a, left_b))))


@dataclass
class DeltaJMonitor:
    """Trajectory of delta_j values against a converged left reference."""

    reference_left: np.ndarray
    values: List[float]

    @classmethod
    def from_history(cls, reference_left, history, similarity, config) -> "DeltaJMonitor":
        values = [delta_j(reference_left, y_left, similarity, config) for y_left, _ in history]
        return cls(reference_left=np.asarray(reference_left, dtype=np.float64), values=values)

    def is_monotone(self, slack: float = 1e-10) -> bool:
        v = self.values
        return all(v[t + 1] <= v[t] + slack for t in range(len(v) - 1))


def descent_violation(trace, relative_slack: float = 1e-12) -> float:
    """Largest relative objective increase along a trace (0 when monotone)."""
    worst = 0.0
    for a, b in zip(trace[:-1], trace[1:]):
        worst = max(worst, (b - a) / max(abs(a), 1.0))
    return max(worst, 0.0)


def render_report(entries) -> str:
    """Render ``name=value`` lines; booleans lowercase, floats via repr."""
    lines = []
    for key, value in entries:
        if isinstance(value, (bool, np.bool_)):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key}={text}")
    return "\n".join(lines) + "\n"
