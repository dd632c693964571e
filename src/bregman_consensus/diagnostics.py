"""Numerical verification of the solver's convergence behaviour.

This module checks, on desk-scale instances, the structural facts the
solver's convergence rests on: the split objective's Hessian blocks and
their positive definiteness (closed forms exist for the two entropy-type
divergences), the quadratic-form identity the positive-definiteness argument
reduces to, q-linear distance ratios toward the fixed point, and the two
descent monitors (the objective trace itself and the weighted left-copy
divergence to the converged reference, which lower-bounds per-step descent).

Every divergence here is a sum over coordinates (Banerjee et al.,
"Clustering with Bregman Divergences", JMLR 2005), so the split objective's
Hessian never couples two different coordinates.  It is held as k
per-coordinate blocks of size 2n, not as one 2nk-by-2nk matrix: the
eigensolve and the quadratic form run block by block, in k times less
memory and k^2 times less eigensolve work.  The descent monitor evaluates
the snapshots of a history together, a bounded block at a time, with
:meth:`DivergenceSpec.bregman`; :func:`delta_j` is the monitor on a
one-snapshot history.

Analytic blocks are scaled consistently with the implemented generating
functions; the base-2 ``kl`` kind therefore carries a 1/ln(2) factor
everywhere, including in the expected value of the quadratic form.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .ensemble_inputs import SimilarityMatrix
from .exceptions import (ArgumentError, DomainError, InsufficientTraceError, ShapeError,
                         UnsupportedDivergenceError)
from .solver import SolverConfig, SolverState, _finite_of_shape, _Problem

MAX_HESSIAN_DIM = 200  # diagnostics are desk-scale verifiers, not production paths
_MONITOR_BLOCK = 1 << 16  # snapshot coordinates the delta_j monitor evaluates at once


def hessian_fits(n: int, k: int) -> bool:
    """Whether the 2nk-by-2nk Hessian is within :data:`MAX_HESSIAN_DIM`."""
    return 2 * n * k <= MAX_HESSIAN_DIM


@dataclass
class HessianBlocks:
    """The split objective's Hessian as k per-coordinate blocks, read-only.

    Every divergence here is a sum over coordinates, so the Hessian never
    couples two different coordinates: ordered by coordinate, it is block
    diagonal.  ``blocks`` has shape (k, 2n, 2n), and ``blocks[a]`` is
    coordinate a's block, left copies first: entry (p, q) is the full
    matrix's entry (p k + a, q k + a), with p < n the left copy of node p
    and p >= n the right copy of node p - n.  ``scale`` is the curvature
    constant of the generating function (1 for natural log, 1/ln 2 for the
    base-2 kind).
    """

    scale: float
    blocks: np.ndarray = field(repr=False)


def hessian_blocks(state: SolverState, pi, similarity: SimilarityMatrix,
                   config: SolverConfig) -> HessianBlocks:
    """Closed-form Hessian of the split objective at the given state, per coordinate.

    With c the curvature scale, and r and S the row sums and the dense form
    of the similarity (read through its operator, once), coordinate a's
    block is ``[[LL_a, LR_a], [LR_a', RR_a]]`` with::

        LL_a = diag(c (alpha r + lam) / yl_:a)
        RR_a = diag(c (pi + alpha S yl + lam yl)_:a / yr_:a^2)
        LR_a = -(c alpha S + c lam I) / yr_:a, column by column

    Only the two entropy-type kinds have these closed forms; other kinds
    raise :class:`UnsupportedDivergenceError`.  ``pi`` is checked as
    :func:`~bregman_consensus.solver.run` checks it, and the state's copies
    must be finite and (n, k), or :class:`ShapeError` is raised.  A Hessian
    wider than :data:`MAX_HESSIAN_DIM` raises :class:`ShapeError` before any
    block is allocated.
    """
    spec = config.divergence
    if not spec.supports_hessian:
        raise UnsupportedDivergenceError(
            f"analytic Hessian blocks exist only for kl/gen-i, not {spec.kind.value}"
        )
    problem = _Problem(pi, similarity, config)
    yl, yr = problem.copies(y_left=state.y_left, y_right=state.y_right)
    n, k = yl.shape
    if not hessian_fits(n, k):
        raise ShapeError(f"Hessian dimension {2 * n * k} exceeds the desk-scale cap "
                         f"{MAX_HESSIAN_DIM}")
    pi = np.asarray(pi, dtype=np.float64)  # as given: the clamp would move the blocks
    c = spec.curvature_scale
    alpha, lam = config.alpha, config.lam
    op = problem.op
    left = c * (alpha * op.row_sum[:, None] + lam) / yl
    right = c * (pi + alpha * op.matvec(yl) + lam * yl) / yr ** 2
    weighted = c * alpha * op.matvec(np.eye(n))
    H = np.zeros((k, 2 * n, 2 * n))
    nodes = np.arange(n)
    for a in range(k):
        # 0 - x: absent entries, and entries that underflow, stay +0.0
        cross = 0.0 - weighted / yr[:, a]
        if lam > 0.0:
            cross[nodes, nodes] = -c * lam / yr[:, a]  # S has a zero diagonal
        H[a, :n, n:] = cross
        H[a, n:, :n] = cross.T
        H[a, nodes, nodes] = left[:, a]
        H[a, n + nodes, n + nodes] = right[:, a]
    H.setflags(write=False)
    return HessianBlocks(scale=c, blocks=H)


def check_positive_definite(blocks: HessianBlocks) -> Tuple[bool, float]:
    """Symmetric eigensolve per coordinate block; returns (is PD, smallest eigenvalue).

    The Hessian's spectrum is the union of its blocks' spectra, so the
    smallest eigenvalue is the least of the k blocks' smallest.
    """
    smallest = float(np.linalg.eigvalsh(blocks.blocks)[:, 0].min())
    return smallest > 0.0, smallest


def quadratic_form_identity(blocks: HessianBlocks, state: SolverState, pi):
    """Evaluate z' H z at z = (left copies, right copies) itself.

    The form is summed over the coordinate blocks, z_a' H_a z_a with z_a
    coordinate a of both copies.  For the entropy-type Hessian it telescopes
    to ``scale * sum(pi)``.  Returns ``(value, expected, residual)``.  A
    ``pi`` or a copy that is not finite or not of the blocks' shape (n, k)
    raises :class:`ShapeError`.
    """
    k, m, _ = blocks.blocks.shape
    pi, yl, yr = _finite_of_shape((m // 2, k), pi=pi, y_left=state.y_left,
                                  y_right=state.y_right)
    z = np.concatenate([yl, yr]).T  # row a: coordinate a of every copy, left first
    value = float(sum(z_a @ H_a @ z_a for z_a, H_a in zip(z, blocks.blocks)))
    expected = blocks.scale * float(pi.sum())
    return value, expected, abs(value - expected)


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
    treated as already converged and produce no ratio.  A negative
    ``burn_in`` raises :class:`ArgumentError`.
    """
    if burn_in < 0:
        raise ArgumentError(f"burn_in must be nonnegative, got {burn_in}")
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
    It is :class:`DeltaJMonitor` on the one-snapshot history ``[(b, _)]``:
    either configuration not finite or not (n, k) raises :class:`ShapeError`
    naming it.
    """
    return DeltaJMonitor.from_history(left_a, [(left_b, None)], similarity, config).values[0]


@dataclass
class DeltaJMonitor:
    """Trajectory of delta_j values against a converged left reference."""

    values: List[float]

    @classmethod
    def from_history(cls, reference_left, history, similarity, config) -> "DeltaJMonitor":
        """``delta_j(reference_left, y_left)`` for each ``(y_left, _)`` of ``history``.

        The reference is checked first, once: not finite or not (n, k), it
        raises :class:`ShapeError` naming ``left_a``, and outside the domain
        :class:`DomainError`, even when the history is empty.  The snapshots
        go through :meth:`DivergenceSpec.bregman` together, a block of at
        most :data:`_MONITOR_BLOCK` coordinates (and at least one snapshot)
        at a time, so the extra memory is O(n k) however long the history.
        A snapshot that fails raises as a one-snapshot history would: the
        first such snapshot in order, named ``left_b``.
        """
        spec = config.divergence
        shape = (similarity.n, spec.dimension)
        (reference,) = _finite_of_shape(shape, left_a=reference_left)
        spec.check_domain(reference)
        weights = config.lam + config.alpha * similarity.operator.row_sum
        per_block = max(1, _MONITOR_BLOCK // max(1, reference.size))
        values = []
        for start in range(0, len(history), per_block):
            snapshots = [np.asarray(y_left, dtype=np.float64)
                         for y_left, _ in history[start:start + per_block]]
            bregman = None
            if all(y.shape == shape for y in snapshots):
                block = np.stack(snapshots)
                if np.isfinite(block).all():
                    with contextlib.suppress(DomainError):
                        bregman = spec.bregman(reference, block)
            if bregman is None:
                for y_left in snapshots:  # the block failed: raise at its first bad snapshot
                    spec.check_domain(*_finite_of_shape(shape, left_b=y_left))
            values += (weights * bregman).sum(axis=-1).tolist()
        return cls(values=values)

    def is_monotone(self, slack: float = 1e-10) -> bool:
        v = self.values
        return all(v[t + 1] <= v[t] + slack for t in range(len(v) - 1))


def descent_violation(trace) -> float:
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
