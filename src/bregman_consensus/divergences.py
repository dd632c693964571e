"""Separable Bregman divergences with exact gradients and Legendre duals.

Seven generating functions are supported, keyed by :class:`DivergenceKind`:

==================  ============  =======================================
kind (CLI token)    domain        phi per coordinate
==================  ============  =======================================
squared             R             p^2
logistic            [0, 1]        p ln p + (1-p) ln(1-p)
bose-einstein       R+            p ln p - (1+p) ln(1+p)
itakura-saito       R++           -ln p
euclidean           R^k           sum p^2
kl                  k-simplex     sum p log2 p   (base-2 logarithm)
gen-i               R+^k          sum p ln p
==================  ============  =======================================

Scalar kinds extend to k dimensions by coordinatewise summation, which keeps
the divergence equal to the sum of scalar divergences.  Every kind provides
``phi`` (and its per-coordinate terms, ``phi_terms``), its gradient, the
closed-form gradient inverse, the Legendre dual ``psi``, and the primal/dual
divergences built from them.

Log-based domains are clamped to ``domain_floor`` before evaluation so that
hard, exactly-zero classifier outputs stay evaluable; points further outside
the domain than the floor raise :class:`DomainError`.  Every public evaluator
of :class:`DivergenceSpec` checks and clamps its own arguments.  The solver
does not call them in its loop: a copy is checked once, where it enters a
solver entry, clamped once per iteration, and the spec's raw per-kind
kernels run on the clamped copy, so no kernel call scans the domain.  The
base-2 logarithm of the ``kl`` kind is kept throughout, so its gradients
carry a 1/ln(2) factor.  Simplex membership for ``kl`` is enforced only by
:func:`validate_point`; the evaluators accept any positive orthant point so
that finite-difference probes a step off the simplex remain well defined.

All functions are pure and accept either a single point of shape ``(k,)`` or
a batch of rows ``(m, k)``; reductions are over the last axis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import DomainError, RangeError, ShapeError

LN2 = math.log(2.0)
SIMPLEX_ATOL = 1e-9  # how far a simplex point's coordinates may sum from 1


class DivergenceKind(enum.Enum):
    """One divergence family; the value doubles as the CLI token."""

    SQUARED_LOSS = "squared"
    LOGISTIC_LOSS = "logistic"
    BOSE_EINSTEIN = "bose-einstein"
    ITAKURA_SAITO = "itakura-saito"
    SQUARED_EUCLIDEAN = "euclidean"
    KL = "kl"
    GENERALIZED_I = "gen-i"


def parse_divergence(token) -> DivergenceKind:
    """Map a :class:`DivergenceKind` or its CLI token (e.g. ``"gen-i"``) to the kind."""
    try:
        return DivergenceKind(token)
    except ValueError:
        valid = ", ".join(k.value for k in DivergenceKind)
        raise ValueError(f"unknown divergence {token!r}; expected one of: {valid}") from None


def _sigmoid(g):
    g = np.asarray(g, dtype=np.float64)
    out = np.empty_like(g)
    pos = g >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-g[pos]))
    eg = np.exp(g[~pos])
    out[~pos] = eg / (1.0 + eg)
    return out


@dataclass(frozen=True)
class _Rule:
    lower: Optional[float]  # domain bounds, None = unbounded
    upper: Optional[float]
    phi_terms: Callable  # per-coordinate phi
    grad: Callable
    grad_inv: Callable
    hess_diag: Callable  # per-coordinate phi''
    grad_sup: Optional[float]  # open supremum of the gradient range
    simplex: bool = False
    curvature: Optional[float] = None  # phi'' = curvature / p, where defined


# the squared loss and the squared Euclidean distance share one generator
_SQUARED = _Rule(
    lower=None,
    upper=None,
    phi_terms=lambda p: p * p,
    grad=lambda p: 2.0 * p,
    grad_inv=lambda g: 0.5 * g,
    hess_diag=lambda p: np.full_like(p, 2.0),
    grad_sup=None,
)

_RULES = {
    DivergenceKind.SQUARED_LOSS: _SQUARED,
    DivergenceKind.LOGISTIC_LOSS: _Rule(
        lower=0.0,
        upper=1.0,
        phi_terms=lambda p: p * np.log(p) + (1.0 - p) * np.log1p(-p),
        grad=lambda p: np.log(p) - np.log1p(-p),
        grad_inv=_sigmoid,
        hess_diag=lambda p: 1.0 / (p * (1.0 - p)),
        grad_sup=None,
    ),
    DivergenceKind.BOSE_EINSTEIN: _Rule(
        lower=0.0,
        upper=None,
        phi_terms=lambda p: p * np.log(p) - (1.0 + p) * np.log1p(p),
        grad=lambda p: np.log(p) - np.log1p(p),
        grad_inv=lambda g: 1.0 / np.expm1(-g),
        hess_diag=lambda p: 1.0 / (p * (1.0 + p)),
        grad_sup=0.0,
    ),
    DivergenceKind.ITAKURA_SAITO: _Rule(
        lower=0.0,
        upper=None,
        phi_terms=lambda p: -np.log(p),
        grad=lambda p: -1.0 / p,
        grad_inv=lambda g: -1.0 / g,
        hess_diag=lambda p: 1.0 / (p * p),
        grad_sup=0.0,
    ),
    DivergenceKind.SQUARED_EUCLIDEAN: _SQUARED,
    DivergenceKind.KL: _Rule(
        lower=0.0,
        upper=None,
        phi_terms=lambda p: p * np.log2(p),
        grad=lambda p: (1.0 + np.log(p)) / LN2,
        grad_inv=lambda g: np.exp(g * LN2 - 1.0),
        hess_diag=lambda p: 1.0 / (LN2 * p),
        grad_sup=None,
        simplex=True,
        curvature=1.0 / LN2,
    ),
    DivergenceKind.GENERALIZED_I: _Rule(
        lower=0.0,
        upper=None,
        phi_terms=lambda p: p * np.log(p),
        grad=lambda p: 1.0 + np.log(p),
        grad_inv=lambda g: np.exp(g - 1.0),
        hess_diag=lambda p: 1.0 / p,
        grad_sup=None,
        curvature=1.0,
    ),
}


@dataclass(frozen=True)
class DivergenceSpec:
    """A divergence kind bound to a dimension and a clamping floor.

    Parameters
    ----------
    kind : DivergenceKind or str
        Which generating function to use: a kind or its CLI token, resolved
        to the kind; anything else raises ``ValueError``.
    dimension : int
        Number of coordinates k of the points the spec will see.
    domain_floor : float
        Clamping epsilon for bounded domains; log-based coordinates are
        clamped to at least this value (and to at most ``1 - domain_floor``
        for the logistic kind) before evaluation; in (0, 0.5) or ``ValueError``,
        and for ``kl`` below ``1 / dimension`` or ``DomainError``.
    """

    kind: DivergenceKind
    dimension: int
    domain_floor: float = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "kind", parse_divergence(self.kind))
        object.__setattr__(self, "_rule", _RULES[self.kind])
        if self.dimension < 1:
            raise ShapeError(f"dimension must be positive, got {self.dimension}")
        if not 0.0 < self.domain_floor < 0.5:
            raise ValueError(f"domain_floor must lie in (0, 0.5), got {self.domain_floor}")
        if self._rule.simplex and self.dimension * self.domain_floor >= 1.0:
            raise DomainError(f"kl: domain_floor={self.domain_floor!r} leaves no room on the "
                              f"simplex in k={self.dimension} dimensions (needs k * floor < 1)")

    def __reduce__(self):  # the resolved rule holds lambdas: pickle the fields, resolve again
        return DivergenceSpec, (self.kind, self.dimension, self.domain_floor)

    @property
    def nonnegative_domain(self) -> bool:
        """True when the domain lies in the nonnegative orthant."""
        return self._rule.lower is not None

    @property
    def simplex_domain(self) -> bool:
        return self._rule.simplex

    @property
    def supports_hessian(self) -> bool:
        """True for the kinds whose objective Hessian has a closed form here."""
        return self._rule.curvature is not None

    @property
    def curvature_scale(self) -> float:
        """Constant c with phi''(p) = c/p for the Hessian-supported kinds."""
        if self._rule.curvature is None:
            raise ValueError(f"{self.kind.value} has no 1/p curvature constant")
        return self._rule.curvature

    # -- domain handling ---------------------------------------------------

    def clamp(self, p):
        """Clamp ``p`` into the evaluable interior of the domain.

        The bounds are applied by ``np.maximum`` and ``np.minimum``, the
        values ``np.clip`` gives (NaN included) at a fraction of its
        per-call cost.
        """
        p = np.asarray(p, dtype=np.float64)
        rule = self._rule
        if rule.lower is None:
            return p
        p = np.maximum(p, rule.lower + self.domain_floor)
        if rule.upper is not None:
            p = np.minimum(p, rule.upper - self.domain_floor)
        return p

    def check_domain(self, p):
        """Raise :class:`DomainError` if ``p`` exceeds the domain by more than the floor."""
        p = np.asarray(p, dtype=np.float64)
        rule = self._rule
        if rule.lower is not None and np.any(p < rule.lower - self.domain_floor):
            raise DomainError(
                f"{self.kind.value}: coordinate {p.min()} below domain lower bound {rule.lower}"
            )
        if rule.upper is not None and np.any(p > rule.upper + self.domain_floor):
            raise DomainError(
                f"{self.kind.value}: coordinate {p.max()} above domain upper bound {rule.upper}"
            )

    def _admit(self, p):
        self.check_domain(p)
        return self.clamp(p)

    def _check_dual(self, g):
        g = np.asarray(g, dtype=np.float64)
        sup = self._rule.grad_sup
        if sup is not None and np.any(g >= sup):
            raise RangeError(
                f"{self.kind.value}: dual coordinate {g.max()} outside gradient range (< {sup})"
            )
        return g

    # -- primal evaluators -------------------------------------------------

    def phi_terms(self, p):
        """Generating function per coordinate, before the sum over the last axis."""
        return self._rule.phi_terms(self._admit(p))

    def phi(self, p):
        """Generating function, summed over the last axis."""
        return np.sum(self.phi_terms(p), axis=-1)

    def grad(self, p):
        """Coordinatewise exact gradient of phi."""
        p = self._admit(p)
        return self._rule.grad(p)

    def grad_inv(self, g):
        """The unique point whose gradient equals ``g``; inverse of :meth:`grad`."""
        g = self._check_dual(g)
        return self.clamp(self._rule.grad_inv(g))

    def hess_diag(self, p):
        """Diagonal of the (separable) Hessian of phi."""
        p = self._admit(p)
        return self._rule.hess_diag(p)

    def bregman(self, p, q):
        """phi(p) - phi(q) - <p - q, grad phi(q)>, reduced over the last axis."""
        return self._bregman_from(self._admit(p), q)

    def _bregman_from(self, p, q):
        """:meth:`bregman` with ``p`` already checked and clamped: only ``q`` is admitted."""
        q = self._admit(q)
        terms = self._rule
        return (
            np.sum(terms.phi_terms(p), axis=-1)
            - np.sum(terms.phi_terms(q), axis=-1)
            - np.sum((p - q) * terms.grad(q), axis=-1)
        )

    # -- dual evaluators ---------------------------------------------------

    def psi(self, y):
        """Legendre dual of phi evaluated at the dual point ``y``.

        psi(y) = <y, grad_inv(y)> - phi(grad_inv(y)).
        """
        y = self._check_dual(np.asarray(y, dtype=np.float64))
        p = self.clamp(self._rule.grad_inv(y))
        return np.sum(y * p, axis=-1) - np.sum(self._rule.phi_terms(p), axis=-1)

    def bregman_dual(self, a, b):
        """Bregman divergence of psi; grad psi is the gradient inverse of phi."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        return self.psi(a) - self.psi(b) - np.sum((a - b) * self.grad_inv(b), axis=-1)


def divergence_spec(kind, dimension, domain_floor=1e-12) -> DivergenceSpec:
    """Build a :class:`DivergenceSpec` from a kind or CLI token."""
    return DivergenceSpec(kind=kind, dimension=dimension, domain_floor=domain_floor)


def validate_point(spec: DivergenceSpec, p) -> np.ndarray:
    """Check a single point against the spec's domain and dimension.

    For the simplex-domain kind the coordinates must additionally sum to one
    within :data:`SIMPLEX_ATOL`.  Returns the clamped point.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (spec.dimension,):
        raise ShapeError(f"expected shape ({spec.dimension},), got {p.shape}")
    spec.check_domain(p)
    if spec.simplex_domain and abs(float(p.sum()) - 1.0) > SIMPLEX_ATOL:
        raise DomainError(f"simplex point must sum to 1, got {p.sum()!r}")
    return spec.clamp(p)


def validate_probabilities(spec: DivergenceSpec, pi) -> np.ndarray:
    """Check an (n, k) class-probability matrix against the spec; return it clamped.

    The matrix must be 2-D with ``spec.dimension`` columns, finite, and
    inside the domain up to the clamping floor.
    """
    pi = np.ascontiguousarray(pi, dtype=np.float64)
    if pi.ndim != 2:
        raise ShapeError(f"probabilities must be 2-D (n, k), got shape {pi.shape}")
    if pi.shape[1] != spec.dimension:
        raise ShapeError(
            f"probabilities have {pi.shape[1]} columns, divergence dimension is {spec.dimension}"
        )
    if not np.all(np.isfinite(pi)):
        raise ShapeError("probabilities contain non-finite values")
    spec.check_domain(pi)
    return spec.clamp(pi)
