"""Computations made apart from the program, and the checks built on them.

Nothing here imports the program under test.  The co-association comes
from sparse one-hot products, the objective from the closed form of the
generalized I-divergence, and the file checks from the documented formats.
Every check raises :class:`CheckFailed` with a message naming what differs.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

DOMAIN_FLOOR = 1e-12
# The base-2 kl kind is the generalized I-divergence divided by ln 2.
SCALE = {"gen-i": 1.0, "kl": 1.0 / math.log(2.0)}


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own answer."""


def coassociation(partitions):
    """Upper-triangle co-association (rows, cols, vals), i < j, from one-hots.

    Each partition column c gives a sparse n x m_c one-hot matrix B_c; the
    co-association is (1/r2) sum_c B_c B_c^T with the diagonal dropped.
    """
    parts = np.asarray(partitions)
    n, r2 = parts.shape
    total = sp.csr_matrix((n, n))
    for col in parts.T:
        _, ids = np.unique(col, return_inverse=True)
        onehot = sp.csr_matrix((np.ones(n), (np.arange(n), ids)), shape=(n, ids.max() + 1))
        total = total + onehot @ onehot.T
    upper = sp.triu(total, k=1).tocoo()
    order = np.lexsort((upper.col, upper.row))
    return (upper.row[order].astype(np.int64), upper.col[order].astype(np.int64),
            upper.data[order] / r2)


def clean_pi(pi, divergence):
    """Clamp to the domain floor; kl rows are re-normalized onto the simplex."""
    pi = np.maximum(np.asarray(pi, dtype=np.float64), DOMAIN_FLOOR)
    if divergence == "kl":
        pi = pi / pi.sum(axis=1, keepdims=True)
    return pi


def i_divergence(p, q, divergence):
    """Row-wise scale * sum(p ln(p/q) - p + q)."""
    p = np.maximum(p, DOMAIN_FLOOR)
    q = np.maximum(q, DOMAIN_FLOOR)
    return SCALE[divergence] * np.sum(p * np.log(p / q) - p + q, axis=-1)


def objective(y_left, y_right, pi, pairs, divergence, alpha, lam):
    """Split objective over stored pairs (i < j), each read in both orders."""
    rows, cols, vals = pairs

    def d(p, q):
        return i_divergence(p, q, divergence)

    pair = np.sum(vals * (d(y_left[rows], y_right[cols]) + d(y_left[cols], y_right[rows])))
    return (float(np.sum(d(pi, y_right))) + alpha * float(pair)
            + lam * float(np.sum(d(y_left, y_right))))


# -- checks -----------------------------------------------------------------


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_similarity(got, want, tol=1e-12):
    """Same stored pairs in the same canonical order, values within ``tol``."""
    (gr, gc, gv), (wr, wc, wv) = got, want
    require(gr.size == wr.size, f"similarity stores {gr.size} pairs, expected {wr.size}")
    require(np.array_equal(gr, wr) and np.array_equal(gc, wc), "similarity pairs differ")
    err = float(np.max(np.abs(gv - wv), initial=0.0))
    require(err <= tol, f"similarity values differ by {err:.3g}")


def check_trace(trace, final_j, rel=1e-9):
    """The trace never increases and ends at the independently computed J."""
    trace = np.asarray(trace, dtype=np.float64)
    require(np.all(np.isfinite(trace)), "objective trace is not finite")
    rise = np.diff(trace) / np.maximum(np.abs(trace[:-1]), 1.0)
    require(np.all(rise <= 1e-12), f"objective trace increases by {rise.max():.3g}")
    err = abs(trace[-1] - final_j) / max(abs(final_j), 1.0)
    require(err <= rel, f"final J {trace[-1]!r} differs from recomputed {final_j!r}")


def parse_labels_file(path, k):
    """Read ``index,label,p1..pk``; returns (labels, probabilities)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        want = "index,label," + ",".join(f"p{c + 1}" for c in range(k))
        require(header == want, f"labels header {header!r}, expected {want!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    require(all(len(r) == k + 2 for r in rows), "labels rows have the wrong width")
    index = np.array([int(r[0]) for r in rows])
    require(np.array_equal(index, np.arange(len(rows))), "labels index is not 0..n-1")
    labels = np.array([int(r[1]) for r in rows], dtype=np.int64)
    probs = np.array([[float(v) for v in r[2:]] for r in rows])
    return labels, probs


def check_labels(labels, probs, fit_labels, fit_probs):
    """Labels are argmax of rows summing to 1, and agree with the fit."""
    require(labels.shape == fit_labels.shape, "labels file has the wrong number of rows")
    require(np.array_equal(labels, probs.argmax(axis=1)), "labels are not argmax of probabilities")
    err = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    require(err <= 1e-12, f"probability rows miss 1 by {err:.3g}")
    require(np.array_equal(labels, fit_labels), "labels file disagrees with fit labels")
    require(np.array_equal(probs, fit_probs), "labels file disagrees with fit probabilities")


def check_accuracy(labels, pi, truth):
    acc = float(np.mean(labels == truth))
    base = float(np.mean(np.asarray(pi).argmax(axis=1) == truth))
    require(acc >= base, f"accuracy {acc:.4f} below argmax(pi) accuracy {base:.4f}")
    return acc


def parse_report(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def check_report(report, pi_clean, divergence, desk):
    """Descent and rate entries; Hessian entries on desk-scale problems."""
    require(report.get("descent_violation") == "0.0", "descent_violation is not 0.0")
    require(report.get("delta_j_monotone") == "true", "delta_j_monotone is not true")
    require(report.get("qlinear") == "true", "qlinear is not true")
    require(float(report.get("rho_estimate", "nan")) < 1.0, "rho_estimate is not below 1")
    if desk:
        require(report.get("pd") == "true", "Hessian is not positive definite")
        want = SCALE[divergence] * float(np.sum(pi_clean))
        got = float(report.get("quadratic_form_expected", "nan"))
        require(abs(got - want) <= 1e-12 * want,
                 f"quadratic_form_expected {got!r}, expected {want!r}")
        require("lambda_hat" in report, "lambda_hat missing from the report")
