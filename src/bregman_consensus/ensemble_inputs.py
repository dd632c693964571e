"""Solver inputs: averaged class probabilities and co-association similarity.

The two preprocessing steps that feed the solver are built here: the
entrywise mean of the classifier ensemble's probability matrices, and the
co-association similarity of a cluster ensemble (the fraction of partitions
placing two instances in the same cluster).  Similarities are kept sparse:
only the upper triangle (i < j) with strictly positive weight is stored,
and the solver reads entries symmetrically with an absent (zero) diagonal.

File formats handled here:

* probability CSV - n rows by k columns of reals, optional header row
  (detected by a non-numeric first token);
* partition CSV - n rows by r2 integer columns, one column per clusterer;
* similarity triplets - lines ``i,j,s`` with 0-based indices;
* label file - one integer class index per line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import (
    DomainError,
    EmptyEnsembleError,
    InputFormatError,
    RangeError,
    ShapeError,
)


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric sparse similarity, stored as canonical i < j triplets.

    Entries are in (0, 1]; pairs that never co-occur are simply absent and
    read as 0.  The diagonal is never stored, and each unordered pair at most
    once.  The arrays are read-only, so the :attr:`operator` built from them
    on first use stays valid for the matrix's lifetime.
    """

    n: int
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.int64))
        cols = np.ascontiguousarray(np.asarray(self.cols, dtype=np.int64))
        vals = np.ascontiguousarray(np.asarray(self.vals, dtype=np.float64))
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ShapeError("rows, cols and vals must be equal-length 1-D arrays")
        if rows.size:
            if rows.min() < 0 or cols.max() >= self.n:
                raise ShapeError(f"indices out of range for n={self.n}")
            if np.any(rows >= cols):
                raise ShapeError("triplets must satisfy i < j (no diagonal)")
            if np.any(vals <= 0.0) or np.any(vals > 1.0):
                raise RangeError("similarity values must lie in (0, 1]")
        order = np.argsort(_pair_key(rows, cols, self.n), kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
        same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if np.any(same):
            p = int(np.argmax(same))
            raise ShapeError(f"pair ({rows[p]}, {cols[p]}) is stored more than once "
                             "(duplicate or mirrored)")
        for name, arr in (("rows", rows), ("cols", cols), ("vals", vals)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    @classmethod
    def empty(cls, n: int) -> "SimilarityMatrix":
        z = np.zeros(0)
        return cls(n, z.astype(np.int64), z.astype(np.int64), z)

    @classmethod
    def from_pairs(cls, n, i, j, s) -> "SimilarityMatrix":
        """Build from arbitrary (i, j, s) pairs; orientation is canonicalized."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        s = np.asarray(s, dtype=np.float64)
        if np.any(i == j):
            raise ShapeError("diagonal similarity entries are not allowed")
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        keep = s != 0.0
        return cls(n, lo[keep], hi[keep], s[keep])

    @classmethod
    def from_dense(cls, a) -> "SimilarityMatrix":
        """Build from a dense symmetric array; zero entries are dropped."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {a.shape}")
        if not np.allclose(a, a.T, atol=1e-12):
            raise ShapeError("similarity matrix must be symmetric")
        iu, ju = np.triu_indices(a.shape[0], k=1)
        vals = a[iu, ju]
        keep = vals != 0.0
        return cls(a.shape[0], iu[keep], ju[keep], vals[keep])

    def get(self, i: int, j: int) -> float:
        """Read entry (i, j); symmetric, 0 when absent or on the diagonal."""
        if i == j:
            return 0.0
        lo, hi = (i, j) if i < j else (j, i)
        pos = np.searchsorted(self.rows, lo)
        while pos < self.nnz and self.rows[pos] == lo:
            if self.cols[pos] == hi:
                return float(self.vals[pos])
            pos += 1
        return 0.0

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.rows, self.cols] = self.vals
        a[self.cols, self.rows] = self.vals
        return a

    @cached_property
    def operator(self) -> "SimilarityOperator":
        """The symmetrized operator, built once per matrix on first use."""
        return SimilarityOperator(self)

    def symmetrized_csr(self):
        """Both orientations in CSR form (indptr, indices, data), ascending indices.

        Row sums of this structure are the per-instance weights
        ``sum_j s_ij`` the solver and diagnostics need.  The arrays are the
        :attr:`operator`'s own and read-only.
        """
        op = self.operator
        return op.indptr, op.indices, op.data


class SimilarityOperator:
    """Symmetrized CSR view of a :class:`SimilarityMatrix`, fixed ascending order.

    ``row_sum[i]`` is ``sum_j s_ij``; :meth:`matvec` gives the product
    ``S @ Y`` the solver, the objective and the diagnostics share.
    """

    def __init__(self, similarity: SimilarityMatrix):
        self.n = similarity.n
        i2 = np.concatenate([similarity.rows, similarity.cols])
        j2 = np.concatenate([similarity.cols, similarity.rows])
        order = np.argsort(_pair_key(i2, j2, self.n), kind="stable")
        self.indices = j2[order]
        self.data = np.concatenate([similarity.vals, similarity.vals])[order]
        self.indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(self.indptr, i2 + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)
        self.row_sum = self.matvec(np.ones((self.n, 1)))[:, 0]
        for arr in (self.indptr, self.indices, self.data, self.row_sum):
            arr.setflags(write=False)

    def matvec(self, Y: np.ndarray) -> np.ndarray:
        """``S @ Y`` for an (n, m) array, one column at a time.

        Each row reduces its own contiguous slice in ascending column order.
        Empty rows contribute zero; reduceat sees only nonempty rows'
        offsets, whose consecutive gaps are exactly the nonempty rows' slices.
        """
        out = np.zeros((self.n, Y.shape[1]))
        nonempty = np.flatnonzero(np.diff(self.indptr) > 0)
        offsets = self.indptr[nonempty]
        for c in range(Y.shape[1]):
            out[nonempty, c] = np.add.reduceat(self.data * Y[:, c][self.indices], offsets)
        return out


def _pair_key(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """One integer per (row, col) pair of indices below ``n``, ordered row-major."""
    key = rows * n
    key += cols  # in place: the key arrays are as long as the similarity
    return key


def _first_repeat(lo: np.ndarray, hi: np.ndarray):
    """Position of the first pair equal to an earlier one, or None.

    The indices are not yet range-checked, so ``hi`` is shifted to start at
    0 before keying; a stable sort of the keys puts every repeat after the
    earlier occurrences of its pair.
    """
    if lo.size < 2:
        return None
    offset = hi - hi.min()
    key = _pair_key(lo, offset, int(offset.max()) + 1)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    repeats = order[1:][sorted_key[1:] == sorted_key[:-1]]
    return int(repeats.min()) if repeats.size else None


def average_class_probabilities(outputs, domain_floor: float = 1e-12) -> np.ndarray:
    """Entrywise mean of the ensemble's probability matrices.

    Rows are re-normalized to unit L1 after additive ``domain_floor``
    smoothing, so hard (one-hot) classifier outputs stay strictly interior.

    Parameters
    ----------
    outputs : sequence of (n, k) arrays
        One class-probability matrix per classifier.

    Returns
    -------
    (n, k) ndarray with nonnegative rows summing to one.
    """
    mats = [np.asarray(m, dtype=np.float64) for m in outputs]
    if not mats:
        raise EmptyEnsembleError("need at least one classifier output")
    shape = mats[0].shape
    if len(shape) != 2:
        raise ShapeError(f"expected 2-D probability matrices, got shape {shape}")
    for m in mats[1:]:
        if m.shape != shape:
            raise ShapeError(f"mismatched ensemble shapes: {shape} vs {m.shape}")
    stack = np.stack(mats)
    if np.any(stack < 0.0):
        raise DomainError("class probabilities must be nonnegative")
    mean = stack.mean(axis=0) + domain_floor
    return mean / mean.sum(axis=1, keepdims=True)


def coassociation_similarity(partitions) -> SimilarityMatrix:
    """Co-association similarity of a partition set.

    ``s_ij`` is the fraction of the r2 partitions that place instances i and
    j in the same cluster; zero-weight pairs are not stored.

    Parameters
    ----------
    partitions : (n, r2) integer array
        One column of cluster identifiers per clusterer.
    """
    parts = np.asarray(partitions)
    if parts.ndim == 1:
        parts = parts[:, None]
    if parts.ndim != 2:
        raise ShapeError(f"expected an (n, r2) partition array, got shape {parts.shape}")
    n, r2 = parts.shape
    if n < 2:
        raise ShapeError("co-association needs at least two instances")
    if r2 < 1:
        raise ShapeError("co-association needs at least one partition")
    counts = np.zeros((n, n), dtype=np.float64)
    for col in range(r2):
        labels = parts[:, col]
        counts += labels[:, None] == labels[None, :]
    iu, ju = np.triu_indices(n, k=1)
    vals = counts[iu, ju] / r2
    keep = vals > 0.0
    return SimilarityMatrix(n, iu[keep], ju[keep], vals[keep])


def sparsify(similarity: SimilarityMatrix, threshold: float) -> SimilarityMatrix:
    """Drop entries with s_ij < threshold; threshold 0 is the identity."""
    if not 0.0 <= threshold <= 1.0:
        raise RangeError(f"sparsify threshold must lie in [0, 1], got {threshold}")
    keep = similarity.vals >= threshold
    return SimilarityMatrix(
        similarity.n,
        similarity.rows[keep],
        similarity.cols[keep],
        similarity.vals[keep],
    )


# -- file ingestion ---------------------------------------------------------


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _read_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield line_no, line.split(",")


def load_prob_csv(path) -> np.ndarray:
    """Read an n-by-k real-valued CSV; a non-numeric first token means a header."""
    rows = []
    width = None
    for line_no, tokens in _read_rows(path):
        if width is None and not _is_number(tokens[0]):
            continue  # header row
        try:
            row = [float(t) for t in tokens]
        except ValueError as exc:
            raise InputFormatError(path, line_no, f"non-numeric value ({exc})") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputFormatError(path, line_no, f"expected {width} columns, got {len(row)}")
        rows.append(row)
    if not rows:
        raise InputFormatError(path, 0, "file contains no data rows")
    return np.asarray(rows, dtype=np.float64)


def load_partitions_csv(path) -> np.ndarray:
    """Read an n-by-r2 integer partition CSV (optional header)."""
    values = load_prob_csv(path)
    ints = values.astype(np.int64)
    if np.any(ints != values):
        raise InputFormatError(path, 0, "partition file must contain integers only")
    return ints


def load_similarity_triplets(path, n: int | None = None) -> SimilarityMatrix:
    """Read ``i,j,s`` triplet lines into a :class:`SimilarityMatrix`.

    A pair listed twice, in either orientation, is rejected with the line of
    its second occurrence.
    """
    ii, jj, ss = [], [], []
    for line_no, tokens in _read_rows(path):
        if not _is_number(tokens[0]):
            continue
        if len(tokens) != 3:
            raise InputFormatError(path, line_no, f"expected 'i,j,s', got {len(tokens)} fields")
        try:
            i, j, s = int(tokens[0]), int(tokens[1]), float(tokens[2])
        except ValueError as exc:
            raise InputFormatError(path, line_no, f"bad triplet ({exc})") from None
        if i == j:
            raise InputFormatError(path, line_no, "diagonal entries are not allowed")
        if not 0.0 <= s <= 1.0:
            raise InputFormatError(path, line_no, f"similarity {s} outside [0, 1]")
        ii.append(i)
        jj.append(j)
        ss.append(s)
    if n is None:
        n = (max(max(ii), max(jj)) + 1) if ii else 0
    i, j = np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64)
    vals = np.array(ss, dtype=np.float64)
    del ii, jj, ss  # the parsed lists outweigh the arrays; free them first
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    second = _first_repeat(lo, hi)
    if second is not None:
        data_lines = (no for no, tokens in _read_rows(path) if _is_number(tokens[0]))
        line_no = next(itertools.islice(data_lines, second, None))
        raise InputFormatError(path, line_no,
                               f"pair ({lo[second]}, {hi[second]}) repeats an earlier line")
    return SimilarityMatrix.from_pairs(n, i, j, vals)


def load_labels(path) -> np.ndarray:
    """Read one integer class label per line."""
    labels = []
    for line_no, tokens in _read_rows(path):
        if not _is_number(tokens[0]):
            continue
        try:
            labels.append(int(tokens[0]))
        except ValueError as exc:
            raise InputFormatError(path, line_no, f"bad label ({exc})") from None
    return np.asarray(labels, dtype=np.int64)


def save_matrix_csv(path, matrix, header: str | None = None):
    """Write a 2-D array as CSV using shortest round-trip float formatting."""
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        for row in matrix:
            fh.write(",".join(repr(v.item()) for v in row) + "\n")


def save_labels_txt(path, labels):
    with open(path, "w", encoding="utf-8") as fh:
        for v in np.asarray(labels, dtype=np.int64):
            fh.write(f"{int(v)}\n")


def save_similarity_triplets(path, similarity: SimilarityMatrix):
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, s in zip(similarity.rows, similarity.cols, similarity.vals):
            fh.write(f"{int(i)},{int(j)},{float(s)!r}\n")
