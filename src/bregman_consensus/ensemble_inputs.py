"""Solver inputs: averaged class probabilities and co-association similarity.

The two preprocessing steps that feed the solver are built here: the
entrywise mean of the classifier ensemble's probability matrices, and the
co-association similarity of a cluster ensemble (the fraction of partitions
placing two instances in the same cluster).  Every similarity is symmetric
with an absent (zero) diagonal and is read by the solver only through its
``operator`` (``n``, ``row_sum``, ``matvec``).  It has one of two backings:

* stored pairs: the upper triangle (i < j) with strictly positive weight,
  from triplet files, ``from_pairs``/``from_dense`` and ``sparsify``; the
  operator is the symmetrized CSR :class:`SimilarityOperator`;
* partitions: ``coassociation_similarity`` keeps the n-by-r2 cluster ids,
  since the co-association is the ensemble's membership hypergraph
  S = (1/r2) sum_c B_c B_c^T - I (Strehl & Ghosh, "Cluster Ensembles", JMLR
  2002).  The operator is :class:`PartitionOperator`, O(n k r2) per product,
  and the pairs are enumerated only when ``rows``/``cols``/``vals`` are read.

Data files share one comma-separated grammar: a leading UTF-8 byte-order
mark is ignored, blank and whitespace-only lines are skipped, the first
nonblank line is a header when its first field is not a number, and every
other line is a row of numbers, all rows the same width.  Probabilities are
n-by-k reals; partitions n-by-r2 integers, one column per clusterer;
similarity triplets ``i,j,s`` rows with 0-based indices, i != j, s in [0, 1]
and each pair once; labels one integer per row.
Every rejection is an :class:`InputFormatError` naming the file and line.
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
    :class:`PartitionSimilarity` keeps a partition ensemble instead.
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

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.rows, self.cols] = self.vals
        a[self.cols, self.rows] = self.vals
        return a

    @cached_property
    def operator(self):
        """The operator the solver, objective and diagnostics read, built once on first use."""
        return self._csr

    @cached_property
    def _csr(self) -> "SimilarityOperator":
        return SimilarityOperator(self)

    def symmetrized_csr(self):
        """Both orientations in CSR form (indptr, indices, data), ascending indices.

        Row sums of this structure are the per-instance weights
        ``sum_j s_ij``.  The arrays are read-only; for stored pairs they are
        the :attr:`operator`'s own.
        """
        op = self._csr
        return op.indptr, op.indices, op.data


class PartitionSimilarity(SimilarityMatrix):
    """Co-association of a partition ensemble, kept as its cluster ids.

    ``clusters`` is (n, r2) with each column relabelled to 0..m_c-1.  The
    :attr:`operator` is a :class:`PartitionOperator` over it; the stored
    pairs are enumerated on first read of ``rows``, ``cols``, ``vals`` or
    ``nnz`` and kept, which no solve does.
    """

    def __init__(self, clusters: np.ndarray):
        clusters.setflags(write=False)
        object.__setattr__(self, "n", clusters.shape[0])
        object.__setattr__(self, "clusters", clusters)

    @cached_property
    def _pairs(self):
        pairs = _coassociation_pairs(self.clusters)
        for arr in pairs:
            arr.setflags(write=False)
        return pairs

    @property
    def rows(self) -> np.ndarray:
        return self._pairs[0]

    @property
    def cols(self) -> np.ndarray:
        return self._pairs[1]

    @property
    def vals(self) -> np.ndarray:
        return self._pairs[2]

    @cached_property
    def operator(self) -> "PartitionOperator":
        return PartitionOperator(self.clusters)


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


class PartitionOperator:
    """The co-association ``S = (1/r2) sum_c B_c B_c^T - I``, never formed.

    ``clusters`` is (n, r2), each column relabelled to 0..m_c-1.  A product
    is one grouped sum per partition and column, O(n k r2) in all::

        (S Y)_i = (1/r2) sum_c (sum_{j in C_c(i)} Y_j - Y_i)

    ``Y_i`` is taken out inside each partition's term, so a singleton
    cluster adds exactly 0 and a node never co-clustered gets a zero row and
    ``row_sum`` 0.0, as an empty row of the CSR operator does.
    """

    def __init__(self, clusters: np.ndarray):
        self.n, self._r2 = clusters.shape
        self._columns = [np.ascontiguousarray(ids) for ids in clusters.T]
        self.row_sum = self.matvec(np.ones((self.n, 1)))[:, 0]
        self.row_sum.setflags(write=False)

    def matvec(self, Y: np.ndarray) -> np.ndarray:
        """``S @ Y`` for an (n, m) array; each cluster sums in ascending node order."""
        out = np.zeros((self.n, Y.shape[1]))
        for ids in self._columns:  # every id up to the largest occurs
            for c in range(Y.shape[1]):
                y = Y[:, c]
                out[:, c] += np.bincount(ids, weights=y)[ids] - y
        out /= self._r2
        return out


def _coassociation_pairs(clusters: np.ndarray):
    """Canonical (rows, cols, vals) of the co-association of relabelled clusters.

    Each partition lists the pairs i < j inside each of its clusters as
    :func:`_pair_key` keys; a pair's value is the number of partitions that
    list it over r2.
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
        keys.append(_pair_key(members[first], members[first + step + 1], n))
    key, count = np.unique(np.concatenate(keys), return_counts=True)
    rows, cols = np.divmod(key, n)
    return rows, cols, count / r2


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
    j in the same cluster.  The result keeps the relabelled cluster ids (see
    :class:`PartitionSimilarity`); no n-by-n array is formed.

    Parameters
    ----------
    partitions : (n, r2) array of integer values
        One column of cluster identifiers per clusterer.  Labels that are
        NaN, infinite or not integers raise ``DomainError``.
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
    if parts.dtype.kind not in "biu":
        parts = np.asarray(parts, dtype=np.float64)
        bad = ~np.isfinite(parts) | (np.floor(parts) != parts)
        if np.any(bad):
            row, col = np.argwhere(bad)[0]
            raise DomainError(f"partition labels must be finite integers; row {row}, "
                              f"column {col} holds {float(parts[row, col])!r}")
    clusters = np.empty((n, r2), dtype=np.int64, order="F")
    for col in range(r2):
        clusters[:, col] = np.unique(parts[:, col], return_inverse=True)[1]
    return PartitionSimilarity(clusters)


def sparsify(similarity: SimilarityMatrix, threshold: float) -> SimilarityMatrix:
    """Drop entries with s_ij < threshold; threshold 0 returns ``similarity`` itself."""
    if not 0.0 <= threshold <= 1.0:
        raise RangeError(f"sparsify threshold must lie in [0, 1], got {threshold}")
    if threshold == 0.0:
        return similarity
    keep = similarity.vals >= threshold
    return SimilarityMatrix(
        similarity.n,
        similarity.rows[keep],
        similarity.cols[keep],
        similarity.vals[keep],
    )


# -- file ingestion ---------------------------------------------------------
# np.loadtxt parses the rows and each loader checks its own rules on the
# array; the line of a rejected row is found by re-reading the file.


def _is_header(line: str) -> bool:
    try:
        float(line.split(",", 1)[0])
        return False
    except ValueError:
        return True


def _numbered_data_lines(path) -> list:
    """``(line number, line)`` of every data line; read only to report an error."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [(no, line) for no, line in enumerate(fh, start=1) if not line.isspace()]
    return lines[1:] if lines and _is_header(lines[0][1]) else lines


def _parse(lines) -> np.ndarray:
    """Nonblank CSV lines as a 2-D float array; ``lines`` must not be empty."""
    return np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2)


def _reject_row(path, row: int, message: str):
    line_no, line = _numbered_data_lines(path)[row]
    raise InputFormatError(path, line_no, f"{message}: {line.strip()!r}")


def _reject_rows(path, bad: np.ndarray, message: str):
    if np.any(bad):
        _reject_row(path, int(np.argmax(bad)), message)


def _read_table(path) -> np.ndarray:
    """The data rows of ``path`` as a (rows, width) float array, (0, 0) when there are none."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = (line for line in fh if not line.isspace())
        first = next(lines, None)
        if first is not None and _is_header(first):
            first = next(lines, None)
        if first is None:
            return np.empty((0, 0))  # np.loadtxt warns on empty input
        try:
            return _parse(itertools.chain([first], lines))
        except ValueError:
            pass
    # locate the failure: the first line that does not parse next to the first one
    lines = [line for _, line in _numbered_data_lines(path)]
    for row, line in enumerate(lines):
        try:
            _parse([lines[0], line])
        except ValueError:
            _reject_row(path, row, "expected a row of numbers as wide as the first")
    raise InputFormatError(path, 0, "file does not parse")


def _integers(path, table: np.ndarray, what: str) -> np.ndarray:
    """``table`` as int64, rejecting the first row that holds a non-integer value."""
    with np.errstate(invalid="ignore"):  # nan, inf and out-of-range values cast to junk
        ints = table.astype(np.int64)
    _reject_rows(path, np.any(ints != table, axis=1), f"{what} must be integers")
    return ints


def load_prob_csv(path) -> np.ndarray:
    """Read an n-by-k real-valued CSV (optional header)."""
    table = _read_table(path)
    if not table.size:
        raise InputFormatError(path, 0, "file contains no data rows")
    return table


def load_partitions_csv(path) -> np.ndarray:
    """Read an n-by-r2 integer partition CSV (optional header)."""
    return _integers(path, load_prob_csv(path), "partition labels")


def load_similarity_triplets(path, n: int | None = None) -> SimilarityMatrix:
    """Read ``i,j,s`` triplet lines into a :class:`SimilarityMatrix`.

    Indices are integers in ``[0, n)`` with ``i != j`` and ``s`` lies in
    ``[0, 1]``; a pair listed twice, in either orientation, is rejected at
    its second line.
    """
    table = _read_table(path)
    if not table.size:
        return SimilarityMatrix.empty(n or 0)
    if table.shape[1] != 3:
        _reject_row(path, 0, f"expected 'i,j,s', got {table.shape[1]} fields")
    ij = _integers(path, table[:, :2], "indices")
    i, j, vals = ij[:, 0], ij[:, 1], table[:, 2]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    n = int(hi.max()) + 1 if n is None else n
    _reject_rows(path, (lo < 0) | (hi >= n), f"index outside [0, {n})")
    _reject_rows(path, i == j, "diagonal entries are not allowed")
    _reject_rows(path, ~((vals >= 0.0) & (vals <= 1.0)), "similarity outside [0, 1]")
    second = _first_repeat(lo, hi)
    if second is not None:
        _reject_row(path, second, f"pair ({lo[second]}, {hi[second]}) repeats an earlier line")
    keep = vals != 0.0  # zero weights are not stored
    return SimilarityMatrix(n, lo[keep], hi[keep], vals[keep])


def load_labels(path) -> np.ndarray:
    """Read one integer class label per line (optional header)."""
    table = _read_table(path)
    if not table.size:
        return np.zeros(0, dtype=np.int64)
    if table.shape[1] != 1:
        _reject_row(path, 0, f"expected one label, got {table.shape[1]} fields")
    return _integers(path, table, "labels")[:, 0]


def save_matrix_csv(path, rows, header: str | None = None):
    """Write a 2-D array, or rows of Python numbers, as CSV of their ``repr``s."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def save_labels_txt(path, labels):
    save_matrix_csv(path, np.asarray(labels, dtype=np.int64)[:, None])


def save_similarity_triplets(path, similarity: SimilarityMatrix):
    save_matrix_csv(path, zip(similarity.rows.tolist(), similarity.cols.tolist(),
                              similarity.vals.tolist()))
