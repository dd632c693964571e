"""Solver inputs: averaged class probabilities and co-association similarity.

The two preprocessing steps that feed the solver are built here: the
entrywise mean of the classifier ensemble's probability matrices, and the
co-association similarity of a cluster ensemble (the fraction of partitions
placing two instances in the same cluster).  Every similarity is symmetric
with an absent (zero) diagonal and is read by the solver only through its
``operator`` (``n``, ``row_sum``, ``matvec``).  It has one of two backings:

* stored pairs: the upper triangle (i < j) with strictly positive weight,
  from triplet files, ``from_pairs``/``from_dense`` and ``sparsify``.  The
  operator is :class:`SimilarityOperator`: both orientations as one
  ``scipy.sparse`` CSR matrix, the stored upper triangle plus its
  transpose, O(nnz k) work per product in scipy's compiled loop, each row
  adding its entries in ascending column order.  scipy is imported by the
  first such build;
* partitions: ``coassociation_similarity`` keeps the n-by-r2 cluster ids,
  since the co-association is the ensemble's membership hypergraph
  S = (1/r2) sum_c B_c B_c^T - I (Strehl & Ghosh, "Cluster Ensembles", JMLR
  2002).  The operator is :class:`PartitionOperator`: one grouped sum per
  partition, O(n k r2) per product, over bins kept per product width (r2 n m
  integers for width m).  The pairs are enumerated only when
  ``rows``/``cols``/``vals`` are read, or by ``sparsify`` with a positive
  threshold, which keeps only the pairs it needs.  They are listed for a
  bounded block of rows at a time (``_PAIR_BLOCK`` raw keys), so the
  enumeration holds the arrays it returns plus a few MB of working space.

Data files share one comma-separated grammar: a leading UTF-8 byte-order
mark is ignored, blank and whitespace-only lines are skipped, the first
nonblank line is a header when its first field is not a number, and every
other line is a row of numbers, all rows the same width.  Probabilities are
n-by-k reals; partitions n-by-r2 integers, one column per clusterer;
similarity triplets ``i,j,s`` rows with 0-based indices, i != j, s in [0, 1]
and each pair once; labels one integer per row.  A file is parsed by
``np.loadtxt`` from its path, which reads it in large chunks; a compressed
name, or a file that parse rejects, has its data lines streamed to the same
parser, with the same result.  Every rejection is an
:class:`InputFormatError` naming the file and line.  The writers convert
arrays to Python numbers a block of rows at a time.
"""

from __future__ import annotations

import itertools
import os
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


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Symmetric sparse similarity, stored as canonical i < j triplets.

    Entries are in (0, 1]; pairs that never co-occur are simply absent and
    read as 0.  The diagonal is never stored, and each unordered pair at most
    once.  The arrays are read-only, so the :attr:`operator` built from them
    on first use stays valid for the matrix's lifetime.  Input arrays are
    copied into row-major order, except arrays already in that order that
    are read-only and own their memory, which no one can change: those are
    kept as given.  :class:`PartitionSimilarity` keeps a partition ensemble
    instead.  Equality and hashing are by identity, as for any container
    that caches an operator.
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
            if not np.all((vals > 0.0) & (vals <= 1.0)):  # NaN fails both comparisons
                raise RangeError("similarity values must lie in (0, 1]")
        key = _pair_key(rows, cols, self.n)
        if not np.all(key[1:] > key[:-1]):
            order = np.argsort(key)  # keys are unique unless a pair repeats, rejected below
            del key
            rows, cols, vals = rows[order], cols[order], vals[order]
            same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if np.any(same):
                p = int(np.argmax(same))
                raise ShapeError(f"pair ({rows[p]}, {cols[p]}) is stored more than once "
                                 "(duplicate or mirrored)")
        elif not all(a.flags.owndata and not a.flags.writeable for a in (rows, cols, vals)):
            rows, cols, vals = rows.copy(), cols.copy(), vals.copy()
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
        """Build from arbitrary (i, j, s) pairs; orientation is canonicalized.

        Zero weights are dropped.  The pairs are sorted here, as one key per
        pair, and handed over read-only, so the constructor keeps them
        without a copy and the transient peak stays below twice the stored
        arrays.
        """
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        s = np.asarray(s, dtype=np.float64)
        if not (i.shape == j.shape == s.shape) or i.ndim != 1:
            raise ShapeError("rows, cols and vals must be equal-length 1-D arrays")
        if np.any(i == j):
            raise ShapeError("diagonal similarity entries are not allowed")
        if i.size and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n):
            raise ShapeError(f"indices out of range for n={n}")
        key = _pair_key(np.minimum(i, j), np.maximum(i, j), n)
        keep = s != 0.0
        if not keep.all():
            key, s = key[keep], s[keep]
        order = np.argsort(key)  # keys are unique unless a pair repeats, rejected below
        key, s = key[order], s[order]
        del order
        rows, cols = np.divmod(key, max(n, 1))
        del key
        return cls(n, *_read_only(rows, cols, s))

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
        return cls(a.shape[0], *_read_only(iu[keep], ju[keep], vals[keep]))

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.rows, self.cols] = self.vals
        a[self.cols, self.rows] = self.vals
        return a

    @cached_property
    def operator(self) -> "SimilarityOperator":
        """The operator the solver, objective and diagnostics read, built once on first use."""
        return SimilarityOperator(self)

    def symmetrized_csr(self):
        """Both orientations in CSR form (indptr, indices, data), ascending indices.

        Row sums of this structure are the per-instance weights
        ``sum_j s_ij``.  The arrays are int64 ``indptr`` and ``indices``
        and float64 ``data``, read-only and built anew by each call, by the
        scipy build every :attr:`operator` runs; no solve reads them.
        """
        matrix = _symmetric_csr(self)
        arrays = (matrix.indptr.astype(np.int64), matrix.indices.astype(np.int64), matrix.data)
        for arr in arrays:
            arr.setflags(write=False)
        return arrays


class PartitionSimilarity(SimilarityMatrix):
    """Co-association of a partition ensemble, kept as its cluster ids.

    ``clusters`` is (n, r2) with each column relabelled to 0..m_c-1.  The
    :attr:`operator` is a :class:`PartitionOperator` over it.  The pairs
    are enumerated on first read of ``rows``, ``cols``, ``vals`` or ``nnz``
    and kept; a solve reads none of them.  The enumeration lists a bounded
    block of rows at a time, so its transient peak is the pairs' own bytes
    plus a few MB: 1.17 times them for the benchmark's 357 079 pairs.
    ``run --sparsify t`` with t > 0 goes through :func:`sparsify`, which
    lists only the pairs it keeps and caches nothing here.
    """

    def __init__(self, clusters: np.ndarray):
        clusters.setflags(write=False)
        object.__setattr__(self, "n", clusters.shape[0])
        object.__setattr__(self, "clusters", clusters)

    @cached_property
    def _pairs(self):
        return _read_only(*_coassociation_pairs(self.clusters, 0.0))

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
    """Stored pairs, both orientations, as one ``scipy.sparse`` CSR matrix.

    ``row_sum[i]`` is ``sum_j s_ij``; :meth:`matvec` gives the product
    ``S @ Y`` the solver, the objective and the diagnostics share.

    scipy builds the matrix from the stored upper triangle and its
    transpose (the arrays :meth:`SimilarityMatrix.symmetrized_csr` returns),
    each row's entries in ascending column order, with indices kept as int32
    wherever n allows, so it holds about as many bytes as the stored pairs.
    scipy's compiled product adds each row's entries in that order,
    left to right, for any operand width, so a product repeats bit for bit
    and a row with no entries is 0.0.  ``scipy.sparse`` is imported by the
    first build, not with the package: that first import takes about 0.2 s
    and 20 MB, which a partition ensemble never pays.
    """

    def __init__(self, similarity: SimilarityMatrix):
        self.n = similarity.n
        self._matrix = _symmetric_csr(similarity)
        self.row_sum = self.matvec(np.ones((self.n, 1)))[:, 0]
        for arr in (self._matrix.indptr, self._matrix.indices, self._matrix.data,
                    self.row_sum):
            arr.setflags(write=False)

    def matvec(self, Y: np.ndarray) -> np.ndarray:
        """``S @ Y`` for an (n, m) array, as an (n, m) float64 array."""
        return self._matrix @ _operand(Y, self.n)


class PartitionOperator:
    """The co-association ``S = (1/r2) sum_c B_c B_c^T - I``, never formed.

    ``clusters`` is (n, r2), each column relabelled to 0..m_c-1.  A product
    is one grouped sum per partition, O(n k r2) in all::

        (S Y)_i = (1/r2) sum_c (sum_{j in C_c(i)} Y_j - Y_i)

    For an (n, m) ``Y`` read row-major, entry (i, col) of partition c falls
    in bin ``cluster_c(i) * m + col``, so one ``np.bincount`` sums every
    (cluster, column) pair of a partition.  The bins of each width m are
    formed on first use and kept, r2 n m integers per width; the solve uses
    k, ``row_sum`` 1 (the cluster ids themselves) and the Hessian's S I n.

    ``Y_i`` is taken out inside each partition's term, so a singleton
    cluster adds exactly 0 and a node never co-clustered gets a zero row and
    ``row_sum`` 0.0, as an empty row of the CSR operator does.
    """

    def __init__(self, clusters: np.ndarray):
        self.n, self._r2 = clusters.shape
        self._bins = {1: [np.ascontiguousarray(ids) for ids in clusters.T]}
        self.row_sum = self.matvec(np.ones((self.n, 1)))[:, 0]
        self.row_sum.setflags(write=False)

    def _bins_of_width(self, m: int) -> list:
        bins = self._bins.get(m)
        if bins is None:
            columns = np.arange(m)
            bins = [(ids[:, None] * m + columns).ravel() for ids in self._bins[1]]
            self._bins[m] = bins
        return bins

    def matvec(self, Y: np.ndarray) -> np.ndarray:
        """``S @ Y`` for an (n, m) array, as an (n, m) float64 array.

        ``bincount`` adds a bin's entries in ascending flat, hence node,
        order, so every cluster sums sequentially in ascending node order.
        """
        Y = _operand(Y, self.n)
        m = Y.shape[1]
        y = Y.ravel()
        out = np.zeros(self.n * m)
        for bins in self._bins_of_width(m):
            term = np.bincount(bins, weights=y).take(bins)
            term -= y
            out += term
        out /= self._r2
        return out.reshape(self.n, m)


def _operand(Y, n: int) -> np.ndarray:
    """A product's operand as float64, which must be (n, m), or ``ShapeError``."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] != n:
        raise ShapeError(f"expected an ({n}, m) array, got shape {Y.shape}")
    return Y


def _symmetric_csr(similarity: SimilarityMatrix):
    """Both orientations of the stored pairs as one canonical ``scipy.sparse`` CSR matrix.

    The stored pairs are the upper triangle, sorted row-major, so they are
    already that triangle's CSR arrays once ``indptr`` is counted.  scipy
    transposes it by a counting pass and merges the two halves, whose
    entries never meet, into rows in ascending column order, with int32
    indices wherever n allows.
    """
    from scipy import sparse

    n = similarity.n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(similarity.rows, minlength=n), out=indptr[1:])
    upper = sparse.csr_matrix((similarity.vals, similarity.cols, indptr), shape=(n, n))
    return upper + upper.T


# Raw pair keys the co-association enumeration lists at a time: about 1 MB of
# int64, and a few times that in the block's sort, beside the pairs it keeps.
_PAIR_BLOCK = 1 << 17


def _coassociation_pairs(clusters: np.ndarray, threshold: float):
    """Canonical (rows, cols, vals) of the co-association of relabelled clusters.

    Only pairs whose value ``count / r2`` is at least ``threshold`` are kept,
    the comparison :func:`sparsify` makes.  Each partition lists the pairs
    i < j inside each of its clusters as row-major keys ``i * n + j``; a
    pair's value is the number of partitions that list it over r2.  The keys
    are listed for one block of rows at a time, at most :data:`_PAIR_BLOCK`
    of them (a row with more is a block of its own), and one ``np.unique``
    counts each block.  The blocks are ascending, disjoint row ranges, so
    their kept keys, concatenated, are already in canonical order; each
    count is held in the smallest unsigned type that holds r2 until the end.
    """
    n, r2 = clusters.shape
    position = np.arange(n)
    partitions = []
    for ids in clusters.T:
        members = np.argsort(ids, kind="stable")  # by cluster, ascending inside each
        sizes = np.bincount(ids)
        rank = np.empty(n, dtype=np.int64)  # each node's place in members
        rank[members] = position
        later = np.empty(n, dtype=np.int64)  # each node's co-members after it
        later[members] = np.repeat(np.cumsum(sizes), sizes) - position - 1
        partitions.append((members, rank, later))
    ends = np.cumsum(sum(later for _, _, later in partitions))  # raw keys up to each row
    count_type = np.min_scalar_type(r2)
    keys, counts = [], []
    lo = 0
    while lo < n:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right")), lo + 1)
        block = []
        for members, rank, later in partitions:
            length = later[lo:hi]
            start = rank[lo:hi] + 1 - (np.cumsum(length) - length)  # less the row's offset
            place = np.arange(int(length.sum())) + np.repeat(start, length)
            block.append(np.repeat(position[lo:hi] * n, length) + members[place])
        key, count = np.unique(np.concatenate(block), return_counts=True)
        del block
        if threshold > 0.0:
            keep = count / r2 >= threshold
            key, count = key[keep], count[keep]
        keys.append(key)
        counts.append(count.astype(count_type))
        lo = hi
    key = np.concatenate(keys)
    del keys
    rows, cols = np.divmod(key, n)
    del key
    return rows, cols, np.concatenate(counts) / r2


def _read_only(*arrays):
    """The arrays, read-only: the SimilarityMatrix constructor keeps owned ones as given."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _pair_key(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """One integer per (row, col) pair of indices below ``n``, ordered row-major."""
    key = rows * n
    key += cols  # in place: the key arrays are as long as the similarity
    return key


def _first_repeat(lo: np.ndarray, hi: np.ndarray):
    """Position of the first pair equal to an earlier one, or None.

    ``hi`` is shifted to start at 0 before keying.  Strictly ascending keys,
    as a sorted file gives, hold no repeat; otherwise a stable sort of the
    keys puts every repeat after the earlier occurrences of its pair.
    """
    if lo.size < 2:
        return None
    offset = hi - hi.min()
    key = _pair_key(lo, offset, int(offset.max()) + 1)
    if np.all(key[1:] > key[:-1]):
        return None
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
        One class-probability matrix per classifier, finite and nonnegative.

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
    if not np.all(np.isfinite(stack)):
        raise ShapeError("probabilities contain non-finite values")
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
    """Drop entries with s_ij < threshold; threshold 0 returns ``similarity`` itself.

    A :class:`PartitionSimilarity` has its pairs enumerated with the
    threshold applied a block of rows at a time, so only the kept pairs are
    ever held and none is cached on ``similarity``; the result is the same,
    bit for bit, as filtering all of its pairs.
    """
    if not 0.0 <= threshold <= 1.0:
        raise RangeError(f"sparsify threshold must lie in [0, 1], got {threshold}")
    if threshold == 0.0:
        return similarity
    if isinstance(similarity, PartitionSimilarity):  # list the kept pairs only
        return SimilarityMatrix(similarity.n, *_read_only(
            *_coassociation_pairs(similarity.clusters, threshold)))
    keep = similarity.vals >= threshold
    return SimilarityMatrix(similarity.n, *_read_only(
        similarity.rows[keep], similarity.cols[keep], similarity.vals[keep]))


# -- file ingestion ---------------------------------------------------------
# A file is parsed by np.loadtxt from its path, and numpy's C reader takes it
# in large chunks.  A name numpy's open would decompress, and a file that
# parse rejects, has its data lines streamed to the same parser one Python
# string at a time, with the same result.  numpy reads a whitespace-only line
# as a one-field row, so a file holding one goes to the stream.  Each loader
# then checks its own rules on the array; the line of a rejected row is found
# by re-reading the file.

# numpy's open decompresses by these suffixes; such names are streamed
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _is_header(line: str) -> bool:
    try:
        float(line.split(",", 1)[0])
        return False
    except ValueError:
        return True


def _data_lines(fh):
    """``(line number, line)`` for each data line of ``fh``.

    Blank and whitespace-only lines are skipped, and the first other line is
    a header when its first field is not a number.
    """
    lines = ((no, line) for no, line in enumerate(fh, start=1) if not line.isspace())
    first = next(lines, None)
    if first is not None and not _is_header(first[1]):
        yield first
    yield from lines


def _parse(lines) -> np.ndarray:
    """Nonblank CSV lines as a 2-D float array; ``lines`` must not be empty."""
    return np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2)


def _reject_row(path, row: int, message: str):
    with open(path, "r", encoding="utf-8-sig") as fh:
        line_no, line = next(itertools.islice(_data_lines(fh), row, None))
    raise InputFormatError(path, line_no, f"{message}: {line.strip()!r}")


def _reject_rows(path, bad: np.ndarray, message: str):
    if np.any(bad):
        _reject_row(path, int(np.argmax(bad)), message)


def _read_table(path) -> np.ndarray:
    """The data rows of ``path`` as a (rows, width) float array, (0, 0) when there are none."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = _data_lines(fh)
        first = next(lines, None)
        if first is None:
            return np.empty((0, 0))  # np.loadtxt warns on empty input
        name = os.fsdecode(path)
        if not name.endswith(_COMPRESSED):
            try:  # an absolute name: numpy's open fetches a name that reads as a URL
                return np.loadtxt(os.path.abspath(name), dtype=np.float64, delimiter=",",
                                  comments=None, ndmin=2, encoding="utf-8-sig",
                                  skiprows=first[0] - 1)
            except ValueError:
                pass  # numpy reads its own handle: fh still stands after the first data line
        try:
            return _parse(itertools.chain([first[1]], (line for _, line in lines)))
        except ValueError:
            pass
    # locate the failure, the first row that does not parse next to the first one:
    # rows parse behind the first row only when each of them does, so halve the
    # rows not yet cleared, then confirm the one left
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [line for _, line in _data_lines(fh)]
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse([lines[0], *lines[lo:mid]])
            lo = mid
        except ValueError:
            hi = mid
    try:
        _parse([lines[0], lines[lo]])
    except ValueError:
        _reject_row(path, lo, "expected a row of numbers as wide as the first")
    raise InputFormatError(path, 0, "file does not parse")


def _integers(path, table: np.ndarray, what: str) -> np.ndarray:
    """``table`` as int64, rejecting the first row that holds a non-integer value."""
    with np.errstate(invalid="ignore"):  # nan, inf and out-of-range values cast to junk
        ints = table.astype(np.int64)
    bad = ints != table
    if bad.any():  # reduced per row only to name the first bad one
        _reject_rows(path, bad.any(axis=1), f"{what} must be integers")
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
    return SimilarityMatrix(n, *_read_only(lo[keep], hi[keep], vals[keep]))


def load_labels(path) -> np.ndarray:
    """Read one integer class label per line (optional header)."""
    table = _read_table(path)
    if not table.size:
        return np.zeros(0, dtype=np.int64)
    if table.shape[1] != 1:
        _reject_row(path, 0, f"expected one label, got {table.shape[1]} fields")
    return _integers(path, table, "labels")[:, 0]


# Rows turned into Python numbers at a time by the writers: each value's repr
# costs more than its conversion, so a block keeps memory flat at no cost in time.
_WRITE_ROWS = 1024


def array_rows(*columns):
    """``zip`` of the columns' ``tolist()``, converted ``_WRITE_ROWS`` rows at a time.

    Each row is a tuple with one item per column: a Python number from an
    (n,) column, a list of them from an (n, w) one.
    """
    for start in range(0, len(columns[0]), _WRITE_ROWS):
        yield from zip(*(c[start:start + _WRITE_ROWS].tolist() for c in columns))


def save_matrix_csv(path, rows, header: str | None = None):
    """Write a 2-D array, or rows of Python numbers, as CSV of their ``repr``s."""
    if isinstance(rows, np.ndarray):
        rows = (row for row, in array_rows(rows))
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def save_labels_txt(path, labels):
    save_matrix_csv(path, np.asarray(labels, dtype=np.int64)[:, None])


def save_similarity_triplets(path, similarity: SimilarityMatrix):
    save_matrix_csv(path, array_rows(similarity.rows, similarity.cols, similarity.vals))
