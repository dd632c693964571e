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
  canonical ``scipy.sparse`` CSR matrix, the stored upper triangle plus
  its transpose, read through its CSC view (the same three arrays), so a
  product is scipy's compiled column loop, O(nnz k).  S is symmetric, so
  column j of the view is row j, and each y_i still adds its entries in
  ascending j: the bits are the row loop's.  At k = 4 the column loop is
  about 15 % faster per product; at width 1 it is about 9-17 % slower,
  which only the one ``row_sum`` product per build pays.  scipy is imported
  by the first such build;
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

Stored pairs are admitted in one place, :func:`_canonical_pairs`, whichever
way they arrive: the constructor, ``from_pairs``, ``from_dense``, ``empty``
and the triplet loader all go through it, so they accept the same pairs,
store the same bytes and reject the same input.  Indices must be integers in [0, n)
with i != j and values in [0, 1]; a pair given twice in either orientation
is an error even when one of its weights is 0, and zero weights are
dropped after that check.  The row-major pair keys are sorted at most once,
and not at all when they arrive ascending.  The constructor adds its
stricter contract (i < j, values in (0, 1]) in front.  Pairs the package
lists canonical itself (``sparsify``, the co-association enumeration) are
kept as they are, with no second check.

Data files share one comma-separated grammar: a leading UTF-8 byte-order
mark is ignored, blank and whitespace-only lines are skipped, the first
nonblank line is a header when its first field is not a number, and every
other line is a row of numbers, all rows the same width.  Probabilities are
n-by-k reals; partitions n-by-r2 integers, one column per clusterer;
similarity triplets ``i,j,s`` rows with 0-based indices, i != j, s in [0, 1]
and each pair once; labels one integer per row.  A file is parsed by
``np.loadtxt`` from its path, which reads it in large chunks.  Integer
columns (partition labels, triplet indices, labels) are read as integers
there, exactly at any magnitude int64 holds.  A file that integer read
rejects, such as one holding ``3.0``, is read as floats, and then every
value of an integer column must be an integer below 2**53 in magnitude,
the range in which float64 tells neighbouring integers apart.  A
compressed name, or a file the float parse from the path rejects, has its
data lines streamed to the same float parser, with the same result.  Every
rejection is an :class:`InputFormatError` naming the file and line.  Every
file is written by one writer, :func:`save_matrix_csv`, which formats a
block of rows at a time with each value as its ``repr``, so files read
back bit for bit.
"""

from __future__ import annotations

import itertools
import numbers
import os
import warnings
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
    once.  The constructor takes integer indices with i < j and values in
    (0, 1], in any order, and stores new read-only arrays in row-major order
    (see :func:`_canonical_pairs`), so the :attr:`operator` built from them
    on first use stays valid for the matrix's lifetime.
    :class:`PartitionSimilarity` keeps a partition ensemble instead.
    Equality and hashing are by identity, as for any container that caches
    an operator.
    """

    n: int
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows, cols, vals = _pair_arrays(self.rows, self.cols, self.vals)
        if np.any(rows >= cols):
            raise ShapeError("triplets must satisfy i < j (no diagonal)")
        if not np.all(vals > 0.0):  # NaN fails too
            raise RangeError("similarity values must lie in (0, 1]")
        self._hold(*_canonical_pairs(self.n, rows, cols, vals, _raise))

    @classmethod
    def _from_canonical(cls, n, rows, cols, vals) -> "SimilarityMatrix":
        """Keep new arrays that are canonical already as given, with no check."""
        similarity = object.__new__(cls)
        object.__setattr__(similarity, "n", n)
        similarity._hold(rows, cols, vals)
        return similarity

    def _hold(self, rows, cols, vals):
        for name, arr in (("rows", rows), ("cols", cols), ("vals", vals)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    @classmethod
    def empty(cls, n: int) -> "SimilarityMatrix":
        return cls.from_pairs(n, [], [], [])

    @classmethod
    def from_pairs(cls, n, i, j, s) -> "SimilarityMatrix":
        """Build from (i, j, s) pairs in any order and orientation.

        Indices are integers in [0, n) with i != j and s lies in [0, 1]; a
        pair given twice, in either orientation and with any weights, is
        rejected, and then zero weights are dropped (:func:`_canonical_pairs`).
        """
        return cls._from_canonical(n, *_canonical_pairs(n, i, j, s, _raise))

    @classmethod
    def from_dense(cls, a) -> "SimilarityMatrix":
        """Build from a dense symmetric array's upper triangle; zero entries are dropped.

        A diagonal entry outside [0, 1] (NaN and inf too) raises ``RangeError``;
        valid ones, such as a unit self-similarity, are ignored.
        """
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {a.shape}")
        bad = np.flatnonzero(~((np.diagonal(a) >= 0.0) & (np.diagonal(a) <= 1.0)))  # NaN too
        if bad.size:
            raise RangeError(f"diagonal entry ({bad[0]}, {bad[0]}) is {float(a[bad[0], bad[0]])!r};"
                             " it must be finite and lie in [0, 1]")
        if not np.allclose(a, a.T, atol=1e-12, equal_nan=True):  # NaN is a bad value
            raise ShapeError("similarity matrix must be symmetric")
        iu, ju = np.triu_indices(a.shape[0], k=1)
        return cls.from_pairs(a.shape[0], iu, ju, a[iu, ju])

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
    def _pairs(self) -> SimilarityMatrix:
        return SimilarityMatrix._from_canonical(
            self.n, *_coassociation_pairs(self.clusters, 0.0))

    @property
    def rows(self) -> np.ndarray:
        return self._pairs.rows

    @property
    def cols(self) -> np.ndarray:
        return self._pairs.cols

    @property
    def vals(self) -> np.ndarray:
        return self._pairs.vals

    @cached_property
    def operator(self) -> "PartitionOperator":
        return PartitionOperator(self.clusters)


class SimilarityOperator:
    """Stored pairs, both orientations, as one ``scipy.sparse`` matrix.

    ``row_sum[i]`` is ``sum_j s_ij``; :meth:`matvec` gives the product
    ``S @ Y`` the solver, the objective and the diagnostics share.

    scipy builds the canonical CSR matrix from the stored upper triangle and
    its transpose (the arrays :meth:`SimilarityMatrix.symmetrized_csr`
    returns), each row's entries in ascending column order, with indices
    kept as int32 wherever n allows, so it holds about as many bytes as the
    stored pairs.  The operator keeps that matrix's CSC view, ``.T``: the
    same three arrays, with no copy, so every product runs scipy's column
    loop (``csc_matvecs``), which adds ``s_ij x_j`` into ``y_i`` column by
    column, j ascending.  S is symmetric, so column j of the view is row j
    of the CSR, and each ``y_i`` sums the same terms in the same order as
    the row loop: every product has the row loop's bits, repeats bit for
    bit, and a row with no entries is 0.0.  At the solve's width k = 4 the
    column loop is about 15 % faster per product on the benchmark's
    16 000-node graph (0.71 to 0.60 ms of CPU) and 11-14 % on a 10^5-node,
    800 000-pair one; at width 1 it is 9-17 % slower, which only the one
    ``row_sum`` product per build pays, so there is no width switch.
    ``scipy.sparse`` is imported by the first build, not with the package:
    that first import takes about 0.2 s and 20 MB, which a partition
    ensemble never pays.
    """

    def __init__(self, similarity: SimilarityMatrix):
        self.n = similarity.n
        self._matrix = _symmetric_csr(similarity).T  # the CSC view: same arrays, no copy
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


def _pair_arrays(i, j, s):
    """(i, j, s) as int64, int64 and float64 arrays of one length, or ``ShapeError``."""
    i, j, s = np.asarray(i), np.asarray(j), np.asarray(s, dtype=np.float64)
    if not (i.shape == j.shape == s.shape) or i.ndim != 1:
        raise ShapeError("rows, cols and vals must be equal-length 1-D arrays")
    return _indices(i), _indices(j), s


def _indices(a: np.ndarray) -> np.ndarray:
    """Integer or integral float indices as int64 (an empty list reads as floats).

    Strings, booleans and fractions raise ``ShapeError``.
    """
    if a.dtype.kind in "iu":
        return a.astype(np.int64, copy=False)
    if a.dtype.kind == "f":
        with np.errstate(invalid="ignore"):  # nan, inf and out-of-range values cast to junk
            whole = a.astype(np.int64)
        if np.array_equal(whole, a):
            return whole
    raise ShapeError("indices must be integers")


def _raise(position, error, message):
    raise error(message)


def _canonical_pairs(n, i, j, s, reject):
    """Admit stored pairs: new (rows, cols, vals) in row-major order, i < j and s > 0.

    Indices that are not integers raise ``ShapeError``.  The other rules,
    in this order: indices in [0, n), i != j, values in [0, 1], and no
    unordered pair twice, whatever its weights; only then are zero weights
    dropped.  The first pair that breaks a rule is reported by
    ``reject(position, error, message)``, which must raise.  The keys
    ``lo * n + hi`` are sorted by one ``np.argsort``, only when they are not
    ascending, and rows and columns are read back from them.
    """
    if not isinstance(n, numbers.Integral) or n < 0:  # a float n makes float keys
        raise ShapeError(f"n must be a nonnegative integer, got {n!r}")
    n = int(n)  # so does a numpy unsigned one
    i, j, s = _pair_arrays(i, j, s)

    def check(bad, error, message):
        if bad.any():
            reject(int(np.argmax(bad)), error, message)

    lo, hi = np.minimum(i, j), np.maximum(i, j)
    check((lo < 0) | (hi >= n), ShapeError, f"index out of range for n={n}")
    check(lo == hi, ShapeError, "diagonal similarity entries are not allowed")
    check(~((s >= 0.0) & (s <= 1.0)), RangeError,  # NaN fails both comparisons
          "similarity values must lie in (0, 1], or be 0 to leave the pair out")
    key = lo
    key *= n
    key += hi  # in place: the key arrays are as long as the input
    del lo, hi  # the unsorted keys are freed once key is rebound
    if not np.all(key[1:] > key[:-1]):  # strictly ascending keys hold no repeat
        order = np.argsort(key)
        key, s = key[order], s[order]
        same = key[1:] == key[:-1]
        if same.any():  # a repeat is any position after the first of its pair
            first = np.concatenate(([True], ~same))
            earliest = np.minimum.reduceat(order, np.flatnonzero(first))
            p = int(order[order > earliest[np.cumsum(first) - 1]].min())
            reject(p, ShapeError, f"pair ({min(i[p], j[p])}, {max(i[p], j[p])}) is given "
                                  "more than once (repeated or mirrored)")
        del order
    keep = s != 0.0
    key, s = key[keep], s[keep]
    del keep
    rows, cols = np.divmod(key, max(n, 1))
    return rows, cols, s


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
    :class:`PartitionSimilarity`); no n-by-n array is formed.  Each column's
    labels are numbered 0..m_c-1 in ascending order by a sort
    (``np.unique``), so an integer array and the file
    :func:`save_matrix_csv` writes of it give the same clusters.

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
        pairs = _coassociation_pairs(similarity.clusters, threshold)
    else:
        keep = similarity.vals >= threshold
        pairs = similarity.rows[keep], similarity.cols[keep], similarity.vals[keep]
    return SimilarityMatrix._from_canonical(similarity.n, *pairs)


# -- file ingestion ---------------------------------------------------------
# A file is parsed by np.loadtxt from its path, and numpy's C reader takes it
# in large chunks, as integers where the loader wants them and, when that
# parse rejects the file, as floats.  A name numpy's open would decompress,
# and a file the float parse rejects, has its data lines streamed to the
# float parser one Python string at a time, with the same result.  numpy
# reads a whitespace-only line as a one-field row, so a file holding one goes
# to the stream.  Each loader then checks its rules on the array (the triplet
# loader through _canonical_pairs); the line of a rejected row is found by
# re-reading the file.

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


# One triplet line and one label line as records: the integer read takes each
# field as its own type, and a line of another width is rejected
_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("s", np.float64)])
_LABEL = np.dtype([("label", np.int64)])


def _parse_path(name, dtype, skip: int) -> np.ndarray:
    """The rows of the file ``name`` after its first ``skip`` lines, as ``dtype``.

    Some numpy releases in the supported range parse a float such as ``3.5``
    in an integer field as 3, with only a DeprecationWarning.  That warning
    is raised here, whatever the caller's warning filters, and those
    releases then reject the file with a ValueError, as later ones do.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float",
                                DeprecationWarning)
        # an absolute name: numpy's open fetches a name that reads as a URL
        return np.loadtxt(os.path.abspath(name), dtype=dtype, delimiter=",", comments=None,
                          ndmin=1 if np.dtype(dtype).names else 2, encoding="utf-8-sig",
                          skiprows=skip)


def _read_table(path, dtype=np.float64, what: str = "values") -> np.ndarray:
    """The data rows of ``path`` as ``dtype``, (0, 0) floats when there are none.

    float64 and int64 give a (rows, width) array, a record type such as
    ``_TRIPLET`` one record per row.  The rows are parsed from the path as
    ``dtype``.  A file that parse rejects, such as one holding ``3.0`` in an
    integer field, is read as floats, as is every compressed name: from the
    path, then by the stream.  :func:`_typed` converts that float table,
    naming the integer fields ``what`` when it rejects a row.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = _data_lines(fh)
        first = next(lines, None)
        if first is None:
            return np.empty((0, 0))  # np.loadtxt warns on empty input
        name = os.fsdecode(path)
        if not name.endswith(_COMPRESSED):
            for as_type in dict.fromkeys((dtype, np.float64)):  # the wanted type, then floats
                try:
                    table = _parse_path(name, as_type, first[0] - 1)
                except ValueError:
                    continue  # numpy reads its own handle: fh stands after the first data line
                return table if as_type == dtype else _typed(path, table, dtype, what)
        try:
            table = _parse(itertools.chain([first[1]], (line for _, line in lines)))
        except ValueError:
            pass
        else:
            return _typed(path, table, dtype, what)
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


# float64 holds every integer below this magnitude, and not every one above it
_EXACT_INTEGERS = 2.0 ** 53


def _integers(path, table: np.ndarray, what: str) -> np.ndarray:
    """A float ``table`` as int64, rejecting the first row that holds a non-integer value.

    An integer of magnitude 2**53 or more is rejected too: float64 cannot
    tell neighbouring integers apart there, so the file's own value is lost.
    """
    with np.errstate(invalid="ignore"):  # nan, inf and out-of-range values cast to junk
        ints = table.astype(np.int64)
    bad = (ints != table) | ~(np.abs(table) < _EXACT_INTEGERS)
    if bad.any():  # reduced per row only to name the first bad one
        _reject_rows(path, bad.any(axis=1),
                     f"{what} must be integers, below 2**53 in magnitude in a file read as floats")
    return ints


def _typed(path, table: np.ndarray, dtype, what: str) -> np.ndarray:
    """A (rows, width) float ``table`` as ``dtype``, integer fields checked by :func:`_integers`.

    A record type takes one record per row, and rejects a table of another
    width at its first row.
    """
    dtype = np.dtype(dtype)
    if dtype.names is None:
        return table if dtype == np.float64 else _integers(path, table, what)
    if table.shape[1] != len(dtype.names):
        _reject_row(path, 0, f"expected '{','.join(dtype.names)}', got {table.shape[1]} fields")
    _integers(path, table[:, [dtype[name].kind == "i" for name in dtype.names]], what)
    records = np.empty(len(table), dtype)
    for col, name in enumerate(dtype.names):
        records[name] = table[:, col]  # a checked integer casts exactly
    return records


def load_prob_csv(path) -> np.ndarray:
    """Read an n-by-k real-valued CSV (optional header)."""
    table = _read_table(path)
    if not table.size:
        raise InputFormatError(path, 0, "file contains no data rows")
    return table


def load_partitions_csv(path) -> np.ndarray:
    """Read an n-by-r2 integer partition CSV (optional header) as int64.

    The labels are read as integers, exactly; a file with a float in it,
    such as ``3.0``, is read as floats, where every label must be an
    integer below 2**53 in magnitude.
    """
    table = _read_table(path, np.int64, "partition labels")
    if not table.size:
        raise InputFormatError(path, 0, "file contains no data rows")
    return table


def load_similarity_triplets(path, n: int | None = None) -> SimilarityMatrix:
    """Read ``i,j,s`` triplet lines into a :class:`SimilarityMatrix`.

    The indices are read as integers, exactly, and ``s`` as a float; a file
    with a float index, such as ``3.0``, is read as floats, where each index
    must be an integer below 2**53 in magnitude.  The rows are admitted as
    :meth:`SimilarityMatrix.from_pairs` admits pairs: indices are integers
    in ``[0, n)`` with ``i != j``, ``s`` lies in ``[0, 1]``, and a pair
    listed twice, in either orientation and even with a zero weight, is
    rejected at its second line.  A broken rule is named at the first line
    that breaks it.
    """
    table = _read_table(path, _TRIPLET, "indices")
    if not table.size:
        return SimilarityMatrix.empty(n or 0)
    i, j, s = (table[name] for name in _TRIPLET.names)
    if n is None:  # all negative: the range check names it
        n = max(int(max(i.max(), j.max())) + 1, 0)
    return SimilarityMatrix._from_canonical(n, *_canonical_pairs(
        n, i, j, s, lambda row, error, message: _reject_row(path, row, message)))


def load_labels(path) -> np.ndarray:
    """Read one integer class label per line (optional header) as int64.

    Labels are read as integers, exactly; a file with a float in it is read
    as floats, where every label must be an integer below 2**53 in magnitude.
    """
    table = _read_table(path, _LABEL, "labels")
    if not table.size:
        return np.zeros(0, dtype=np.int64)
    return table["label"]


# Rows formatted at a time by the writer: each value's repr costs more than its
# conversion to a Python number, so a block keeps memory flat at no cost in time.
_WRITE_ROWS = 1024


def save_matrix_csv(path, *columns, header: str | None = None):
    """Write the columns side by side as CSV, every value as its ``repr``.

    An (n,) column is one field per row, an (n, w) column w fields.  Columns
    of unequal length raise :class:`ShapeError` before the file is opened.
    Each block of ``_WRITE_ROWS`` rows is one ``%`` on a template of ``%r``
    fields, so the file reads back bit for bit.
    """
    columns = [np.asarray(c) for c in columns]
    shapes = [c.shape for c in columns]
    if len({s[:1] for s in shapes}) != 1 or any(len(s) not in (1, 2) for s in shapes):
        raise ShapeError(f"columns must be (n,) or (n, w) arrays of one length n, got {shapes}")
    n = shapes[0][0]
    fields = [c.T if c.ndim == 2 else c[None] for c in columns]  # each (w, n)
    row = ",".join(["%r"] * sum(len(f) for f in fields)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        for start in range(0, n, _WRITE_ROWS):
            block = [v for f in fields for v in f[:, start:start + _WRITE_ROWS].tolist()]
            fh.write(row * min(_WRITE_ROWS, n - start) % tuple(itertools.chain(*zip(*block))))


def save_similarity_triplets(path, similarity: SimilarityMatrix):
    save_matrix_csv(path, similarity.rows, similarity.cols, similarity.vals)
