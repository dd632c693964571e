"""Seeded input generators and the make-up of each benchmark workload.

Everything here is independent of the program under test: inputs are drawn
with NumPy from the workload seed and written in the file formats the
command line reads.  The same seed always gives byte-identical files.

Each problem plants a ground-truth labeling.  The classifier probabilities
``pi`` are a softmax of a one-hot signal plus Gaussian noise, so argmax(pi)
is right on only part of the nodes; the similarity (partitions or a sparse
graph) mostly links nodes of the same class, so the consensus can repair
what the classifier got wrong.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Problem:
    """One solver input, as its generator parameters and solver flags."""

    name: str
    kind: str  # "partitions" or "triplets"
    n: int
    k: int
    divergence: str
    alpha: float
    lam: float
    epsilon: float
    signal: float  # one-hot logit margin of pi
    r2: int = 0  # partitions: number of clusterers
    clusters: int = 0  # partitions: clusters per partition, a multiple of k
    flip: float = 0.0  # partitions: share of nodes put in a foreign cluster
    degree: int = 0  # triplets: stored pairs per node
    same_class: float = 0.0  # triplets: share of pairs inside one class

    def solver_flags(self) -> list[str]:
        return ["--divergence", self.divergence, "--alpha", repr(self.alpha),
                "--lambda", repr(self.lam), "--epsilon", repr(self.epsilon)]


# Sizes are chosen so one round (set-up, fit and the command line) takes a
# few seconds on a 2-core machine, which leaves several repeats per run.
# Each epsilon sits mid-way between two iteration counts on every seed tried
# (1-10), so the number of iterations, and with it fit_s, does not move with
# the seed.
WORKLOADS = {
    "partitions-dense": [
        Problem("dense", "partitions", n=1200, k=2, divergence="gen-i", alpha=1e-3,
                lam=0.1, epsilon=5e-10, signal=1.2, r2=5, clusters=6, flip=0.1),
    ],
    "triplets-sparse": [
        Problem("sparse", "triplets", n=16000, k=4, divergence="kl", alpha=0.1,
                lam=0.1, epsilon=2e-10, signal=1.5, degree=8, same_class=0.9),
    ],
    "diagnose": [
        Problem("mid", "partitions", n=800, k=2, divergence="gen-i", alpha=1e-3,
                lam=0.1, epsilon=1e-10, signal=1.2, r2=5, clusters=6, flip=0.1),
        Problem("desk", "partitions", n=48, k=2, divergence="kl", alpha=0.1,
                lam=0.5, epsilon=1e-10, signal=1.0, r2=4, clusters=4, flip=0.1),
    ],
}


def rng_for(seed: int, problem: Problem) -> np.random.Generator:
    """Independent stream per (seed, problem), stable across Python runs."""
    tag = int.from_bytes(problem.name.encode(), "little")
    return np.random.default_rng([seed % 2**63, tag])  # entropy must be >= 0


def planted_truth(rng, n, k):
    """Balanced labels: exactly n // k (+1) nodes per class, shuffled."""
    return rng.permutation(np.arange(n) % k)


def noisy_pi(rng, truth, k, signal):
    """Softmax of signal * onehot(truth) + N(0, 1) logits; rows sum to 1."""
    z = rng.normal(size=(truth.size, k))
    z[np.arange(truth.size), truth] += signal
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def planted_partitions(rng, truth, k, r2, clusters, flip):
    """r2 partitions; each splits every class evenly into clusters // k groups.

    Exactly ``round(flip * n)`` nodes per partition move to a cluster drawn
    uniformly from the others, so the number of co-clustered pairs barely
    moves with the seed.
    """
    n = truth.size
    per_class = clusters // k
    cols = []
    for _ in range(r2):
        col = np.empty(n, dtype=np.int64)
        for c in range(k):
            members = np.flatnonzero(truth == c)
            col[members] = c * per_class + rng.permutation(members.size) % per_class
        moved = rng.choice(n, size=int(round(flip * n)), replace=False)
        shift = rng.integers(1, clusters, size=moved.size)
        col[moved] = (col[moved] + shift) % clusters
        cols.append(col)
    return np.column_stack(cols)


def planted_triplets(rng, truth, degree, same_class):
    """A kNN-like sparse graph: n * degree distinct unordered pairs, i < j.

    Each node draws partners, a ``same_class`` share of them from its own
    class; duplicates and mirrored pairs are dropped and topped up until
    exactly n * degree pairs remain.  Weights are uniform in [0.05, 1].
    """
    n = truth.size
    target = n * degree
    by_class = [np.flatnonzero(truth == c) for c in range(truth.max() + 1)]
    keys = np.zeros(0, dtype=np.int64)
    while keys.size < target:
        m = target - keys.size + target // 8
        i = rng.integers(0, n, size=m)
        inside = rng.random(m) < same_class
        j = rng.integers(0, n, size=m)
        for c, members in enumerate(by_class):
            sel = inside & (truth[i] == c)
            j[sel] = members[rng.integers(0, members.size, size=int(sel.sum()))]
        ok = i != j
        lo, hi = np.minimum(i, j)[ok], np.maximum(i, j)[ok]
        keys = np.concatenate([keys, lo * n + hi])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]  # keep draw order so truncation is seeded
    keys = np.sort(keys[:target])
    rows, cols = keys // n, keys % n
    vals = rng.uniform(0.05, 1.0, size=target)
    return rows, cols, vals


@dataclass
class Inputs:
    """In-memory inputs of one problem plus the paths they were written to."""

    problem: Problem
    truth: np.ndarray
    pi: np.ndarray
    partitions: np.ndarray | None
    triplets: tuple | None
    paths: dict


def generate(problem: Problem, seed: int) -> Inputs:
    rng = rng_for(seed, problem)
    truth = planted_truth(rng, problem.n, problem.k)
    pi = noisy_pi(rng, truth, problem.k, problem.signal)
    partitions = triplets = None
    if problem.kind == "partitions":
        partitions = planted_partitions(rng, truth, problem.k, problem.r2,
                                        problem.clusters, problem.flip)
    else:
        triplets = planted_triplets(rng, truth, problem.degree, problem.same_class)
    return Inputs(problem, truth, pi, partitions, triplets, {})


def write(inputs: Inputs, directory: str) -> Inputs:
    """Write pi / partitions or triplets / truth files; returns their paths."""
    os.makedirs(directory, exist_ok=True)
    name = inputs.problem.name
    paths = {"pi": os.path.join(directory, f"{name}_pi.csv"),
             "truth": os.path.join(directory, f"{name}_truth.csv")}
    with open(paths["pi"], "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in inputs.pi.tolist())
    with open(paths["truth"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{v}\n" for v in inputs.truth.tolist())
    if inputs.partitions is not None:
        paths["partitions"] = os.path.join(directory, f"{name}_partitions.csv")
        with open(paths["partitions"], "w", encoding="utf-8") as fh:
            fh.writelines(",".join(map(str, row)) + "\n" for row in inputs.partitions.tolist())
    else:
        paths["similarity"] = os.path.join(directory, f"{name}_triplets.csv")
        rows, cols, vals = inputs.triplets
        with open(paths["similarity"], "w", encoding="utf-8") as fh:
            fh.writelines(f"{i},{j},{s!r}\n"
                          for i, j, s in zip(rows.tolist(), cols.tolist(), vals.tolist()))
    inputs.paths = paths
    return inputs
