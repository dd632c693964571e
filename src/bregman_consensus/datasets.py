"""Desk-scale synthetic data and minimal base models.

Everything here exists so the full pipeline (classify, cluster, consensus)
runs end to end without external data: two 2-D generators, a nearest-centroid
classifier emitting softmax probabilities, and a seeded Lloyd k-means with
restarts.  All functions are deterministic given their seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ArgumentError, MissingClassError

# Vertical offset of the lower arc.  The arcs are unit half-circles offset by
# one in x; a 0.5 gap keeps them separable enough that a centroid classifier
# trained on a 2% sample stays accurate, which is the regime the end-to-end
# accuracy gates assume.
MOON_OFFSET = -0.5

CIRCLE_RADII = (1.0, 2.0)

KMEANS_RESTARTS = 5  # Lloyd runs per k-means call
CLUSTER_COUNTS = range(4, 9)  # one k-means partition per count: r2 = 5


@dataclass(frozen=True)
class LabeledDataset:
    points: np.ndarray
    labels: np.ndarray
    k: int


def _two_classes(name, n, noise, seed, place):
    """``place(m)``'s 2m points, class 0 first, m = n/2, jittered by N(0, noise^2)."""
    if n % 2 != 0:
        raise ArgumentError(f"{name} needs an even n, got {n}")
    if noise < 0:
        raise ArgumentError(f"noise must be nonnegative, got {noise}")
    m = n // 2
    points = place(m)
    points = points + np.random.default_rng(seed).normal(0.0, noise, points.shape)
    labels = np.concatenate([np.zeros(m, dtype=np.int64), np.ones(m, dtype=np.int64)])
    return LabeledDataset(points=points, labels=labels, k=2)


def half_moon(n: int, noise: float, seed: int) -> LabeledDataset:
    """Two interleaving half-circle arcs with Gaussian jitter.

    Class 0 is the upper arc (cos t, sin t) for t in [0, pi]; class 1 is the
    lower arc (1 - cos t, MOON_OFFSET - sin t).  ``n`` must be even; each arc
    carries n/2 points at evenly spaced angles, jittered by N(0, noise^2).
    """
    def arcs(m):
        t = np.linspace(0.0, np.pi, m)
        return np.vstack([np.column_stack([np.cos(t), np.sin(t)]),
                          np.column_stack([1.0 - np.cos(t), MOON_OFFSET - np.sin(t)])])

    return _two_classes("half_moon", n, noise, seed, arcs)


def circles(n: int, noise: float, seed: int) -> LabeledDataset:
    """Two concentric circles of radii 1 and 2, n/2 points each."""
    def rings(m):
        t = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
        unit = np.column_stack([np.cos(t), np.sin(t)])
        return np.vstack([CIRCLE_RADII[0] * unit, CIRCLE_RADII[1] * unit])

    return _two_classes("circles", n, noise, seed, rings)


def nearest_centroid_classifier(train: LabeledDataset):
    """Per-class softmax over negative squared distances to class centroids.

    Returns a ``predict(points) -> (m, k)`` callable whose rows sum to one.
    """
    centroids = []
    for c in range(train.k):
        members = train.points[train.labels == c]
        if len(members) == 0:
            raise MissingClassError(f"no training points for class {c}")
        centroids.append(members.mean(axis=0))
    centroids = np.stack(centroids)

    def predict(points):
        points = np.asarray(points, dtype=np.float64)
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
        z = -d2
        z = z - z.max(axis=1, keepdims=True)  # softmax shift, value-preserving
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    return predict


def _lloyd(points, k_clusters, rng, max_iters=100):
    """One Lloyd run; returns (labels, wcss, wcss_history)."""
    n = len(points)
    centers = points[rng.choice(n, size=k_clusters, replace=False)].copy()
    labels = np.full(n, -1, dtype=np.int64)
    history = []
    for _ in range(max_iters):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        new_labels = d2.argmin(axis=1)
        own = d2[np.arange(n), new_labels]
        history.append(float(own.sum()))
        for c in range(k_clusters):
            mask = new_labels == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
            else:
                # empty cluster: reseed at the point farthest from its center
                far = int(own.argmax())
                centers[c] = points[far]
                new_labels[far] = c
                own[far] = 0.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, history[-1], history


def kmeans(points, k_clusters: int, seed: int) -> np.ndarray:
    """Seeded Lloyd k-means; of :data:`KMEANS_RESTARTS` restarts the lowest WCSS wins.

    Returns one partition column (n cluster identifiers) for a partition set.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if k_clusters > n:
        raise ArgumentError(f"k_clusters={k_clusters} exceeds n={n}")
    if k_clusters < 1:
        raise ArgumentError("k_clusters must be positive")
    rng = np.random.default_rng(seed)
    best_labels, best_wcss = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        labels, wcss, _ = _lloyd(points, k_clusters, rng)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return best_labels


@dataclass(frozen=True)
class ConsensusProblem:
    """A ready-to-solve problem: target-set inputs plus ground truth."""

    pi: np.ndarray  # (n_target, k) classifier probabilities
    partitions: np.ndarray  # (n_target, r2) cluster identifiers
    truth: np.ndarray  # (n_target,) true labels
    target_points: np.ndarray
    train_count: int


def synthetic_problem(kind: str, n: int, noise: float, label_fraction: float,
                      seed: int) -> ConsensusProblem:
    """Sample a dataset, train the built-in classifier on a small stratified
    split, and cluster the remaining target set once per cluster count in
    :data:`CLUSTER_COUNTS`.

    ``label_fraction`` of the points (at least one per class, split evenly
    across classes) train the centroid classifier; everything else becomes
    the target set that the consensus step will relabel.
    """
    if not 0.0 < label_fraction < 1.0:
        raise ArgumentError(f"label_fraction must lie in (0, 1), got {label_fraction}")
    generators = {"half-moon": half_moon, "circles": circles}
    if kind not in generators:
        raise ArgumentError(f"unknown dataset kind {kind!r}; expected half-moon or circles")
    data = generators[kind](n, noise, seed)

    rng = np.random.default_rng(seed + 1_000_003)
    per_class = max(1, int(round(n * label_fraction / data.k)))
    train_idx = []
    for c in range(data.k):
        members = np.where(data.labels == c)[0]
        train_idx.extend(rng.choice(members, size=per_class, replace=False))
    train_mask = np.zeros(n, dtype=bool)
    train_mask[np.asarray(train_idx)] = True

    train = LabeledDataset(points=data.points[train_mask], labels=data.labels[train_mask],
                           k=data.k)
    target_points = data.points[~train_mask]
    truth = data.labels[~train_mask]

    pi = nearest_centroid_classifier(train)(target_points)
    partitions = np.column_stack(
        [kmeans(target_points, kc, seed=seed * 97 + kc) for kc in CLUSTER_COUNTS]
    )
    return ConsensusProblem(pi=pi, partitions=partitions, truth=truth,
                            target_points=target_points, train_count=int(train_mask.sum()))
