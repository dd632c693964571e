"""Generators, the centroid classifier, k-means, and the end-to-end pipeline."""

import numpy as np
import pytest

from bregman_consensus.datasets import (
    CIRCLE_RADII,
    MOON_OFFSET,
    LabeledDataset,
    _lloyd,
    circles,
    half_moon,
    kmeans,
    nearest_centroid_classifier,
    synthetic_problem,
)
from bregman_consensus.exceptions import ArgumentError, MissingClassError


class TestHalfMoon:
    def test_class_counts(self):
        data = half_moon(800, noise=0.1, seed=3)
        assert np.sum(data.labels == 0) == 400
        assert np.sum(data.labels == 1) == 400

    def test_noise_free_points_lie_on_arcs(self):
        data = half_moon(60, noise=0.0, seed=0)
        upper = data.points[data.labels == 0]
        np.testing.assert_allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
        assert np.all(upper[:, 1] >= -1e-12)
        lower = data.points[data.labels == 1]
        centered = lower - np.array([1.0, MOON_OFFSET])
        np.testing.assert_allclose(np.linalg.norm(centered, axis=1), 1.0, atol=1e-12)
        assert np.all(centered[:, 1] <= 1e-12)

    def test_seed_determinism(self):
        a = half_moon(100, noise=0.2, seed=9)
        b = half_moon(100, noise=0.2, seed=9)
        np.testing.assert_array_equal(a.points, b.points)
        c = half_moon(100, noise=0.2, seed=10)
        assert not np.array_equal(a.points, c.points)

    def test_odd_n_rejected(self):
        with pytest.raises(ArgumentError):
            half_moon(7, noise=0.1, seed=0)


class TestCircles:
    def test_noise_free_radii(self):
        data = circles(80, noise=0.0, seed=1)
        r_inner = np.linalg.norm(data.points[data.labels == 0], axis=1)
        r_outer = np.linalg.norm(data.points[data.labels == 1], axis=1)
        np.testing.assert_allclose(r_inner, CIRCLE_RADII[0], atol=1e-12)
        np.testing.assert_allclose(r_outer, CIRCLE_RADII[1], atol=1e-12)

    def test_benchmark_scale_counts(self):
        data = circles(1568, noise=0.02, seed=2)
        assert np.sum(data.labels == 0) == 784
        assert np.sum(data.labels == 1) == 784

    def test_seed_determinism(self):
        a = circles(50, noise=0.1, seed=4)
        b = circles(50, noise=0.1, seed=4)
        np.testing.assert_array_equal(a.points, b.points)


class TestNearestCentroid:
    def test_dominant_probability_at_centroid(self):
        train = LabeledDataset(points=np.array([[0.0, 0.0], [5.0, 0.0]]),
                               labels=np.array([0, 1]), k=2)
        probs = nearest_centroid_classifier(train)(np.array([[0.0, 0.0]]))
        assert probs[0, 0] > 0.99

    def test_equidistant_point_splits_evenly(self):
        train = LabeledDataset(points=np.array([[-1.0, 0.0], [1.0, 0.0]]),
                               labels=np.array([0, 1]), k=2)
        probs = nearest_centroid_classifier(train)(np.array([[0.0, 3.0]]))
        np.testing.assert_allclose(probs[0], [0.5, 0.5], atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        train = LabeledDataset(points=rng.normal(size=(30, 2)),
                               labels=rng.integers(0, 3, 30), k=3)
        probs = nearest_centroid_classifier(train)(rng.normal(size=(100, 2)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0.0)

    def test_missing_class_raises(self):
        train = LabeledDataset(points=np.zeros((3, 2)), labels=np.zeros(3, dtype=int), k=2)
        with pytest.raises(MissingClassError):
            nearest_centroid_classifier(train)


class TestKmeans:
    def test_k_equals_n_gives_singletons(self, rng):
        pts = rng.normal(size=(6, 2))
        labels = kmeans(pts, 6, seed=0)
        assert len(set(labels.tolist())) == 6

    def test_well_separated_blobs_recovered(self, rng):
        a = rng.normal(0.0, 0.2, (20, 2))
        b = rng.normal(0.0, 0.2, (20, 2)) + 10.0
        pts = np.vstack([a, b])
        # brute-force margin check: blobs are separated far beyond diameters
        within = max(np.linalg.norm(a - a.mean(0), axis=1).max(),
                     np.linalg.norm(b - b.mean(0), axis=1).max())
        assert np.linalg.norm(a.mean(0) - b.mean(0)) > 4 * within
        labels = kmeans(pts, 2, seed=1)
        assert len(set(labels[:20].tolist())) == 1
        assert len(set(labels[20:].tolist())) == 1
        assert labels[0] != labels[20]

    def test_seed_determinism(self, rng):
        pts = rng.normal(size=(40, 2))
        np.testing.assert_array_equal(kmeans(pts, 4, seed=7), kmeans(pts, 4, seed=7))

    def test_k_larger_than_n_rejected(self, rng):
        with pytest.raises(ArgumentError):
            kmeans(rng.normal(size=(3, 2)), 4, seed=0)

    @pytest.mark.parametrize("seed, expected", [
        (0, [2, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0]),
        (1, [1, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2]),
    ])
    def test_empty_cluster_is_reseeded_at_the_farthest_point(self, seed, expected):
        # three centres drawn from two distinct points: two coincide, the later
        # one wins no point, and it is reseeded at the farthest point from its
        # centre; every distance is 0, so that is point 0.  kmeans keeps its
        # first restart, whose WCSS of 0 no later restart beats
        pts = np.repeat([[0.0, 0.0], [1.0, 1.0]], 6, axis=0)
        labels, wcss, _ = _lloyd(pts, 3, np.random.default_rng(seed))
        np.testing.assert_array_equal(labels, expected)
        assert wcss == 0.0
        np.testing.assert_array_equal(kmeans(pts, 3, seed=seed), expected)

    def test_wcss_non_increasing_within_lloyd(self, rng):
        pts = rng.normal(size=(60, 2))
        _, _, history = _lloyd(pts, 5, np.random.default_rng(3))
        assert all(b <= a + 1e-9 for a, b in zip(history[:-1], history[1:]))


class TestSyntheticProblem:
    def test_half_moon_two_percent_split(self):
        problem = synthetic_problem("half-moon", 800, noise=0.1, label_fraction=0.02, seed=0)
        assert problem.train_count == 16
        assert problem.pi.shape == (784, 2)
        assert problem.partitions.shape == (784, 5)
        assert problem.truth.shape == (784,)
        np.testing.assert_allclose(problem.pi.sum(axis=1), 1.0, atol=1e-12)

    def test_circles_partition_columns(self):
        problem = synthetic_problem("circles", 400, noise=0.02, label_fraction=0.05, seed=1)
        assert problem.partitions.shape[1] == 5

    def test_deterministic_given_seed(self):
        a = synthetic_problem("half-moon", 200, noise=0.1, label_fraction=0.05, seed=5)
        b = synthetic_problem("half-moon", 200, noise=0.1, label_fraction=0.05, seed=5)
        np.testing.assert_array_equal(a.pi, b.pi)
        np.testing.assert_array_equal(a.partitions, b.partitions)

    def test_label_fraction_bounds(self):
        with pytest.raises(ArgumentError):
            synthetic_problem("half-moon", 100, 0.1, label_fraction=0.0, seed=0)
        with pytest.raises(ArgumentError):
            synthetic_problem("spiral", 100, 0.1, label_fraction=0.1, seed=0)
