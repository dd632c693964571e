"""Divergence family: frozen values, domain errors, and stated invariants."""

import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregman_consensus import BregmanConsensus
from bregman_consensus.divergences import (
    DivergenceKind,
    DivergenceSpec,
    divergence_spec,
    parse_divergence,
    validate_point,
)
from bregman_consensus.ensemble_inputs import SimilarityMatrix
from bregman_consensus.exceptions import DomainError, RangeError, ShapeError

from conftest import ALL_TOKENS, interior_points

LN2 = math.log(2.0)


class TestFrozenValues:
    def test_phi_squared_euclidean(self):
        assert divergence_spec("euclidean", 2).phi([1.0, 2.0]) == pytest.approx(5.0)

    def test_phi_generalized_i_at_one(self):
        assert divergence_spec("gen-i", 1).phi([1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_phi_kl_uses_base_two(self):
        # 0.5*log2(0.5) + 0.5*log2(0.5) = -1
        assert divergence_spec("kl", 2).phi([0.5, 0.5]) == pytest.approx(-1.0)

    def test_grad_generalized_i(self):
        np.testing.assert_allclose(divergence_spec("gen-i", 2).grad([1.0, 1.0]), [1.0, 1.0])

    def test_grad_squared_euclidean(self):
        np.testing.assert_allclose(divergence_spec("euclidean", 2).grad([1.0, 2.0]), [2.0, 4.0])

    def test_grad_itakura_saito(self):
        np.testing.assert_allclose(divergence_spec("itakura-saito", 1).grad([2.0]), [-0.5])

    def test_grad_inv_generalized_i(self):
        np.testing.assert_allclose(divergence_spec("gen-i", 1).grad_inv([1.0]), [1.0])

    def test_grad_inv_squared_euclidean(self):
        np.testing.assert_allclose(divergence_spec("euclidean", 2).grad_inv([2.0, 4.0]),
                                   [1.0, 2.0])

    def test_bregman_generalized_i_hand_value(self):
        # 1*ln(1/2) + 2*ln(2/1) - ((1+2) - (2+1)) = ln 2
        d = divergence_spec("gen-i", 2).bregman([1.0, 2.0], [2.0, 1.0])
        assert d == pytest.approx(math.log(2.0), abs=1e-12)

    def test_bregman_itakura_saito_hand_value(self):
        # 2/1 - ln 2 - 1
        d = divergence_spec("itakura-saito", 1).bregman([2.0], [1.0])
        assert d == pytest.approx(1.0 - math.log(2.0), abs=1e-12)

    def test_psi_squared_euclidean(self):
        assert divergence_spec("euclidean", 1).psi([2.0]) == pytest.approx(1.0)

    def test_psi_generalized_i(self):
        assert divergence_spec("gen-i", 1).psi([1.0]) == pytest.approx(1.0)

    def test_dual_identity_spot_value(self):
        spec = divergence_spec("gen-i", 2)
        p, q = np.array([1.0, 2.0]), np.array([2.0, 1.0])
        primal = spec.bregman(p, q)
        dual = spec.bregman_dual(spec.grad(q), spec.grad(p))
        assert primal == pytest.approx(math.log(2.0), abs=1e-12)
        assert dual == pytest.approx(primal, abs=1e-12)


class TestDomainHandling:
    def test_out_of_domain_raises(self):
        with pytest.raises(DomainError):
            divergence_spec("gen-i", 2).phi([-0.5, 1.0])
        with pytest.raises(DomainError):
            divergence_spec("logistic", 2).phi([0.5, 1.5])

    def test_clamp_admits_exact_zero(self):
        # hard classifier outputs: exact zeros evaluate after clamping
        spec = divergence_spec("gen-i", 2)
        assert np.isfinite(spec.phi([0.0, 1.0]))
        assert np.all(np.isfinite(spec.grad([0.0, 1.0])))

    def test_grad_inv_range_errors(self):
        with pytest.raises(RangeError):
            divergence_spec("itakura-saito", 1).grad_inv([0.5])
        with pytest.raises(RangeError):
            divergence_spec("bose-einstein", 1).grad_inv([0.0])

    def test_validate_point_shape_and_simplex(self):
        spec = divergence_spec("kl", 3)
        validate_point(spec, [0.2, 0.3, 0.5])
        with pytest.raises(DomainError):
            validate_point(spec, [0.2, 0.3, 0.6])
        with pytest.raises(ShapeError):
            validate_point(spec, [0.5, 0.5])

    def test_parse_divergence_tokens(self):
        for token in ALL_TOKENS:
            assert parse_divergence(token).value == token
        with pytest.raises(ValueError):
            parse_divergence("mahalanobis")

    @pytest.mark.parametrize("token", ALL_TOKENS)
    def test_spec_resolves_a_token_to_its_kind(self, token):
        # a spec built from the token used to keep the string and raise
        # KeyError on its first evaluation
        spec = DivergenceSpec(kind=token, dimension=2)
        assert spec.kind is parse_divergence(token)
        assert spec == divergence_spec(parse_divergence(token), 2)
        assert np.isfinite(spec.phi(interior_points(token, np.random.default_rng(0), 1, 2)[0]))

    @pytest.mark.parametrize("token", ALL_TOKENS)
    def test_spec_pickles_and_copies_with_its_rule(self, token):
        # the spec resolves its kind's rule once; the rule's kernels are
        # lambdas, which pickle cannot store
        spec = divergence_spec(token, 3, domain_floor=1e-9)
        point = interior_points(token, np.random.default_rng(0), 1, 3)[0]
        for twin in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
            assert twin == spec
            assert twin.grad(point).tobytes() == spec.grad(point).tobytes()

    @pytest.mark.parametrize("bad", [5, None, 2.5, "KL", "mahalanobis", ["kl"]], ids=repr)
    @pytest.mark.parametrize("build", [
        lambda kind: DivergenceSpec(kind=kind, dimension=2),
        lambda kind: divergence_spec(kind, 2),
        lambda kind: BregmanConsensus(divergence=kind).fit(np.full((2, 2), 0.5),
                                                           SimilarityMatrix.empty(2)),
    ], ids=["spec", "divergence_spec", "estimator"])
    def test_an_unknown_kind_is_rejected_on_construction(self, bad, build):
        with pytest.raises(ValueError, match=r"unknown divergence .*expected one of: squared, "
                                             r"logistic, bose-einstein, itakura-saito, "
                                             r"euclidean, kl, gen-i$"):
            build(bad)


    @pytest.mark.parametrize("floor", [0.25, 0.3])
    @pytest.mark.parametrize("build", [
        lambda floor: divergence_spec("kl", 4, domain_floor=floor),
        lambda floor: BregmanConsensus(divergence="kl", domain_floor=floor, alpha=0.5).fit(
            np.full((2, 4), 0.25), SimilarityMatrix.empty(2)),
    ], ids=["spec", "estimator"])
    def test_spec_rejects_a_kl_floor_that_leaves_no_simplex(self, floor, build):
        # only lambda_hat's projection used to raise this: run and fit
        # accepted the spec and returned probabilities
        with pytest.raises(DomainError, match=re.escape(
                f"kl: domain_floor={floor!r} leaves no room on the simplex in k=4 dimensions")):
            build(floor)

    def test_a_kl_floor_below_one_over_k_is_accepted(self):
        assert divergence_spec("kl", 4, domain_floor=0.2499).domain_floor == 0.2499
        assert divergence_spec("gen-i", 4, domain_floor=0.3).domain_floor == 0.3


@pytest.mark.parametrize("token", ALL_TOKENS)
class TestInvariants:
    def test_nonnegativity(self, token, rng):
        spec = divergence_spec(token, 3)
        p = interior_points(token, rng, 10_000, 3)
        q = interior_points(token, rng, 10_000, 3)
        assert float(spec.bregman(p, q).min()) >= -1e-12

    def test_identity_of_indiscernibles(self, token, rng):
        spec = divergence_spec(token, 3)
        p = interior_points(token, rng, 500, 3)
        assert np.max(np.abs(spec.bregman(p, p))) <= 1e-12

    def test_gradient_matches_finite_differences(self, token, rng):
        spec = divergence_spec(token, 3)
        pts = interior_points(token, rng, 100, 3)
        h = 1e-6
        for p in pts:
            analytic = spec.grad(p)
            fd = np.empty_like(p)
            for c in range(3):
                pp, pm = p.copy(), p.copy()
                pp[c] += h
                pm[c] -= h
                fd[c] = (spec.phi(pp) - spec.phi(pm)) / (2 * h)
            np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_dual_identity(self, token, k, seed):
        rng = np.random.default_rng(seed)
        spec = divergence_spec(token, k)
        p = interior_points(token, rng, 2_000, k)
        q = interior_points(token, rng, 2_000, k)
        primal = spec.bregman(p, q)
        dual = spec.bregman_dual(spec.grad(q), spec.grad(p))
        assert np.max(np.abs(primal - dual)) <= 1e-9

    def test_legendre_round_trip(self, token, rng):
        spec = divergence_spec(token, 3)
        p = interior_points(token, rng, 2000, 3)
        assert np.max(np.abs(spec.grad_inv(spec.grad(p)) - p)) <= 1e-12

    def test_midpoint_convexity_first_argument(self, token, rng):
        spec = divergence_spec(token, 3)
        p1 = interior_points(token, rng, 400, 3)
        p2 = interior_points(token, rng, 400, 3)
        q = interior_points(token, rng, 400, 3)
        lhs = spec.bregman(0.5 * (p1 + p2), q)
        rhs = 0.5 * (spec.bregman(p1, q) + spec.bregman(p2, q))
        assert np.all(lhs <= rhs + 1e-10)
        apart = np.linalg.norm(p1 - p2, axis=1) >= 1e-3
        assert np.all(rhs[apart] - lhs[apart] > 1e-12)  # strictness margin

    def test_midpoint_convexity_second_argument(self, token, rng):
        # Convexity in the second argument holds near the diagonal only for
        # itakura-saito (needs q < 2p) and bose-einstein; sampled accordingly.
        spec = divergence_spec(token, 3)
        if token in ("itakura-saito", "bose-einstein"):
            base = rng.uniform(0.6, 1.0, (400, 3))
            p = base
            q1 = base * rng.uniform(0.85, 1.15, (400, 3))
            q2 = base * rng.uniform(0.85, 1.15, (400, 3))
        else:
            p = interior_points(token, rng, 400, 3)
            q1 = interior_points(token, rng, 400, 3)
            q2 = interior_points(token, rng, 400, 3)
        lhs = spec.bregman(p, 0.5 * (q1 + q2))
        rhs = 0.5 * (spec.bregman(p, q1) + spec.bregman(p, q2))
        assert np.all(lhs <= rhs + 1e-10)
        apart = np.linalg.norm(q1 - q2, axis=1) >= 1e-3
        assert np.all(rhs[apart] - lhs[apart] > 1e-12)

    def test_joint_midpoint_convexity(self, token, rng):
        spec = divergence_spec(token, 3)
        if token in ("itakura-saito", "bose-einstein"):
            base = rng.uniform(0.6, 1.0, (400, 3))
            p1 = base * rng.uniform(0.85, 1.15, (400, 3))
            p2 = base * rng.uniform(0.85, 1.15, (400, 3))
            q1 = base * rng.uniform(0.85, 1.15, (400, 3))
            q2 = base * rng.uniform(0.85, 1.15, (400, 3))
        else:
            p1 = interior_points(token, rng, 400, 3)
            p2 = interior_points(token, rng, 400, 3)
            q1 = interior_points(token, rng, 400, 3)
            q2 = interior_points(token, rng, 400, 3)
        lhs = spec.bregman(0.5 * (p1 + p2), 0.5 * (q1 + q2))
        rhs = 0.5 * (spec.bregman(p1, q1) + spec.bregman(p2, q2))
        assert np.all(lhs <= rhs + 1e-10)


def test_scalar_rows_extend_by_summation(rng):
    # k-dimensional squared loss equals the sum of scalar divergences
    spec3 = divergence_spec("squared", 3)
    spec1 = divergence_spec("squared", 1)
    p = rng.uniform(-2, 2, (50, 3))
    q = rng.uniform(-2, 2, (50, 3))
    total = sum(spec1.bregman(p[:, c : c + 1], q[:, c : c + 1]) for c in range(3))
    np.testing.assert_allclose(spec3.bregman(p, q), total, atol=1e-12)


def test_kind_enumeration_is_exactly_seven():
    assert len(DivergenceKind) == 7
