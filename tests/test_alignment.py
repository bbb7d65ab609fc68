"""Pooling, projection, and contrastive-loss behavior.

Hand-sized batches with known geometry (orthogonal rows, duplicated
rows) pin the loss values; invariance properties and finite differences
cover the rest.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gazekit import (
    DegenerateNorm,
    GazeMap,
    ProjectionHead,
    ShapeMismatch,
    align_path_loss,
    align_path_weight_grad,
    central_difference,
    grad_info_nce,
    info_nce,
    normalize_to_simplex,
    pooled_embeddings,
    run_gradient_checks,
)
from gazekit.alignment import _unit_rows
from gazekit.grids import _grid_values


def project_one(head, features, weights) -> np.ndarray:
    """Pool and project one (channels, h, w) item: a batch of 1."""
    return pooled_embeddings(features[None], _grid_values(weights)[None], head)[0]


def pool_one(features, weights) -> np.ndarray:
    """Pool one (channels, h, w) item through an identity head."""
    channels = features.shape[0]
    identity = ProjectionHead(weight=np.eye(channels), bias=np.zeros(channels))
    return project_one(identity, features, weights)


class TestPooling:
    def test_matches_double_sum(self, rng):
        f = rng.normal(0.0, 1.0, size=(4, 5, 5))
        w = normalize_to_simplex(rng.uniform(0.1, 1.0, size=(5, 5)))
        pooled = pool_one(f, w)
        by_hand = np.zeros(4)
        for c in range(4):
            for i in range(5):
                for j in range(5):
                    by_hand[c] += f[c, i, j] * w.values[i, j]
        np.testing.assert_allclose(pooled, by_hand, rtol=0, atol=1e-12)

    def test_uniform_weights_average(self, rng):
        f = rng.normal(0.0, 1.0, size=(3, 6, 6))
        uniform = normalize_to_simplex(np.ones((6, 6)))
        np.testing.assert_allclose(
            pool_one(f, uniform), f.mean(axis=(1, 2)), rtol=0, atol=1e-12
        )

    def test_point_mass_selects_one_cell(self, rng):
        f = rng.normal(0.0, 1.0, size=(3, 4, 4))
        v = np.zeros((4, 4))
        v[1, 2] = 1.0
        np.testing.assert_array_equal(pool_one(f, GazeMap(v)), f[:, 1, 2])

    def test_shape_guard(self, rng):
        with pytest.raises(ShapeMismatch):
            pool_one(rng.normal(size=(3, 4, 4)), normalize_to_simplex(np.ones((5, 5))))


class TestProjection:
    def test_hand_multiply(self):
        head = ProjectionHead(weight=[[1.0, 0.0, 2.0, 0.0],
                                      [0.0, 1.0, 0.0, 3.0],
                                      [1.0, 1.0, 1.0, 1.0]],
                              bias=[0.5, -0.5, 0.0])
        # A single cell of weight 1 pools each channel to its own value.
        features = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1)
        out = project_one(head, features, np.ones((1, 1)))
        np.testing.assert_allclose(out, [7.5, 13.5, 10.0], rtol=0, atol=1e-15)

    def test_identity_with_zero_bias(self, rng):
        head = ProjectionHead(weight=np.eye(5), bias=np.zeros(5))
        x = rng.normal(size=5)
        np.testing.assert_array_equal(project_one(head, x.reshape(5, 1, 1), np.ones((1, 1))), x)

    def test_seeded_is_reproducible_and_bounded(self):
        a = ProjectionHead.seeded(9, 4, seed=7)
        b = ProjectionHead.seeded(9, 4, seed=7)
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, b.bias)
        k = 1.0 / math.sqrt(9.0)
        assert np.abs(a.weight).max() <= k and np.abs(a.bias).max() <= k
        assert a.weight.shape == (4, 9) and a.bias.shape == (4,)

    def test_bias_shape_guard(self):
        with pytest.raises(ShapeMismatch):
            ProjectionHead(weight=np.eye(3), bias=np.zeros(4))


class TestCosine:
    """The cosine the contrastive loss scores with: products of unit rows."""

    @staticmethod
    def cosine(a, b) -> float:
        (ua,), _ = _unit_rows(np.array([a], dtype=np.float64), "visual")
        (ub,), _ = _unit_rows(np.array([b], dtype=np.float64), "text")
        return float(ua @ ub)

    def test_axes(self):
        assert self.cosine([1.0, 0.0], [0.0, 2.0]) == 0.0
        assert abs(self.cosine([1.0, 1.0], [3.0, 3.0]) - 1.0) < 1e-12
        assert abs(self.cosine([1.0, 0.0], [-2.0, 0.0]) + 1.0) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateNorm):
            self.cosine([0.0, 0.0], [1.0, 0.0])


class TestInfoNCE:
    def test_single_item_batch_is_zero(self, rng):
        v = rng.normal(size=(1, 6))
        t = rng.normal(size=(1, 6))
        assert info_nce(v, t, 0.5) == 0.0

    def test_orthogonal_distractors_analytic(self):
        # Matched rows identical, mismatched rows orthogonal, tau = 0.5:
        # each row's loss is ln(1 + exp(-1/tau)).
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = info_nce(v, v.copy(), 0.5)
        assert abs(loss - math.log(1.0 + math.exp(-2.0))) < 1e-12

    def test_indistinguishable_rows_cost_log_batch(self, rng):
        row = rng.normal(size=7)
        v = np.tile(row, (5, 1))
        assert abs(info_nce(v, np.tile(row * 2.0, (5, 1)), 0.07) - math.log(5.0)) < 1e-12

    def test_well_separated_pairs_cost_nearly_nothing(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        # Cross-pair similarity 0 at tau 0.05 puts distractors 20 logits down.
        assert info_nce(v, t, 0.05) < 1e-6

    def test_row_rescaling_invariance(self, rng):
        v = rng.normal(size=(4, 5))
        t = rng.normal(size=(4, 5))
        scale_v = rng.uniform(0.2, 9.0, size=(4, 1))
        scale_t = rng.uniform(0.2, 9.0, size=(4, 1))
        assert abs(info_nce(v, t, 0.3) - info_nce(v * scale_v, t * scale_t, 0.3)) < 1e-9

    @given(seed=st.integers(0, 2**32 - 1))
    def test_joint_permutation_invariance(self, seed):
        gen = np.random.default_rng(seed)
        v = gen.normal(size=(5, 4))
        t = gen.normal(size=(5, 4))
        perm = gen.permutation(5)
        assert abs(info_nce(v, t, 0.2) - info_nce(v[perm], t[perm], 0.2)) < 1e-9

    def test_nonnegative(self, rng):
        for _ in range(20):
            v = rng.normal(size=(3, 5))
            t = rng.normal(size=(3, 5))
            assert info_nce(v, t, 0.4) >= 0.0

    def test_rejects_bad_batches(self, rng):
        with pytest.raises(ValueError):
            info_nce(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), 0.0)
        with pytest.raises(ShapeMismatch):
            info_nce(rng.normal(size=(2, 3)), rng.normal(size=(3, 3)), 0.5)
        with pytest.raises(DegenerateNorm):
            info_nce(np.zeros((2, 3)), rng.normal(size=(2, 3)), 0.5)

    @pytest.mark.parametrize("loss", [info_nce, grad_info_nce])
    def test_a_score_that_overflows_is_refused(self, loss):
        # cos / tau overflows below about tau = 1e-308; the shared softmax
        # core refuses the inf score instead of returning NaN, and the
        # refusal is the only signal: numpy's overflow warning is silenced.
        v = np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^logits must be finite$"):
                loss(v, v, 1e-320)


class TestGradInfoNCE:
    def test_single_item_gradients_vanish(self, rng):
        gv, gt = grad_info_nce(rng.normal(size=(1, 4)), rng.normal(size=(1, 4)), 0.3)
        assert np.abs(gv).max() == 0.0 and np.abs(gt).max() == 0.0

    def test_radial_component_is_zero(self, rng):
        v = rng.normal(size=(4, 6))
        t = rng.normal(size=(4, 6))
        gv, gt = grad_info_nce(v, t, 0.25)
        for i in range(4):
            assert abs(gv[i] @ v[i]) < 1e-9
            assert abs(gt[i] @ t[i]) < 1e-9

    def test_matches_finite_differences(self, rng):
        v = rng.normal(size=(3, 5))
        t = rng.normal(size=(3, 5))
        gv, gt = grad_info_nce(v, t, 0.2)
        num_v = central_difference(lambda q: info_nce(q, t, 0.2), v)
        num_t = central_difference(lambda q: info_nce(v, q, 0.2), t)
        scale = max(np.abs(num_v).max(), np.abs(num_t).max(), 1e-12)
        assert np.abs(gv - num_v).max() / scale < 1e-4
        assert np.abs(gt - num_t).max() / scale < 1e-4

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: info_nce computes lse - diag, which cancels at b = 2 with a small "
        "temperature, so grad-check seed 39 reports an infonce error of 2.658e-01"
    ))
    def test_grad_check_seed_39_passes_every_path(self):
        reports = run_gradient_checks(seed=39, trials=100)
        assert all(report.passed for report in reports), [
            f"{report.name}: {report.max_rel_error:.3e}" for report in reports
        ]


class TestChainedPath:
    def make_batch(self, rng, batch=3, channels=2, side=4, out_dim=5):
        feats = rng.normal(0.0, 1.0, size=(batch, channels, side, side))
        weights = rng.uniform(0.05, 1.0, size=(batch, side, side))
        weights /= weights.sum(axis=(1, 2), keepdims=True)
        head = ProjectionHead.seeded(channels, out_dim, seed=11)
        texts = rng.normal(0.0, 1.0, size=(batch, out_dim))
        return feats, weights, head, texts

    def test_pooled_embeddings_compose(self, rng):
        feats, weights, head, _ = self.make_batch(rng)
        rows = pooled_embeddings(feats, weights, head)
        for i in range(3):
            pooled = np.tensordot(feats[i], weights[i], axes=((1, 2), (0, 1)))
            expect = head.weight @ pooled + head.bias
            np.testing.assert_allclose(rows[i], expect, rtol=0, atol=1e-12)

    def test_weight_gradient_matches_finite_differences(self, rng):
        feats, weights, head, texts = self.make_batch(rng)
        grad = align_path_weight_grad(feats, weights, head, texts, 0.3)
        numeric = central_difference(
            lambda q: align_path_loss(feats, q.reshape(len(q), *weights.shape), head, texts, 0.3),
            weights.ravel(),
        ).reshape(weights.shape)
        scale = max(np.abs(numeric).max(), 1e-12)
        assert np.abs(grad - numeric).max() / scale < 1e-4

    def test_full_resolution_smoke(self, rng):
        feats = rng.normal(0.0, 1.0, size=(2, 3, 24, 24))
        weights = rng.uniform(0.05, 1.0, size=(2, 24, 24))
        weights /= weights.sum(axis=(1, 2), keepdims=True)
        head = ProjectionHead.seeded(3, 256, seed=0)
        texts = rng.normal(0.0, 1.0, size=(2, 256))
        loss = align_path_loss(feats, weights, head, texts)
        assert math.isfinite(loss) and loss >= 0.0
        assert align_path_weight_grad(feats, weights, head, texts).shape == (2, 24, 24)
