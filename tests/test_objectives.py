"""Loss stack fixtures, analytic values, and finite-difference spot checks.

The heavier randomized gradient sweeps live in the grad-check runner and
the acceptance suite; here each gradient gets one direct comparison plus
the hand-derivable cases.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import map_pairs, random_map
from gazekit import (
    FitStep,
    GazeLossConfig,
    GazeMap,
    LengthMismatch,
    LossWeights,
    TokenSequence,
    central_difference,
    entropy,
    fit_gaze_demo,
    gaussian_blur,
    grad_loss_caption,
    grad_loss_gaze,
    grid_values,
    kl_div,
    loss_caption,
    loss_gaze,
    normalize_to_simplex,
    spatial_softmax,
    total_loss,
)
from gazekit.grids import _blur_matrix, _gaussian_kernel_1d
from gazekit.objectives import GazeLossBreakdown, _kl_grad_wrt_pred, _softmax_backprop


def grad_loss_kl(gt, logits) -> np.ndarray:
    """Gradient of kl_div(gt, softmax(logits)) with respect to the logits.

    The oracle for the gaze gradient whenever the hinge contributes
    nothing, at weight 0 or on the inactive branch.
    """
    g = grid_values(gt)
    p = spatial_softmax(logits).values
    return _softmax_backprop(p, _kl_grad_wrt_pred(g, p))


def fit_gaze_demo_two_branch(gt, steps, learning_rate, use_hinge=False):
    """The demo fit with a separate bare-KL branch, kept as the oracle."""
    z = np.zeros_like(gt.values)
    trajectory = []
    for step in range(steps + 1):
        pred = spatial_softmax(z)
        if use_hinge:
            loss = loss_gaze(gt, z).total
            grad = grad_loss_gaze(gt, z)
        else:
            loss = kl_div(gt, pred)
            grad = grad_loss_kl(gt, z)
        trajectory.append(FitStep(step=step, loss=loss, entropy=entropy(pred)))
        if step < steps:
            z = z - learning_rate * grad
    return trajectory


def test_defaults_carry_the_published_constants():
    cfg = GazeLossConfig()
    assert (cfg.hinge_weight, cfg.hinge_margin, cfg.blur_sigma) == (0.3, 0.05, 1.0)
    w = LossWeights()
    assert (w.gaze, w.caption, w.align) == (1.0, 1.0, 0.2)


class TestLossKL:
    """The loss's KL term is the evaluation metric kl_div itself."""

    def test_identity(self, rng):
        m = random_map(rng, 6, 6, low=0.2)
        assert abs(kl_div(m, m)) < 1e-9

    def test_delta_versus_uniform(self):
        v = np.zeros((64, 64))
        v[5, 5] = 1.0
        uniform = normalize_to_simplex(np.ones((64, 64)))
        assert abs(kl_div(GazeMap(v), uniform) - math.log(4096.0)) < 1e-6

    def test_shares_the_metric_definition(self, rng):
        g = random_map(rng, 7, 5)
        z = rng.normal(0.0, 1.0, size=(7, 5))
        assert loss_gaze(g, z).kl == kl_div(g, spatial_softmax(z))

    @given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-30.0, 30.0))
    def test_invariant_to_logit_shift(self, seed, shift):
        gen = np.random.default_rng(seed)
        g = random_map(gen, 5, 5)
        z = gen.normal(0.0, 2.0, size=(5, 5))
        a = kl_div(g, spatial_softmax(z))
        b = kl_div(g, spatial_softmax(z + shift))
        assert abs(a - b) < 1e-10


def blur_values_oracle(p: np.ndarray, sigma: float) -> np.ndarray:
    """The blur as the gaze loss once wrote it out for itself."""
    h, w = p.shape
    out = _blur_matrix(h, float(sigma)) @ p @ _blur_matrix(w, float(sigma)).T
    return out / out.sum()


def loss_gaze_oracle(gt, logits, cfg=GazeLossConfig()) -> GazeLossBreakdown:
    pred = spatial_softmax(logits)
    raw_kl = kl_div(gt, pred)
    blur_kl = kl_div(gt, blur_values_oracle(pred.values, cfg.blur_sigma))
    hinge = cfg.hinge_weight * max(0.0, blur_kl - raw_kl + cfg.hinge_margin)
    return GazeLossBreakdown(total=raw_kl + hinge, kl=raw_kl, hinge=hinge)


def grad_loss_gaze_oracle(gt, logits, cfg=GazeLossConfig()) -> np.ndarray:
    g = gt.values
    p = spatial_softmax(logits).values
    h, w = p.shape
    mh = _blur_matrix(h, float(cfg.blur_sigma))
    mw = _blur_matrix(w, float(cfg.blur_sigma))
    b = mh @ p @ mw.T
    b = b / b.sum()
    raw_kl = kl_div(g, p)
    blur_kl = kl_div(g, b)
    v = _kl_grad_wrt_pred(g, p)
    if blur_kl - raw_kl + cfg.hinge_margin > 0.0:
        v_blur = mh.T @ _kl_grad_wrt_pred(g, b) @ mw
        v = v + cfg.hinge_weight * (v_blur - v)
    return _softmax_backprop(p, v)


class TestOneBlur:
    """The blur lives in grids alone; each caller agrees with it bit for bit."""

    configs = st.builds(
        GazeLossConfig,
        hinge_weight=st.floats(0.0, 1.0),
        hinge_margin=st.floats(0.0, 0.2),
        blur_sigma=st.floats(0.3, 2.5),
    )

    @given(pair=map_pairs(min_side=2, max_side=12), sigma=st.floats(0.3, 2.5))
    def test_gaussian_blur(self, pair, sigma):
        m, _ = pair
        out = gaussian_blur(m, sigma).values
        assert out.tobytes() == blur_values_oracle(m.values, sigma).tobytes()

    @given(pair=map_pairs(min_side=2, max_side=12), seed=st.integers(0, 2**32 - 1), cfg=configs)
    def test_loss_gaze(self, pair, seed, cfg):
        gt, _ = pair
        z = np.random.default_rng(seed).normal(0.0, 2.0, size=gt.values.shape)
        assert loss_gaze(gt, z, cfg) == loss_gaze_oracle(gt, z, cfg)

    @given(pair=map_pairs(min_side=2, max_side=12), seed=st.integers(0, 2**32 - 1), cfg=configs)
    def test_grad_loss_gaze(self, pair, seed, cfg):
        gt, _ = pair
        z = np.random.default_rng(seed).normal(0.0, 2.0, size=gt.values.shape)
        assert grad_loss_gaze(gt, z, cfg).tobytes() == grad_loss_gaze_oracle(gt, z, cfg).tobytes()


class TestLossGaze:
    def test_uniform_uniform_hits_the_hinge_floor(self):
        gt = normalize_to_simplex(np.ones((8, 8)))
        parts = loss_gaze(gt, np.zeros((8, 8)))
        assert parts.kl == 0.0
        assert abs(parts.hinge - 0.015) < 1e-12
        assert abs(parts.total - 0.015) < 1e-12

    def test_center_delta_hinge_equals_blur_spread(self):
        # Sharp logits make the prediction a delta to double precision.
        # The blurred delta keeps w0^2 at the center; with gt equal to
        # the prediction the kl part is just the clamping-floor residue
        # and the loss is dominated by the hinge on the blur divergence.
        z = np.zeros((9, 9))
        z[4, 4] = 200.0
        v = np.zeros((9, 9))
        v[4, 4] = 1.0
        gt = GazeMap(v)

        w = _gaussian_kernel_1d(1.0)
        r = len(w) // 2
        blurred = np.zeros((9, 9))
        for a in range(-r, r + 1):
            for b in range(-r, r + 1):
                blurred[4 + a, 4 + b] = w[a + r] * w[b + r]
        oracle_kl = kl_div(gt, blurred / blurred.sum())

        parts = loss_gaze(gt, z)
        # 80 empty cells lifted to the 1e-8 floor and renormalized away.
        assert abs(parts.kl - math.log1p(80e-8)) < 1e-12
        assert abs(parts.total - (parts.kl + 0.3 * (oracle_kl - parts.kl + 0.05))) < 1e-12
        # The clamping floor shifts the divergence off the closed form
        # -ln(w0^2) by only ~3e-7.
        w0 = w[r]
        assert abs(oracle_kl + math.log(w0 * w0)) < 1e-5

    @given(pair=map_pairs(min_side=4, max_side=9), seed=st.integers(0, 2**32 - 1))
    def test_never_below_the_kl_part(self, pair, seed):
        gt, _ = pair
        z = np.random.default_rng(seed).normal(0.0, 2.0, size=gt.values.shape)
        parts = loss_gaze(gt, z)
        assert parts.hinge >= 0.0
        assert parts.total >= parts.kl


class TestGradLossGaze:
    def test_inactive_hinge_reduces_to_kl_gradient(self, rng):
        z = rng.normal(0.0, 3.0, size=(8, 8))
        gt = gaussian_blur(spatial_softmax(z), 1.0)
        parts = loss_gaze(gt, z)
        assert parts.hinge == 0.0
        assert parts.kl > 0.05  # strictly inside the inactive branch
        np.testing.assert_array_equal(grad_loss_gaze(gt, z), grad_loss_kl(gt, z))

    def test_matches_finite_differences(self, rng):
        gt = random_map(rng, 8, 8)
        z = rng.normal(0.0, 1.0, size=(8, 8))
        analytic = grad_loss_gaze(gt, z)
        numeric = central_difference(lambda q: loss_gaze(gt, q).total, z)
        scale = max(np.abs(numeric).max(), 1e-12)
        assert np.abs(analytic - numeric).max() / scale < 1e-4

    def test_components_sum_to_zero(self, rng):
        for _ in range(5):
            gt = random_map(rng, 6, 6)
            z = rng.normal(0.0, 2.0, size=(6, 6))
            assert abs(grad_loss_gaze(gt, z).sum()) < 1e-10


class TestLossCaption:
    def test_confident_correct_logits(self):
        target = TokenSequence((0, 2, 1), 4)
        logits = np.zeros((3, 4))
        for t, tok in enumerate(target.tokens):
            logits[t, tok] = 40.0
        assert loss_caption(logits, target) < 1e-9

    def test_uniform_logits_analytic(self):
        target = TokenSequence((3, 1, 4, 9), 10)
        assert abs(loss_caption(np.zeros((4, 10)), target) - 4.0 * math.log(10.0)) < 1e-12

    def test_row_count_mismatch(self):
        with pytest.raises(LengthMismatch):
            loss_caption(np.zeros((2, 5)), TokenSequence((1, 2, 3), 5))

    def test_vocab_width_mismatch(self):
        with pytest.raises(LengthMismatch):
            loss_caption(np.zeros((2, 4)), TokenSequence((1, 2), 5))

    def test_token_sequence_validates(self):
        with pytest.raises(ValueError):
            TokenSequence((5,), 5)
        with pytest.raises(ValueError):
            TokenSequence((), 5)


class TestGradLossCaption:
    def test_confident_correct_gradient_vanishes(self):
        target = TokenSequence((1,), 3)
        logits = np.array([[0.0, 40.0, 0.0]])
        assert np.abs(grad_loss_caption(logits, target)).max() < 1e-9

    def test_uniform_logits_analytic(self):
        grad = grad_loss_caption(np.zeros((1, 4)), TokenSequence((2,), 4))
        np.testing.assert_allclose(grad, [[0.25, 0.25, -0.75, 0.25]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("shape", [(2, 5), (3, 4), (3,)])
    def test_rejects_the_shapes_the_loss_rejects(self, shape):
        target = TokenSequence((1, 2, 3), 5)
        with pytest.raises(LengthMismatch) as from_loss:
            loss_caption(np.zeros(shape), target)
        with pytest.raises(LengthMismatch) as from_grad:
            grad_loss_caption(np.zeros(shape), target)
        assert str(from_grad.value) == str(from_loss.value)

    def test_matches_finite_differences(self, rng):
        target = TokenSequence(tuple(rng.integers(0, 12, size=6)), 12)
        logits = rng.normal(0.0, 2.0, size=(6, 12))
        numeric = central_difference(lambda q: loss_caption(q, target), logits)
        assert np.abs(grad_loss_caption(logits, target) - numeric).max() < 1e-6


class TestTotalLoss:
    def test_published_weighting(self):
        assert total_loss(0.5, 1.0, 2.0) == 1.9

    def test_zeros(self):
        assert total_loss(0.0, 0.0, 0.0) == 0.0

    def test_single_component(self):
        assert total_loss(3.0, 5.0, 7.0, LossWeights(0.0, 0.0, 1.0)) == 7.0

    @given(
        a=st.floats(-5, 5), b=st.floats(-5, 5), c=st.floats(-5, 5),
        d=st.floats(-5, 5), e=st.floats(-5, 5), f=st.floats(-5, 5),
    )
    def test_linear_in_each_component(self, a, b, c, d, e, f):
        w = LossWeights(0.7, 1.3, 0.2)
        lhs = total_loss(a + d, b + e, c + f, w)
        rhs = total_loss(a, b, c, w) + total_loss(d, e, f, w)
        assert abs(lhs - rhs) < 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            total_loss(float("nan"), 0.0, 0.0)


class TestFitGazeDemo:
    def test_records_every_visited_point(self, rng):
        gt = random_map(rng, 6, 6)
        steps = fit_gaze_demo(gt, 10, 0.5)
        assert len(steps) == 11
        assert [s.step for s in steps] == list(range(11))

    def test_deterministic(self, rng):
        gt = random_map(rng, 6, 6)
        a = fit_gaze_demo(gt, 20, 0.5)
        b = fit_gaze_demo(gt, 20, 0.5)
        assert a == b

    def test_monotone_at_small_learning_rate(self, rng):
        for _ in range(3):
            gt = random_map(rng, 8, 8)
            losses = [s.loss for s in fit_gaze_demo(gt, 60, 0.1)]
            diffs = np.diff(losses)
            assert diffs.max() <= 1e-9

    def test_hinge_on_uniform_target_starts_at_the_floor(self):
        gt = normalize_to_simplex(np.ones((8, 8)))
        steps = fit_gaze_demo(gt, 3, 1.0, use_hinge=True)
        assert abs(steps[0].loss - 0.015) < 1e-12

    def test_delta_target_converges(self):
        v = np.zeros((16, 16))
        v[8, 8] = 1.0
        steps = fit_gaze_demo(GazeMap(v), 500, 1.0)
        assert steps[-1].loss < 0.05
        # Entropy of the prediction falls as mass concentrates.
        assert steps[-1].entropy < steps[0].entropy

    @pytest.mark.parametrize("use_hinge", [False, True])
    @pytest.mark.parametrize("target", ["delta", "uniform", "random"])
    def test_matches_the_two_branch_fit_bit_for_bit(self, target, use_hinge):
        if target == "delta":
            v = np.zeros((7, 7))
            v[3, 3] = 1.0
            gt = GazeMap(v)
        elif target == "uniform":
            gt = normalize_to_simplex(np.ones((7, 7)))
        else:
            gt = random_map(np.random.default_rng(5), 7, 7)
        for rate in (-5.0, 0.03, 0.5, 1.0, 3.0):
            expected = fit_gaze_demo_two_branch(gt, 25, rate, use_hinge)
            assert fit_gaze_demo(gt, 25, rate, use_hinge) == expected, rate

    @pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan])
    def test_refuses_a_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match="learning rate must be finite"):
            fit_gaze_demo(normalize_to_simplex(np.ones((2, 2))), 1, rate)

    def test_rate_near_the_float_maximum_warns_nothing(self):
        v = np.zeros((2, 2))
        v[1, 1] = 1.0
        # Warnings are errors in this suite; the shift inside the softmax
        # overflows to -inf here, whose exp is exactly 0.
        steps = fit_gaze_demo(GazeMap(v), 3, -1.7976931348623157e308)
        assert len(steps) == 4
