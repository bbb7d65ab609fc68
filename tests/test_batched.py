"""The leading stack axis: stacked losses, the batched central difference, refusals.

Every loss ``grad-check`` differentiates takes one point or a stack of
them, and ``central_difference`` scores all 2n perturbed copies of a
point in one stacked call. The oracles in ``conftest`` are the loop and
the scalar losses as they were before; each stacked row must equal them
bit for bit. Draws reach past 128 cells, where numpy's pairwise sums
split, take non-square grids, and give ground truths zero cells, the
gathered KL path that grad-check's all-positive targets never take.
The cores under the losses do their elementwise steps in the arrays
they allocate; they must leave every argument byte for byte as it was
and keep a stack's traced allocation peak within a fixed budget.
"""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (
    align_path_loss_reference,
    blur_matrix_reference,
    central_difference_reference,
    info_nce_reference,
    kl_div_reference,
    loss_caption_reference,
    loss_gaze_reference,
)
from hypothesis import given, strategies as st

from gazekit import (
    GazeLossConfig,
    ProjectionHead,
    TokenSequence,
    align_path_loss,
    align_path_weight_grad,
    central_difference,
    grad_info_nce,
    grad_loss_caption,
    grad_loss_gaze,
    info_nce,
    loss_caption,
    loss_gaze,
    normalize_to_simplex,
)
from gazekit import gradcheck
from gazekit.curation import GazeSequence, _kl_table
from gazekit.grids import _blur_maps, _blur_matrix, _softmax_maps
from gazekit.saliency import _kl_from_sides, _kl_gt_side, _kl_pred_side

SEEDS = st.integers(0, 2**32 - 1)


def refusal(call):
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


def assert_same_refusal(stacked, alone):
    assert refusal(stacked) == refusal(alone)


class TestBlurMatrix:
    @pytest.mark.parametrize("sigma", [0.3, 0.6, 1.0, 1.37, 2.5, 7.0, 33.3, 150.0])
    def test_one_scatter_matches_one_scatter_per_tap(self, sigma):
        # Taps wider than the grid wrap the reflection several periods; each
        # cell must still add its taps in the same order.
        for n in range(1, 41):
            assert np.array_equal(_blur_matrix.__wrapped__(n, sigma), blur_matrix_reference(n, sigma))


#: The loss each trial's function calls, and how a one-point stack of its
#: arguments reaches the scalar oracle.
STACK_OF_ONE_ORACLES = {
    "loss_gaze": lambda gt, z, cfg: SimpleNamespace(total=[loss_gaze_reference(gt, z[0], cfg).total]),
    "loss_caption": lambda z, target: [loss_caption_reference(z[0], target)],
    "info_nce": lambda v, t, tau: [info_nce_reference(v[0], t[0], tau)],
    "align_path_loss": lambda f, w, head, t, tau: [align_path_loss_reference(f, w[0], head, t, tau)],
}


class TestCentralDifference:
    @pytest.mark.parametrize("kind", sorted(gradcheck._TRIALS))
    @pytest.mark.parametrize("seed", [0, 3, 27, 39])
    def test_matches_the_loop_over_scalar_losses(self, kind, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            loss, point, _ = gradcheck._TRIALS[kind](rng)
            batched = central_difference(loss, point)
            with monkeypatch.context() as patch:
                for name, oracle in STACK_OF_ONE_ORACLES.items():
                    patch.setattr(gradcheck, name, oracle)
                looped = central_difference_reference(lambda p: loss(p[None])[0], point)
            assert batched.shape == point.shape
            assert np.array_equal(batched, looped)

    def test_calls_the_loss_once_on_every_perturbed_point(self):
        x = np.arange(6.0).reshape(2, 3)
        seen = []

        def loss(stack):
            seen.append(stack.copy())
            return stack.reshape(len(stack), -1) @ np.arange(1.0, 7.0)

        grad = central_difference(loss, x)
        assert len(seen) == 1 and seen[0].shape == (12, 2, 3)
        expected = np.tile(x.ravel(), (12, 1))
        for i in range(6):
            expected[i, i] = x.flat[i] + 1e-6
            expected[6 + i, i] = x.flat[i] - 1e-6
        assert np.array_equal(seen[0].reshape(12, 6), expected)
        np.testing.assert_allclose(grad, np.arange(1.0, 7.0).reshape(2, 3), rtol=1e-8)

    def test_refuses_a_loss_that_does_not_return_one_value_per_point(self):
        with pytest.raises(ValueError, match="stack of 4 points to 4 losses"):
            central_difference(lambda stack: float(stack.sum()), np.zeros(2))


@st.composite
def gaze_cases(draw):
    # Sides up to 16 reach 256 cells; a third of the targets have zero cells.
    h, w, k = draw(st.integers(1, 16)), draw(st.integers(1, 16)), draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(SEEDS))
    g = gen.uniform(0.05, 1.0, size=(h, w))
    if draw(st.booleans()) and h * w > 1:
        g[gen.random((h, w)) < draw(st.floats(0.1, 0.9))] = 0.0
        g.flat[gen.integers(h * w)] = 1.0
    cfg = GazeLossConfig(
        hinge_weight=draw(st.sampled_from([0.0, 0.3]) | st.floats(0.0, 1.0)),
        hinge_margin=draw(st.floats(0.0, 0.2)),
        blur_sigma=draw(st.floats(0.3, 2.5)),
    )
    z = gen.normal(0.0, draw(st.floats(0.1, 12.0)), size=(k, h, w))
    return normalize_to_simplex(g), z, cfg


class TestStackedLossesMatchTheScalarOracles:
    @given(case=gaze_cases())
    def test_loss_gaze(self, case):
        gt, z, cfg = case
        stacked = loss_gaze(gt, z, cfg)
        for i in range(len(z)):
            expected = loss_gaze_reference(gt, z[i], cfg)
            assert loss_gaze(gt, z[i], cfg) == expected
            parts = (expected.total, expected.kl, expected.hinge)
            assert (stacked.total[i], stacked.kl[i], stacked.hinge[i]) == parts
            one = loss_gaze(gt, z[i : i + 1], cfg)
            assert (one.total[0], one.kl[0], one.hinge[0]) == parts

    @given(steps=st.integers(1, 9), vocab=st.integers(1, 160), k=st.integers(1, 4), seed=SEEDS)
    def test_loss_caption(self, steps, vocab, k, seed):
        gen = np.random.default_rng(seed)
        target = TokenSequence(tuple(gen.integers(0, vocab, size=steps)), vocab)
        z = gen.normal(0.0, 3.0, size=(k, steps, vocab))
        stacked = loss_caption(z, target)
        for i in range(k):
            expected = loss_caption_reference(z[i], target)
            assert loss_caption(z[i], target) == expected
            assert stacked[i] == expected == loss_caption(z[i : i + 1], target)[0]

    @given(
        b=st.integers(1, 6),
        dim=st.integers(1, 150),
        k=st.integers(1, 4),
        tau=st.floats(0.05, 1.0),
        seed=SEEDS,
    )
    def test_info_nce(self, b, dim, k, tau, seed):
        gen = np.random.default_rng(seed)
        v = gen.normal(size=(k, b, dim))
        t = gen.normal(size=(k, b, dim))
        both = info_nce(v, t, tau)
        visual_only = info_nce(v, t[0], tau)
        text_only = info_nce(v[0], t, tau)
        for i in range(k):
            expected = info_nce_reference(v[i], t[i], tau)
            assert info_nce(v[i], t[i], tau) == expected
            assert both[i] == expected == info_nce(v[i : i + 1], t[i : i + 1], tau)[0]
            assert visual_only[i] == info_nce_reference(v[i], t[0], tau)
            assert text_only[i] == info_nce_reference(v[0], t[i], tau)

    @given(
        b=st.integers(1, 4),
        channels=st.integers(1, 3),
        h=st.integers(1, 14),
        w=st.integers(1, 14),
        out_dim=st.integers(1, 6),
        k=st.integers(1, 4),
        seed=SEEDS,
    )
    def test_align_path_loss(self, b, channels, h, w, out_dim, k, seed):
        gen = np.random.default_rng(seed)
        features = gen.normal(size=(b, channels, h, w))
        weights = gen.uniform(0.05, 1.0, size=(k, b, h, w))
        head = ProjectionHead.seeded(channels, out_dim, seed=int(gen.integers(2**31)))
        texts = gen.normal(size=(b, out_dim))
        stacked = align_path_loss(features, weights, head, texts, 0.3)
        for i in range(k):
            expected = align_path_loss_reference(features, weights[i], head, texts, 0.3)
            assert align_path_loss(features, weights[i], head, texts, 0.3) == expected
            assert stacked[i] == expected


class TestStackedGradients:
    """The gradients that share a stacked loss's prologue stack the same way."""

    def test_caption(self, rng):
        target = TokenSequence((0, 3, 3, 1), 5)
        z = rng.normal(size=(3, 4, 5))
        stacked = grad_loss_caption(z, target)
        assert all(np.array_equal(stacked[i], grad_loss_caption(z[i], target)) for i in range(3))

    def test_info_nce(self, rng):
        v, t = rng.normal(size=(3, 4, 6)), rng.normal(size=(3, 4, 6))
        gv, gt = grad_info_nce(v, t, 0.2)
        for i in range(3):
            one_v, one_t = grad_info_nce(v[i], t[i], 0.2)
            assert np.array_equal(gv[i], one_v) and np.array_equal(gt[i], one_t)

    def test_chained(self, rng):
        features = rng.normal(size=(2, 3, 4, 4))
        weights = rng.uniform(0.05, 1.0, size=(3, 2, 4, 4))
        head = ProjectionHead.seeded(3, 5, seed=1)
        texts = rng.normal(size=(2, 5))
        stacked = align_path_weight_grad(features, weights, head, texts, 0.3)
        for i in range(3):
            assert np.array_equal(stacked[i], align_path_weight_grad(features, weights[i], head, texts, 0.3))

    def test_gaze_takes_one_grid(self, rng):
        gt = normalize_to_simplex(rng.uniform(0.05, 1.0, size=(4, 4)))
        with pytest.raises(ValueError, match="expected a non-empty 2-D grid"):
            grad_loss_gaze(gt, rng.normal(size=(2, 4, 4)))


class TestTheStackKeepsEveryRefusal:
    """A bad row refuses the whole stack, as that row alone is refused."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits(self, rng, bad):
        gt = normalize_to_simplex(rng.uniform(0.05, 1.0, size=(4, 5)))
        z = rng.normal(size=(3, 4, 5))
        z[2, 1, 3] = bad
        assert_same_refusal(lambda: loss_gaze(gt, z), lambda: loss_gaze(gt, z[2]))
        target = TokenSequence((1, 0, 4, 2), 5)
        assert_same_refusal(lambda: loss_caption(z, target), lambda: loss_caption(z[2], target))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embeddings(self, rng, bad):
        v, t = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 4, 5))
        t[1, 0, 2] = bad
        assert_same_refusal(lambda: info_nce(v, t), lambda: info_nce(v[1], t[1]))
        features = rng.normal(size=(2, 3, 4, 4))
        weights = rng.uniform(0.05, 1.0, size=(3, 2, 4, 4))
        weights[1, 0, 2, 2] = bad
        head = ProjectionHead.seeded(3, 5, seed=1)
        texts = rng.normal(size=(2, 5))
        assert_same_refusal(
            lambda: align_path_loss(features, weights, head, texts),
            lambda: align_path_loss(features, weights[1], head, texts),
        )

    def test_degenerate_norm(self, rng):
        v, t = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 4, 5))
        v[2, 3] = 0.0
        assert_same_refusal(lambda: info_nce(v, t), lambda: info_nce(v[2], t[2]))
        assert_same_refusal(lambda: info_nce(t, v), lambda: info_nce(t[2], v[2]))
        features = rng.normal(size=(2, 3, 4, 4))
        weights = rng.uniform(0.05, 1.0, size=(3, 2, 4, 4))
        weights[0, 1] = 0.0
        head = ProjectionHead(np.ones((5, 3)), np.zeros(5))
        texts = rng.normal(size=(2, 5))
        assert_same_refusal(
            lambda: align_path_loss(features, weights, head, texts),
            lambda: align_path_loss(features, weights[0], head, texts),
        )

    def test_shape_mismatch(self, rng):
        gt = normalize_to_simplex(rng.uniform(0.05, 1.0, size=(4, 5)))
        z = rng.normal(size=(3, 5, 4))
        assert_same_refusal(lambda: loss_gaze(gt, z), lambda: loss_gaze(gt, z[0]))
        for steps, vocab in ((3, 5), (4, 6)):
            target = TokenSequence((1, 0, 4, 2), 5)
            rows = rng.normal(size=(2, steps, vocab))
            assert_same_refusal(lambda: loss_caption(rows, target), lambda: loss_caption(rows[0], target))
        v, t = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 4, 6))
        assert_same_refusal(lambda: info_nce(v, t), lambda: info_nce(v[0], t[0]))
        assert_same_refusal(lambda: info_nce(v, t[0]), lambda: info_nce(v[0], t[0]))
        features = rng.normal(size=(2, 3, 4, 4))
        head = ProjectionHead.seeded(3, 5, seed=1)
        texts = rng.normal(size=(2, 5))
        for weights in (rng.uniform(size=(3, 2, 4, 5)), rng.uniform(size=(3, 1, 4, 4))):
            assert_same_refusal(
                lambda: align_path_loss(features, weights, head, texts),
                lambda: align_path_loss(features, weights[0], head, texts),
            )
        head_8 = ProjectionHead.seeded(3, 8, seed=1)
        assert_same_refusal(
            lambda: align_path_loss(features, rng.uniform(size=(3, 2, 4, 4)), head_8, texts),
            lambda: align_path_loss(features, rng.uniform(size=(2, 4, 4)), head_8, texts),
        )

    def test_stacks_of_different_lengths(self, rng):
        with pytest.raises(Exception, match="stacks differ in length: 3 vs 2"):
            info_nce(rng.normal(size=(3, 4, 5)), rng.normal(size=(2, 4, 5)))

    def test_empty_stacks(self, rng):
        gt = normalize_to_simplex(np.ones((2, 2)))
        assert_same_refusal(lambda: loss_gaze(gt, np.zeros((0, 2, 2))), lambda: loss_gaze(gt, np.zeros((0, 2))))
        assert_same_refusal(lambda: info_nce(np.zeros((0, 2, 2)), np.ones((0, 2, 2))), lambda: info_nce(np.zeros((0, 2)), np.ones((0, 2))))


def snapshot(*arrays):
    return [(a.shape, a.dtype, a.tobytes()) for a in arrays]


class TestTheCoresLeaveTheirArgumentsAlone:
    """The stacked cores write only into arrays they allocate.

    Curate scores each frame's table entry against many anchors, and
    ``loss_gaze`` blurs its prediction after taking the prediction's KL,
    so a core that wrote into an argument would corrupt a later score.
    Inputs are writable and hold cells that every in-place step changes:
    logits away from their maximum, maps that do not sum to 1, a cell
    below the KL floor and a ground truth with zero cells.
    """

    @pytest.fixture(params=[(), (5,)], ids=["one map", "stack"])
    def lead(self, request):
        return request.param

    def test_softmax(self, rng, lead):
        z = rng.normal(0.0, 3.0, size=(*lead, 6, 7))
        before = snapshot(z)
        _softmax_maps(z)
        assert snapshot(z) == before

    def test_blur(self, rng, lead):
        v = rng.uniform(0.0, 2.0, size=(*lead, 6, 7))
        before = snapshot(v)
        _blur_maps(v, 1.3)
        assert snapshot(v) == before

    def test_prediction_side(self, rng, lead):
        p = rng.uniform(0.0, 2.0, size=(*lead, 6, 7))
        p[..., 2, 3] = 1e-12
        before = snapshot(p)
        _kl_pred_side(p)
        assert snapshot(p) == before

    @pytest.mark.parametrize("zero_cells", [False, True], ids=["all positive", "gathered cells"])
    def test_pair_step(self, rng, lead, zero_cells):
        g = rng.uniform(0.05, 1.0, size=(6, 7))
        if zero_cells:
            g[rng.random((6, 7)) < 0.4] = 0.0
        g /= g.sum()
        gt_side = _kl_gt_side(g)
        assert (gt_side[0] is None) != zero_cells
        log_q = _kl_pred_side(rng.uniform(0.05, 1.0, size=(*lead, 6, 7)))
        arrays = [g, log_q] + [a for a in gt_side if a is not None]
        before = snapshot(*arrays)
        _kl_from_sides(gt_side, log_q)
        assert snapshot(*arrays) == before

    def test_caption_loss(self, rng, lead):
        target = TokenSequence((2, 0, 4, 4), 6)
        rows = rng.normal(0.0, 3.0, size=(*lead, 4, 6))
        before = snapshot(rows)
        loss_caption(rows, target)
        assert snapshot(rows) == before

    def test_a_table_entry_scores_the_same_against_every_anchor(self, rng):
        frames = [rng.uniform(0.05, 1.0, size=(6, 7)) for _ in range(4)]
        frames[1][rng.random((6, 7)) < 0.4] = 0.0
        seq = GazeSequence("v", tuple(normalize_to_simplex(f) for f in frames))
        table = _kl_table(seq)
        target, anchors = 3, (0, 1, 2)
        first = [_kl_from_sides(table[a][0], table[target][1]) for a in anchors]
        again = [_kl_from_sides(table[a][0], table[target][1]) for a in reversed(anchors)]
        assert first == again[::-1]
        assert first == [kl_div_reference(seq.maps[a].values, seq.maps[target].values) for a in anchors]


def traced_peak(call) -> int:
    # Bytes above the traced level at the start, at the peak of one call.
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestAllocationBudget:
    """Traced peaks on grad-check's largest stack, without timing.

    A 12x12 gaze trial stacks 288 perturbed grids, 330 KB per float64
    stack: above the allocator's mmap threshold, so every stack-sized
    temporary is fresh pages. The cores allocate one stack each.
    """

    @pytest.fixture
    def stack(self, rng):
        return rng.normal(size=(288, 12, 12))

    def test_softmax(self, stack):
        assert traced_peak(lambda: _softmax_maps(stack)) <= 1.3 * stack.nbytes

    def test_prediction_side(self, stack):
        pred = _softmax_maps(stack)
        assert traced_peak(lambda: _kl_pred_side(pred)) <= 1.3 * stack.nbytes

    def test_gaze_loss_with_its_hinge(self, rng, stack):
        gt = normalize_to_simplex(rng.uniform(0.05, 1.0, size=(12, 12)))
        cfg = GazeLossConfig(hinge_weight=0.3)
        loss_gaze(gt, stack, cfg)  # builds the cached blur matrices
        assert traced_peak(lambda: loss_gaze(gt, stack, cfg)) <= 3.5 * stack.nbytes
