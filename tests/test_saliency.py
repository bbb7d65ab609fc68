"""Saliency metrics against hand computations and enumeration oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import kl_div_reference, map_pairs, pgm_quantized, random_map, traced_peak
from gazekit import (
    FixationMap,
    GazeKitError,
    GazeMap,
    InsufficientNegatives,
    METRICS_HEADER,
    NoFixations,
    ShapeMismatch,
    ZeroVariance,
    auc_borji,
    auc_judd,
    cc,
    kl_div,
    normalize_to_simplex,
    nss,
    score_maps,
    sim,
)
from gazekit.radar import _normalize_axis
from gazekit.saliency import (
    DEFAULT_KL_FLOOR,
    _kl_bounds,
    _kl_from_sides,
    _kl_grad_wrt_pred,
    _kl_gt_side,
    _kl_pred_side,
    _kl_sides,
    _judd,
    _roc_curve,
    _SPLIT_ROWS,
    _tied_above,
)

QUARTET = np.array([[0.4, 0.3], [0.2, 0.1]])


def kl_oracle(g: np.ndarray, p: np.ndarray, floor: float = 1e-8) -> float:
    clamped = np.maximum(p, floor)
    q = clamped / clamped.sum()
    total = 0.0
    for i in range(g.shape[0]):
        for j in range(g.shape[1]):
            if g[i, j] > 0.0:
                total += g[i, j] * (math.log(g[i, j]) - math.log(q[i, j]))
    return total


def auc_oracle(pred: np.ndarray, mask: np.ndarray) -> float:
    """Exhaustive threshold enumeration, integrated trapezoidally by hand."""
    pos = pred[mask]
    neg = pred[~mask]
    points = [(0.0, 0.0)]
    for t in sorted(set(pos.tolist()), reverse=True):
        tpr = float((pos >= t).mean())
        fpr = float((neg >= t).mean())
        points.append((fpr, tpr))
    points.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def trapezoid(xs: np.ndarray, ys: np.ndarray) -> float:
    """The 1-D trapezoid the AUCs once took per curve, kept verbatim."""
    return float(((xs[1:] - xs[:-1]) * (ys[1:] + ys[:-1]) * 0.5).sum())


def roc_points_oracle(pos: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-threshold ROC loop the sorted sweep replaced, kept verbatim."""
    thresholds = np.unique(pos)[::-1]
    tpr = [0.0]
    fpr = [0.0]
    for th in thresholds:
        tpr.append(float((pos >= th).mean()))
        fpr.append(float((neg >= th).mean()) if neg.size else 0.0)
    tpr.append(1.0)
    fpr.append(1.0)
    return np.asarray(fpr), np.asarray(tpr)


def auc_borji_oracle(pos: np.ndarray, neg: np.ndarray, n_splits: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    areas = []
    for _ in range(n_splits):
        sample = rng.choice(neg, size=pos.size, replace=False)
        areas.append(trapezoid(*roc_points_oracle(pos, sample)))
    return float(np.mean(areas))


ROC_VALUE_KINDS = (
    "random", "small_ints", "rounded", "signed_zeros", "constant", "pgm",
    "fix_above", "fix_below", "fix_at_top", "between",
)


def roc_values(kind: str, gen: np.random.Generator, n: int) -> np.ndarray:
    """Prediction values of one kind, from continuous to heavily tied."""
    if kind == "random":
        return gen.uniform(-1.0, 1.0, size=n)
    if kind == "small_ints":
        return gen.integers(0, 4, size=n).astype(np.float64)
    if kind == "rounded":
        return np.round(gen.uniform(0.0, 1.0, size=n), 2)
    if kind == "signed_zeros":
        return gen.choice(np.array([-0.0, 0.0, 0.25]), size=n)
    if kind == "constant":
        return np.full(n, 0.125)
    # 16-bit PGM samples as written by save_map, renormalized as by load_map.
    raw = gen.uniform(0.0, 1.0, size=n)
    samples = np.round(raw / raw.max() * 65535.0)
    return samples / samples.sum()


def roc_sets(kind: str, gen: np.random.Generator, n_pos: int, n_neg: int):
    """Fixated and non-fixated values of one kind.

    The kinds after "pgm" place the fixated values against the others:
    every fixated value above every other; at or below, one at the
    minimum; at or above, one at the maximum; or on both sides of constant
    negatives. Only "fix_at_top" has a threshold in (min, max] of the
    negatives, when they are not all equal: the negatives of the others are
    tied, so each set of them is counted without a sort or a draw.
    """
    if kind in ("fix_above", "fix_below", "fix_at_top"):
        neg = gen.integers(0, 4, size=n_neg).astype(np.float64)
        step = gen.integers(0, 3, size=n_pos).astype(np.float64)
        if kind == "fix_above":
            return neg.max() + 1.0 + step, neg
        step[0] = 0.0
        return (neg.min() - step, neg) if kind == "fix_below" else (neg.max() + step, neg)
    if kind == "between":
        pos = gen.choice(np.array([0.25, 0.5, 0.75]), size=n_pos)
        return pos, np.full(n_neg, 0.5)
    values = roc_values(kind, gen, n_pos + n_neg)
    return values[:n_pos], values[n_pos:]


def roc_frame(kind: str, gen: np.random.Generator, side: int, n_pos: int):
    """A side x side prediction of one kind and its mask of n_pos fixated cells."""
    mask = np.zeros(side * side, dtype=bool)
    mask[gen.choice(side * side, size=n_pos, replace=False)] = True
    pred = np.empty(side * side)
    pred[mask], pred[~mask] = roc_sets(kind, gen, n_pos, side * side - n_pos)
    return pred.reshape(side, side), mask.reshape(side, side)


def assert_aucs_equal_the_oracle(pred, mask, n_splits: int, seed: int):
    # auc_judd, auc_borji and score_maps' two AUC cells, bit for bit.
    pos, neg = pred[mask], pred[~mask]
    judd = trapezoid(*roc_points_oracle(pos, neg))
    borji = auc_borji_oracle(pos, neg, n_splits, seed)
    assert auc_judd(pred, mask) == judd
    assert auc_borji(pred, mask, n_splits=n_splits, seed=seed) == borji
    cells = score_maps(pred, np.ones(pred.shape), mask, n_splits=n_splits, seed=seed)
    assert (cells["auc_j"].hex(), cells["auc_b"].hex()) == (judd.hex(), borji.hex())


class TestSortedROCSweep:
    """The sorted sweep against the per-threshold loop, bit for bit."""

    @pytest.mark.parametrize("kind", ROC_VALUE_KINDS)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_pos=st.integers(1, 40),
        n_negs=st.lists(st.integers(1, 60), min_size=1, max_size=4),
    )
    @example(seed=0, n_pos=1, n_negs=[30])  # a single positive
    @example(seed=1, n_pos=12, n_negs=[1, 60, 7])  # sets of several sizes
    def test_roc_points_match_the_loop(self, kind, seed, n_pos, n_negs):
        # The shared curve scores each negative set against one threshold
        # sweep and one true-positive curve: every area is the loop's, with
        # the set's tie mask and with the sort that the mask replaces.
        pos, rest = roc_sets(kind, np.random.default_rng(seed), n_pos, sum(n_negs))
        negs = np.split(rest, np.cumsum(n_negs)[:-1])
        curve = _roc_curve(pos)
        want = [trapezoid(*roc_points_oracle(pos, neg)) for neg in negs]
        assert [_judd(neg, *curve, _tied_above(neg, curve[0])) for neg in negs] == want
        assert [_judd(neg, *curve, None) for neg in negs] == want

    @pytest.mark.parametrize("kind", ROC_VALUE_KINDS)
    @given(
        seed=st.integers(0, 2**32 - 1),
        side=st.integers(2, 9),
        n_splits=st.integers(1, 100),
        auc_seed=st.integers(0, 2**32 - 1),
    )
    @example(seed=2, side=6, n_splits=1, auc_seed=0)
    @example(seed=3, side=6, n_splits=100, auc_seed=7)
    @example(seed=4, side=9, n_splits=2 * _SPLIT_ROWS + 1, auc_seed=5)  # two full blocks and one row
    def test_aucs_equal_the_oracle_area(self, kind, seed, side, n_splits, auc_seed):
        gen = np.random.default_rng(seed)
        pred, mask = roc_frame(kind, gen, side, int(gen.integers(1, side * side // 2 + 1)))
        assert_aucs_equal_the_oracle(pred, mask, n_splits, auc_seed)

    @pytest.mark.parametrize("kind", ["constant", "signed_zeros", "fix_above", "fix_below", "between"])
    @pytest.mark.parametrize("n_splits", [1, 100, 2 * _SPLIT_ROWS + 1])
    def test_tied_negatives_equal_the_oracle_area(self, kind, n_splits):
        # Negatives that no threshold separates are counted from their tie
        # mask. -0.0 and 0.0 are one tie; "between" gives counts of 0 and of
        # every negative, and at seed 3 an AUC-Borji area whose mean over 100
        # equal splits is not the area itself.
        pred, mask = roc_frame(kind, np.random.default_rng(3), 9, 20)
        if kind == "signed_zeros":
            pred[~mask] = np.where(pred[~mask] == 0.25, -0.0, pred[~mask])
        assert _tied_above(pred[~mask], _roc_curve(pred[mask])[0]) is not None
        assert_aucs_equal_the_oracle(pred, mask, n_splits, 7)

    def test_tied_negatives_draw_nothing(self, monkeypatch):
        # The generator is built, so its seed is checked, but never drawn from.
        class NoDraws:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def choice(self, *args, **kwargs):
                raise AssertionError("a split was drawn")

        real_rng = np.random.default_rng
        frames = [roc_frame(kind, real_rng(3), 9, 20) for kind in ("constant", "fix_below", "between")]
        want = [auc_borji(pred, mask, seed=5) for pred, mask in frames]
        monkeypatch.setattr(np.random, "default_rng", NoDraws)
        assert [auc_borji(pred, mask, seed=5) for pred, mask in frames] == want
        assert [score_maps(pred, pred, mask, seed=5)["auc_b"] for pred, mask in frames] == want
        with pytest.raises(AssertionError, match="drawn"):
            auc_borji(*roc_frame("fix_at_top", real_rng(3), 9, 20), seed=5)

    def test_tied_negatives_check_the_seed_and_the_sample_size(self):
        constant = np.full((4, 4), 0.125)
        mask = np.zeros((4, 4), dtype=bool)
        mask[0] = True
        with pytest.raises(ValueError, match="non-negative"):
            auc_borji(constant, mask, seed=-1)
        with pytest.raises(ValueError, match="non-negative"):
            score_maps(constant, constant, mask, seed=-1)
        with pytest.raises(TypeError):
            auc_borji(constant, mask, seed=0.5)
        mask[1:3] = True
        with pytest.raises(InsufficientNegatives):
            auc_borji(constant, mask)
        assert score_maps(constant, constant, mask)["auc_b"] == "InsufficientNegatives"

    def test_nan_prediction_is_rejected(self):
        # NaN sorts last but fails every ">=", so the loop and the sorted
        # sweep would disagree on it; neither AUC accepts it.
        pred = np.array([[0.2, np.nan, 0.5, 0.1, np.nan]])
        mask = np.array([[True, True, True, False, False]])
        with pytest.raises(ValueError, match="NaN"):
            auc_judd(pred, mask)
        with pytest.raises(ValueError, match="NaN"):
            auc_borji(pred, mask, n_splits=3)


class TestCC:
    def test_self_correlation(self, rng):
        for _ in range(5):
            m = random_map(rng, 7, 9)
            assert abs(cc(m, m) - 1.0) < 1e-9

    def test_exact_anticorrelation(self):
        # gt = 0.5 - pred cell-for-cell.
        pred = GazeMap(QUARTET)
        gt = GazeMap(0.5 - QUARTET)
        assert abs(cc(pred, gt) + 1.0) < 1e-12

    def test_uniform_raises(self):
        uniform = normalize_to_simplex(np.ones((4, 4)))
        with pytest.raises(ZeroVariance):
            cc(uniform, GazeMap(np.eye(4) / 4.0))

    @given(pair=map_pairs())
    def test_symmetry(self, pair):
        p, q = pair
        assert abs(cc(p, q) - cc(q, p)) < 1e-12


@st.composite
def kl_grids(draw):
    """Ground truth and prediction up to 100x170: empty ground-truth cells,
    prediction cells below the KL floor, and PGM-quantized pairs."""
    h = draw(st.integers(1, 100))
    w = draw(st.integers(1, 170))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = gen.uniform(size=(h, w)) ** 3
    g[gen.uniform(size=(h, w)) < draw(st.sampled_from([0.0, 0.2, 0.9]))] = 0.0
    g.flat[gen.integers(g.size)] = 1.0
    p = gen.uniform(size=(h, w)) ** 3
    tiny = gen.uniform(size=(h, w)) < draw(st.sampled_from([0.0, 0.3]))
    p[tiny] = gen.choice([0.0, 1e-12, 5e-9], size=int(tiny.sum()))
    p.flat[gen.integers(p.size)] = 1.0
    if draw(st.booleans()):
        return pgm_quantized(g), pgm_quantized(p)
    return g / g.sum(), p / p.sum()


class TestKL:
    def test_identity_is_zero(self, rng):
        m = random_map(rng, 6, 6, low=0.2)
        assert abs(kl_div(m, m)) < 1e-9

    def test_delta_versus_uniform(self):
        v = np.zeros((64, 64))
        v[10, 20] = 1.0
        uniform = normalize_to_simplex(np.ones((64, 64)))
        assert abs(kl_div(GazeMap(v), uniform) - math.log(4096.0)) < 1e-6

    def test_matches_summation_oracle(self, rng):
        for _ in range(10):
            g = random_map(rng, 8, 8)
            p = random_map(rng, 8, 8)
            assert abs(kl_div(g, p) - kl_oracle(g.values, p.values)) < 1e-12

    def test_floor_clamps_zero_predictions(self):
        g = GazeMap(np.array([[0.5, 0.5], [0.0, 0.0]]))
        p = GazeMap(np.array([[1.0, 0.0], [0.0, 0.0]]))
        # Finite because the zero prediction cell is floored.
        assert math.isfinite(kl_div(g, p))
        assert kl_div(g, p) > 1.0

    @given(pair=map_pairs())
    def test_nonnegative(self, pair):
        g, p = pair
        assert kl_div(g, p) >= 0.0

    @settings(max_examples=150)
    @given(pair=kl_grids())
    def test_equals_the_single_body_bit_for_bit(self, pair):
        g, p = pair
        assert kl_div(g, p) == kl_div_reference(g, p)

    def test_gradient_matches_central_differences_near_the_floor(self):
        def central(g, p, cell, step):
            up, down = p.copy(), p.copy()
            up[cell] += step
            down[cell] -= step
            return (kl_div(g, up) - kl_div(g, down)) / (2 * step)

        # Cells at 1.5 and 0.5 times the floor: the clamp passes the first
        # and flattens the second, whose gradient is zero.
        g = np.array([[0.4, 0.3], [0.3, 0.0]])
        p = np.array([[0.6, 1.5 * DEFAULT_KL_FLOOR], [0.4, 0.5 * DEFAULT_KL_FLOOR]])
        grad = _kl_grad_wrt_pred(g, p)
        for cell in np.ndindex(p.shape):
            assert central(g, p, cell, 1e-10) == pytest.approx(grad[cell], rel=1e-3, abs=1e-3)
        assert grad[1, 1] == 0.0
        # A delta on 10^4 cells: the floored cells' mass adds 1e-4 to Z.
        delta = np.zeros((100, 100))
        delta[0, 0] = 1.0
        grad = _kl_grad_wrt_pred(delta, delta)
        assert central(delta, delta, (0, 0), 1e-6) == pytest.approx(grad[0, 0], rel=1e-4)


KL_SIDES_REGIMES = ("sums to 1", "sums off 1", "below the floor", "zero cells")


def kl_sides_regime(g: np.ndarray) -> str:
    """Which of ``_kl_sides``'s paths a ground truth takes."""
    if g.min() <= 0.0:
        return "zero cells"
    if g.min() < DEFAULT_KL_FLOOR:
        return "below the floor"
    return "sums to 1" if g.sum() == 1.0 else "sums off 1"


def kl_sides_frames(regime: str, count: int = 12, shape=None) -> list[np.ndarray]:
    """PGM-quantized maps up to 40x40, or of ``shape``, that take one regime's
    path, from a seeded stream of all-positive maps, maps with empty cells
    and maps with one cell below the KL floor."""
    gen = np.random.default_rng(KL_SIDES_REGIMES.index(regime))
    found = []
    while len(found) < count:
        h, w = shape or (int(x) for x in gen.integers(1, 41, size=2))
        v = gen.uniform(size=(h, w)) ** 3 + 1e-3
        kind = gen.integers(3)
        if kind == 1:
            v[gen.uniform(size=(h, w)) < 0.3] = 0.0
            v.flat[gen.integers(v.size)] = 1.0
        g = pgm_quantized(v)
        if kind == 2:
            g.flat[gen.integers(g.size)] = 5e-9
        if kl_sides_regime(g) == regime:
            found.append(g)
    return found


def assert_same_sides(got, g):
    """``got`` equals (_kl_gt_side(g), _kl_pred_side(g)) bit for bit."""
    (cells, gs, log_gs), log_q = got
    (ref_cells, ref_gs, ref_log_gs), ref_log_q = _kl_gt_side(g), _kl_pred_side(g)
    assert (cells is None) == (ref_cells is None)
    if cells is not None:
        assert cells.tobytes() == ref_cells.tobytes()
    for a, b in ((gs, ref_gs), (log_gs, ref_log_gs), (log_q, ref_log_q)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestKLSides:
    """Both KL sides of one map at once, as curate prepares each frame."""

    @pytest.mark.parametrize("regime", KL_SIDES_REGIMES)
    def test_each_path_gives_the_two_sides(self, regime):
        for g in kl_sides_frames(regime):
            before = g.tobytes()
            sides = _kl_sides(g)
            assert_same_sides(sides, g)
            assert g.tobytes() == before
            (cells, _, log_gs), log_q = sides
            # The shared log is the one the walk saves; it must not vanish.
            assert (log_q is log_gs) == (regime == "sums to 1")
            assert (cells is None) == (regime != "zero cells")

    @settings(max_examples=150)
    @given(pair=kl_grids())
    def test_equals_the_separate_sides(self, pair):
        for g in pair:
            assert_same_sides(_kl_sides(g), g)


def assert_bounded(gt_side, log_qs):
    """Each exact pair step lies within the margin of its estimate, and so
    between the clamped ends max(0, e - m) and max(0, e + m) the walk uses."""
    estimate, margin = _kl_bounds(gt_side, log_qs)
    assert estimate.shape == margin.shape == (len(log_qs),)
    for log_q, e, m in zip(log_qs, estimate, margin):
        exact = _kl_from_sides(gt_side, log_q)
        assert max(0.0, e - m) <= exact <= max(0.0, e + m)
        if exact > 0.0:
            assert e - m <= exact <= e + m


class TestKLBounds:
    """The dot-product bound the curate walk prunes its targets with."""

    def test_every_regime_against_every_other(self):
        # Ground truths with and without zero cells (the gather), predictions
        # summing to exactly 1 and not, with cells below the floor; all
        # PGM-quantized, each map also scored against itself.
        frames = [g for regime in KL_SIDES_REGIMES for g in kl_sides_frames(regime, 4, (24, 31))]
        log_qs = [_kl_sides(p)[1] for p in frames]
        for g in frames:
            assert_bounded(_kl_gt_side(g), log_qs)

    @settings(max_examples=150)
    @given(pair=kl_grids())
    @example(pair=(np.array([[0.5 + 2**-40, 0.5 - 2**-40]]), np.array([[0.5, 0.5]])))
    def test_contains_the_exact_divergence(self, pair):
        g, p = pair
        log_qs = [_kl_pred_side(p), _kl_pred_side(g)]
        assert_bounded(_kl_gt_side(g), log_qs)
        assert_bounded(_kl_gt_side(p), log_qs)

    def test_a_cell_above_one(self):
        # A GazeMap may sum to 1 + 1e-9, so one cell's log can be positive
        # and cancel the others' in h: the margin must not shrink with it.
        g = np.full((64, 64), 1e-10 / 4095)
        g[0, 0] = 1.0 + 5e-10
        g = GazeMap(g).values
        p = g.copy()
        p[0, 0], p[0, 1] = 1.0 - 1e-9, p[0, 1] + 1e-9 + 5e-10
        assert_bounded(_kl_gt_side(g), [_kl_pred_side(p), _kl_pred_side(g)])


class TestSIM:
    def test_self_is_one(self, rng):
        m = random_map(rng, 5, 5)
        assert abs(sim(m, m) - 1.0) < 1e-12

    def test_half_overlap(self):
        pred = GazeMap(np.array([[1.0, 0.0], [0.0, 0.0]]))
        gt = GazeMap(np.array([[0.5, 0.5], [0.0, 0.0]]))
        assert abs(sim(pred, gt) - 0.5) < 1e-12

    def test_disjoint_supports(self):
        pred = GazeMap(np.array([[1.0, 0.0], [0.0, 0.0]]))
        gt = GazeMap(np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert sim(pred, gt) == 0.0

    @given(pair=map_pairs())
    def test_symmetric_and_bounded(self, pair):
        p, q = pair
        s = sim(p, q)
        assert abs(s - sim(q, p)) < 1e-12
        assert s <= 1.0 + 1e-12

    @given(pair=map_pairs())
    def test_equality_only_at_identical_maps(self, pair):
        p, q = pair
        if np.abs(p.values - q.values).max() > 1e-7:
            assert sim(p, q) < 1.0 - 1e-12


class TestNSS:
    def test_hand_fixture(self):
        # mean 0.25, population variance 0.0125; one fixation at the 0.4
        # cell: (0.4 - 0.25) / sqrt(0.0125).
        fix = FixationMap(np.array([[True, False], [False, False]]))
        expected = 0.15 / math.sqrt(0.0125)
        assert abs(nss(GazeMap(QUARTET), fix) - expected) < 1e-9
        assert abs(expected - 1.3416407865) < 1e-9

    def test_all_cells_fixated_gives_zero(self, rng):
        m = random_map(rng, 4, 6)
        fix = FixationMap(np.ones((4, 6), dtype=bool))
        assert abs(nss(m, fix)) < 1e-12

    def test_uniform_raises(self):
        uniform = normalize_to_simplex(np.ones((3, 3)))
        with pytest.raises(ZeroVariance):
            nss(uniform, FixationMap(np.eye(3, dtype=bool)))

    def test_empty_fixations_raise(self, rng):
        with pytest.raises(NoFixations):
            nss(random_map(rng, 3, 3), FixationMap(np.zeros((3, 3), dtype=bool)))

    @given(
        seed=st.integers(0, 2**32 - 1),
        a=st.floats(0.1, 10.0),
        b=st.floats(-5.0, 5.0),
    )
    def test_positive_affine_invariance(self, seed, a, b):
        gen = np.random.default_rng(seed)
        raw = gen.uniform(0.0, 1.0, size=(5, 5))
        mask = np.zeros((5, 5), dtype=bool)
        mask[gen.integers(0, 5), gen.integers(0, 5)] = True
        fix = FixationMap(mask)
        # Raw value grids on purpose: standardization absorbs the affine map.
        assert abs(nss(raw, fix) - nss(a * raw + b, fix)) < 1e-7


class TestAUCJudd:
    def test_perfect_ranking(self, rng):
        values = rng.permutation(np.arange(1.0, 26.0)).reshape(5, 5)
        pred = normalize_to_simplex(values)
        mask = values >= np.partition(values.ravel(), -3)[-3]
        assert auc_judd(pred, FixationMap(mask)) == 1.0

    def test_constant_prediction_scores_half(self):
        uniform = normalize_to_simplex(np.ones((4, 4)))
        fix = FixationMap(np.eye(4, dtype=bool))
        assert abs(auc_judd(uniform, fix) - 0.5) < 1e-12

    def test_three_by_three_enumeration(self):
        pred = np.array([[0.9, 0.1, 0.4], [0.2, 0.8, 0.3], [0.5, 0.6, 0.7]])
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = mask[1, 2] = True  # values 0.9 (best) and 0.3 (rank 7)
        assert auc_judd(pred, mask) == auc_oracle(pred, mask)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_monotone_transform_invariance(self, seed):
        gen = np.random.default_rng(seed)
        pred = gen.uniform(0.1, 1.0, size=(5, 5))
        mask = gen.uniform(size=(5, 5)) < 0.3
        if not mask.any() or mask.all():
            return
        base = auc_judd(pred, mask)
        assert abs(auc_judd(pred**2, mask) - base) < 1e-12
        assert abs(auc_judd(pred + 3.7, mask) - base) < 1e-12


class TestAUCBorji:
    def test_perfect_ranking_every_seed(self, rng):
        values = rng.permutation(np.arange(1.0, 37.0)).reshape(6, 6)
        pred = normalize_to_simplex(values)
        mask = values >= np.partition(values.ravel(), -4)[-4]
        for seed in range(5):
            assert auc_borji(pred, FixationMap(mask), n_splits=20, seed=seed) == 1.0

    def test_deterministic_to_the_last_bit(self, rng):
        pred = random_map(rng, 8, 8)
        mask = np.random.default_rng(3).uniform(size=(8, 8)) < 0.2
        mask[0, 0] = True
        a = auc_borji(pred, mask, n_splits=50, seed=11)
        b = auc_borji(pred, mask, n_splits=50, seed=11)
        assert a == b

    def test_converges_to_full_negative_set_auc(self, rng):
        pred = random_map(rng, 10, 10)
        mask = np.random.default_rng(5).uniform(size=(10, 10)) < 0.15
        mask[2, 2] = True
        full = auc_judd(pred, mask)
        d_small = abs(auc_borji(pred, mask, n_splits=5, seed=0) - full)
        d_large = abs(auc_borji(pred, mask, n_splits=500, seed=0) - full)
        assert d_large <= d_small + 0.02
        assert d_large < 0.02


class TestRadarNormalize:
    """The min-max normalization of one metric across models, private to the radar."""

    def test_plain(self):
        assert _normalize_axis([1.0, 3.0, 5.0], False) == [0.0, 0.5, 1.0]

    def test_inverted(self):
        assert _normalize_axis([1.0, 3.0, 5.0], True) == [1.0, 0.5, 0.0]

    def test_degenerate(self):
        assert _normalize_axis([2.0, 2.0, 2.0], False) is None

    def test_span_that_overflows(self):
        assert _normalize_axis([1e308, 0.0, -1e308], False) == [1.0, 0.5, 0.0]
        assert _normalize_axis([1e308, -1e308], True) == [0.0, 1.0]


def score_maps_oracle(pred, gt, fix, n_splits, seed) -> dict:
    """The per-frame metric loop evaluate once ran inline."""
    cells: dict = {}
    metric_calls = [
        ("cc", lambda: cc(pred, gt)),
        ("kl", lambda: kl_div(gt, pred)),
        ("sim", lambda: sim(pred, gt)),
    ]
    if fix is not None:
        metric_calls += [
            ("auc_j", lambda: auc_judd(pred, fix)),
            ("auc_b", lambda: auc_borji(pred, fix, n_splits=n_splits, seed=seed)),
            ("nss", lambda: nss(pred, fix)),
        ]
    else:
        cells["auc_j"] = cells["auc_b"] = cells["nss"] = "skipped"
    for metric, call in metric_calls:
        try:
            cells[metric] = float(call())
        except GazeKitError as exc:
            cells[metric] = type(exc).__name__
    return cells


def assert_same_cells(got: dict, want: dict):
    assert list(got) == list(want)
    for column, value in want.items():
        assert type(got[column]) is type(value)
        if isinstance(value, float):
            assert got[column].hex() == value.hex()
        else:
            assert got[column] == value


class TestScoreMaps:
    def test_assembles_component_metrics(self, rng):
        pred = random_map(rng, 8, 8)
        gt = random_map(rng, 8, 8)
        mask = np.zeros((8, 8), dtype=bool)
        mask[1, 1] = mask[5, 6] = True
        fix = FixationMap(mask)
        cells = score_maps(pred, gt, fix, n_splits=20, seed=4)
        assert tuple(cells) == METRICS_HEADER[1:]
        assert cells["cc"] == cc(pred, gt)
        assert cells["kl"] == kl_div(gt, pred)
        assert cells["sim"] == sim(pred, gt)
        assert cells["auc_j"] == auc_judd(pred, fix)
        assert cells["auc_b"] == auc_borji(pred, fix, n_splits=20, seed=4)
        assert cells["nss"] == nss(pred, fix)

    def test_without_fixations_three_cells_are_skipped(self, rng):
        pred = random_map(rng, 5, 5)
        gt = random_map(rng, 5, 5)
        cells = score_maps(pred, gt)
        assert set(cells) == set(METRICS_HEADER[1:])
        assert [cells[c] for c in ("auc_j", "auc_b", "nss")] == ["skipped"] * 3

    def test_errors_become_their_class_names(self, rng):
        flat = normalize_to_simplex(np.ones((4, 4)))
        gt = random_map(rng, 4, 4)
        full = FixationMap(np.ones((4, 4), dtype=bool))
        cells = score_maps(flat, gt, full, n_splits=3)
        assert (cells["cc"], cells["auc_j"], cells["auc_b"], cells["nss"]) == (
            "ZeroVariance", "AllFixated", "AllFixated", "ZeroVariance"
        )
        empty = FixationMap(np.zeros((4, 4), dtype=bool))
        cells = score_maps(random_map(rng, 4, 4), gt, empty)
        assert [cells[c] for c in ("auc_j", "auc_b", "nss")] == ["NoFixations"] * 3
        most = np.ones(16, dtype=bool)
        most[0] = False
        cells = score_maps(random_map(rng, 4, 4), gt, FixationMap(most.reshape(4, 4)))
        assert cells["auc_b"] == "InsufficientNegatives"

    @example(shape=(4, 4), data_seed=1, pred_kind="constant", bare=False, n_fix="all", mismatch=None, n_splits=3, seed=0)
    @example(shape=(4, 4), data_seed=2, pred_kind="random", bare=False, n_fix=0, mismatch=None, n_splits=3, seed=0)
    @example(shape=(4, 4), data_seed=3, pred_kind="random", bare=False, n_fix="most", mismatch=None, n_splits=3, seed=0)
    @example(shape=(4, 4), data_seed=4, pred_kind="constant", bare=False, n_fix=None, mismatch=None, n_splits=3, seed=0)
    @example(shape=(3, 5), data_seed=8, pred_kind="random", bare=True, n_fix="half", mismatch="gt", n_splits=4, seed=0)
    @example(shape=(3, 5), data_seed=9, pred_kind="pgm", bare=False, n_fix=2, mismatch="fix", n_splits=4, seed=0)
    # The benchmark's frames: 90x160, a PGM-quantized or constant prediction,
    # 20 to 400 fixated cells and the default 100 splits.
    @example(shape=(90, 160), data_seed=5, pred_kind="pgm", bare=False, n_fix=20, mismatch=None, n_splits=100, seed=0)
    @example(shape=(90, 160), data_seed=6, pred_kind="pgm", bare=False, n_fix=400, mismatch=None, n_splits=100, seed=0)
    @example(shape=(90, 160), data_seed=7, pred_kind="constant", bare=False, n_fix=400, mismatch=None, n_splits=100, seed=0)
    @given(
        shape=st.tuples(st.integers(2, 7), st.integers(2, 7)),
        data_seed=st.integers(0, 2**32 - 1),
        pred_kind=st.sampled_from(["random", "pgm", "constant"]),
        bare=st.booleans(),
        n_fix=st.sampled_from([None, 0, 1, 2, 3, "half", "most", "all"]),
        mismatch=st.sampled_from([None, None, "gt", "fix"]),
        n_splits=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_evaluate_loop(
        self, shape, data_seed, pred_kind, bare, n_fix, mismatch, n_splits, seed
    ):
        # Constant predictions, empty, crowded or full fixation maps, and a
        # ground truth or fixation map of another shape drive every metric
        # into its GazeKitError cell label. A bare prediction takes the NaN
        # check that a GazeMap skips.
        gen = np.random.default_rng(data_seed)
        h, w = shape
        other = (h, w + 1)
        if pred_kind == "constant":
            pred = normalize_to_simplex(np.ones(shape))
        elif pred_kind == "pgm":
            pred = GazeMap(pgm_quantized(gen.uniform(size=shape) ** 3))
        else:
            pred = random_map(gen, h, w)
        if bare:
            pred = pred.values
        gt = random_map(gen, *(other if mismatch == "gt" else shape))
        fix = None
        if n_fix is not None:
            fh, fw = other if mismatch == "fix" else shape
            count = {"half": fh * fw // 2, "most": fh * fw - 1, "all": fh * fw}.get(n_fix, n_fix)
            mask = np.zeros(fh * fw, dtype=bool)
            mask[gen.choice(fh * fw, size=min(count, fh * fw), replace=False)] = True
            fix = FixationMap(mask.reshape(fh, fw))
        got = score_maps(pred, gt, fix, n_splits=n_splits, seed=seed)
        want = score_maps_oracle(pred, gt, fix, n_splits, seed)
        assert_same_cells(got, want)
        if mismatch == "gt":
            assert [got[c] for c in ("cc", "kl", "sim")] == ["ShapeMismatch"] * 3
        if mismatch == "fix" and fix is not None:
            assert [got[c] for c in ("auc_j", "auc_b", "nss")] == ["ShapeMismatch"] * 3

    @pytest.mark.parametrize(
        "nan, fixated, n_splits, raised",
        [
            (True, "some", 5, "AUC needs a prediction without NaN values"),
            (True, "some", 0, "AUC needs a prediction without NaN values"),
            (False, "some", 0, "n_splits must be positive"),
            (True, "none", 0, "n_splits must be positive"),
            (True, "all", 5, None),
        ],
    )
    def test_raises_what_the_evaluate_loop_raises(self, rng, nan, fixated, n_splits, raised):
        # A bare prediction holding NaN has no ">=" ranking: once the AUCs'
        # fixation checks pass, the first AUC raises ValueError, ahead of
        # AUC-Borji's refusal of fewer than one split. With every cell or no
        # cell fixated the AUCs get their labels, and NaN scores pass through.
        pred = rng.uniform(size=(5, 6))
        if nan:
            pred[2, 3] = np.nan
        gt = random_map(rng, 5, 6)
        mask = np.full((5, 6), fixated == "all")
        if fixated == "some":
            mask[0, :4] = True
        if raised is None:
            want = score_maps_oracle(pred, gt, mask, n_splits, 1)
            assert_same_cells(score_maps(pred, gt, mask, n_splits=n_splits, seed=1), want)
            return
        with pytest.raises(ValueError) as want:
            score_maps_oracle(pred, gt, mask, n_splits, 1)
        with pytest.raises(ValueError) as got:
            score_maps(pred, gt, mask, n_splits=n_splits, seed=1)
        assert str(got.value) == str(want.value) == raised

    def test_camera_frame_peaks_at_three_float_frames(self):
        # At 540x960 with 800 fixations: at most three frame-sized float64
        # arrays live at once, plus one 64 KiB AUC-Borji count block.
        h, w = 540, 960
        gen = np.random.default_rng(0)
        pred = normalize_to_simplex(gen.uniform(size=(h, w)) ** 3)
        gt = normalize_to_simplex(gen.uniform(size=(h, w)))
        mask = np.zeros(h * w, dtype=bool)
        mask[gen.choice(mask.size, 800, replace=False)] = True
        fix = FixationMap(mask.reshape(h, w))
        assert traced_peak(lambda: score_maps(pred, gt, fix)) <= 3 * 8 * h * w + 65536


class TestPairedInputChecks:
    """The two-map metrics refuse two grids that do not pair cell for cell."""

    @pytest.mark.parametrize("other", [(3, 4), (4, 3)])
    @pytest.mark.parametrize("metric", [cc, kl_div, sim])
    def test_shape_mismatch(self, metric, other):
        with pytest.raises(ShapeMismatch) as info:
            metric(np.full((3, 3), 1 / 9), np.full(other, 1 / 12))
        assert str(info.value) == f"grid shapes differ: (3, 3) vs {other}"


class TestFixationInputChecks:
    """NSS and both AUCs share one check of their inputs: the shapes first,
    then at least one fixated cell, each metric naming itself."""

    METRICS = [("NSS", nss), ("AUC", auc_judd), ("AUC", auc_borji)]

    @pytest.mark.parametrize("name, metric", METRICS)
    def test_no_fixations(self, name, metric):
        with pytest.raises(NoFixations) as info:
            metric(np.arange(9.0).reshape(3, 3), np.zeros((3, 3)))
        assert str(info.value) == f"{name} needs at least one fixated cell"

    @pytest.mark.parametrize("name, metric", METRICS)
    def test_shape_mismatch_comes_first(self, name, metric):
        with pytest.raises(ShapeMismatch) as info:
            metric(np.arange(9.0).reshape(3, 3), FixationMap(np.zeros((3, 4), dtype=bool)))
        assert str(info.value) == "grid shapes differ: (3, 3) vs (3, 4)"
