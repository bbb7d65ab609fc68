"""Saliency metrics against hand computations and enumeration oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import kl_div_reference, map_pairs, pgm_quantized, random_map
from gazekit import (
    FixationMap,
    GazeKitError,
    GazeMap,
    METRICS_HEADER,
    NoFixations,
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
from gazekit.saliency import _roc_points, _trapezoid

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
        areas.append(_trapezoid(*roc_points_oracle(pos, sample)))
    return float(np.mean(areas))


ROC_VALUE_KINDS = ("random", "small_ints", "rounded", "signed_zeros", "constant", "pgm")


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


class TestSortedROCSweep:
    """The sorted sweep against the per-threshold loop, bit for bit."""

    @pytest.mark.parametrize("kind", ROC_VALUE_KINDS)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_pos=st.integers(1, 40),
        n_neg=st.integers(0, 60),
    )
    @example(seed=0, n_pos=1, n_neg=30)  # a single positive
    @example(seed=1, n_pos=12, n_neg=0)  # no negatives
    def test_roc_points_match_the_loop(self, kind, seed, n_pos, n_neg):
        values = roc_values(kind, np.random.default_rng(seed), n_pos + n_neg)
        pos, neg = values[:n_pos], values[n_pos:]
        fpr, tpr = _roc_points(pos, neg)
        fpr_ref, tpr_ref = roc_points_oracle(pos, neg)
        assert np.array_equal(fpr, fpr_ref)
        assert np.array_equal(tpr, tpr_ref)

    @pytest.mark.parametrize("kind", ROC_VALUE_KINDS)
    @given(
        seed=st.integers(0, 2**32 - 1),
        side=st.integers(2, 9),
        n_splits=st.integers(1, 100),
        auc_seed=st.integers(0, 2**32 - 1),
    )
    @example(seed=2, side=6, n_splits=1, auc_seed=0)
    @example(seed=3, side=6, n_splits=100, auc_seed=7)
    def test_aucs_equal_the_oracle_area(self, kind, seed, side, n_splits, auc_seed):
        gen = np.random.default_rng(seed)
        pred = roc_values(kind, gen, side * side).reshape(side, side)
        mask = np.zeros(side * side, dtype=bool)
        n_pos = int(gen.integers(1, side * side // 2 + 1))
        mask[gen.choice(side * side, size=n_pos, replace=False)] = True
        mask = mask.reshape(side, side)
        pos, neg = pred[mask], pred[~mask]
        assert auc_judd(pred, mask) == _trapezoid(*roc_points_oracle(pos, neg))
        assert auc_borji(pred, mask, n_splits=n_splits, seed=auc_seed) == auc_borji_oracle(
            pos, neg, n_splits, auc_seed
        )

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

    def test_random_maps_match_enumeration(self, rng):
        # Same value up to summation order of the trapezoid areas.
        for _ in range(25):
            pred = rng.uniform(0.0, 1.0, size=(6, 6))
            mask = rng.uniform(size=(6, 6)) < 0.25
            if not mask.any() or mask.all():
                continue
            assert abs(auc_judd(pred, mask) - auc_oracle(pred, mask)) < 1e-12

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

    @example(side=4, data_seed=1, constant_pred=True, n_fix="all", n_splits=3, seed=0)
    @example(side=4, data_seed=2, constant_pred=False, n_fix=0, n_splits=3, seed=0)
    @example(side=4, data_seed=3, constant_pred=False, n_fix="most", n_splits=3, seed=0)
    @example(side=4, data_seed=4, constant_pred=True, n_fix=None, n_splits=3, seed=0)
    @given(
        side=st.integers(2, 7),
        data_seed=st.integers(0, 2**32 - 1),
        constant_pred=st.booleans(),
        n_fix=st.sampled_from([None, 0, 1, 2, 3, "half", "most", "all"]),
        n_splits=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_evaluate_loop(self, side, data_seed, constant_pred, n_fix, n_splits, seed):
        # Constant predictions and empty, crowded or full fixation maps
        # drive every metric into its GazeKitError cell label.
        gen = np.random.default_rng(data_seed)
        cells_n = side * side
        pred = (
            normalize_to_simplex(np.ones((side, side)))
            if constant_pred
            else random_map(gen, side, side)
        )
        gt = random_map(gen, side, side)
        fix = None
        if n_fix is not None:
            count = {"half": cells_n // 2, "most": cells_n - 1, "all": cells_n}.get(n_fix, n_fix)
            mask = np.zeros(cells_n, dtype=bool)
            mask[gen.choice(cells_n, size=min(count, cells_n), replace=False)] = True
            fix = FixationMap(mask.reshape(side, side))
        got = score_maps(pred, gt, fix, n_splits=n_splits, seed=seed)
        want = score_maps_oracle(pred, gt, fix, n_splits, seed)
        assert_same_cells(got, want)
