"""Agreement metrics between predicted gaze maps, ground truth, and fixations.

The suite follows the usual saliency-benchmark conventions:

* CC is the Pearson correlation over cells, standardized with the
  population (not sample) standard deviation,
* KL is the forward divergence of the prediction from the ground truth,
  with the prediction floored at 1e-8 and renormalized before taking logs,
* SIM is histogram intersection (sum of per-cell minima),
* NSS standardizes the prediction and averages it at fixated cells,
* AUC-Judd and AUC-Borji sweep thresholds over the predicted values at
  fixated cells with a ">= threshold" decision rule, so a constant
  prediction scores exactly 0.5.

The ROC sweep is the single-pass curve of Fawcett 2006 ("An introduction
to ROC analysis", Alg. 1): each value set is sorted once, and one
``searchsorted`` gives its count at or above every threshold. A curve
costs O((P + N) log(P + N)) for P fixated and N negative cells, not
O(T * (P + N)) for T thresholds, and its rates are exactly those of
the threshold-by-threshold definition ``(values >= t).mean()``: the
counts are the same integers, divided by the same size. AUC-Borji builds
the thresholds and the true-positive curve once and sorts only each
split's sampled negatives. The predictions must hold no NaN, which has
no place in a ">=" ranking.

Maps are scored exactly as given: nothing here blurs, recenters, or
rescales its inputs first. NSS and the AUCs only use the ranking or
affine position of raw values, so they accept bare value grids as well
as normalized maps.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AllFixated,
    GazeKitError,
    InsufficientNegatives,
    NoFixations,
    ShapeMismatch,
    ZeroVariance,
)
from .grids import fixation_mask, grid_values

__all__ = [
    "DEFAULT_KL_FLOOR",
    "cc",
    "kl_div",
    "sim",
    "nss",
    "auc_judd",
    "auc_borji",
    "score_maps",
]

#: Lower clamp applied to predictions inside the KL computation.
DEFAULT_KL_FLOOR = 1e-8

_STD_FLOOR = 1e-12


def _paired_values(a, b) -> tuple[np.ndarray, np.ndarray]:
    va, vb = grid_values(a), grid_values(b)
    if va.shape != vb.shape:
        raise ShapeMismatch(f"grid shapes differ: {va.shape} vs {vb.shape}")
    return va, vb


def cc(pred, gt) -> float:
    """Pearson correlation coefficient between two maps, taken over cells.

    Raises ZeroVariance when either map's population standard deviation
    falls below 1e-12.
    """
    p, g = _paired_values(pred, gt)
    dp = p - p.mean()
    dg = g - g.mean()
    sp = np.sqrt((dp * dp).mean())
    sg = np.sqrt((dg * dg).mean())
    if sp < _STD_FLOOR or sg < _STD_FLOOR:
        raise ZeroVariance("correlation needs non-constant maps")
    return float((dp * dg).mean() / (sp * sg))


def kl_div(gt, pred) -> float:
    """Forward KL divergence of ``pred`` from ``gt`` in nats.

    The prediction is clamped below at ``DEFAULT_KL_FLOOR`` and
    renormalized, which keeps the result finite when the prediction has
    empty cells. Cells where the ground truth is zero contribute nothing.
    This is the one canonical divergence shared by evaluation, training
    losses, and dataset curation.
    """
    g, p = _paired_values(gt, pred)
    return _kl_from_sides(_kl_gt_side(g), _kl_pred_side(p))


# kl_div in three parts, so a caller that scores one map against many
# can prepare each map's side once, and the prediction side and the pair
# step take a stack of maps. The pair step reduces the same gathered 1-D
# array, or C-ordered row of a stack, as a single call, so every result
# is bit-identical: log(q) gathered at the positive cells equals log(q)
# there element for element, and the sum's pairwise tree depends only on
# that row.
#
# Ownership: these helpers, like the softmax and blur cores in ``grids``,
# write only into arrays they allocate, never into an argument. A side is
# scored many times: curate scores a frame's prediction side on the curve
# and again against every anchor 3 to 18 frames before it, and
# ``loss_gaze`` blurs its prediction after taking its KL.


def _kl_gt_side(g: np.ndarray) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    # The flat indices of the ground truth's positive cells, and its values
    # and logs there. When every cell is positive the indices are None and
    # the values are the flat grid itself: the pair step then skips a gather.
    flat = g.ravel()
    positive = flat > 0.0
    if np.count_nonzero(positive) == flat.size:
        return None, flat, np.log(flat)
    cells = np.flatnonzero(positive)
    gs = flat.take(cells)
    return cells, gs, np.log(gs)


def _kl_pred_side(p: np.ndarray) -> np.ndarray:
    # Flat log of the prediction, clamped at the floor and renormalized, per
    # map over the last two axes: (h, w) gives (h * w,), (k, h, w) gives (k, h * w).
    clamped = np.maximum(p, DEFAULT_KL_FLOOR).reshape(*p.shape[:-2], -1)
    clamped /= clamped.sum(axis=-1, keepdims=True)
    return np.log(clamped, out=clamped)


def _kl_from_sides(gt_side, log_q: np.ndarray):
    # A float for one flat prediction, (k,) divergences for a (k, cells)
    # stack. A take along the last axis gathers C-ordered rows (a boolean
    # mask on axis 1 returns an F-ordered array, whose row sums differ).
    cells, gs, log_gs = gt_side
    if cells is not None:
        log_q = log_q.take(cells, axis=-1)
    # One buffer for the terms; gs * d and d * gs are the same product.
    terms = log_gs - log_q
    terms *= gs
    totals = terms.sum(axis=-1)
    if totals.ndim:
        return np.maximum(0.0, totals)
    return max(0.0, float(totals))


def sim(pred, gt) -> float:
    """Histogram intersection: the summed per-cell minimum of two maps."""
    p, g = _paired_values(pred, gt)
    return float(np.minimum(p, g).sum())


def nss(pred, fix) -> float:
    """Normalized scanpath saliency: standardized prediction at fixations.

    The prediction is shifted to zero mean and unit population standard
    deviation, then averaged over fixated cells.
    """
    p = grid_values(pred)
    mask = fixation_mask(fix)
    if p.shape != mask.shape:
        raise ShapeMismatch(f"grid shapes differ: {p.shape} vs {mask.shape}")
    if not mask.any():
        raise NoFixations("NSS needs at least one fixated cell")
    d = p - p.mean()
    std = np.sqrt((d * d).mean())
    if std < _STD_FLOOR:
        raise ZeroVariance("NSS needs a non-constant prediction")
    return float((d[mask] / std).mean())


def _trapezoid(xs: np.ndarray, ys: np.ndarray) -> float:
    return float(((xs[1:] - xs[:-1]) * (ys[1:] + ys[:-1]) * 0.5).sum())


def _thresholds(pos: np.ndarray) -> np.ndarray:
    # The distinct positive values, swept descending.
    return np.unique(pos)[::-1]


def _rate_curve(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    # Share of ``values`` >= each threshold, closed with 0 and 1 before
    # integration. The count n - searchsorted(..., "left") is exact.
    n = values.size
    if n:
        rates = (n - np.searchsorted(np.sort(values), thresholds, side="left")) / n
    else:
        rates = np.zeros(thresholds.size)
    return np.concatenate(([0.0], rates, [1.0]))


def _roc_points(pos: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    thresholds = _thresholds(pos)
    return _rate_curve(neg, thresholds), _rate_curve(pos, thresholds)


def _split_by_fixation(pred, fix) -> tuple[np.ndarray, np.ndarray]:
    p = grid_values(pred)
    mask = fixation_mask(fix)
    if p.shape != mask.shape:
        raise ShapeMismatch(f"grid shapes differ: {p.shape} vs {mask.shape}")
    if not mask.any():
        raise NoFixations("AUC needs at least one fixated cell")
    if mask.all():
        raise AllFixated("AUC needs at least one non-fixated cell")
    if np.isnan(p).any():
        raise ValueError("AUC needs a prediction without NaN values")
    return p[mask], p[~mask]


def auc_judd(pred, fix) -> float:
    """ROC area using every non-fixated cell as a negative.

    Thresholds sweep the predicted values at fixated cells, descending
    and deduplicated; a cell counts as "selected" when its value is >=
    the threshold. Only the ordering of values matters, so the score is
    invariant under strictly monotone transforms of the prediction.
    """
    pos, neg = _split_by_fixation(pred, fix)
    fpr, tpr = _roc_points(pos, neg)
    return _trapezoid(fpr, tpr)


def auc_borji(pred, fix, n_splits: int = 100, seed: int = 0) -> float:
    """ROC area against repeatedly sampled random negative cells.

    Each of ``n_splits`` trials draws as many negatives as there are
    fixations, uniformly without replacement from the non-fixated cells
    of a seeded generator, and the per-trial areas are averaged. The
    thresholds and the true-positive curve are shared by every trial.
    Fixed inputs and seed give a bit-identical result.
    """
    if n_splits < 1:
        raise ValueError("n_splits must be positive")
    pos, neg = _split_by_fixation(pred, fix)
    if neg.size < pos.size:
        raise InsufficientNegatives(
            f"need at least {pos.size} non-fixated cells, have {neg.size}"
        )
    thresholds = _thresholds(pos)
    tpr = _rate_curve(pos, thresholds)
    rng = np.random.default_rng(seed)
    areas = []
    for _ in range(n_splits):
        sample = rng.choice(neg, size=pos.size, replace=False)
        areas.append(_trapezoid(_rate_curve(sample, thresholds), tpr))
    return float(np.mean(areas))


def score_maps(pred, gt, fix=None, n_splits: int = 100, seed: int = 0) -> dict[str, float | str]:
    """Score one frame: the metric cells of its metrics-table row.

    Keys are the metric columns of the metrics table, and the metrics run
    in the order cc, kl, sim, auc_j, auc_b, nss. A metric that raises a
    GazeKitError gets the exception's class name as its cell; with no
    fixation map the three fixation metrics are "skipped".
    """
    calls = [
        ("cc", lambda: cc(pred, gt)),
        ("kl", lambda: kl_div(gt, pred)),
        ("sim", lambda: sim(pred, gt)),
    ]
    cells: dict[str, float | str] = {}
    if fix is None:
        cells["auc_j"] = cells["auc_b"] = cells["nss"] = "skipped"
    else:
        calls += [
            ("auc_j", lambda: auc_judd(pred, fix)),
            ("auc_b", lambda: auc_borji(pred, fix, n_splits=n_splits, seed=seed)),
            ("nss", lambda: nss(pred, fix)),
        ]
    for column, call in calls:
        try:
            cells[column] = float(call())
        except GazeKitError as exc:
            cells[column] = type(exc).__name__
    return cells
