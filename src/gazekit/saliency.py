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
counts are the same integers, divided by the same size. One curve builds
the thresholds and the true-positive curve once and sorts only each set
of negatives: AUC-Judd is its one-set case, every non-fixated cell, and
AUC-Borji passes one sampled set per split. The predictions must hold no
NaN, which has no place in a ">=" ranking.

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
    ZeroVariance,
)
from .grids import _check_shapes, _fixation_mask, _grid_values

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
    va, vb = _grid_values(a), _grid_values(b)
    _check_shapes(va.shape, vb.shape)
    return va, vb


def _centered(v: np.ndarray) -> tuple[np.ndarray, float]:
    # The deviations from the mean and their population standard deviation.
    d = v - v.mean()
    return d, np.sqrt((d * d).mean())


def cc(pred, gt) -> float:
    """Pearson correlation coefficient between two maps, taken over cells.

    Raises ZeroVariance when either map's population standard deviation
    falls below 1e-12.
    """
    p, g = _paired_values(pred, gt)
    dp, sp = _centered(p)
    dg, sg = _centered(g)
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
# that row. ``_kl_sides`` prepares both sides of one map, as curate
# does for each frame it reads.
#
# Ownership: these helpers, like the softmax and blur cores in ``grids``,
# write only into arrays they allocate, never into an argument or a side.
# A side is scored many times: curate scores a frame's prediction side on
# the curve and again against every anchor 3 to 18 frames before it. So one
# log array can serve as both sides of a map. The one exception is
# ``_kl_spent``, which takes a prediction its caller gives up and runs every
# step inside it, so a stack's KL allocates no stack-sized array: the gaze
# loss spends its blurred copy and a stack's softmax on it.


def _kl_gt_side(g: np.ndarray) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    # The flat indices of the ground truth's positive cells, and its values
    # and logs there. When every cell is positive the indices are None and
    # the values are the flat grid itself: the pair step then skips a gather.
    flat = g.ravel()
    if flat.min() > 0.0:
        return None, flat, np.log(flat)
    cells = np.flatnonzero(flat > 0.0)
    gs = flat.take(cells)
    return cells, gs, np.log(gs)


def _kl_pred_side(p: np.ndarray) -> np.ndarray:
    # Flat log of the prediction, clamped at the floor and renormalized, per
    # map over the last two axes: (h, w) gives (h * w,), (k, h, w) gives (k, h * w).
    flat = p.reshape(*p.shape[:-2], -1)
    return _clamped_log(flat, np.empty_like(flat))


def _clamped_log(flat: np.ndarray, out: np.ndarray) -> np.ndarray:
    # The prediction side's steps on flat maps, into ``out``, which may be
    # ``flat`` itself: clamp at the floor, renormalize each row, take the log.
    np.maximum(flat, DEFAULT_KL_FLOOR, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return np.log(out, out=out)


def _kl_grad_wrt_pred(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    # Gradient of KL(g, clamp-renormalize(p)) with respect to one map p: cells
    # below the floor are flattened by the clamp; renormalizing adds 1/Z.
    clamped = np.maximum(p, DEFAULT_KL_FLOOR)
    return np.where(p >= DEFAULT_KL_FLOOR, 1.0 / clamped.sum() - g / clamped, 0.0)


def _kl_sides(g: np.ndarray) -> tuple[tuple, np.ndarray]:
    # (_kl_gt_side(g), _kl_pred_side(g)) bit for bit, for curate's frames.
    # When no cell is below the floor the clamp is the identity, so the
    # prediction side is log(flat / sum); when that sum is exactly 1.0 the
    # division is too, and the prediction side is the ground truth's logs.
    # A NaN minimum takes the general path, as it does in the two sides.
    flat = g.ravel()
    if not flat.min() >= DEFAULT_KL_FLOOR:
        return _kl_gt_side(g), _kl_pred_side(g)
    log_g = np.log(flat)
    total = flat.sum()
    if total == 1.0:
        return (None, flat, log_g), log_g
    q = flat / total
    return (None, flat, log_g), np.log(q, out=q)


def _kl_from_sides(gt_side, log_q: np.ndarray):
    # A float for one flat prediction, (k,) divergences for a (k, cells)
    # stack. A take along the last axis gathers C-ordered rows (a boolean
    # mask on axis 1 returns an F-ordered array, whose row sums differ).
    cells, gs, log_gs = gt_side
    if cells is not None:
        log_q = log_q.take(cells, axis=-1)
    return _kl_totals(gs, log_gs - log_q)


def _kl_spent(gt_side, p: np.ndarray):
    # _kl_from_sides(gt_side, _kl_pred_side(p)) bit for bit, for a C-ordered
    # prediction or stack that its caller no longer reads: the clamp, the
    # renormalization, the log and the terms run in p's own buffer, or in the
    # gathered cells when the target has zero cells. p's values are lost.
    cells, gs, log_gs = gt_side
    flat = p.reshape(*p.shape[:-2], -1)
    log_q = _clamped_log(flat, flat)
    if cells is not None:
        log_q = log_q.take(cells, axis=-1)
    return _kl_totals(gs, np.subtract(log_gs, log_q, out=log_q))


def _kl_totals(gs: np.ndarray, terms: np.ndarray):
    # The pair step's sums, from the terms' buffer holding log_gs - log_q.
    # One buffer for the terms; gs * d and d * gs are the same product.
    terms *= gs
    totals = terms.sum(axis=-1)
    if totals.ndim:
        return np.maximum(0.0, totals)
    return max(0.0, float(totals))


def _kl_bounds(gt_side, log_qs) -> tuple[np.ndarray, np.ndarray]:
    # An estimate e and a margin m per flat prediction in log_qs, such that
    # the unclamped sum of _kl_from_sides(gt_side, log_q) lies in [e - m, e + m]
    # for any summation order, BLAS kernel or FMA. Each estimate is one dot
    # product over the same gathered cells, a third of the pair step's passes.
    #
    # Derivation (Higham 2002, "Accuracy and Stability of Numerical
    # Algorithms", 2nd ed., §3.1 and §4.2). Let n = gs.size, u = 2**-53 and
    # g_k = k*u / (1 - k*u). Let L and Q be the stored log_gs and the gathered
    # log_q, and S = sum gs*(L - Q) the real sum both paths approximate.
    # Here gs > 0, and Q <= 0 because q = clamp / sum <= 1; so with
    # A = sum gs*|L| and B = sum gs*|Q| = -sum gs*Q, sum gs*|L - Q| <= A + B.
    # - The pair step rounds each term twice (subtract, multiply) and adds
    #   the n terms in some order: it is within g_{n+1}*(A + B) of S.
    # - A dot product x.y, in any order and with or without FMA, is within
    #   g_n*(|x|.|y|) of its real value. So a = dot(gs, |L|) and
    #   d = dot(gs, Q) give A <= a / (1 - g_n) and B <= |d| / (1 - g_n), and
    #   e = h - d, with h = dot(gs, L), is within g_n*(A + B) + u*|h - d|
    #   of S.
    # To first order in u the two results differ by at most
    # (2n + 2)*u*(a + |d|). m = 4*(n + 2)*u*(a + |d|) is more than twice
    # that, so it also covers the second-order terms and the rounding of m
    # and of e +- m whenever (n + 2)*u <= 1/100, which holds for every grid
    # up to 10**13 cells. A GazeMap may sum to 1 + SIMPLEX_TOL, so a cell of
    # gs may exceed 1 and its log be positive: a is therefore its own dot
    # product, not |h|, which it equals on a true simplex.
    cells, gs, log_gs = gt_side
    h = gs.dot(log_gs)
    a = gs.dot(np.abs(log_gs))
    if cells is not None:
        log_qs = [log_q.take(cells) for log_q in log_qs]
    d = np.array([gs.dot(log_q) for log_q in log_qs])
    return h - d, (4 * (gs.size + 2) * 2.0**-53) * (a + np.abs(d))


def sim(pred, gt) -> float:
    """Histogram intersection: the summed per-cell minimum of two maps."""
    p, g = _paired_values(pred, gt)
    return float(np.minimum(p, g).sum())


def nss(pred, fix) -> float:
    """Normalized scanpath saliency: standardized prediction at fixations.

    The prediction is shifted to zero mean and unit population standard
    deviation, then averaged over fixated cells.
    """
    p, mask = _fixated_values(pred, fix, "NSS")
    d, std = _centered(p)
    if std < _STD_FLOOR:
        raise ZeroVariance("NSS needs a non-constant prediction")
    return float((d[mask] / std).mean())


def _trapezoid(xs: np.ndarray, ys: np.ndarray) -> float:
    return float(((xs[1:] - xs[:-1]) * (ys[1:] + ys[:-1]) * 0.5).sum())


def _rate_curve(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    # Share of ``values`` (never empty) >= each threshold, closed with 0 and 1
    # before integration. The count n - searchsorted(..., "left") is exact.
    n = values.size
    rates = (n - np.searchsorted(np.sort(values), thresholds, side="left")) / n
    return np.concatenate(([0.0], rates, [1.0]))


def _roc_area(pos: np.ndarray, negative_sets) -> list[float]:
    # One ROC area per negative set, against one shared threshold sweep (the
    # distinct positive values, descending) and one true-positive curve.
    thresholds = np.unique(pos)[::-1]
    tpr = _rate_curve(pos, thresholds)
    return [_trapezoid(_rate_curve(neg, thresholds), tpr) for neg in negative_sets]


def _fixated_values(pred, fix, metric: str) -> tuple[np.ndarray, np.ndarray]:
    # The prediction and its fixation mask, one shape and >= 1 fixated cell.
    p, mask = _grid_values(pred), _fixation_mask(fix)
    _check_shapes(p.shape, mask.shape)
    if not mask.any():
        raise NoFixations(f"{metric} needs at least one fixated cell")
    return p, mask


def _split_by_fixation(pred, fix) -> tuple[np.ndarray, np.ndarray]:
    p, mask = _fixated_values(pred, fix, "AUC")
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
    return _roc_area(pos, [neg])[0]


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
    rng = np.random.default_rng(seed)
    samples = (rng.choice(neg, size=pos.size, replace=False) for _ in range(n_splits))
    return float(np.mean(_roc_area(pos, samples)))


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
