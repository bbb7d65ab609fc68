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
of negatives: AUC-Judd is its one-set case, every non-fixated cell.
AUC-Borji sorts each split's sampled set and writes its counts into one
row of a block of bounded size; one pass per block closes every row's
curve and takes every trapezoid, so its memory does not grow with the
number of splits. When no threshold t has min < t <= max over the
negatives, as for a constant prediction, every negative lies below exactly
the thresholds above their maximum: both AUCs take those same counts, so
the same bits, with no sort and no draws. A bare prediction must hold no
NaN, which has no place in a ">=" ranking; a GazeMap's cells are finite by
construction.

``score_maps`` scores a frame in one pass over these pieces: it centers
the prediction once for CC and NSS, and splits the cells by fixation and
builds the curve once for both AUCs. Each cell is bit for bit what the
public function for its metric returns.

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
from .grids import GazeMap, _check_shapes, _fixation_mask, _grid_values

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

# AUC-Borji counts its splits in blocks of at most _BLOCK_CELLS counts: 64 KiB,
# so a block's arrays stay below glibc's default 128 KiB mmap threshold and
# reuse freed heap memory instead of faulting in fresh pages on every call.
# The row cap lets a test cross blocks with a few hundred splits.
_BLOCK_CELLS = 1 << 13
_SPLIT_ROWS = 128


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
    return _cc(_centered(p), g)


def _cc(centered, g: np.ndarray) -> float:
    # cc from the prediction's _centered and the ground truth's values.
    dp, sp = centered
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
    return _nss(_centered(p), mask)


def _nss(centered, mask: np.ndarray) -> float:
    # nss from the prediction's _centered and a checked fixation mask.
    d, std = centered
    if std < _STD_FLOOR:
        raise ZeroVariance("NSS needs a non-constant prediction")
    return float((d[mask] / std).mean())


def _fixated_values(pred, fix, metric: str) -> tuple[np.ndarray, np.ndarray]:
    # The prediction and its fixation mask, checked as _check_fixations does.
    p, mask = _grid_values(pred), _fixation_mask(fix)
    _check_fixations(p, mask, metric)
    return p, mask


def _check_fixations(p: np.ndarray, mask: np.ndarray, metric: str) -> None:
    # One shape and at least one fixated cell.
    _check_shapes(p.shape, mask.shape)
    if not mask.any():
        raise NoFixations(f"{metric} needs at least one fixated cell")


def _check_splits(n_splits: int) -> None:
    if n_splits < 1:
        raise ValueError("n_splits must be positive")


def _roc_sweep(pred, p: np.ndarray, mask: np.ndarray):
    # What both AUCs share, from a checked mask: the negatives, the count of
    # positives (AUC-Borji's sample size), the curve every trapezoid reuses
    # and the negatives' tie mask. A GazeMap's cells are finite by
    # construction; a bare grid is checked.
    if mask.all():
        raise AllFixated("AUC needs at least one non-fixated cell")
    if not isinstance(pred, GazeMap) and np.isnan(p).any():
        raise ValueError("AUC needs a prediction without NaN values")
    pos, neg = p[mask], p[~mask]
    thresholds, tpr_sums = _roc_curve(pos)
    return neg, pos.size, thresholds, tpr_sums, _tied_above(neg, thresholds)


def _tied_above(neg: np.ndarray, thresholds: np.ndarray) -> np.ndarray | None:
    # When no threshold t has lo < t <= hi over the negatives, every negative
    # lies below exactly the thresholds above hi, so any k of them count
    # k * (thresholds > hi) below the thresholds: that mask, or None when some
    # threshold separates the negatives.
    lo, hi = neg.min(), neg.max()
    if ((thresholds > lo) & (thresholds <= hi)).any():
        return None
    return thresholds > hi


def _roc_curve(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The thresholds, the distinct positive values descending, and the
    # adjacent sums of the closed true-positive curve over them.
    thresholds = np.unique(pos)[::-1]
    tpr = _closed_rates(np.searchsorted(np.sort(pos), thresholds, side="left")[None], pos.size)[0]
    return thresholds, tpr[1:] + tpr[:-1]


def _closed_rates(below: np.ndarray, n: int) -> np.ndarray:
    # Per row of counts below each threshold (of a set of n values, from
    # searchsorted "left"), the share at or above it, closed with 0 and 1.
    # The counts are exact integers, so each rate is exactly that of
    # ``(values >= t).mean()``. ``below`` is the caller's scratch: the
    # counts at or above are written over it.
    rates = np.empty((below.shape[0], below.shape[1] + 2))
    rates[:, 0] = 0.0
    rates[:, -1] = 1.0
    np.subtract(n, below, out=below)
    np.divide(below, n, out=rates[:, 1:-1])
    return rates


def _roc_areas(below: np.ndarray, n: int, tpr_sums: np.ndarray) -> np.ndarray:
    # The trapezoid area under each row's ROC curve, all rows in one pass.
    # Each row's terms are a C-ordered row, so its sum is that of the row alone.
    fpr = _closed_rates(below, n)
    terms = fpr[:, 1:] - fpr[:, :-1]
    terms *= tpr_sums
    terms *= 0.5
    return terms.sum(axis=1)


def _judd(neg: np.ndarray, thresholds: np.ndarray, tpr_sums: np.ndarray, tied: np.ndarray | None) -> float:
    # The one-set curve: every non-fixated cell is a negative. Tied negatives
    # are counted from their tie mask, without a sort.
    if tied is None:
        below = np.searchsorted(np.sort(neg), thresholds, side="left")
    else:
        below = tied * neg.size
    return float(_roc_areas(below[None], neg.size, tpr_sums)[0])


def _borji(neg, n_pos: int, thresholds, tpr_sums, tied, n_splits: int, seed: int) -> float:
    # Each split's sample is drawn, sorted in place and counted into one row
    # of the block; each block's areas are taken in one pass, so no array
    # holds n_splits x thresholds values. The mean is over every split's area.
    # Tied negatives give every split the same counts, so nothing is drawn and
    # the mean is that of n_splits equal areas (it may differ from the area in
    # its last bit). The generator is still built, so a bad seed raises.
    if neg.size < n_pos:
        raise InsufficientNegatives(f"need at least {n_pos} non-fixated cells, have {neg.size}")
    rng = np.random.default_rng(seed)
    if tied is not None:
        area = _roc_areas((tied * n_pos)[None], n_pos, tpr_sums)[0]
        return float(np.full(n_splits, area).mean())
    rows = max(1, min(n_splits, _SPLIT_ROWS, _BLOCK_CELLS // thresholds.size))
    block = np.empty((rows, thresholds.size), dtype=np.intp)
    areas = np.empty(n_splits)
    for start in range(0, n_splits, rows):
        below = block[: min(rows, n_splits - start)]
        for row in below:
            sample = rng.choice(neg, size=n_pos, replace=False)
            sample.sort()
            row[:] = sample.searchsorted(thresholds, side="left")
        areas[start : start + len(below)] = _roc_areas(below, n_pos, tpr_sums)
    return float(areas.mean())


def auc_judd(pred, fix) -> float:
    """ROC area using every non-fixated cell as a negative.

    Thresholds sweep the predicted values at fixated cells, descending
    and deduplicated; a cell counts as "selected" when its value is >=
    the threshold. Only the ordering of values matters, so the score is
    invariant under strictly monotone transforms of the prediction.
    """
    neg, _, thresholds, tpr_sums, tied = _roc_sweep(pred, *_fixated_values(pred, fix, "AUC"))
    return _judd(neg, thresholds, tpr_sums, tied)


def auc_borji(pred, fix, n_splits: int = 100, seed: int = 0) -> float:
    """ROC area against repeatedly sampled random negative cells.

    Each of ``n_splits`` trials draws as many negatives as there are
    fixations, uniformly without replacement from the non-fixated cells
    of a seeded generator, and the per-trial areas are averaged. The
    thresholds and the true-positive curve are shared by every trial.
    Fixed inputs and seed give a bit-identical result.
    """
    _check_splits(n_splits)
    return _borji(*_roc_sweep(pred, *_fixated_values(pred, fix, "AUC")), n_splits, seed)


def _cell(metric, *args) -> float | str:
    # One metrics-table cell: the score, or the name of the GazeKitError raised.
    try:
        return float(metric(*args))
    except GazeKitError as exc:
        return type(exc).__name__


def score_maps(pred, gt, fix=None, n_splits: int = 100, seed: int = 0) -> dict[str, float | str]:
    """Score one frame: the metric cells of its metrics-table row.

    Keys are the metric columns of the metrics table. A metric that raises
    a GazeKitError gets the exception's class name as its cell; with no
    fixation map the three fixation metrics are "skipped". Each cell is
    bit for bit what the metric's public function returns, and any other
    error is the one calling them in the order cc, kl, sim, auc_j, auc_b,
    nss raises first. The frame's work is shared: the prediction is
    centered once for cc and nss, and the fixation split, thresholds and
    true-positive curve are built once for both AUCs.
    """
    # KL and SIM run before the centering, and NSS before the AUCs, so the
    # centered frame, kept from CC to NSS, is not alive while the others
    # allocate their frame-sized temporaries.
    p, g = _grid_values(pred), _grid_values(gt)
    paired = p.shape == g.shape
    kl, overlap = (kl_div(g, p), sim(p, g)) if paired else (ShapeMismatch.__name__,) * 2
    centered = _centered(p)
    cells = dict.fromkeys(("auc_j", "auc_b", "nss"), "skipped") if fix is None else {}
    cells["cc"] = _cell(_cc, centered, g) if paired else ShapeMismatch.__name__
    cells.update(kl=kl, sim=overlap)
    if fix is None:
        return cells
    # A shape or fixation failure labels all three cells, AllFixated only
    # the AUCs; auc_borji checks its split count before its inputs.
    mask = _fixation_mask(fix)
    auc_error = None
    try:
        _check_fixations(p, mask, "AUC")
    except GazeKitError as exc:
        auc_error = nss_cell = type(exc).__name__
    else:
        nss_cell = _cell(_nss, centered, mask)
        del centered
        try:
            sweep = _roc_sweep(pred, p, mask)
        except AllFixated as exc:
            auc_error = type(exc).__name__
    _check_splits(n_splits)
    if auc_error is None:
        neg, n_pos, thresholds, tpr_sums, tied = sweep
        cells["auc_j"] = _judd(neg, thresholds, tpr_sums, tied)
        cells["auc_b"] = _cell(_borji, neg, n_pos, thresholds, tpr_sums, tied, n_splits, seed)
    else:
        cells["auc_j"] = cells["auc_b"] = auc_error
    cells["nss"] = nss_cell
    return cells
