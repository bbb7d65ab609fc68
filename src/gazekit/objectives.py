"""Training objectives over gaze maps and token sequences, with exact gradients.

The gaze loss is the forward KL divergence of the softmaxed prediction
from the ground truth, plus a hinge on the divergence gap between a
Gaussian-blurred copy of the prediction and the raw prediction:

    loss = KL(gt, pred) + hinge_weight * max(0, KL(gt, blur(pred)) - KL(gt, pred) + hinge_margin)

The hinge activates when blurring increases the divergence by more than
the margin. At hinge weight 0 the blurred copy is never computed: the
hinge is 0 and the gradient is the bare KL term's. All gradients here
are analytic and are validated against central finite differences by
the gradient-check suite; at the hinge kink the subgradient 0 is used
(the hinge contributes only when its argument is strictly positive).

Both losses take one point or a stack of points along a leading axis,
so the gradient check scores every perturbed point in one call. A
stacked entry equals the loss of its point alone, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import LengthMismatch, ShapeMismatch
from .grids import (
    GazeMap,
    _blur_maps,
    _blur_matrix,
    _grid_stack,
    _softmax_maps,
    entropy,
    gaussian_blur,
    grid_values,
    spatial_softmax,
)
from .saliency import DEFAULT_KL_FLOOR, _kl_from_sides, _kl_gt_side, _kl_pred_side, kl_div

__all__ = [
    "GazeLossConfig",
    "GazeLossBreakdown",
    "LossWeights",
    "TokenSequence",
    "FitStep",
    "loss_gaze",
    "grad_loss_gaze",
    "loss_caption",
    "grad_loss_caption",
    "total_loss",
    "fit_gaze_demo",
]


def _require_finite(settings, noun: str) -> None:
    # NaN fails every ordered comparison, so it slips past a range check,
    # and an infinite setting makes the loss inf or NaN.
    for field in fields(settings):
        value = getattr(settings, field.name)
        if not math.isfinite(value):
            raise ValueError(f"{field.name}{noun} must be finite, got {value}")


@dataclass(frozen=True)
class GazeLossConfig:
    """Hinge and blur settings for the gaze loss."""

    hinge_weight: float = 0.3
    hinge_margin: float = 0.05
    blur_sigma: float = 1.0

    def __post_init__(self):
        if self.hinge_weight < 0.0:
            raise ValueError("hinge_weight must be nonnegative")
        if self.hinge_margin < 0.0:
            raise ValueError("hinge_margin must be nonnegative")
        if not self.blur_sigma > 0.0:
            raise ValueError("blur_sigma must be positive")
        _require_finite(self, "")


@dataclass(frozen=True)
class LossWeights:
    """Mixing weights for the combined training objective."""

    gaze: float = 1.0
    caption: float = 1.0
    align: float = 0.2

    def __post_init__(self):
        _require_finite(self, " weight")


@dataclass(frozen=True)
class GazeLossBreakdown:
    """Gaze loss value with its two additive parts.

    Floats for one logit grid, (k,) arrays for a stack of k grids.
    """

    total: float
    kl: float
    hinge: float


@dataclass(frozen=True)
class TokenSequence:
    """Target token ids for one caption, with the vocabulary size."""

    tokens: tuple[int, ...]
    vocab_size: int

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        if len(self.tokens) == 0:
            raise ValueError("token sequence must be non-empty")
        for t in self.tokens:
            if not 0 <= t < self.vocab_size:
                raise ValueError(f"token id {t} outside vocabulary of {self.vocab_size}")


class FitStep(NamedTuple):
    """One record of the demo fit: step index, loss, prediction entropy."""

    step: int
    loss: float
    entropy: float


def _kl_grad_wrt_pred(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    # Gradient of KL(g, clamp-renormalize(p)) with respect to p. Cells
    # sitting below the floor are flattened by the clamp and get zero
    # gradient; the renormalization contributes the 1/Z term.
    clamped = np.maximum(p, DEFAULT_KL_FLOOR)
    z = clamped.sum()
    return np.where(p >= DEFAULT_KL_FLOOR, 1.0 / z - g / clamped, 0.0)


def _softmax_backprop(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Pull a gradient in probability space back through the softmax.
    return p * (v - (v * p).sum())


def loss_gaze(gt, logits, cfg: GazeLossConfig = GazeLossConfig()) -> GazeLossBreakdown:
    """KL-plus-hinge gaze loss on a logit grid, or on each grid of a stack.

    The prediction is the spatial softmax of the logits; the hinge
    compares the divergence of its blurred copy against the raw
    divergence. Both divergences are ``kl_div``'s clamped KL. An (h, w)
    grid gives float parts; a (k, h, w) stack gives (k,) arrays whose
    entries equal the loss of each grid alone, bit for bit, and it is
    refused as that grid alone would be.
    """
    z = _grid_stack(logits)
    pred = _softmax_maps(z)
    g = grid_values(gt)
    if g.shape != z.shape[-2:]:
        raise ShapeMismatch(f"grid shapes differ: {g.shape} vs {z.shape[-2:]}")
    gt_side = _kl_gt_side(g)
    raw_kl = _kl_from_sides(gt_side, _kl_pred_side(pred))
    hinge = np.zeros_like(raw_kl)
    if cfg.hinge_weight > 0.0:
        blur_kl = _kl_from_sides(gt_side, _kl_pred_side(_blur_maps(pred, float(cfg.blur_sigma))))
        hinge = cfg.hinge_weight * np.maximum(0.0, blur_kl - raw_kl + cfg.hinge_margin)
    total = raw_kl + hinge
    if z.ndim == 3:
        return GazeLossBreakdown(total=total, kl=raw_kl, hinge=hinge)
    return GazeLossBreakdown(total=float(total), kl=raw_kl, hinge=float(hinge))


def grad_loss_gaze(gt, logits, cfg: GazeLossConfig = GazeLossConfig()) -> np.ndarray:
    """Analytic gradient of loss_gaze with respect to every logit of one grid.

    Matches central finite differences away from the hinge kink; at the
    kink the hinge branch is treated as inactive. Because the loss is
    invariant to shifting all logits, the returned components sum to
    zero up to rounding.
    """
    g = grid_values(gt)
    pred = spatial_softmax(logits)
    p = pred.values
    raw_kl = kl_div(g, p)  # also refuses mismatched shapes at hinge weight 0
    v = _kl_grad_wrt_pred(g, p)
    if cfg.hinge_weight > 0.0:
        b = gaussian_blur(pred, cfg.blur_sigma).values
        if kl_div(g, b) - raw_kl + cfg.hinge_margin > 0.0:
            # Pull the blurred copy's gradient back through the blur: the
            # adjoint of M_h @ p @ M_w.T.
            h, w = p.shape
            mh = _blur_matrix(h, float(cfg.blur_sigma))
            mw = _blur_matrix(w, float(cfg.blur_sigma))
            v_blur = mh.T @ _kl_grad_wrt_pred(g, b) @ mw
            v = v + cfg.hinge_weight * (v_blur - v)
    return _softmax_backprop(p, v)


def _step_logits(step_logits, target: TokenSequence) -> np.ndarray:
    # One vocabulary-sized logit row per target token, all finite: a
    # (steps, vocab) array, or a (k, steps, vocab) stack of them.
    rows = np.asarray(step_logits, dtype=np.float64)
    if rows.ndim not in (2, 3):
        raise LengthMismatch("step logits must form a (steps, vocab) array")
    if not np.all(np.isfinite(rows)):
        raise ValueError("logits must be finite")
    steps, vocab = rows.shape[-2:]
    if steps != len(target.tokens):
        raise LengthMismatch(f"{steps} logit rows for {len(target.tokens)} target tokens")
    if vocab != target.vocab_size:
        raise LengthMismatch(f"logit rows of width {vocab} for vocabulary {target.vocab_size}")
    return rows


def loss_caption(step_logits, target: TokenSequence):
    """Summed autoregressive cross-entropy of target tokens under the logits.

    ``step_logits`` holds one vocabulary-sized logit vector per target
    token. Computed with a max-shifted log-sum-exp, so large logits are
    safe. A (steps, vocab) array gives a float; a (k, steps, vocab)
    stack gives (k,) losses, each bit for bit that array's alone.
    """
    rows = _step_logits(step_logits, target)
    shifted = rows - rows.max(axis=-1, keepdims=True)
    # The gather copies the picked logits out before the exp overwrites them.
    picked = shifted[..., np.arange(rows.shape[-2]), list(target.tokens)]
    lse = np.log(np.exp(shifted, out=shifted).sum(axis=-1))
    losses = (lse - picked).sum(axis=-1)
    return losses if losses.ndim else float(losses)


def grad_loss_caption(step_logits, target: TokenSequence) -> np.ndarray:
    """Gradient of loss_caption: per-step softmax minus the target one-hot.

    A stack of logit arrays gives the stack of their gradients.
    """
    rows = _step_logits(step_logits, target)
    shifted = np.exp(rows - rows.max(axis=-1, keepdims=True))
    grad = shifted / shifted.sum(axis=-1, keepdims=True)
    grad[..., np.arange(rows.shape[-2]), list(target.tokens)] -= 1.0
    return grad


def total_loss(
    gaze: float, caption: float, align: float, weights: LossWeights = LossWeights()
) -> float:
    """Weighted sum of the three loss terms."""
    for name, v in (("gaze", gaze), ("caption", caption), ("align", align)):
        if not math.isfinite(v):
            raise ValueError(f"{name} loss must be finite")
    return weights.gaze * gaze + weights.caption * caption + weights.align * align


def fit_gaze_demo(
    gt: GazeMap, steps: int, learning_rate: float, use_hinge: bool = False
) -> list[FitStep]:
    """Fit logits to a target map by plain gradient descent.

    Logits start at zero (a uniform prediction) and take ``steps``
    updates. One record is appended per visited point, including the
    starting point, so the result has ``steps + 1`` rows and the last
    row reflects every update. The loss is ``loss_gaze``: at the default
    ``GazeLossConfig`` with ``use_hinge``, and at hinge weight 0 (the
    bare KL term, bit for bit) without it. A non-finite learning rate is
    refused. Fully deterministic: no randomness is involved.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if not math.isfinite(learning_rate):
        raise ValueError(f"learning rate must be finite, got {learning_rate}")
    cfg = GazeLossConfig() if use_hinge else GazeLossConfig(hinge_weight=0.0)
    z = np.zeros_like(gt.values)
    trajectory: list[FitStep] = []
    # A huge rate can push a logit's softmax shift past the float range;
    # its exp is then exactly 0, and a logit that overflows to inf is
    # refused by spatial_softmax on the next step.
    with np.errstate(over="ignore"):
        for step in range(steps + 1):
            loss = loss_gaze(gt, z, cfg).total
            trajectory.append(FitStep(step=step, loss=loss, entropy=entropy(spatial_softmax(z))))
            if step < steps:
                z = z - learning_rate * grad_loss_gaze(gt, z, cfg)
    return trajectory
