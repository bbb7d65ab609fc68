"""Finite-difference verification of every analytic gradient.

Four paths are checked: the gaze loss with its hinge, the caption
cross-entropy, the contrastive alignment loss, and the chained pooling
-> projection -> contrastive path differentiated with respect to the
pooling weights. Each trial draws a random instance and returns its
loss, the point and the analytic gradient there; one comparison loop
checks every trial against central differences and tracks the worst
relative error, measured as the max absolute component difference over
the max absolute finite-difference component.

Gaze-loss trials that land within 1e-3 of the hinge kink are redrawn,
since the loss is not differentiable exactly at the kink and a
straddling finite difference would measure the kink, not the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import (
    ProjectionHead,
    align_path_loss,
    align_path_weight_grad,
    grad_info_nce,
    info_nce,
)
from .grids import gaussian_blur, normalize_to_simplex, spatial_softmax
from .objectives import (
    GazeLossConfig,
    TokenSequence,
    grad_loss_caption,
    grad_loss_gaze,
    loss_caption,
    loss_gaze,
)
from .saliency import kl_div

__all__ = ["TOLERANCE", "GradCheckReport", "central_difference", "run_gradient_checks"]

#: Largest acceptable relative error between analytic and numeric gradients.
TOLERANCE = 1e-4

_FD_STEP = 1e-6
_KINK_MARGIN = 1e-3


@dataclass(frozen=True)
class GradCheckReport:
    """Worst-case result for one gradient path."""

    name: str
    trials: int
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE


def central_difference(fn, x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.ravel()
    base = x.astype(np.float64).copy()
    for i in range(base.size):
        orig = base.flat[i]
        base.flat[i] = orig + _FD_STEP
        hi = fn(base)
        base.flat[i] = orig - _FD_STEP
        lo = fn(base)
        base.flat[i] = orig
        flat[i] = (hi - lo) / (2.0 * _FD_STEP)
    return grad


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    # Max component difference relative to the numeric gradient's scale.
    scale = max(float(np.abs(numeric).max()), 1e-12)
    return float(np.abs(analytic - numeric).max()) / scale


def _random_map(rng, h, w):
    return normalize_to_simplex(rng.uniform(0.05, 1.0, size=(h, w)))


def _gaze_trial(rng):
    cfg = GazeLossConfig(
        hinge_weight=float(rng.uniform(0.1, 0.6)),
        hinge_margin=float(rng.uniform(0.0, 0.15)),
        blur_sigma=float(rng.uniform(0.6, 1.4)),
    )
    for _ in range(50):
        n = int(rng.integers(6, 13))
        logits = rng.normal(0.0, 1.0, size=(n, n))
        # Half the trials aim the target at a blurred copy of the
        # prediction, which drives the hinge toward its inactive branch.
        if rng.random() < 0.5:
            gt = _random_map(rng, n, n)
        else:
            gt = gaussian_blur(spatial_softmax(logits * 3.0), cfg.blur_sigma)
        pred = spatial_softmax(logits)
        arg = kl_div(gt, gaussian_blur(pred, cfg.blur_sigma)) - kl_div(gt, pred) + cfg.hinge_margin
        # The loss is kinked where the hinge argument crosses zero; a
        # straddling finite difference would measure the kink itself.
        if abs(arg) < _KINK_MARGIN:
            continue
        return lambda z: loss_gaze(gt, z, cfg).total, logits, grad_loss_gaze(gt, logits, cfg)
    raise RuntimeError("could not draw a gaze instance away from the hinge kink")


def _caption_trial(rng):
    vocab = int(rng.integers(3, 17))
    steps = int(rng.integers(1, 9))
    target = TokenSequence(tuple(int(t) for t in rng.integers(0, vocab, size=steps)), vocab)
    logits = rng.normal(0.0, 2.0, size=(steps, vocab))
    return lambda z: loss_caption(z, target), logits, grad_loss_caption(logits, target)


def _infonce_trial(rng):
    b = int(rng.integers(2, 6))
    dim = int(rng.integers(3, 9))
    tau = float(rng.uniform(0.05, 1.0))
    u_vis = rng.normal(0.0, 1.0, size=(b, dim))
    u_txt = rng.normal(0.0, 1.0, size=(b, dim))
    analytic = np.stack(grad_info_nce(u_vis, u_txt, tau))
    return lambda x: info_nce(x[0], x[1], tau), np.stack([u_vis, u_txt]), analytic


def _chained_trial(rng):
    b = int(rng.integers(2, 4))
    channels = int(rng.integers(2, 4))
    h = w = 4
    out_dim = int(rng.integers(3, 7))
    tau = float(rng.uniform(0.1, 0.6))
    features = rng.normal(0.0, 1.0, size=(b, channels, h, w))
    weights = rng.uniform(0.05, 1.0, size=(b, h, w))
    head = ProjectionHead.seeded(channels, out_dim, seed=int(rng.integers(0, 2**31)))
    u_txt = rng.normal(0.0, 1.0, size=(b, out_dim))
    analytic = align_path_weight_grad(features, weights, head, u_txt, tau)
    return lambda x: align_path_loss(features, x, head, u_txt, tau), weights, analytic


#: Per gradient path, a trial that draws one instance from the generator
#: and returns (loss function, point, analytic gradient at the point).
_TRIALS = {
    "gaze": _gaze_trial,
    "caption": _caption_trial,
    "infonce": _infonce_trial,
    "chained": _chained_trial,
}


def run_gradient_checks(seed: int = 0, trials: int = 100) -> list[GradCheckReport]:
    """Run every gradient path ``trials`` times; deterministic per seed."""
    reports = []
    for index, (name, trial) in enumerate(_TRIALS.items()):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        worst = 0.0
        for _ in range(trials):
            loss, point, analytic = trial(rng)
            worst = max(worst, _relative_error(analytic, central_difference(loss, point)))
        reports.append(GradCheckReport(name=name, trials=trials, max_rel_error=worst))
    return reports
