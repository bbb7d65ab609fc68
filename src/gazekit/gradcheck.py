"""Finite-difference verification of every analytic gradient.

Four paths are checked: the gaze loss with its hinge, the caption
cross-entropy, the contrastive alignment loss, and the chained pooling
-> projection -> contrastive path differentiated with respect to the
pooling weights. Each trial draws a random instance and returns its
loss, the point and the analytic gradient there; one comparison loop
checks every trial against central differences and tracks the worst
relative error, measured as the max absolute component difference over
the max absolute finite-difference component.

A trial's loss maps a (k, *shape) stack of points to k losses, so the
central difference makes one loss call per trial on all 2n perturbed
copies of the point. Each stacked row is bit for bit the scalar loss of
that point, so the errors are those of a one-call-per-point loop.

Gaze-loss trials that land within 1e-3 of the hinge kink are redrawn,
since the loss is not differentiable exactly at the kink and a
straddling finite difference would measure the kink, not the gradient.
The kink is read from the forward pass that gives the gradient. A trial
whose hinge is 0 in that pass differences the bare KL (the loss at hinge
weight 0, without the blurred copy): a finite-difference step moves the
hinge argument by a few times 1e-6 at most, far inside the 1e-3 margin,
so every perturbed hinge is 0 too and each perturbed loss is the full
loss, bit for bit. That is about 99 gaze trials in 100.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    _gaze_forward,
    _gaze_grad,
    grad_loss_caption,
    loss_caption,
    loss_gaze,
)

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
    """Central finite-difference gradient of a scalar function of an array.

    ``fn`` maps a (k, *x.shape) stack of points to their k losses. It is
    called once, on the 2n perturbed copies of ``x`` (n = x.size): rows
    0..n-1 move component i up by the step, rows n..2n-1 move it down.
    Each copy holds the same bits as when a loop perturbs ``x`` one
    component at a time, so for a loss whose stacked rows equal its
    unstacked calls every component is the one-at-a-time difference,
    bit for bit. The stack takes 2n * x.size floats.
    """
    base = x.astype(np.float64).ravel()
    n = base.size
    points = np.empty((2 * n, n))
    points[:] = base
    cell = np.arange(n)
    points[cell, cell] = base + _FD_STEP
    points[n + cell, cell] = base - _FD_STEP
    vals = np.asarray(fn(points.reshape(2 * n, *x.shape)), dtype=np.float64)
    if vals.shape != (2 * n,):
        raise ValueError(
            f"fn must map a stack of {2 * n} points to {2 * n} losses, got shape {vals.shape}"
        )
    return ((vals[:n] - vals[n:]) / (2.0 * _FD_STEP)).reshape(x.shape)


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
        # Half the targets are a near-uniform random map and half a blurred
        # copy of a sharpened prediction. Blurring the prediction moves it
        # toward either kind, so the hinge is rarely active: over seeds 0-39
        # at --trials 100, a median of 1 trial per seed (none on 11 seeds),
        # all with a blurred target. Changing the draws changes grad-check's
        # stdout.
        if rng.random() < 0.5:
            gt = _random_map(rng, n, n)
        else:
            gt = gaussian_blur(spatial_softmax(logits * 3.0), cfg.blur_sigma)
        # Redraw near the kink, where the hinge argument crosses zero.
        g, pred, parts, arg = _gaze_forward(gt, logits, cfg)
        if abs(arg) < _KINK_MARGIN:
            continue
        # The hinge at the drawn point picks the loss: at 0, the bare KL. A
        # step of 1e-6 moves the argument by a few 1e-6 at most (each logit's
        # KL gradient, raw or through the doubly stochastic blur, is bounded
        # by a small constant; 6.2e-7 at most over seeds 0-39), so with
        # |arg| >= 1e-3 every perturbed hinge is 0 and each total is
        # raw_kl + w * 0.0, the float hinge weight 0 gives. Reading the
        # hinge's value, not the argument's sign, keeps a wrongly nonzero
        # hinge on the full loss.
        loss_cfg = replace(cfg, hinge_weight=0.0) if parts.hinge == 0.0 else cfg
        return lambda z: loss_gaze(gt, z, loss_cfg).total, logits, _gaze_grad(g, pred, arg, cfg)
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
    return lambda x: info_nce(x[:, 0], x[:, 1], tau), np.stack([u_vis, u_txt]), analytic


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
    """Run every gradient path ``trials`` times; deterministic per seed.

    A NaN error, from a NaN in the analytic gradient or in a loss, is its
    path's worst error, so the path fails.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    reports = []
    for index, (name, trial) in enumerate(_TRIALS.items()):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        worst = 0.0
        for _ in range(trials):
            loss, point, analytic = trial(rng)
            error = _relative_error(analytic, central_difference(loss, point))
            worst = float(np.maximum(worst, error))  # max would drop a NaN error
        reports.append(GradCheckReport(name=name, trials=trials, max_rel_error=worst))
    return reports
