"""Gaze-weighted pooling, shared-space projection, and contrastive alignment.

A feature stack is pooled into one vector per item by weighting its
spatial cells with a gaze map, projected by an affine head into a shared
embedding space, and scored against matching text embeddings with a
temperature-scaled contrastive loss. The loss is one-directional: each
visual embedding is the anchor and the matching text embedding is its
positive against all other texts in the batch.

Similarities are cosine, so the loss is invariant to rescaling any
single embedding. Analytic gradients for the loss and for the full
pooling -> projection -> loss chain are provided and are checked
against central finite differences by the gradient-check suite.

The losses, the pooling and the gradients also take a stack along a
leading axis: (k, b, d) embeddings, or (k, b, h, w) pooling weights
against one feature array. A stack gives k results, each bit for bit
that of its item alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNorm, ShapeMismatch
from .grids import _cross_entropy_grad, _exp_shifted, _frozen, _grid

__all__ = [
    "DEFAULT_TEMPERATURE",
    "ProjectionHead",
    "info_nce",
    "grad_info_nce",
    "pooled_embeddings",
    "align_path_loss",
    "align_path_weight_grad",
]

#: Default softmax temperature for the contrastive loss.
DEFAULT_TEMPERATURE = 0.07

_NORM_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class ProjectionHead:
    """Affine map into the shared embedding space: weight @ x + bias."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w, b = _frozen(self.weight), _frozen(self.bias)
        _grid(w, "weight must be a non-empty (out_dim, in_dim) matrix")
        if b.shape != (w.shape[0],):
            raise ShapeMismatch(f"bias shape {b.shape} does not match {w.shape[0]} outputs")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("projection parameters must be finite")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @classmethod
    def seeded(cls, in_dim: int, out_dim: int = 256, seed: int = 0) -> "ProjectionHead":
        """Reproducible random head: uniform in [-k, k], k = 1/sqrt(in_dim)."""
        if in_dim < 1 or out_dim < 1:
            raise ValueError("dimensions must be positive")
        k = 1.0 / math.sqrt(in_dim)
        rng = np.random.default_rng(seed)
        return cls(
            weight=rng.uniform(-k, k, size=(out_dim, in_dim)),
            bias=rng.uniform(-k, k, size=out_dim),
        )


def _unit_rows(m: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    # What np.linalg.norm(m, axis=-1) evaluates for real input, without its wrapper.
    norms = np.sqrt((m * m).sum(axis=-1))
    if norms.min() < _NORM_FLOOR:
        raise DegenerateNorm(f"{label} embedding with near-zero norm")
    return m / norms[..., None], norms


def _unit_pairs(u_vis, u_txt, tau: float):
    # The prologue both the loss and its gradient share: check tau and the
    # two batches, normalize every row and score every pair. Returns (vh,
    # vn, th, tn, cos, scores), scores = cos / tau. Either batch may be a
    # (k, batch, dim) stack; its every batch is checked as one batch alone,
    # and a single batch pairs with each of a stack's.
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    v = np.asarray(u_vis, dtype=np.float64)
    t = np.asarray(u_txt, dtype=np.float64)
    for m in (v, t):
        if m.ndim not in (2, 3) or m.size == 0:
            raise ShapeMismatch("embeddings must form a non-empty (batch, dim) matrix")
        if not np.isfinite(m).all():
            raise ValueError("embeddings must be finite")
    if v.shape[-2:] != t.shape[-2:]:
        raise ShapeMismatch(f"batch shapes differ: {v.shape[-2:]} vs {t.shape[-2:]}")
    if v.ndim == t.ndim == 3 and len(v) != len(t):
        raise ShapeMismatch(f"stacks differ in length: {len(v)} vs {len(t)}")
    vh, vn = _unit_rows(v, "visual")
    th, tn = _unit_rows(t, "text")
    cos = vh @ np.swapaxes(th, -1, -2)
    # A score past the float range is refused by the core, without a warning.
    with np.errstate(over="ignore"):
        scores = cos / tau
    return vh, vn, th, tn, cos, scores


def info_nce(u_vis, u_txt, tau: float = DEFAULT_TEMPERATURE):
    """Contrastive batch loss over matched visual/text embedding rows.

    Row i of each batch is a matched pair. With visual anchors, the loss
    is the mean cross-entropy of picking text i for visual i among all
    texts, at temperature ``tau``. Always nonnegative, and exactly zero
    for a single-item batch. Two (batch, dim) matrices give a float; a
    (k, batch, dim) stack on either side gives (k,) losses, each bit for
    bit that pair of batches' alone. A ``tau`` so small that a score
    overflows (below about 1e-308) is refused with ValueError.
    """
    *_, scores = _unit_pairs(u_vis, u_txt, tau)
    # Mean over rows of logsumexp(row) - diagonal, max-shifted for stability.
    e, shift = _exp_shifted(scores, -1)
    lse = np.log(e.sum(axis=-1)) + shift[..., 0]
    losses = (lse - np.diagonal(scores, axis1=-2, axis2=-1)).sum(axis=-1) / scores.shape[-1]
    return losses if losses.ndim else float(losses)


def grad_info_nce(
    u_vis, u_txt, tau: float = DEFAULT_TEMPERATURE
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the visual-anchored loss for both batches.

    Returns (grad_u_vis, grad_u_txt). The gradient passes through the
    cosine normalization, so each row's gradient is orthogonal to that
    row: rescaling an embedding does not change the loss. Stacked
    batches, as ``info_nce`` takes them, give each loss's gradients.
    """
    vh, vn, th, tn, cos, scores = _unit_pairs(u_vis, u_txt, tau)
    b = vh.shape[-2]
    d = _cross_entropy_grad(scores, np.arange(b)) / (b * tau)

    grad_vh = d @ th
    grad_th = np.swapaxes(d, -1, -2) @ vh
    radial_v = (d * cos).sum(axis=-1)
    radial_t = (d * cos).sum(axis=-2)
    grad_v = (grad_vh - radial_v[..., None] * vh) / vn[..., None]
    grad_t = (grad_th - radial_t[..., None] * th) / tn[..., None]
    return grad_v, grad_t


def _pool_batch(features, weights) -> tuple[np.ndarray, np.ndarray]:
    # A (b, c, h, w) feature array and the (b, h, w) weights that pool it,
    # or a (k, b, h, w) stack of such weights.
    f = np.asarray(features, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    rows = w.shape[1:] if w.ndim == 4 else w.shape
    if f.ndim != 4 or len(rows) != 3 or f.shape[0] != rows[0] or f.shape[2:] != rows[1:]:
        raise ShapeMismatch(
            f"features {f.shape} and weights {rows} must be (b, c, h, w) and (b, h, w)"
        )
    return f, w


def pooled_embeddings(features, weights, head: ProjectionHead) -> np.ndarray:
    """Pool and project a batch: one shared-space embedding row per item.

    ``features`` is a (batch, channels, h, w) array and ``weights`` the
    (batch, h, w) gaze weights that pool it, or a (k, batch, h, w) stack
    of them, which gives a (k, batch, out_dim) stack of embeddings.
    """
    f, w = _pool_batch(features, weights)
    pooled = np.einsum("bchw,...bhw->...bc", f, w)
    return pooled @ head.weight.T + head.bias


def align_path_loss(features, weights, head: ProjectionHead, u_txt, tau: float = DEFAULT_TEMPERATURE):
    """Contrastive loss of the full pooling -> projection -> loss chain.

    A (k, batch, h, w) stack of weights gives (k,) losses, each bit for
    bit that item's alone, against the same text batch.
    """
    return info_nce(pooled_embeddings(features, weights, head), u_txt, tau)


def align_path_weight_grad(
    features, weights, head: ProjectionHead, u_txt, tau: float = DEFAULT_TEMPERATURE
) -> np.ndarray:
    """Gradient of align_path_loss with respect to every pooling weight.

    Returns a (batch, h, w) array: the chain rule applied through the
    projection head and the pooling sum for each item; a stack of
    weights gives the stack of their gradients.
    """
    f, w = _pool_batch(features, weights)
    u_vis = pooled_embeddings(f, w, head)
    grad_vis, _ = grad_info_nce(u_vis, u_txt, tau)
    back = grad_vis @ head.weight
    return np.einsum("...bc,bchw->...bhw", back, f)
