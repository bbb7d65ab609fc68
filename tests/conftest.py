"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from gazekit import (
    DEFAULT_KL_FLOOR,
    DegenerateNorm,
    GazeLossBreakdown,
    GazeMap,
    LengthMismatch,
    ShapeMismatch,
    normalize_to_simplex,
)
from gazekit.alignment import _unit_pairs
from gazekit.gradcheck import _FD_STEP
from gazekit.grids import SIMPLEX_TOL, _fold_index, _gaussian_kernel_1d, _grid_values
from gazekit.objectives import _step_logits

settings.register_profile(
    "gazekit",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("gazekit")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_map(rng, height, width, low=0.05, high=1.0) -> GazeMap:
    """A strictly positive random map; every cell clears typical KL floors."""
    return normalize_to_simplex(rng.uniform(low, high, size=(height, width)))


def traced_peak(call) -> int:
    """Bytes above the traced level at the start, at the peak of one call."""
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


@st.composite
def map_pairs(draw, min_side=2, max_side=10):
    """Two equally shaped strictly positive random maps."""
    h = draw(st.integers(min_side, max_side))
    w = draw(st.integers(min_side, max_side))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    return random_map(gen, h, w), random_map(gen, h, w)


@st.composite
def gaze_maps(draw, min_side=2, max_side=10):
    return draw(map_pairs(min_side, max_side))[0]


@st.composite
def logit_grids(draw, min_side=2, max_side=10, scale=3.0):
    h = draw(st.integers(min_side, max_side))
    w = draw(st.integers(min_side, max_side))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    return gen.normal(0.0, scale, size=(h, w))


def kl_div_reference(g: np.ndarray, p: np.ndarray) -> float:
    """kl_div as one function body, before it was split into per-map sides.

    Kept verbatim as the exact oracle: the split version must return the
    same float, bit for bit.
    """
    clamped = np.maximum(p, DEFAULT_KL_FLOOR)
    q = clamped / clamped.sum()
    mask = g > 0.0
    gs = g[mask]
    total = float((gs * (np.log(gs) - np.log(q[mask]))).sum())
    return max(0.0, total)


def pgm_quantized(values: np.ndarray) -> np.ndarray:
    """``values`` as a 16-bit PGM stores them, renormalized as load_map does."""
    samples = np.round(values / values.max() * 65535.0)
    return samples / samples.sum()


# The map constructors as they were, each result validated and copied by
# GazeMap's former two-pass cell check. Kept verbatim as exact oracles: the
# one-pass check must raise the same errors, and the maps the library now
# builds without a second check must hold the same bytes. Each returns the
# map's values.


def gaze_map_reference(values) -> np.ndarray:
    """``GazeMap(values).values`` with the isfinite pass and the sign pass."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.size == 0:
        raise ValueError("gaze map needs a non-empty 2-D grid")
    if not np.all(np.isfinite(v)):
        raise ValueError("gaze map values must be finite")
    if np.any(v < 0.0):
        raise ValueError("gaze map values must be nonnegative")
    total = float(v.sum())
    if abs(total - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"gaze map must sum to 1 within {SIMPLEX_TOL}, got {total}")
    out = np.array(v, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


def spatial_softmax_reference(logits) -> np.ndarray:
    z = _grid_values(logits)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    e = np.exp(z - z.max())
    return gaze_map_reference(e / e.sum())


def gaussian_blur_reference(gaze, sigma: float) -> np.ndarray:
    v = gaze.values if isinstance(gaze, GazeMap) else gaze_map_reference(np.asarray(gaze))
    h, w = v.shape
    out = blur_matrix_reference(h, float(sigma)) @ v @ blur_matrix_reference(w, float(sigma)).T
    return gaze_map_reference(out / out.sum())


def blur_matrix_reference(n: int, sigma: float) -> np.ndarray:
    """``_blur_matrix`` as one scatter per kernel tap, uncached."""
    w = _gaussian_kernel_1d(sigma)
    radius = len(w) // 2
    m = np.zeros((n, n))
    idx = np.arange(n)
    for k in range(-radius, radius + 1):
        np.add.at(m, (idx, _fold_index(idx + k, n)), w[k + radius])
    return m


# The finite difference and the four losses it differentiates, as they were
# before the losses took a leading stack axis: one perturbed point, one
# scalar loss call. Kept verbatim as exact oracles, over the reference maps
# above: the batched central difference must give the same gradient, and a
# stacked loss call the same float per row, bit for bit.


def central_difference_reference(fn, x: np.ndarray) -> np.ndarray:
    """Central differences, one component and one scalar ``fn`` call at a time."""
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


def _kl_reference(gt, pred) -> float:
    g, p = _grid_values(gt), _grid_values(pred)
    if g.shape != p.shape:
        raise ShapeMismatch(f"grid shapes differ: {g.shape} vs {p.shape}")
    return kl_div_reference(g, p)


def loss_gaze_reference(gt, logits, cfg) -> GazeLossBreakdown:
    pred = spatial_softmax_reference(logits)
    raw_kl = _kl_reference(gt, pred)
    hinge = 0.0
    if cfg.hinge_weight > 0.0:
        blur_kl = _kl_reference(gt, gaussian_blur_reference(pred, cfg.blur_sigma))
        hinge = cfg.hinge_weight * max(0.0, blur_kl - raw_kl + cfg.hinge_margin)
    return GazeLossBreakdown(total=raw_kl + hinge, kl=raw_kl, hinge=hinge)


def loss_caption_reference(step_logits, target) -> float:
    rows = np.asarray(step_logits, dtype=np.float64)
    if rows.ndim != 2:
        raise LengthMismatch("step logits must form a (steps, vocab) array")
    if not np.all(np.isfinite(rows)):
        raise ValueError("logits must be finite")
    if rows.shape[0] != len(target.tokens):
        raise LengthMismatch(
            f"{rows.shape[0]} logit rows for {len(target.tokens)} target tokens"
        )
    if rows.shape[1] != target.vocab_size:
        raise LengthMismatch(
            f"logit rows of width {rows.shape[1]} for vocabulary {target.vocab_size}"
        )
    shifted = rows - rows.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(rows.shape[0]), list(target.tokens)]
    return float((lse - picked).sum())


def _unit_rows_reference(m: np.ndarray, label: str) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1)
    if norms.min() < 1e-8:
        raise DegenerateNorm(f"{label} embedding with near-zero norm")
    return m / norms[:, None]


def info_nce_reference(u_vis, u_txt, tau: float) -> float:
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    v = np.asarray(u_vis, dtype=np.float64)
    t = np.asarray(u_txt, dtype=np.float64)
    for m in (v, t):
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ShapeMismatch("embeddings must form a non-empty (batch, dim) matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("embeddings must be finite")
    if v.shape != t.shape:
        raise ShapeMismatch(f"batch shapes differ: {v.shape} vs {t.shape}")
    vh = _unit_rows_reference(v, "visual")
    th = _unit_rows_reference(t, "text")
    scores = (vh @ th.T) / tau
    shift = scores.max(axis=1, keepdims=True)
    lse = np.log(np.exp(scores - shift).sum(axis=1)) + shift[:, 0]
    return float((lse - np.diag(scores)).mean())


def align_path_loss_reference(features, weights, head, u_txt, tau: float) -> float:
    f = np.asarray(features, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if f.ndim != 4 or w.ndim != 3 or f.shape[0] != w.shape[0] or f.shape[2:] != w.shape[1:]:
        raise ShapeMismatch(
            f"features {f.shape} and weights {w.shape} must be (b, c, h, w) and (b, h, w)"
        )
    pooled = np.einsum("bchw,bhw->bc", f, w)
    return info_nce_reference(pooled @ head.weight.T + head.bias, u_txt, tau)


# The two gradients as they were before they shared the softmax core in
# ``grids``, each with its own max shift and exponential. Kept verbatim,
# over the input checks they still share with the losses, as exact oracles:
# the gradients, of one point or of a stack, must hold the same bytes.


def grad_loss_caption_reference(step_logits, target) -> np.ndarray:
    rows = _step_logits(step_logits, target)
    shifted = np.exp(rows - rows.max(axis=-1, keepdims=True))
    grad = shifted / shifted.sum(axis=-1, keepdims=True)
    grad[..., np.arange(rows.shape[-2]), list(target.tokens)] -= 1.0
    return grad


def grad_info_nce_reference(u_vis, u_txt, tau: float) -> tuple[np.ndarray, np.ndarray]:
    vh, vn, th, tn, _, _ = _unit_pairs(u_vis, u_txt, tau)
    b = vh.shape[-2]
    cos = vh @ np.swapaxes(th, -1, -2)
    scores = cos / tau
    shift = scores.max(axis=-1, keepdims=True)
    expd = np.exp(scores - shift)
    soft = expd / expd.sum(axis=-1, keepdims=True)
    d = (soft - np.eye(b)) / (b * tau)

    grad_vh = d @ th
    grad_th = np.swapaxes(d, -1, -2) @ vh
    radial_v = (d * cos).sum(axis=-1)
    radial_t = (d * cos).sum(axis=-2)
    grad_v = (grad_vh - radial_v[..., None] * vh) / vn[..., None]
    grad_t = (grad_th - radial_t[..., None] * th) / tn[..., None]
    return grad_v, grad_t
