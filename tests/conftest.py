"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from gazekit import DEFAULT_KL_FLOOR, GazeMap, grid_values, normalize_to_simplex
from gazekit.grids import SIMPLEX_TOL, _blur_matrix

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
    z = grid_values(logits)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    e = np.exp(z - z.max())
    return gaze_map_reference(e / e.sum())


def gaussian_blur_reference(gaze, sigma: float) -> np.ndarray:
    v = gaze.values if isinstance(gaze, GazeMap) else gaze_map_reference(np.asarray(gaze))
    h, w = v.shape
    out = _blur_matrix(h, float(sigma)) @ v @ _blur_matrix(w, float(sigma)).T
    return gaze_map_reference(out / out.sum())
