"""Grid types and deterministic map transforms.

Conventions shared by the whole package:

* grids are float64 numpy arrays stored row-major and indexed
  ``[row, col]`` from the top-left corner,
* a gaze map is a probability distribution over grid cells
  (nonnegative values summing to one),
* every function is pure: identical inputs give bit-identical outputs,
  and the arrays held by the types are marked read-only so instances
  are safe to share across threads,
* a map is checked once, where it enters. ``GazeMap(...)`` validates
  the shape, the cells (finite, then nonnegative) and the mass, and
  copies; ``normalize_to_simplex`` validates the shape and the cells;
  ``spatial_softmax`` refuses non-finite logits; ``gaussian_blur`` and
  ``entropy`` validate a bare-array argument as a ``GazeMap``. The maps
  that ``normalize_to_simplex``, ``spatial_softmax`` and
  ``gaussian_blur`` return are derived from checked data and are
  simplices by construction, so they are trusted: built without a
  second check and without a copy,
* the softmax and the blur run over the last two axes, so the gaze
  loss takes a (k, h, w) stack of grids through the same code as
  ``spatial_softmax`` and ``gaussian_blur``; each grid of a stack comes
  out bit for bit as it would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AllZeroGrid

__all__ = [
    "GazeMap",
    "FixationMap",
    "grid_values",
    "fixation_mask",
    "normalize_to_simplex",
    "spatial_softmax",
    "gaussian_blur",
    "entropy",
]

#: Allowed deviation of a gaze map's total mass from 1.
SIMPLEX_TOL = 1e-9

#: Total mass below this is treated as an empty grid.
MASS_FLOOR = 1e-12

#: Blur matrices kept, by (side, sigma). A gaze loss uses one or two
#: sides at one sigma, and grad-check draws a new sigma per trial.
_BLUR_CACHE_SIZE = 8


def _frozen(values, dtype=np.float64):
    out = np.array(values, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class GazeMap:
    """Probability distribution over a rectangular cell grid."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.size == 0:
            raise ValueError("gaze map needs a non-empty 2-D grid")
        _check_cells(v, "gaze map")
        # Finite cells can still sum past the float64 range; the mass check
        # below refuses the inf without numpy's overflow warning.
        with np.errstate(over="ignore"):
            total = float(v.sum())
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"gaze map must sum to 1 within {SIMPLEX_TOL}, got {total}")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def _check_cells(v: np.ndarray, what: str) -> None:
    # One min/max pass: a NaN makes both extremes NaN, and -0.0 is not below 0.
    lo, hi = v.min(), v.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{what} values must be finite")
    if lo < 0.0:
        raise ValueError(f"{what} values must be nonnegative")


def _checked_gaze_map(values: np.ndarray) -> GazeMap:
    # The trusted constructor, for a fresh float64 simplex derived from checked
    # data: no copy, and no second finiteness, sign or mass check.
    values = np.ascontiguousarray(values)
    values.setflags(write=False)
    gaze = object.__new__(GazeMap)
    object.__setattr__(gaze, "values", values)
    return gaze


@dataclass(frozen=True, eq=False)
class FixationMap:
    """Boolean grid marking discrete fixation locations."""

    fixated: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.fixated)
        if f.ndim != 2 or f.size == 0:
            raise ValueError("fixation map needs a non-empty 2-D grid")
        object.__setattr__(self, "fixated", _frozen(f != 0, dtype=bool))


def grid_values(grid) -> np.ndarray:
    """Return the float64 cell values of a map or bare 2-D array."""
    if isinstance(grid, GazeMap):
        return grid.values
    v = np.asarray(grid, dtype=np.float64)
    if v.ndim != 2 or v.size == 0:
        raise ValueError("expected a non-empty 2-D grid")
    return v


def fixation_mask(fix) -> np.ndarray:
    """Return the boolean mask of a FixationMap or bare 2-D array."""
    if isinstance(fix, FixationMap):
        return fix.fixated
    m = np.asarray(fix)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("expected a non-empty 2-D fixation grid")
    return m != 0


def normalize_to_simplex(grid) -> GazeMap:
    """Scale a nonnegative grid so its cells sum to one.

    Raises AllZeroGrid when total mass is below 1e-12, the signal for an
    empty or blank input map, and ValueError when finite cells sum past
    the float64 range.
    """
    v = grid_values(grid)
    _check_cells(v, "grid")
    with np.errstate(over="ignore"):
        total = float(v.sum())
    if total == math.inf:
        raise ValueError("grid mass overflows the float64 range")
    if total < MASS_FLOOR:
        raise AllZeroGrid(f"grid mass {total} is below {MASS_FLOOR}")
    # Finite, nonnegative cells over a finite total of at least 1e-12 sum
    # to 1 within rounding, so the map needs no second check.
    return _checked_gaze_map(v / total)


def spatial_softmax(logits) -> GazeMap:
    """Exponentiate and normalize a logit grid into a gaze map.

    The maximum logit is subtracted first, so the result is stable for
    large scores and exactly invariant to adding a constant.
    """
    return _checked_gaze_map(_softmax_maps(grid_values(logits)))


def _grid_stack(grid) -> np.ndarray:
    # grid_values, or the values of a non-empty (k, h, w) stack of grids.
    v = grid.values if isinstance(grid, GazeMap) else np.asarray(grid, dtype=np.float64)
    return v if v.ndim == 3 and v.size else grid_values(v)


def _softmax_maps(z: np.ndarray) -> np.ndarray:
    # spatial_softmax over the last two axes: one grid, or each grid of a
    # stack, bit for bit as that grid alone. One min/max pass, as in
    # ``_check_cells``: a NaN makes both extremes NaN, whichever grid holds it.
    hi = z.max(axis=(-2, -1), keepdims=True)
    if not (math.isfinite(z.min()) and math.isfinite(hi.max())):
        raise ValueError("logits must be finite")
    # Cells lie in [0, 1] and each grid's largest is exp(0) = 1, so its sum is >= 1.
    # ``z - hi`` is fresh, so the exp and the divide run in it; ``z`` is never written.
    e = z - hi
    np.exp(e, out=e)
    e /= e.sum(axis=(-2, -1), keepdims=True)
    return e


def _gaussian_kernel_1d(sigma: float) -> np.ndarray:
    # Normalized Gaussian taps at integer offsets in [-r, r], r = ceil(3 sigma).
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError("sigma must be positive and finite")
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    w = np.exp(-0.5 * (offsets / sigma) ** 2)
    w /= w.sum()
    return w


def _fold_index(t: np.ndarray, n: int) -> np.ndarray:
    # Half-sample symmetric reflection, periodic with period 2n.
    t = t % (2 * n)
    return np.where(t < n, t, 2 * n - 1 - t)


@lru_cache(maxsize=_BLUR_CACHE_SIZE)
def _blur_matrix(n: int, sigma: float) -> np.ndarray:
    # One-axis blur operator. Out-of-range taps fold back in by symmetric
    # reflection, which keeps the matrix doubly stochastic: rows and columns
    # both sum to 1, so mass is conserved and the uniform map is fixed.
    # One scatter adds every (row, tap) pair, taps in offset order, so each
    # cell sums its taps in that order. The pair count, n * (2 ceil(3 sigma)
    # + 1), grows linearly in sigma: a kernel wider than the grid wraps
    # several periods of the reflection.
    w = _gaussian_kernel_1d(sigma)
    radius = len(w) // 2
    rows = np.tile(np.arange(n), len(w))
    offsets = np.repeat(np.arange(-radius, radius + 1), n)
    m = np.zeros((n, n))
    np.add.at(m, (rows, _fold_index(rows + offsets, n)), np.repeat(w, n))
    m.setflags(write=False)
    return m


def gaussian_blur(gaze, sigma: float) -> GazeMap:
    """Separable Gaussian smoothing on the simplex.

    Kernel taps that fall outside the grid fold back in by symmetric
    reflection at the borders, so every cell's mass is redistributed
    entirely in bounds: the total stays exactly one, the uniform map is
    a fixed point, and the transform is linear in its input.
    """
    v = gaze.values if isinstance(gaze, GazeMap) else GazeMap(np.asarray(gaze)).values
    return _checked_gaze_map(_blur_maps(v, float(sigma)))


def _blur_maps(v: np.ndarray, sigma: float) -> np.ndarray:
    # gaussian_blur over the last two axes: one map, or each map of a stack,
    # bit for bit as that map alone.
    h, w = v.shape[-2:]
    out = _blur_matrix(h, sigma) @ v @ _blur_matrix(w, sigma).T
    out /= out.sum(axis=(-2, -1), keepdims=True)
    return out


def entropy(gaze) -> float:
    """Shannon entropy in nats; zero-mass cells contribute nothing."""
    v = gaze.values if isinstance(gaze, GazeMap) else GazeMap(np.asarray(gaze)).values
    nz = v[v > 0.0]
    return float(-(nz * np.log(nz)).sum())
