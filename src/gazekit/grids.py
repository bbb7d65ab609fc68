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
  copies; ``normalize_to_simplex`` validates the shape and the cells,
  except those of an unsigned-integer grid (such as a PGM's samples),
  which are finite and nonnegative by type;
  ``spatial_softmax`` refuses non-finite logits; ``gaussian_blur`` and
  ``entropy`` validate a bare-array argument as a ``GazeMap``. The maps
  that ``normalize_to_simplex``, ``spatial_softmax`` and
  ``gaussian_blur`` return are derived from checked data and are
  simplices by construction, so they are trusted: built without a
  second check and without a copy,
* the softmax and the blur run over the last two axes, so the gaze
  loss takes a (k, h, w) stack of grids through the same code as
  ``spatial_softmax`` and ``gaussian_blur``; each grid of a stack comes
  out bit for bit as it would alone,
* one max-shifted exponential serves every softmax and log-sum-exp in
  the package: the map softmax, the caption loss and InfoNCE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import AllZeroGrid, ShapeMismatch

__all__ = [
    "GazeMap",
    "FixationMap",
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


def _grid(values, message: str, dtype=np.float64) -> np.ndarray:
    # The one grid gate: a non-empty 2-D array (dtype None keeps its own).
    v = np.asarray(values, dtype=dtype)
    if v.ndim != 2 or v.size == 0:
        raise ValueError(message)
    return v


def _check_shapes(a: tuple, b: tuple) -> None:
    if a != b:
        raise ShapeMismatch(f"grid shapes differ: {a} vs {b}")


def _require_finite(settings, noun: str = "") -> None:
    # A settings dataclass's last check: NaN slips past every range check, an
    # infinite setting makes a loss or a window unbounded. An int field is
    # finite at any size; a float field refuses an int float() cannot hold.
    for field in fields(settings):
        value = getattr(settings, field.name)
        if isinstance(value, int) and field.type != "float":
            continue
        try:
            finite = math.isfinite(value)
        except OverflowError:
            value, finite = "an int past the float range", False
        if not finite:
            raise ValueError(f"{field.name}{noun} must be finite, got {value}")


@dataclass(frozen=True, eq=False)
class GazeMap:
    """Probability distribution over a rectangular cell grid."""

    values: np.ndarray

    def __post_init__(self):
        v = _grid(self.values, "gaze map needs a non-empty 2-D grid")
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
        f = _grid(self.fixated, "fixation map needs a non-empty 2-D grid", dtype=None)
        object.__setattr__(self, "fixated", _frozen(f != 0, dtype=bool))


def _grid_values(grid) -> np.ndarray:
    # The float64 cell values of a GazeMap or a bare 2-D array.
    if isinstance(grid, GazeMap):
        return grid.values
    return _grid(grid, "expected a non-empty 2-D grid")


def _fixation_mask(fix) -> np.ndarray:
    # The boolean mask of a FixationMap or a bare 2-D array.
    if isinstance(fix, FixationMap):
        return fix.fixated
    return _grid(fix, "expected a non-empty 2-D fixation grid", dtype=None) != 0


def normalize_to_simplex(grid) -> GazeMap:
    """Scale a nonnegative grid so its cells sum to one.

    Raises AllZeroGrid when total mass is below 1e-12, the signal for an
    empty or blank input map, and ValueError when finite cells sum past
    the float64 range. An unsigned-integer array (such as a PGM's
    samples) is finite and nonnegative by type and its sum cannot
    overflow, so it skips both checks and is divided in place in its
    float64 copy.
    """
    v = _grid_values(grid)
    unsigned = isinstance(grid, np.ndarray) and grid.dtype.kind == "u"
    if unsigned:
        total = float(v.sum())
    else:
        _check_cells(v, "grid")
        with np.errstate(over="ignore"):
            total = float(v.sum())
        if total == math.inf:
            raise ValueError("grid mass overflows the float64 range")
    if total < MASS_FLOOR:
        raise AllZeroGrid(f"grid mass {total} is below {MASS_FLOOR}")
    # Finite, nonnegative cells over a finite total of at least 1e-12 sum
    # to 1 within rounding, so the map needs no second check.
    if unsigned:
        # v is the fresh float64 copy _grid_values made, so it is divided in place.
        v /= total
        return _checked_gaze_map(v)
    return _checked_gaze_map(v / total)


def spatial_softmax(logits) -> GazeMap:
    """Exponentiate and normalize a logit grid into a gaze map.

    The maximum logit is subtracted first, so the result is stable for
    large scores and exactly invariant to adding a constant.
    """
    return _checked_gaze_map(_softmax(_grid_values(logits), (-2, -1)))


def _grid_stack(grid) -> np.ndarray:
    # _grid_values, or the values of a non-empty (k, h, w) stack of grids.
    v = grid.values if isinstance(grid, GazeMap) else np.asarray(grid, dtype=np.float64)
    return v if v.ndim == 3 and v.size else _grid_values(v)


def _exp_shifted(z: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray]:
    # exp(z - hi) and hi, the max over ``axis`` kept as a dim, per group of a
    # stack bit for bit as that group alone. One min/max pass, as in
    # ``_check_cells``: a NaN makes both extremes NaN, whichever group holds
    # it. ``z - hi`` is fresh, so the exp runs in it; ``z`` is never written.
    hi = z.max(axis=axis, keepdims=True)
    if not (math.isfinite(z.min()) and math.isfinite(hi.max())):
        raise ValueError("logits must be finite")
    e = z - hi
    np.exp(e, out=e)
    return e, hi


def _softmax(z: np.ndarray, axis) -> np.ndarray:
    # Cells lie in [0, 1] and each group's largest is exp(0) = 1, so its sum
    # is >= 1. The divide runs in the fresh exponential.
    e, _ = _exp_shifted(z, axis)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _cross_entropy_grad(z: np.ndarray, picked) -> np.ndarray:
    # Logit gradient of each row's cross-entropy at its picked index: the row
    # softmax minus the one-hot, in place (unpicked cells keep their bits).
    grad = _softmax(z, -1)
    grad[..., np.arange(z.shape[-2]), picked] -= 1.0
    return grad


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
    v = gaze.values if isinstance(gaze, GazeMap) else GazeMap(gaze).values
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
    v = gaze.values if isinstance(gaze, GazeMap) else GazeMap(gaze).values
    nz = v[v > 0.0]
    return float(-(nz * np.log(nz)).sum())
