"""Selecting anchor/target frame pairs from gaze sequences.

The pipeline works on the divergence curve of a sequence: entry t is
the KL divergence between the gaze maps of frames t and t+1, so spikes
mark moments where attention jumps. Strict interior maxima of the curve
become anchor candidates. Each anchor is paired with the later frame,
between delta_min and delta_max frames ahead, whose map diverges most
from the anchor's (ties go to the smallest offset). Candidate pairs are
ranked by that divergence, thinned so the kept anchors stay at least
delta_max frames apart, truncated to the per-video budget, and returned
in anchor order. Videos shorter than min_frames yield nothing.

Each frame's KL terms are prepared once per video: ``curate_video``
builds one table of every frame's ground-truth side (positive-cell
mask, values and logs) and prediction side (the log of the floored,
renormalized map), and every curve step and target candidate only
combines two entries of it. The scores are those of ``kl_div``, bit for
bit. The table lives only as long as one ``curate_video`` call, and the
``curate`` command curates each video before it reads the next, so a
corpus is never in memory as a whole.

Everything is deterministic: rerunning on the same sequences gives the
same pairs in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TooShort
from .grids import GazeMap
from .saliency import _kl_from_sides, _kl_gt_side, _kl_pred_side

__all__ = [
    "CurationParams",
    "FramePair",
    "GazeSequence",
    "kl_curve",
    "find_anchors",
    "select_target",
    "curate_video",
]


@dataclass(frozen=True)
class CurationParams:
    """Selection thresholds for pair curation."""

    delta_min: int = 3
    delta_max: int = 18
    min_frames: int = 50
    top_k: int = 2
    peak_floor: float = 0.0

    def __post_init__(self):
        if self.delta_min < 1:
            raise ValueError("delta_min must be at least 1")
        if self.delta_max < self.delta_min:
            raise ValueError("delta_max must be >= delta_min")
        if self.min_frames < 2:
            raise ValueError("min_frames must be at least 2")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if self.peak_floor < 0.0:
            raise ValueError("peak_floor must be nonnegative")
        if not math.isfinite(self.peak_floor):
            raise ValueError(f"peak_floor must be finite, got {self.peak_floor}")


@dataclass(frozen=True, eq=False)
class GazeSequence:
    """Ordered per-frame gaze maps for one video."""

    video_id: str
    maps: tuple[GazeMap, ...]

    def __post_init__(self):
        maps = tuple(self.maps)
        if not maps:
            raise ValueError("a sequence needs at least one frame")
        first = maps[0]
        for m in maps:
            if (m.height, m.width) != (first.height, first.width):
                raise ValueError("all frames in a sequence must share dimensions")
        object.__setattr__(self, "maps", maps)

    def __len__(self) -> int:
        return len(self.maps)


@dataclass(frozen=True)
class FramePair:
    """One selected anchor/target pair with its divergence scores."""

    video_id: str
    anchor: int
    target: int
    delta: int
    anchor_peak_kl: float
    pair_kl: float

    def __post_init__(self):
        if self.anchor < 0 or self.target <= self.anchor:
            raise ValueError("target must come after anchor")
        if self.delta != self.target - self.anchor:
            raise ValueError("delta must equal target - anchor")


def kl_curve(seq: GazeSequence) -> list[float]:
    """Per-step divergence: entry t compares frames t and t+1."""
    if len(seq) < 2:
        raise TooShort("a divergence curve needs at least two frames")
    return _curve(_kl_table(seq))


def _kl_table(seq: GazeSequence) -> list[tuple]:
    # Per frame: its kl_div sides as ground truth and as prediction.
    return [(_kl_gt_side(m.values), _kl_pred_side(m.values)) for m in seq.maps]


def _curve(table) -> list[float]:
    return [_kl_from_sides(table[t][0], table[t + 1][1]) for t in range(len(table) - 1)]


def find_anchors(curve, peak_floor: float = 0.0) -> list[int]:
    """Indices of strict interior maxima of the curve, at or above the floor.

    Endpoints are never anchors, and plateaus do not count: the value
    must strictly exceed both neighbors.
    """
    return [
        t
        for t in range(1, len(curve) - 1)
        if curve[t] > curve[t - 1] and curve[t] > curve[t + 1] and curve[t] >= peak_floor
    ]


def select_target(
    seq: GazeSequence, anchor: int, params: CurationParams = CurationParams()
) -> tuple[int, float] | None:
    """Pick the in-range later frame most divergent from the anchor.

    Scans offsets delta_min..delta_max that stay inside the sequence and
    returns (target_index, divergence), keeping the smallest offset on
    ties. Returns None when no offset fits.
    """
    if not 0 <= anchor < len(seq):
        raise ValueError(f"anchor {anchor} outside sequence of {len(seq)} frames")
    return _best_target(_kl_table(seq), anchor, params)


def _best_target(table, anchor: int, params: CurationParams) -> tuple[int, float] | None:
    gt_side = table[anchor][0]
    best: tuple[int, float] | None = None
    for delta in range(params.delta_min, params.delta_max + 1):
        target = anchor + delta
        if target >= len(table):
            break
        score = _kl_from_sides(gt_side, table[target][1])
        if best is None or score > best[1]:
            best = (target, score)
    return best


def curate_video(seq: GazeSequence, params: CurationParams = CurationParams()) -> list[FramePair]:
    """Run the full per-video selection, returning pairs in anchor order."""
    if len(seq) < params.min_frames:
        return []
    table = _kl_table(seq)
    curve = _curve(table)
    candidates: list[FramePair] = []
    for anchor in find_anchors(curve, params.peak_floor):
        found = _best_target(table, anchor, params)
        if found is None:
            continue
        target, pair_kl = found
        candidates.append(
            FramePair(
                video_id=seq.video_id,
                anchor=anchor,
                target=target,
                delta=target - anchor,
                anchor_peak_kl=curve[anchor],
                pair_kl=pair_kl,
            )
        )
    # Greedy pass in score order; a candidate is kept only if its anchor
    # stays at least delta_max frames from every anchor already kept.
    candidates.sort(key=lambda p: (-p.pair_kl, p.anchor))
    kept: list[FramePair] = []
    for cand in candidates:
        if len(kept) == params.top_k:
            break
        if all(abs(cand.anchor - k.anchor) >= params.delta_max for k in kept):
            kept.append(cand)
    return sorted(kept, key=lambda p: p.anchor)

