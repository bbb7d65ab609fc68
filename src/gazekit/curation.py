"""Selecting anchor/target frame pairs from gaze sequences.

The pipeline works on the divergence curve of a sequence: entry t is
the KL divergence between the gaze maps of frames t and t+1, so spikes
mark moments where attention jumps. Strict interior maxima of the curve
become anchor candidates. Each anchor is paired with the later frame,
between delta_min and delta_max frames ahead, whose map diverges most
from the anchor's (ties go to the smallest offset). Candidate pairs are
ranked by that divergence, with the earlier anchor first on equal
divergence, thinned so the kept anchors stay at least delta_max frames
apart, truncated to the per-video budget, and returned in anchor order.
Videos shorter than min_frames yield nothing.

Selection walks each video once, in frame order, and keeps no
per-video table. As a frame is read, its two ``kl_div`` sides are
computed: the ground-truth side (positive-cell mask, values and logs)
and the prediction side (the log of the floored, renormalized map).
Curve step t is scored as soon as frame t+1 is read, anchor t-1 is
decided right after it, and an anchor's targets are scored once it is
decided and its last target frame is read. The one target search,
shared with ``select_target``, bounds before it scores: one dot product
per target gives an estimate of its divergence and a worst-case rounding
margin around it, and only the targets whose upper bound reaches the
best lower bound are scored exactly, in offset order. A pruned target
scores strictly below the winner, so the pick and its score are those
of the exhaustive scan.

The sides live in two fixed-length windows: 3 ground-truth sides, plus
one held by each anchor awaiting its targets, and min(n_frames,
max(delta_max, 2) - delta_min + 1) prediction sides. So the memory a
video needs does not grow with its length. The scores are those of
``kl_div``, bit for bit.
``curate_video`` runs this walk over a ``GazeSequence``; the ``curate``
command runs it over a video's frame files as they are loaded, and
reads the next video only after it.

Everything is deterministic: rerunning on the same sequences gives the
same pairs in the same order.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import TooShort
from .grids import GazeMap, _require_finite
from .saliency import _kl_bounds, _kl_from_sides, _kl_gt_side, _kl_pred_side, _kl_sides, kl_div

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
        _require_finite(self)


@dataclass(frozen=True, eq=False)
class GazeSequence:
    """Ordered per-frame gaze maps for one video."""

    video_id: str
    maps: tuple[GazeMap, ...]

    def __post_init__(self):
        maps = tuple(_same_shape(self.maps))
        if not maps:
            raise ValueError("a sequence needs at least one frame")
        object.__setattr__(self, "maps", maps)

    def __len__(self) -> int:
        return len(self.maps)


def _same_shape(maps: Iterable[GazeMap]) -> Iterator[GazeMap]:
    # Each map in turn, once it is known to have the first map's shape.
    shape = None
    for m in maps:
        if shape is None:
            shape = (m.height, m.width)
        elif (m.height, m.width) != shape:
            raise ValueError("all frames in a sequence must share dimensions")
        yield m


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
    return [kl_div(seq.maps[t], seq.maps[t + 1]) for t in range(len(seq) - 1)]


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
    targets = range(anchor + params.delta_min, min(anchor + params.delta_max + 1, len(seq)))
    # The sides kl_div computes, so each score is kl_div's, bit for bit.
    sides = [_kl_pred_side(seq.maps[target].values) for target in targets]
    return _best_target(_kl_gt_side(seq.maps[anchor].values), targets, sides)


def _best_target(gt_side: tuple, targets: range, sides: list) -> tuple[int, float] | None:
    # The target search: the first highest-scoring target with its score, or
    # None for no target; sides[i] is the prediction side of targets[i]. Each
    # exact score lies in [max(0, e - m), max(0, e + m)], so a target whose
    # upper end is below another's lower end cannot win, nor tie the winner.
    # The rest are scored exactly, in delta order.
    if not targets:
        return None
    estimate, margin = _kl_bounds(gt_side, sides)
    bar = np.maximum(0.0, estimate - margin).max()
    best: tuple[int, float] | None = None
    for target, side, top in zip(targets, sides, np.maximum(0.0, estimate + margin)):
        if top < bar:
            continue
        score = _kl_from_sides(gt_side, side)
        if best is None or score > best[1]:
            best = (target, score)
    return best


def curate_video(seq: GazeSequence, params: CurationParams = CurationParams()) -> list[FramePair]:
    """Run the full per-video selection, returning pairs in anchor order."""
    return _curate_stream(seq.video_id, len(seq), seq.maps, params)


def _curate_stream(
    video_id: str, n_frames: int, maps: Iterable[GazeMap], params: CurationParams
) -> list[FramePair]:
    # One pass over a video's n_frames maps, in frame order. Frame j's two
    # kl_div sides are computed as it is read, curve step j-1 is scored at
    # once and anchor j-2 is decided; anchor a's targets are scored at frame
    # a + reach, once it is decided and its last target is read, or at the
    # end of the video. The windows' lengths bound what is live: 3
    # ground-truth sides plus one per pending anchor, and the prediction
    # sides of the last reach - delta_min + 1 frames, capped at n_frames
    # because the deltas may exceed any video (and a deque's length).
    # A short video is still read, so a broken frame still raises.
    scoring = n_frames >= params.min_frames
    reach = max(params.delta_max, 2)  # anchor a is decided at frame a + 2
    gt_sides: deque[tuple] = deque(maxlen=3)  # frames j-2, j-1 and j
    pred_sides: deque[np.ndarray] = deque(maxlen=min(n_frames, reach - params.delta_min + 1))
    recent: deque[float] = deque(maxlen=3)  # curve steps j-3, j-2 and j-1
    pending: deque[tuple[int, float, tuple]] = deque()  # anchors awaiting targets
    candidates: list[FramePair] = []

    def score_targets(anchor: int, peak: float, gt_side: tuple, last: int) -> None:
        first = last - len(pred_sides) + 1  # pred_sides holds frames first..last
        targets = range(anchor + params.delta_min, min(anchor + params.delta_max, last) + 1)
        found = _best_target(gt_side, targets, [pred_sides[target - first] for target in targets])
        if found:
            target, pair_kl = found
            candidates.append(FramePair(video_id, anchor, target, target - anchor, peak, pair_kl))

    for j, gaze in enumerate(_same_shape(maps)):
        if not scoring:
            continue
        gt_side, pred_side = _kl_sides(gaze.values)
        gt_sides.append(gt_side)
        pred_sides.append(pred_side)
        if j == 0:
            continue
        recent.append(_kl_from_sides(gt_sides[-2], pred_sides[-1]))
        # Frame 0, with only two steps in recent, is never an anchor.
        if find_anchors(recent, params.peak_floor):
            pending.append((j - 2, recent[1], gt_sides[0]))
        if pending and pending[0][0] + reach == j:
            score_targets(*pending.popleft(), j)
    for waiting in pending:
        score_targets(*waiting, j)

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
