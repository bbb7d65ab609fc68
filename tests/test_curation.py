"""Frame-pair selection behavior.

The deterministic fixtures exercise each rule (strict peaks, scan
window, tie-breaking, separation, top-k) in isolation. One flat-loop
reimplementation of the whole procedure, ``brute_force_pairs``, is the
oracle for the composed walk: one sweep checks every entry point
(``curate_video``, ``_curate_stream`` fed a generator, ``kl_curve`` and
``select_target``) against it on one list of sequences and one table of
windows. The bounded target search's own tests move its bounds and count
its pair steps.
"""

from __future__ import annotations

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import kl_div_reference, pgm_quantized
from gazekit import curation
from gazekit import (
    DEFAULT_KL_FLOOR,
    CurationParams,
    FramePair,
    GazeMap,
    GazeSequence,
    TooShort,
    curate_video,
    find_anchors,
    kl_curve,
    kl_div,
    normalize_to_simplex,
    select_target,
)
from gazekit.curation import _curate_stream
from gazekit.saliency import _kl_bounds, _kl_from_sides


def delta_map(side, row, col):
    v = np.zeros((side, side))
    v[row, col] = 1.0
    return GazeMap(v)


def blend_map(side, row, col, alpha):
    """Point mass mixed into a uniform background."""
    v = np.full((side, side), (1.0 - alpha) / (side * side))
    v[row, col] += alpha
    return GazeMap(v)


def seq_of(values_list, video_id="v"):
    return GazeSequence(video_id, tuple(GazeMap(v) for v in values_list))


def repeated_jump_arrays(side=8):
    """Two 30-frame segments of a and b, twice: the jump a -> b repeats 60
    frames apart, more than the default delta_max."""
    a, b = blend_map(side, 1, 1, 0.9).values, blend_map(side, 6, 5, 0.5).values
    return ([a] * 30 + [b] * 30) * 2


# Each frame pair's kl_div_reference, computed once per sequence: the sweep
# asks for the same pairs under every window.
_reference_scores: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def reference_kl(seq, anchor, target):
    scores = _reference_scores.setdefault(seq, {})
    if (anchor, target) not in scores:
        scores[anchor, target] = kl_div_reference(seq.maps[anchor].values, seq.maps[target].values)
    return scores[anchor, target]


def kl_curve_reference(seq):
    """kl_curve with one whole kl_div call per step."""
    return [reference_kl(seq, t, t + 1) for t in range(len(seq) - 1)]


def select_target_reference(seq, anchor, params):
    """select_target with one whole kl_div call per candidate."""
    best = None
    for delta in range(params.delta_min, params.delta_max + 1):
        target = anchor + delta
        if target >= len(seq):
            break
        score = reference_kl(seq, anchor, target)
        if best is None or score > best[1]:
            best = (target, score)
    return best


def brute_force_pairs(seq, params):
    """Plain-loop restatement of the selection procedure."""
    if len(seq) < params.min_frames:
        return []
    curve = kl_curve_reference(seq)
    picked = []
    for a in range(1, len(curve) - 1):
        if not (curve[a] > curve[a - 1] and curve[a] > curve[a + 1]):
            continue
        if curve[a] < params.peak_floor:
            continue
        found = select_target_reference(seq, a, params)
        if found is not None:
            target, score = found
            picked.append(FramePair(seq.video_id, a, target, target - a, curve[a], score))
    picked.sort(key=lambda p: (-p.pair_kl, p.anchor))
    kept = []
    for cand in picked:
        if len(kept) == params.top_k:
            break
        if all(abs(cand.anchor - k.anchor) >= params.delta_max for k in kept):
            kept.append(cand)
    return sorted(kept, key=lambda p: p.anchor)


class TestKLCurve:
    def test_static_sequence_is_flat(self):
        seq = seq_of([np.full((4, 4), 1 / 16.0)] * 5)
        assert kl_curve(seq) == [0.0] * 4

    def test_length_and_position(self):
        maps = [np.full((4, 4), 1 / 16.0)] * 3 + [delta_map(4, 0, 0).values] * 3
        curve = kl_curve(seq_of(maps))
        assert len(curve) == 5
        assert curve[2] > 1.0
        # Identical point masses still pay the clamping-floor residue.
        assert max(curve[:2] + curve[3:]) < 1e-6

    def test_needs_two_frames(self):
        with pytest.raises(TooShort):
            kl_curve(seq_of([np.full((4, 4), 1 / 16.0)]))


class TestFindAnchors:
    def test_monotone_curve_has_none(self):
        assert find_anchors([0.0, 1.0, 2.0, 3.0]) == []

    def test_single_spike(self):
        assert find_anchors([0.0, 5.0, 0.0, 0.0]) == [1]

    def test_endpoints_excluded(self):
        assert find_anchors([9.0, 1.0, 0.0, 9.0]) == []

    def test_plateau_is_not_a_peak(self):
        assert find_anchors([0.0, 5.0, 5.0, 0.0]) == []

    def test_floor_filters_small_peaks(self):
        curve = [0.0, 5.0, 0.0, 7.0, 0.0]
        assert find_anchors(curve) == [1, 3]
        assert find_anchors(curve, peak_floor=6.0) == [3]
        assert find_anchors(curve, peak_floor=7.0) == [3]


class TestSelectTarget:
    def test_no_room_before_the_end(self):
        maps = [np.full((4, 4), 1 / 16.0)] * 10
        assert select_target(seq_of(maps), 8, CurationParams(min_frames=2)) is None

    def test_picks_the_most_divergent_offset(self):
        maps = [np.full((6, 6), 1 / 36.0).copy() for _ in range(30)]
        maps[12] = blend_map(6, 0, 0, 0.9).values
        found = select_target(seq_of(maps), 5, CurationParams(min_frames=2))
        assert found is not None and found[0] == 12

    def test_tie_keeps_the_smallest_offset(self):
        # Frames past the anchor are all identical, so every offset
        # scores the same.
        maps = [delta_map(8, 1, 1).values] * 10 + [delta_map(8, 6, 6).values] * 50
        found = select_target(seq_of(maps), 9)
        assert found is not None and found[0] == 12

    def test_anchor_must_be_in_range(self):
        maps = [np.full((4, 4), 1 / 16.0)] * 5
        with pytest.raises(ValueError):
            select_target(seq_of(maps), 5, CurationParams(min_frames=2))


class TestCurateVideo:
    def test_two_segment_sequence(self):
        maps = [delta_map(8, 1, 1).values] * 10 + [delta_map(8, 6, 6).values] * 50
        pairs = curate_video(seq_of(maps))
        assert len(pairs) == 1
        p = pairs[0]
        assert (p.anchor, p.target, p.delta) == (9, 12, 3)
        assert p.anchor_peak_kl > 1.0
        assert p.pair_kl == pytest.approx(kl_div(delta_map(8, 1, 1), delta_map(8, 6, 6)))

    def test_too_few_frames_yields_nothing(self):
        maps = [delta_map(8, 1, 1).values] * 10 + [delta_map(8, 6, 6).values] * 30
        assert curate_video(seq_of(maps)) == []

    def test_keeps_the_two_strongest_spikes(self):
        # Three segment boundaries with increasing contrast; the first
        # spike is the weakest and must be the one dropped.
        segments = [(0.05, 30), (0.2, 30), (0.6, 30), (1.0, 30)]
        maps = []
        for alpha, count in segments:
            maps.extend([blend_map(10, 4, 4, alpha).values if alpha < 0.5
                         else blend_map(10, 8, 8, alpha).values] * count)
        seq = seq_of(maps)
        pairs = curate_video(seq)
        assert [p.anchor for p in pairs] == [59, 89]

    def test_spike_separation_rule(self):
        # Boundaries at 19, 29 (strong, 10 frames apart) and 69 (weak,
        # far away). The strongest spike at 29 suppresses its neighbor
        # at 19, so the weak far spike takes the second slot even though
        # 19 outscores it.
        maps = (
            [np.full((8, 8), 1 / 64.0)] * 20
            + [blend_map(8, 0, 0, 0.95).values] * 10
            + [blend_map(8, 7, 7, 0.95).values] * 40
            + [blend_map(8, 7, 7, 0.75).values] * 20
        )
        pairs = curate_video(seq_of(maps))
        by_anchor = {p.anchor: p for p in pairs}
        assert sorted(by_anchor) == [29, 69]
        # The suppressed spike really was the stronger of the two kept
        # alternatives.
        suppressed_score = kl_div(GazeMap(maps[19]), GazeMap(maps[22]))
        assert suppressed_score > by_anchor[69].pair_kl

    def test_equal_pair_kl_goes_to_the_earlier_anchor(self):
        # The jump from a to b happens at frames 29 and 89, so anchors 29 and
        # 89 give bit-equal candidates, and the jump back at 59 scores lower.
        # With room for one pair the greedy pass must keep the earlier anchor.
        pairs = curate_video(seq_of(repeated_jump_arrays()), CurationParams(top_k=3))
        assert [p.anchor for p in pairs] == [29, 59, 89]
        assert pairs[0].pair_kl == pairs[2].pair_kl > pairs[1].pair_kl
        (kept,) = curate_video(seq_of(repeated_jump_arrays()), CurationParams(top_k=1))
        assert kept == pairs[0]

    def test_prepending_static_frames_shifts_indices(self):
        rng = np.random.default_rng(4)
        maps = [rng.uniform(0.05, 1.0, size=(6, 6)) for _ in range(60)]
        maps = [normalize_to_simplex(m).values for m in maps]
        before = curate_video(seq_of(maps))
        shifted = curate_video(seq_of([maps[0]] * 7 + maps))
        assert len(before) > 0
        assert [(p.anchor + 7, p.target + 7, p.pair_kl) for p in before] == [
            (p.anchor, p.target, p.pair_kl) for p in shifted
        ]


class TestCurateCorpus:
    def test_counts_and_order(self):
        long_a = [delta_map(8, 1, 1).values] * 10 + [delta_map(8, 6, 6).values] * 50
        short = [delta_map(8, 1, 1).values] * 10
        long_b = [delta_map(8, 2, 2).values] * 20 + [delta_map(8, 5, 5).values] * 40
        seqs = [seq_of(long_a, "a"), seq_of(short, "b"), seq_of(long_b, "c")]
        per_video = [curate_video(seq) for seq in seqs]
        assert [(seq.video_id, len(pairs)) for seq, pairs in zip(seqs, per_video)] == [
            ("a", 1), ("b", 0), ("c", 1),
        ]
        pairs = [p for pairs in per_video for p in pairs]
        assert [(p.video_id, p.anchor) for p in pairs] == [("a", 9), ("c", 19)]

    def test_pair_fields_are_consistent(self):
        rng = np.random.default_rng(5)
        maps = [normalize_to_simplex(rng.uniform(0.05, 1.0, size=(6, 6))).values for _ in range(60)]
        for p in curate_video(seq_of(maps)):
            assert p.delta == p.target - p.anchor
            assert 3 <= p.delta <= 18

    def test_params_validate(self):
        with pytest.raises(ValueError):
            CurationParams(delta_min=0)
        with pytest.raises(ValueError):
            CurationParams(delta_min=5, delta_max=4)
        with pytest.raises(ValueError):
            CurationParams(top_k=0)

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("delta_min", float("nan"), "delta_min must be finite, got nan"),
            ("delta_min", float("-inf"), "delta_min must be at least 1"),
            ("delta_max", float("nan"), "delta_max must be finite, got nan"),
            ("delta_max", float("inf"), "delta_max must be finite, got inf"),
            ("min_frames", float("nan"), "min_frames must be finite, got nan"),
            ("min_frames", float("inf"), "min_frames must be finite, got inf"),
            ("top_k", float("nan"), "top_k must be finite, got nan"),
            ("top_k", float("inf"), "top_k must be finite, got inf"),
            ("peak_floor", float("nan"), "peak_floor must be finite, got nan"),
            ("peak_floor", float("inf"), "peak_floor must be finite, got inf"),
            ("peak_floor", float("-inf"), "peak_floor must be nonnegative"),
        ],
    )
    def test_params_are_finite(self, field, value, message):
        # The range checks come first; NaN slips past them, and then every
        # non-finite field is refused by name.
        with pytest.raises(ValueError) as info:
            CurationParams(**{field: value})
        assert str(info.value) == message

    def test_an_int_past_the_float_range_is_a_window(self):
        assert CurationParams(delta_max=10**400).delta_max == 10**400


def random_video(seed):
    """A random sequence on a 4-40 cell grid: smooth frames for even seeds,
    PGM-quantized frames for odd ones. Below seed 16 these have about 20 %
    empty cells; from seed 16 on every cell is positive, so the walk skips
    the KL floor's clamp and shares one log between the sides of each frame
    that sums to exactly 1."""
    rng = np.random.default_rng(seed)
    h, w = (int(x) for x in rng.integers(4, 41, size=2))
    frames = []
    for _ in range(int(rng.integers(12, 41))):
        if seed % 2:
            v = rng.uniform(size=(h, w)) ** 4
            if seed < 16:
                v[rng.uniform(size=(h, w)) < 0.2] = 0.0
            else:
                v += 1e-3  # at least 65 of 65535 after quantization
            v.flat[rng.integers(v.size)] = 1.0
            frames.append(pgm_quantized(v))
        else:
            frames.append(normalize_to_simplex(rng.uniform(0.05, 1.0, size=(h, w))).values)
    return seq_of(frames, video_id=f"r{seed}")


def drifting_blob(n, side=64):
    """An attention blob that drifts, and jumps every 97 frames."""
    rng = np.random.default_rng(0)
    rows, cols = np.arange(side)[:, None], np.arange(side)[None, :]
    center = np.full(2, side / 2)
    for t in range(n):
        if t % 97 == 50:
            center = rng.uniform(0.1 * side, 0.9 * side, size=2)
        else:
            center = np.clip(center + rng.normal(0.0, 0.3, size=2), 0.0, side - 1.0)
        v = np.exp(-((rows - center[0]) ** 2 + (cols - center[1]) ** 2) / 8.0) + 1e-4
        yield GazeMap(v / v.sum())


class TestStreamedCuration:
    """The one-pass walk over a frame iterator, as the curate command feeds it."""

    def test_memory_does_not_grow_with_the_video(self):
        side = 64
        params = CurationParams()

        def traced_peak(n):
            tracemalloc.start()
            try:
                pairs = _curate_stream("v", n, drifting_blob(n, side), params)
                return tracemalloc.get_traced_memory()[1], pairs
            finally:
                tracemalloc.stop()

        short_peak, _ = traced_peak(500)
        long_peak, pairs = traced_peak(2000)
        assert len(pairs) == params.top_k
        frame_bytes = side * side * 8
        assert long_peak <= 4 * (params.delta_max + 3) * frame_bytes
        # Only the few records kept per anchor grow with the video; keeping
        # one frame-sized array per frame would add 1500 * 32 KB.
        assert long_peak <= 1.25 * short_peak


def identical_windows(zero_cells):
    """A static frame with a one-frame spike every 25 frames: each spike is
    an anchor whose targets are all the static frame, so every offset ties.
    With ``zero_cells`` the frames hold empty cells and the pair step and
    the bounds gather."""
    if zero_cells:
        still = np.zeros((8, 8))
        still[2:5, 3:6] = 1.0 / 9.0
        spike = delta_map(8, 7, 0).values
    else:
        still, spike = blend_map(8, 3, 3, 0.2).values, blend_map(8, 0, 7, 0.8).values
    return seq_of([spike if j % 25 == 24 else still for j in range(100)], video_id=f"tie{zero_cells:d}")


def near_static(seed, n=80, side=8):
    """One random map, each frame rescaled cell by cell by 1 + 1e-13 noise:
    every divergence is a few ulps of rounding, and about half of them fall
    below zero and are clamped to 0."""
    rng = np.random.default_rng(seed)
    base = normalize_to_simplex(rng.uniform(0.1, 1.0, size=(side, side))).values
    frames = [base * (1.0 + 1e-13 * rng.standard_normal(base.shape)) for _ in range(n)]
    return seq_of([f / f.sum() for f in frames], video_id=f"n{seed}")


# The sequences of the equivalence sweep: random smooth and quantized videos,
# with and without empty cells; bit-equal targets; and near ties, some
# clamped to 0.
SEQUENCES = [
    *(random_video(seed) for seed in range(24)),
    identical_windows(False),
    identical_windows(True),
    *(near_static(seed) for seed in range(4)),
]

# More than two pairs fit in one video when anchors need only 9 frames apart.
RELAXED = CurationParams(delta_min=2, delta_max=9, min_frames=20, top_k=4, peak_floor=0.01)

# The sweep's windows, each with the budget it was first tested with: the
# defaults; min_frames 20, which some random videos fall under; windows of up
# to 60 frames, longer than any random video; one-target windows, which hold
# one prediction side; (1, 2), scored at the frame that decides its anchor;
# and the near-static windows, where all of a window's targets may clamp to 0.
WINDOWS = [
    CurationParams(),
    RELAXED,
    CurationParams(delta_min=1, delta_max=6, min_frames=20, top_k=3),
    *(
        CurationParams(delta_min=delta_min, delta_max=delta_max, min_frames=2, top_k=5)
        for delta_min, delta_max in ((1, 10), (3, 12), (1, 1), (1, 2), (2, 2), (3, 3), (2, 60))
    ),
    *(
        CurationParams(delta_min=delta_min, delta_max=delta_max, min_frames=2)
        for delta_min, delta_max in ((4, 4), (2, 30), (2, 18))
    ),
    *(
        CurationParams(delta_min=delta_min, delta_max=delta_max, min_frames=2, top_k=100)
        for delta_min, delta_max in ((2, 3), (3, 4), (2, 4), (3, 6), (3, 18))
    ),
]


def counted_pair_steps(monkeypatch):
    """Count the walk's exact pair steps and the targets it bounds."""
    counts = {"exact": 0, "bounded": 0}

    def pair_step(gt_side, log_q):
        counts["exact"] += 1
        return _kl_from_sides(gt_side, log_q)

    def bounds(gt_side, log_qs):
        counts["bounded"] += len(log_qs)
        return _kl_bounds(gt_side, log_qs)

    monkeypatch.setattr(curation, "_kl_from_sides", pair_step)
    monkeypatch.setattr(curation, "_kl_bounds", bounds)
    return counts


def moved_bounds(shift):
    """_kl_bounds with each estimate moved by 0.99 of its margin: all up,
    all down, alternating, or the winner down and the others up."""

    def bounds(gt_side, log_qs):
        estimate, margin = _kl_bounds(gt_side, log_qs)
        if shift == "against the winner":
            scores = [_kl_from_sides(gt_side, log_q) for log_q in log_qs]
            sign = np.where(np.arange(len(log_qs)) == np.argmax(scores), -1.0, 1.0)
        elif shift == "alternating":
            sign = np.resize([1.0, -1.0], len(log_qs))
        else:
            sign = 1.0 if shift == "up" else -1.0
        return estimate + 0.99 * sign * margin, margin

    return bounds


class TestBoundedTargetSearch:
    """The walk bounds every target by one dot product and scores exactly
    only those that can still win; the pairs must be the exhaustive scan's."""

    @pytest.mark.parametrize("zero_cells", [False, True])
    def test_identical_targets_all_survive_and_the_first_wins(self, zero_cells, monkeypatch):
        seq = identical_windows(zero_cells)
        counts = counted_pair_steps(monkeypatch)
        params = CurationParams(top_k=5)
        pairs = curate_video(seq, params)
        assert pairs == brute_force_pairs(seq, params)
        assert [(p.anchor, p.delta) for p in pairs] == [(24, 3), (49, 3), (74, 3)]
        # No bound separates equal scores: each target is scored exactly,
        # next to the 99 curve steps.
        assert counts["bounded"] == 3 * 16
        assert counts["exact"] == 99 + counts["bounded"]

    @pytest.mark.parametrize("shift", ["up", "down", "alternating", "against the winner"])
    def test_pairs_do_not_depend_on_the_dot_products_rounding(self, shift, monkeypatch):
        # Each target's dot product moved by 0.99 of its margin, the winner
        # down and the others up in the worst case: the exact results stay
        # inside the moved intervals, so no BLAS rounding changes a pair.
        params = [
            CurationParams(delta_min=delta_min, delta_max=delta_max, min_frames=2, top_k=100)
            for delta_min, delta_max in ((1, 10), (2, 3), (3, 18))
        ]
        expected = [[brute_force_pairs(seq, p) for p in params] for seq in SEQUENCES]
        monkeypatch.setattr(curation, "_kl_bounds", moved_bounds(shift))
        assert [[curate_video(seq, p) for p in params] for seq in SEQUENCES] == expected

    def test_select_target_at_every_anchor_of_near_ties(self, monkeypatch):
        # Targets a few ulps apart, or bit-equal, through select_target with
        # the winner's estimate moved down and the others' up: the margin
        # alone keeps the winner from being pruned.
        seqs = [near_static(0), near_static(1), identical_windows(False), identical_windows(True)]
        params = CurationParams(delta_min=2, delta_max=18, min_frames=2)
        expected = [[select_target_reference(seq, a, params) for a in range(len(seq))] for seq in seqs]
        monkeypatch.setattr(curation, "_kl_bounds", moved_bounds("against the winner"))
        assert [[select_target(seq, a, params) for a in range(len(seq))] for seq in seqs] == expected

    def test_the_bound_prunes_a_drifting_video(self, monkeypatch):
        # Most targets of a drifting, jumping blob are ruled out by their
        # bounds, as in the benchmark's videos.
        seq = GazeSequence("v", tuple(drifting_blob(200, side=32)))
        counts = counted_pair_steps(monkeypatch)
        params = CurationParams(top_k=4)
        assert curate_video(seq, params) == brute_force_pairs(seq, params)
        assert counts["bounded"] > 0
        assert counts["exact"] - (len(seq) - 1) < counts["bounded"] / 4


class TestBruteForceEquivalence:
    """Every entry point of the walk equals the one brute force, on every
    sequence and window of the sweep."""

    @pytest.mark.parametrize("entry", ["curate_video", "generator", "kl_curve", "select_target"])
    @pytest.mark.parametrize("seq", SEQUENCES, ids=lambda seq: seq.video_id)
    def test_every_entry_point_equals_the_brute_force(self, seq, entry):
        if entry == "kl_curve":
            assert kl_curve(seq) == kl_curve_reference(seq)
        elif entry == "select_target":
            # select_target reads only the window, so each window is checked
            # once, at every anchor: the late anchors' windows run past the
            # last frame.
            anchors = range(len(seq))
            for params in {(p.delta_min, p.delta_max): p for p in WINDOWS}.values():
                got = [select_target(seq, anchor, params) for anchor in anchors]
                assert got == [select_target_reference(seq, anchor, params) for anchor in anchors]
        else:
            # A video of exactly min_frames frames is scored, and has a peak
            # with room after it; one frame fewer and it gives no pairs.
            whole = CurationParams(delta_min=1, delta_max=10, min_frames=len(seq), top_k=5)
            assert brute_force_pairs(seq, whole)
            for params in [*WINDOWS, whole, replace(whole, min_frames=len(seq) + 1)]:
                if entry == "curate_video":
                    got = curate_video(seq, params)
                else:
                    # The curate command's form: the frames come from a generator.
                    got = _curate_stream(seq.video_id, len(seq), (m for m in seq.maps), params)
                assert got == brute_force_pairs(seq, params)

    def test_the_sweep_reaches_its_edge_cases(self):
        # Some video keeps more than two pairs under the relaxed separation,
        # and some kept near-static pairs are windows whose every target
        # clamped to 0.
        assert max(len(curate_video(seq, RELAXED)) for seq in SEQUENCES) > 2
        near = [near_static(seed) for seed in range(4)]
        assert any(p.pair_kl == 0.0 for seq in near for params in WINDOWS for p in curate_video(seq, params))

    def test_positive_quantized_videos_take_both_shortcuts(self):
        # Seeds 17, 19, 21 and 23 feed the sweep frames whose KL sides skip
        # the clamp, some summing to exactly 1 and some not.
        frames = [m.values for seed in (17, 19, 21, 23) for m in random_video(seed).maps]
        assert min(f.min() for f in frames) >= DEFAULT_KL_FLOOR
        assert 0 < sum(f.sum() == 1.0 for f in frames) < len(frames)
