"""Frame-pair selection behavior.

The deterministic fixtures exercise each rule (strict peaks, scan
window, tie-breaking, separation, top-k) in isolation; a flat-loop
reimplementation of the whole procedure then confirms the composed
pipeline on random sequences.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import kl_div_reference, pgm_quantized
from gazekit import (
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


def kl_curve_reference(seq):
    """kl_curve with one whole kl_div call per step."""
    return [kl_div_reference(seq.maps[t].values, seq.maps[t + 1].values) for t in range(len(seq) - 1)]


def select_target_reference(seq, anchor, params):
    """select_target with one whole kl_div call per candidate."""
    best = None
    for delta in range(params.delta_min, params.delta_max + 1):
        target = anchor + delta
        if target >= len(seq):
            break
        score = kl_div_reference(seq.maps[anchor].values, seq.maps[target].values)
        if best is None or score > best[1]:
            best = (target, score)
    return best


def brute_force_video(seq, params):
    """Plain-loop restatement of the selection procedure."""
    n = len(seq.maps)
    if n < params.min_frames:
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
            picked.append((a, found[0], found[1], curve[a]))
    picked.sort(key=lambda c: (-c[2], c[0]))
    kept = []
    for cand in picked:
        if len(kept) == params.top_k:
            break
        if all(abs(cand[0] - k[0]) >= params.delta_max for k in kept):
            kept.append(cand)
    kept.sort(key=lambda c: c[0])
    return kept


def brute_force_pairs(seq, params):
    """brute_force_video's selection as FramePair records."""
    return [
        FramePair(seq.video_id, anchor, target, target - anchor, peak, score)
        for anchor, target, score, peak in brute_force_video(seq, params)
    ]


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


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_sequences(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 91))
        maps = [normalize_to_simplex(rng.uniform(0.05, 1.0, size=(6, 6))).values for _ in range(n)]
        seq = seq_of(maps, video_id=f"s{seed}")
        got = [(p.anchor, p.target, p.pair_kl, p.anchor_peak_kl) for p in curate_video(seq)]
        assert got == brute_force_video(seq, CurationParams())

    def test_nondefault_params(self):
        rng = np.random.default_rng(99)
        maps = [normalize_to_simplex(rng.uniform(0.05, 1.0, size=(5, 5))).values for _ in range(70)]
        seq = seq_of(maps)
        params = CurationParams(delta_min=2, delta_max=9, min_frames=20, top_k=4, peak_floor=0.01)
        got = [(p.anchor, p.target, p.pair_kl, p.anchor_peak_kl) for p in curate_video(seq, params)]
        expect = brute_force_video(seq, params)
        assert got == expect
        assert len(got) > 2  # the relaxed separation actually admits more pairs


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


def random_video(seed):
    """A random sequence on a 4-40 cell grid: smooth frames, or PGM-quantized
    frames with about 20 % empty cells."""
    rng = np.random.default_rng(seed)
    h, w = (int(x) for x in rng.integers(4, 41, size=2))
    frames = []
    for _ in range(int(rng.integers(12, 41))):
        if seed % 2:
            v = rng.uniform(size=(h, w)) ** 4
            v[rng.uniform(size=(h, w)) < 0.2] = 0.0
            v.flat[rng.integers(v.size)] = 1.0
            frames.append(pgm_quantized(v))
        else:
            frames.append(normalize_to_simplex(rng.uniform(0.05, 1.0, size=(h, w))).values)
    return seq_of(frames, video_id=f"r{seed}")


class TestPreparedKLTable:
    """Every score the per-frame table gives equals whole kl_div calls."""

    @pytest.mark.parametrize("seed", range(16))
    def test_curve_and_every_target_window(self, seed):
        seq = random_video(seed)
        assert kl_curve(seq) == kl_curve_reference(seq)
        for delta_min in (1, 3):
            params = CurationParams(delta_min=delta_min, delta_max=delta_min + 9, min_frames=2)
            # Late anchors have windows that run past the last frame.
            for anchor in range(len(seq)):
                got = select_target(seq, anchor, params)
                assert got == select_target_reference(seq, anchor, params)

    @pytest.mark.parametrize("seed", range(16))
    def test_every_pair_field(self, seed):
        seq = random_video(seed)
        for delta_min in (1, 3):
            params = CurationParams(delta_min=delta_min, delta_max=delta_min + 9, min_frames=2, top_k=5)
            pairs = curate_video(seq, params)
            assert pairs == brute_force_pairs(seq, params)
            assert pairs  # every random video has a peak with room after it

    def test_corpus(self):
        seqs = [random_video(seed) for seed in range(6)]
        params = CurationParams(delta_min=1, delta_max=6, min_frames=20, top_k=3)
        # Some videos fall under min_frames and give no pairs.
        got = [curate_video(seq, params) for seq in seqs]
        assert got == [brute_force_pairs(seq, params) for seq in seqs]
