"""End-to-end command tests driving main() with temp directories.

Every command is exercised through its argv surface, asserting exit
codes, emitted files, and the stdout/stderr contract. File outputs are
checked for byte determinism where the command promises it.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import os
import re
import resource
import signal
import stat
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import NamedTuple
from xml.etree import ElementTree

import numpy as np
import pytest

from conftest import gaussian_blur_reference, gaze_map_reference, pgm_quantized, spatial_softmax_reference
from gazekit import (
    MANIFEST_HEADER,
    CurationParams,
    GazeLossConfig,
    GazeMap,
    GazeSequence,
    curate_video,
    entropy,
    kl_div,
    load_map,
    normalize_to_simplex,
    read_manifest_rows,
    read_metrics_table,
    score_captions,
    save_fixations,
    save_map,
    FixationMap,
    write_manifest,
)
from gazekit import cli, gradcheck, manifests, run_gradient_checks
from gazekit.cli import build_parser, main
from gazekit.grids import _blur_matrix
from gazekit.objectives import _softmax_backprop
from gazekit.saliency import _kl_grad_wrt_pred


def write_map_dir(directory, maps, suffix=".pgm"):
    directory.mkdir(parents=True, exist_ok=True)
    for name, gaze in maps.items():
        save_map(directory / f"{name}{suffix}", gaze)


def peaked_map(rng, side, peak_cell):
    v = rng.uniform(0.05, 0.5, size=(side, side))
    v[peak_cell] = 1.0
    return normalize_to_simplex(v)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestEvaluate:
    def setup_corpus(self, tmp_path, rng, n=3, side=12):
        maps = {f"f{i}": peaked_map(rng, side, (2 + i, 3 + i)) for i in range(n)}
        write_map_dir(tmp_path / "pred", maps)
        write_map_dir(tmp_path / "gt", maps)
        fix_dir = tmp_path / "fix"
        fix_dir.mkdir()
        for name, gaze in maps.items():
            mask = np.zeros(gaze.values.shape, dtype=bool)
            mask[np.unravel_index(np.argmax(gaze.values), gaze.values.shape)] = True
            save_fixations(fix_dir / f"{name}.csv", FixationMap(mask))
        return maps

    def test_self_evaluation_is_perfect(self, tmp_path, rng, capsys):
        self.setup_corpus(tmp_path, rng)
        out = tmp_path / "metrics.csv"
        code = main([
            "evaluate", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(tmp_path / "gt"),
            "--fix-dir", str(tmp_path / "fix"), "--out", str(out),
        ])
        assert code == 0
        rows, mean = read_metrics_table(out)
        assert [r["id"] for r in rows] == ["f0.pgm", "f1.pgm", "f2.pgm"]
        assert abs(mean["cc"] - 1.0) < 1e-6
        assert abs(mean["kl"]) < 1e-6
        assert abs(mean["sim"] - 1.0) < 1e-6
        assert abs(mean["auc_j"] - 1.0) < 1e-6
        assert abs(mean["auc_b"] - 1.0) < 1e-6
        assert mean["nss"] > 0.0

    def test_unpaired_file_fails_without_writing(self, tmp_path, rng, capsys):
        maps = {f"f{i}": peaked_map(rng, 8, (1, i + 1)) for i in range(2)}
        write_map_dir(tmp_path / "pred", maps)
        write_map_dir(tmp_path / "gt", {"f0": maps["f0"]})
        out = tmp_path / "metrics.csv"
        code = main([
            "evaluate", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(tmp_path / "gt"),
            "--out", str(out),
        ])
        assert code == 2
        assert "f1.pgm" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_fixation_file_fails(self, tmp_path, rng, capsys):
        self.setup_corpus(tmp_path, rng, n=2)
        (tmp_path / "fix" / "f1.csv").unlink()
        code = main([
            "evaluate", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(tmp_path / "gt"),
            "--fix-dir", str(tmp_path / "fix"), "--out", str(tmp_path / "m.csv"),
        ])
        assert code == 2
        assert "f1.pgm" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_no_fixation_dir_skips_three_columns(self, tmp_path, rng, capsys):
        self.setup_corpus(tmp_path, rng, n=2)
        out = tmp_path / "metrics.csv"
        code = main([
            "evaluate", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(tmp_path / "gt"),
            "--out", str(out),
        ])
        assert code == 0
        assert "skipped" in capsys.readouterr().err
        rows, mean = read_metrics_table(out)
        assert all(r["auc_j"] == "skipped" and r["nss"] == "skipped" for r in rows)
        assert mean["auc_j"] == "NA" and mean["auc_b"] == "NA" and mean["nss"] == "NA"

    def test_metric_errors_become_cells_not_failures(self, tmp_path, capsys):
        uniform = normalize_to_simplex(np.ones((6, 6)))
        write_map_dir(tmp_path / "pred", {"u": uniform}, suffix=".csv")
        write_map_dir(tmp_path / "gt", {"u": uniform}, suffix=".csv")
        fix_dir = tmp_path / "fix"
        fix_dir.mkdir()
        mask = np.zeros((6, 6), dtype=bool)
        mask[2, 2] = mask[3, 4] = True
        save_fixations(fix_dir / "u.csv", FixationMap(mask))
        out = tmp_path / "metrics.csv"
        code = main([
            "evaluate", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(tmp_path / "gt"),
            "--fix-dir", str(fix_dir), "--out", str(out),
        ])
        assert code == 0
        rows, _ = read_metrics_table(out)
        assert rows[0]["cc"] == "ZeroVariance"
        assert rows[0]["nss"] == "ZeroVariance"
        assert rows[0]["kl"] == 0.0
        assert rows[0]["auc_j"] == 0.5

    def test_reruns_are_byte_identical(self, tmp_path, rng):
        self.setup_corpus(tmp_path, rng, n=2)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main([
                "evaluate", "--pred-dir", str(tmp_path / "pred"),
                "--gt-dir", str(tmp_path / "gt"),
                "--fix-dir", str(tmp_path / "fix"), "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def run_cli(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, entry=("-m", "gazekit.cli"), **options):
    """The CLI in a fresh interpreter, with Python's default warning filters.
    ``entry`` is what runs it: the module, or a ``-c`` program calling ``main``.
    ``options`` go to ``subprocess.run``, such as ``input`` or ``preexec_fn``."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, *entry, *map(str, argv)],
        env=env, stdout=stdout, stderr=stderr, text=True, **options,
    )


def closed_pipe() -> int:
    """The write end of a pipe whose reader has already gone."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


class TestMapLoading:
    OVERFLOW = "1e308,1e308\n1,1\n"

    def test_overflowing_mass_in_evaluate(self, tmp_path):
        for side in ("pred", "gt"):
            (tmp_path / side).mkdir()
        (tmp_path / "pred" / "a.csv").write_text(self.OVERFLOW)
        (tmp_path / "gt" / "a.csv").write_text("1,1\n1,1\n")
        out = tmp_path / "m.csv"
        done = run_cli("evaluate", "--pred-dir", tmp_path / "pred", "--gt-dir", tmp_path / "gt", "--out", out)
        assert done.returncode == 2
        assert done.stderr == (
            "no fixation directory given; auc_j, auc_b and nss columns are skipped\n"
            "a.csv: grid mass overflows the float64 range\n"
        )
        assert not out.exists()

    def test_overflowing_mass_in_curate(self, tmp_path):
        write_sequence_dir(tmp_path / "corpus", "v0", two_segment_arrays())
        (tmp_path / "corpus" / "v0" / "frame_005.csv").write_text(self.OVERFLOW)
        done = run_cli("curate", tmp_path / "corpus", "--out", tmp_path / "pairs.csv")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "v0: grid mass overflows the float64 range, skipped\n"

    def test_map_files_match_the_pathlib_listing(self, tmp_path, monkeypatch):
        d = tmp_path / "maps"
        d.mkdir()
        for name in ("b.csv", "a.PGM", "Z.csv", "c.txt", ".csv", "..csv", "e.csv."):
            (d / name).write_text("1\n")
        (d / "dir.csv").mkdir()
        (d / "link.pgm").symlink_to(d / "b.csv")
        (d / "dangling.csv").symlink_to(d / "nowhere")

        def pathlib_listing(directory):
            # The listing as it was built from Path objects.
            return {
                p.name: str(p)
                for p in sorted(directory.iterdir())
                if p.is_file() and p.suffix.lower() in (".pgm", ".csv")
            }

        expected = pathlib_listing(d)
        assert list(expected) == ["..csv", "Z.csv", "a.PGM", "b.csv", "link.pgm"]
        assert cli._map_files(d) == expected
        monkeypatch.chdir(d)
        assert cli._map_files(Path(".")) == pathlib_listing(Path(".")) == {n: n for n in expected}

    def test_missing_fixations_under_the_current_directory(self, tmp_path, rng, monkeypatch, capsys):
        TestEvaluate().setup_corpus(tmp_path, rng, n=2)
        (tmp_path / "fix" / "f1.csv").unlink()
        monkeypatch.chdir(tmp_path / "fix")
        code = main(["evaluate", "--pred-dir", "../pred", "--gt-dir", "../gt", "--fix-dir", ".", "--out", "../m.csv"])
        assert code == 2
        # The path reads as str(Path(".") / "f1.csv") would.
        assert capsys.readouterr().err == "f1.pgm: fixations: [Errno 2] No such file or directory: 'f1.csv'\n"


def write_sequence_dir(root, video, arrays):
    vdir = root / video
    vdir.mkdir(parents=True, exist_ok=True)
    for i, values in enumerate(arrays):
        save_map(vdir / f"frame_{i:03d}.csv", GazeMap(values))


def two_segment_arrays(n_first=10, n_second=50, side=8):
    a = np.zeros((side, side))
    a[1, 1] = 1.0
    b = np.zeros((side, side))
    b[6, 6] = 1.0
    return [a] * n_first + [b] * n_second


class TestCurate:
    def test_two_segment_video(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_sequence_dir(root, "vid0", two_segment_arrays())
        out = tmp_path / "pairs.csv"
        code = main(["curate", str(root), "--out", str(out)])
        assert code == 0
        assert "vid0: 1" in capsys.readouterr().out
        header, rows = read_manifest_rows(out)
        assert len(rows) == 1
        row = rows[0]
        assert (row["anchor"], row["target"], row["delta"]) == ("9", "12", "3")
        assert row["anchor_map_path"] == "vid0/frame_009.csv"
        assert row["target_map_path"] == "vid0/frame_012.csv"
        assert row["caption"] == ""

    def test_equal_pair_kl_keeps_the_earlier_anchor(self, tmp_path, capsys):
        # The jump a -> b repeats at frames 29 and 89, more than delta_max
        # apart, so both anchors score the same pair_kl, above the jump back
        # at 59. --top-k 1 must keep the earlier one.
        a = np.full((8, 8), 0.1 / 63)
        a[1, 1] = 0.9
        b = np.full((8, 8), 0.5 / 63)
        b[6, 5] = 0.5
        root = tmp_path / "corpus"
        write_sequence_dir(root, "v", ([a] * 30 + [b] * 30) * 2)
        out = tmp_path / "pairs.csv"
        rows_by_k = {}
        for top_k in ("1", "3"):
            assert main(["curate", str(root), "--out", str(out), "--top-k", top_k]) == 0
            rows_by_k[top_k] = read_manifest_rows(out)[1]
        assert [row["anchor"] for row in rows_by_k["3"]] == ["29", "59", "89"]
        first, back, second = rows_by_k["3"]
        assert first["pair_kl"] == second["pair_kl"]
        assert float(first["pair_kl"]) > float(back["pair_kl"])
        assert rows_by_k["1"] == [first]

    def test_short_video_yields_empty_manifest(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_sequence_dir(root, "shorty", two_segment_arrays(10, 30))
        out = tmp_path / "pairs.csv"
        code = main(["curate", str(root), "--out", str(out)])
        assert code == 0
        assert "shorty: 0" in capsys.readouterr().out
        _, rows = read_manifest_rows(out)
        assert rows == []

    def test_videos_without_maps_are_skipped_with_exit_2(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_sequence_dir(root, "good", two_segment_arrays())
        (root / "empty").mkdir()
        out = tmp_path / "pairs.csv"
        code = main(["curate", str(root), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "empty" in captured.err
        # The good video is still curated and written.
        _, rows = read_manifest_rows(out)
        assert len(rows) == 1 and rows[0]["video_id"] == "good"

    def test_selection_flags_are_honored(self, tmp_path):
        root = tmp_path / "corpus"
        write_sequence_dir(root, "v", two_segment_arrays(5, 15))
        out = tmp_path / "pairs.csv"
        code = main([
            "curate", str(root), "--out", str(out),
            "--min-frames", "10", "--delta-min", "2", "--delta-max", "6",
        ])
        assert code == 0
        _, rows = read_manifest_rows(out)
        assert len(rows) == 1
        assert (rows[0]["anchor"], rows[0]["target"]) == ("4", "6")

    def test_each_video_is_curated_before_the_next_is_read(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "corpus"
        videos = ["v0", "v1", "v2"]
        for name in videos:
            write_sequence_dir(root, name, two_segment_arrays())
        events = []
        real_load, real_curate = cli.load_map, cli._curate_stream

        def load(path):
            events.append(("load", Path(path).parent.name))
            return real_load(path)

        def curate(video_id, n_frames, maps, params):
            # Recorded once the walk over the video has returned.
            selected = real_curate(video_id, n_frames, maps, params)
            events.append(("curate", video_id))
            return selected

        monkeypatch.setattr(cli, "load_map", load)
        monkeypatch.setattr(cli, "_curate_stream", curate)
        assert main(["curate", str(root), "--out", str(tmp_path / "pairs.csv")]) == 0
        for done, following in zip(videos, videos[1:]):
            assert events.index(("curate", done)) < events.index(("load", following))

    def test_skipped_videos_between_good_ones(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_sequence_dir(root, "a_good", two_segment_arrays())
        (root / "b_empty").mkdir()
        write_sequence_dir(root, "c_truncated", two_segment_arrays())
        save_map(root / "c_truncated" / "frame_020.pgm", GazeMap(two_segment_arrays()[20]))
        broken = root / "c_truncated" / "frame_020.pgm"
        broken.write_bytes(broken.read_bytes()[:-3])
        (root / "c_truncated" / "frame_020.csv").unlink()
        write_sequence_dir(root, "d_good", two_segment_arrays(20, 40))
        out = tmp_path / "pairs.csv"

        assert main(["curate", str(root), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "a_good: 1\nd_good: 1\n"
        err = captured.err.splitlines()
        assert len(err) == 2
        assert err[0] == "b_empty: no map files, skipped"
        assert err[1] == f"c_truncated: {broken}: raster holds 125 bytes, expected 128, skipped"

        # The manifest is the one the whole good corpus, loaded up front, gives.
        good = {}
        for name in ("a_good", "d_good"):
            files = sorted((root / name).iterdir())
            good[name] = (GazeSequence(name, tuple(load_map(f) for f in files)), files)
        expected = tmp_path / "expected.csv"
        write_manifest(
            expected,
            [pair for seq, _ in good.values() for pair in curate_video(seq)],
            {name: [str(f.relative_to(root)) for f in files] for name, (_, files) in good.items()},
        )
        assert out.read_bytes() == expected.read_bytes()

    def test_unlistable_video_is_skipped(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "corpus"
        for name in ("video_000", "video_001", "video_002"):
            write_sequence_dir(root, name, two_segment_arrays())
        real_map_files = cli._map_files
        denied = PermissionError(13, "Permission denied", str(root / "video_001"))

        def map_files(directory):
            if directory.name == "video_001":
                raise denied
            return real_map_files(directory)

        monkeypatch.setattr(cli, "_map_files", map_files)
        out = tmp_path / "pairs.csv"
        assert main(["curate", str(root), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "video_000: 1\nvideo_002: 1\n"
        assert captured.err == f"video_001: {denied}, skipped\n"
        _, rows = read_manifest_rows(out)
        assert [row["video_id"] for row in rows] == ["video_000", "video_002"]

    def test_non_ascii_csv_frame_is_named(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_sequence_dir(root, "v0", two_segment_arrays())
        write_sequence_dir(root, "v1", two_segment_arrays())
        bad = root / "v1" / "frame_020.csv"
        bad.write_bytes("0.5,\u00e9\n".encode("utf-8"))
        assert main(["curate", str(root), "--out", str(tmp_path / "pairs.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "v0: 1\n"
        assert captured.err == f"v1: {bad}: not ASCII text (ordinal not in range(128) at byte 4), skipped\n"

    def test_pgm_frame_with_a_bad_header_field_is_named(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_sequence_dir(root, "v0", two_segment_arrays())
        write_sequence_dir(root, "v1", two_segment_arrays())
        (root / "v1" / "frame_020.csv").unlink()
        bad = root / "v1" / "frame_020.pgm"
        bad.write_bytes(b"P5\nabc 2\n65535\n")
        assert main(["curate", str(root), "--out", str(tmp_path / "pairs.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "v0: 1\n"
        assert captured.err == f"v1: {bad}: bad header field b'abc', skipped\n"

    def test_truncated_last_frame_skips_the_whole_video(self, tmp_path, capsys):
        # The walk has found v1's pair before it reads the broken frame.
        root = tmp_path / "corpus"
        write_sequence_dir(root, "v0", two_segment_arrays())
        (root / "v1").mkdir()
        arrays = two_segment_arrays()
        for i, values in enumerate(arrays):
            save_map(root / "v1" / f"frame_{i:03d}.pgm", GazeMap(values))
        last = root / "v1" / f"frame_{len(arrays) - 1:03d}.pgm"
        last.write_bytes(last.read_bytes()[:-3])
        out = tmp_path / "pairs.csv"
        assert main(["curate", str(root), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "v0: 1\n"
        assert captured.err == f"v1: {last}: raster holds 125 bytes, expected 128, skipped\n"
        _, rows = read_manifest_rows(out)
        assert [row["video_id"] for row in rows] == ["v0"]

    def test_a_video_name_with_a_newline_gives_one_line(self, tmp_path, capsys):
        # Its count line or its skip line; the manifest keeps the real name.
        root = tmp_path / "corpus"
        write_sequence_dir(root, "w\ny", two_segment_arrays())
        (root / "v\nx").mkdir()
        frame = root / "v\nx" / "frame_000.pgm"
        save_map(frame, GazeMap(two_segment_arrays()[0]))
        frame.write_bytes(frame.read_bytes()[:-3])
        out = tmp_path / "pairs.csv"
        assert main(["curate", str(root), "--out", str(out)]) == 2
        line = f"v x: {root}/v x/frame_000.pgm: raster holds 125 bytes, expected 128, skipped\n"
        assert capsys.readouterr() == ("w y: 1\n", line)
        _, rows = read_manifest_rows(out)
        assert [row["video_id"] for row in rows] == ["w\ny"]

    @pytest.mark.parametrize(
        "window, counts, pairs",
        [
            (["--delta-max", 10**30], "vid0: 1\nvid1: 1\n", [("vid0", "9", "12"), ("vid1", "24", "27")]),
            (["--delta-min", 10**30, "--delta-max", 10**30], "vid0: 0\nvid1: 0\n", []),
        ],
    )
    def test_windows_past_any_video_exit_0(self, tmp_path, window, counts, pairs):
        # The walk's windows must not be sized from the flags alone.
        root = tmp_path / "corpus"
        write_sequence_dir(root, "vid0", two_segment_arrays())
        write_sequence_dir(root, "vid1", two_segment_arrays(25, 35))
        out = tmp_path / "pairs.csv"
        proc = run_cli("curate", root, "--out", out, *window)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, counts, "")
        _, rows = read_manifest_rows(out)
        assert [(row["video_id"], row["anchor"], row["target"]) for row in rows] == pairs

    def test_selection_defaults_are_the_params_defaults(self):
        args = build_parser().parse_args(["curate", "d", "--out", "o"])
        assert {f.name: getattr(args, f.name) for f in fields(CurationParams)} == asdict(CurationParams())

    def test_short_video_with_a_broken_frame_exits_2(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_sequence_dir(root, "shorty", two_segment_arrays(10, 30))
        broken = root / "shorty" / "frame_039.csv"
        broken.write_text("0.5,0.5\n1\n")
        out = tmp_path / "pairs.csv"
        assert main(["curate", str(root), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"shorty: {broken}: ")
        assert captured.err.endswith(", skipped\n")
        _, rows = read_manifest_rows(out)
        assert rows == []

    @pytest.mark.parametrize("unreadable_later", [False, True])
    def test_mixed_shapes_give_the_shape_message(self, tmp_path, capsys, unreadable_later):
        # Frames are checked as they are read, so a shape mismatch is
        # reported even when a later frame cannot be read.
        root = tmp_path / "corpus"
        write_sequence_dir(root, "v0", two_segment_arrays())
        save_map(root / "v0" / "frame_020.csv", GazeMap(np.full((4, 4), 1 / 16)))
        if unreadable_later:
            (root / "v0" / "frame_030.csv").write_text("not a map\n")
        out = tmp_path / "pairs.csv"
        assert main(["curate", str(root), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "v0: all frames in a sequence must share dimensions, skipped\n"
        _, rows = read_manifest_rows(out)
        assert rows == []

    def test_videos_of_mixed_frame_sizes_and_headers(self, tmp_path, capsys):
        # PGM videos alternate between 12x12 and 16x16 frames, so the header
        # the reader last parsed changes from one video to the next; v1's
        # frames carry a comment in theirs. v1b's frames change size partway,
        # and it is the one video skipped.
        rng = np.random.default_rng(37)
        root = tmp_path / "corpus"
        layouts = {"v0": (10, 50, 12), "v1": (15, 45, 16), "v1b": (30, 30, 12), "v2": (20, 40, 12), "v3": (25, 35, 16)}
        maps = {}
        for video, (n_first, n_second, side) in layouts.items():
            arrays = two_segment_arrays(n_first, n_second, side)
            if video == "v1b":
                arrays[n_first:] = two_segment_arrays(0, n_second, 16)
            maps[video] = [normalize_to_simplex(a + rng.uniform(0.0, 0.01, a.shape)) for a in arrays]
            (root / video).mkdir(parents=True)
            for i, gaze in enumerate(maps[video]):
                frame = root / video / f"frame_{i:03d}.pgm"
                save_map(frame, gaze)
                if video == "v1":
                    frame.write_bytes(frame.read_bytes().replace(b"P5\n", b"P5\n# camera 1\n", 1))
        out = tmp_path / "pairs.csv"
        assert main(["curate", str(root), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "v1b: all frames in a sequence must share dimensions, skipped\n"

        # Each good video loaded on its own, every frame checked against its
        # 16-bit quantization, and curated whole.
        pairs, frame_paths, counts = [], {}, ""
        for video in ("v0", "v1", "v2", "v3"):
            files = sorted((root / video).iterdir())
            frames = tuple(load_map(f) for f in files)
            for gaze, original in zip(frames, maps[video]):
                assert gaze.values.tobytes() == pgm_quantized(original.values).tobytes()
            selected = curate_video(GazeSequence(video, frames))
            assert selected
            pairs.extend(selected)
            frame_paths[video] = [f"{video}/{f.name}" for f in files]
            counts += f"{video}: {len(selected)}\n"
        expected = tmp_path / "expected.csv"
        write_manifest(expected, pairs, frame_paths)
        assert captured.out == counts
        assert out.read_bytes() == expected.read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path):
        root = tmp_path / "corpus"
        write_sequence_dir(root, "vid0", two_segment_arrays())
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["curate", str(root), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestCaptionEval:
    SENTS = ["alpha beta gamma delta", "eps zeta eta theta", "iota kappa lam mu"]

    # Each caption's four n-gram orders score 10 in CIDEr, and the orders
    # past its four tokens score 0 but still count in the mean: a huge
    # --max-n costs what the longest caption does.
    @pytest.mark.parametrize("flags, cider", [([], 10.0), (["--max-n", "1000000"], 40 / 10**6)])
    def test_identity_scores(self, tmp_path, capsys, flags, cider):
        cand = tmp_path / "cand.txt"
        refs = tmp_path / "refs.txt"
        cand.write_text("\n".join(self.SENTS) + "\n")
        refs.write_text("\n".join(self.SENTS) + "\n")
        out = tmp_path / "scores.csv"
        code = main(["caption-eval", "--candidates", str(cand), "--references", str(refs), "--out", str(out), *flags])
        assert code == 0
        assert "tf-idf" in capsys.readouterr().err
        rows = read_csv_rows(out)
        assert rows[0] == ["id", "bleu", "rouge_l", "cider", "error"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "mean"]
        mean = rows[-1]
        assert float(mean[1]) == pytest.approx(1.0)
        assert float(mean[2]) == pytest.approx(1.0)
        assert float(mean[3]) == pytest.approx(cider)

    def test_line_count_mismatch(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        refs = tmp_path / "refs.txt"
        cand.write_text("one line\n")
        refs.write_text("one line\nand another\n")
        code = main([
            "caption-eval", "--candidates", str(cand), "--references", str(refs),
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 2
        assert "line counts differ" in capsys.readouterr().err

    def test_per_field_flags_malformed_rows(self, tmp_path):
        good = "Scene: a1 b1 | Current: c1 d1 | Next: e1 f1 | Why: g1 h1"
        other = "Scene: a2 b2 | Current: c2 d2 | Next: e2 f2 | Why: g2 h2"
        cand = tmp_path / "cand.txt"
        refs = tmp_path / "refs.txt"
        cand.write_text(good + "\n" + "not a caption\n")
        refs.write_text(good + "\n" + other + "\n")
        out = tmp_path / "scores.csv"
        code = main([
            "caption-eval", "--candidates", str(cand), "--references", str(refs),
            "--out", str(out), "--per-field",
        ])
        assert code == 0
        rows = read_csv_rows(out)
        assert rows[1][0] == "1" and rows[1][4] == ""
        assert float(rows[1][1]) == pytest.approx(1.0)
        assert rows[2][0] == "2" and rows[2][1] == ""
        assert rows[2][4].startswith("MissingField")
        # The mean covers only the scored row.
        assert float(rows[-1][1]) == pytest.approx(1.0)

    def test_lines_end_only_at_newline(self, tmp_path):
        # str.splitlines would also end a line at the form feed, U+0085 and
        # U+2028 here, and pair each candidate with another row's reference.
        cand = tmp_path / "cand.txt"
        refs = tmp_path / "refs.txt"
        cand.write_bytes("the car turns\x0cleft now\nred light ahead\u2028now\n".encode())
        refs.write_bytes("the car turns left\nred\x85light ahead\n".encode())
        out = tmp_path / "scores.csv"
        assert main(["caption-eval", "--candidates", str(cand), "--references", str(refs), "--out", str(out)]) == 0
        references = ["the car turns left", "red\x85light ahead"]
        pairs = [("the car turns\x0cleft now", [references[0]]), ("red light ahead\u2028now", [references[1]])]
        report = score_captions(pairs, [[r] for r in references])
        rows = read_csv_rows(out)
        assert [r[0] for r in rows[1:]] == ["1", "2", "mean"]
        for row, scored in zip(rows[1:], report.rows):
            assert row[1:4] == [f"{value:.9g}" for value in (scored.score.bleu, scored.score.rouge_l, scored.score.cider)]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_every_newline_convention_gives_the_same_rows(self, tmp_path, newline):
        cand = tmp_path / "cand.txt"
        refs = tmp_path / "refs.txt"
        cand.write_bytes(newline.join(self.SENTS).encode() + newline.encode())
        refs.write_bytes(newline.join(reversed(self.SENTS)).encode())  # no final newline
        out = tmp_path / "scores.csv"
        assert main(["caption-eval", "--candidates", str(cand), "--references", str(refs), "--out", str(out)]) == 0
        assert [r[0] for r in read_csv_rows(out)[1:]] == ["1", "2", "3", "mean"]

    def test_separate_corpus_file(self, tmp_path):
        cand = tmp_path / "cand.txt"
        refs = tmp_path / "refs.txt"
        corp = tmp_path / "corpus.txt"
        cand.write_text(self.SENTS[0] + "\n")
        refs.write_text(self.SENTS[0] + "\n")
        corp.write_text("\n".join(self.SENTS) + "\n")
        out = tmp_path / "scores.csv"
        code = main([
            "caption-eval", "--candidates", str(cand), "--references", str(refs),
            "--corpus", str(corp), "--out", str(out),
        ])
        assert code == 0
        rows = read_csv_rows(out)
        assert float(rows[1][3]) == pytest.approx(10.0)

    def run_caption_eval(self, tmp_path, cand_lines, ref_lines, *flags):
        cand, refs = tmp_path / "cand.txt", tmp_path / "refs.txt"
        cand.write_text("".join(line + "\n" for line in cand_lines), encoding="utf-8")
        refs.write_text("".join(line + "\n" for line in ref_lines), encoding="utf-8")
        out = tmp_path / "scores.csv"
        argv = ["caption-eval", "--candidates", str(cand), "--references", str(refs), "--out", str(out)]
        assert main(argv + list(flags)) == 0
        return out.read_bytes()

    def test_per_field_with_no_parsable_row_writes_error_cells_and_na_means(self, tmp_path):
        refs = [
            "Scene: a1 | Current: b1 | Next: c1 | Why: d1",
            "Scene: a2 | Current: b2 | Next: c2 | Why: d2",
        ]
        got = self.run_caption_eval(
            tmp_path, ["not a caption", "Scene: a | Current: b"], refs, "--per-field"
        )
        assert got == (
            b"id,bleu,rouge_l,cider,error\n"
            b"1,,,,MissingField: missing field: scene\n"
            b"2,,,,MissingField: missing field: next\n"
            b"mean,NA,NA,NA,\n"
        )

    def test_empty_inputs_write_only_the_na_mean_row(self, tmp_path):
        got = self.run_caption_eval(tmp_path, [], [])
        assert got == b"id,bleu,rouge_l,cider,error\nmean,NA,NA,NA,\n"

    @pytest.mark.parametrize("per_field", [[], ["--per-field"]])
    def test_corpus_defaults_to_the_references(self, tmp_path, per_field):
        cands = [
            "Scene: red car | Current: it stops | Next: it turns | Why: a light",
            "Scene: a dog | Current: it runs | Next: it waits | Why: traffic",
        ]
        refs = [
            "Scene: a red car | Current: it brakes | Next: it turns left | Why: a red light",
            "Scene: a dog | Current: it crosses | Next: it waits | Why: a car",
        ]
        default = self.run_caption_eval(tmp_path, cands, refs, *per_field)
        explicit = self.run_caption_eval(
            tmp_path, cands, refs, *per_field, "--corpus", str(tmp_path / "refs.txt")
        )
        assert default == explicit
        assert default.count(b"\n") == 4

    @pytest.mark.parametrize("bad", ["candidates", "references", "corpus"])
    def test_non_utf8_input_is_a_one_line_error(self, tmp_path, capsys, bad):
        paths = {name: tmp_path / f"{name}.txt" for name in ("candidates", "references", "corpus")}
        for path in paths.values():
            path.write_text(self.SENTS[0] + "\n")
        paths[bad].write_bytes(b"alpha beta\n\xff\xfe gamma\n")
        out = tmp_path / "scores.csv"
        code = main([
            "caption-eval", "--candidates", str(paths["candidates"]),
            "--references", str(paths["references"]), "--corpus", str(paths["corpus"]),
            "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{paths[bad]}: not UTF-8 text" in err
        assert not out.exists()


def wrong_infonce_gradient(monkeypatch):
    right = gradcheck._TRIALS["infonce"]

    def wrong(rng):
        loss, point, analytic = right(rng)
        return loss, point, analytic + 1.0

    monkeypatch.setitem(gradcheck._TRIALS, "infonce", wrong)


def spoiled_trial(monkeypatch, kind, spoil, at):
    """Pass trial ``at`` of path ``kind`` through ``spoil(loss, point,
    analytic)``; the other trials are drawn and returned as they are."""
    right = gradcheck._TRIALS[kind]
    drawn = []

    def trial(rng):
        drawn.append(None)
        parts = right(rng)
        return spoil(*parts) if len(drawn) - 1 == at else parts

    monkeypatch.setitem(gradcheck._TRIALS, kind, trial)


def nan_gradient(loss, point, analytic):
    analytic = analytic.copy()
    analytic.flat[0] = np.nan
    return loss, point, analytic


def nan_loss(loss, point, analytic):
    return (lambda stack: np.where(np.arange(len(stack)) == 1, np.nan, loss(stack))), point, analytic


class TestGradCheck:
    @pytest.mark.parametrize("spoil", [nan_gradient, nan_loss])
    @pytest.mark.parametrize("at", [0, 4])
    def test_a_nan_error_fails(self, capsys, monkeypatch, spoil, at):
        # The NaN is the path's worst error whether finite errors come
        # before it or after it.
        spoiled_trial(monkeypatch, "caption", spoil, at)
        assert main(["grad-check", "--trials", "5"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "caption: max relative error nan over 5 trials, tolerance 1e-04: FAIL"
        assert [line.endswith(": pass") for line in lines] == [True, False, True, True]

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_is_refused(self, trials):
        with pytest.raises(ValueError, match="^trials must be positive$"):
            run_gradient_checks(seed=0, trials=trials)

    def test_passes_and_prints_one_line_per_path(self, capsys):
        code = main(["grad-check", "--trials", "5", "--seed", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert [line.split(":")[0] for line in lines] == ["gaze", "caption", "infonce", "chained"]
        assert all("max relative error" in line and line.endswith("pass") for line in lines)

    def test_wrong_gradient_fails(self, capsys, monkeypatch):
        wrong_infonce_gradient(monkeypatch)
        code = main(["grad-check", "--trials", "5"])
        assert code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        failing = [line for line in lines if line.endswith("FAIL")]
        assert len(failing) == 1 and failing[0].startswith("infonce")

    @pytest.mark.parametrize("seed, expected", [
        (0, [
            "gaze: max relative error 9.601e-09 over 100 trials, tolerance 1e-04: pass",
            "caption: max relative error 5.227e-09 over 100 trials, tolerance 1e-04: pass",
            "infonce: max relative error 1.301e-08 over 100 trials, tolerance 1e-04: pass",
            "chained: max relative error 7.680e-09 over 100 trials, tolerance 1e-04: pass",
        ]),
        (3, [
            "gaze: max relative error 9.571e-09 over 100 trials, tolerance 1e-04: pass",
            "caption: max relative error 5.785e-09 over 100 trials, tolerance 1e-04: pass",
            "infonce: max relative error 3.887e-09 over 100 trials, tolerance 1e-04: pass",
            "chained: max relative error 1.437e-08 over 100 trials, tolerance 1e-04: pass",
        ]),
    ])
    def test_full_size_output_is_pinned(self, capsys, seed, expected):
        # The stacked finite differences give every perturbed loss the bits
        # of a one-point call, so the printed errors do not move.
        assert main(["grad-check", "--trials", "100", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == "".join(line + "\n" for line in expected)

    def test_deterministic_output(self, capsys):
        assert main(["grad-check", "--trials", "4", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["grad-check", "--trials", "4", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first


def fit_demo_oracle(grid, steps, lr, target, hinge) -> tuple[bytes, str]:
    """fit-demo's CSV bytes and stdout, from the test-side map oracles.

    Every softmax and blur is validated and copied as ``GazeMap(...)``
    once did, and the loss and its gradient are written out in full.
    """
    if target == "delta":
        v = np.zeros((grid, grid))
        v[grid // 2, grid // 2] = 1.0
    else:
        v = np.ones((grid, grid)) / float(grid * grid)
    g = gaze_map_reference(v)
    cfg = GazeLossConfig() if hinge else GazeLossConfig(hinge_weight=0.0)
    m = _blur_matrix(grid, float(cfg.blur_sigma))
    z = np.zeros((grid, grid))
    lines = ["step,loss,entropy\n"]
    with np.errstate(over="ignore"):
        for step in range(steps + 1):
            p = spatial_softmax_reference(z)
            loss = raw_kl = kl_div(g, p)
            grad = _kl_grad_wrt_pred(g, p)
            if hinge:
                b = gaussian_blur_reference(p, cfg.blur_sigma)
                gap = kl_div(g, b) - raw_kl + cfg.hinge_margin
                loss = raw_kl + cfg.hinge_weight * max(0.0, gap)
                if gap > 0.0:
                    grad = grad + cfg.hinge_weight * (m.T @ _kl_grad_wrt_pred(g, b) @ m - grad)
            lines.append(f"{step},{loss:.17g},{entropy(p):.17g}\n")
            if step < steps:
                z = z - lr * _softmax_backprop(p, grad)
    return "".join(lines).encode(), f"final loss {loss:.9g} after {steps} steps\n"


class TestFitDemo:
    @pytest.mark.parametrize("lr", ["0.5", "3", "-1.7976931348623157e308"])
    @pytest.mark.parametrize("hinge", [False, True])
    @pytest.mark.parametrize("target", ["delta", "uniform"])
    def test_csv_bytes_match_the_validated_map_oracles(self, tmp_path, capsys, target, hinge, lr):
        # The benchmark never runs fit-demo, so its bytes are pinned here.
        out = tmp_path / "fit.csv"
        argv = ["fit-demo", "--grid", "6", "--steps", "25", f"--lr={lr}", "--target", target]
        assert main([*argv, *(["--hinge"] if hinge else []), "--out", str(out)]) == 0
        csv_bytes, stdout = fit_demo_oracle(6, 25, float(lr), target, hinge)
        assert out.read_bytes() == csv_bytes
        assert capsys.readouterr().out == stdout

    def test_trajectory_file_shape(self, tmp_path, capsys):
        out = tmp_path / "fit.csv"
        code = main(["fit-demo", "--grid", "8", "--steps", "40", "--lr", "1.0", "--out", str(out)])
        assert code == 0
        assert "final loss" in capsys.readouterr().out
        rows = read_csv_rows(out)
        assert rows[0] == ["step", "loss", "entropy"]
        assert len(rows) == 42  # header + initial point + 40 steps
        losses = [float(r[1]) for r in rows[1:]]
        assert losses[-1] < losses[0]

    def test_uniform_target_with_hinge_starts_at_the_floor(self, tmp_path):
        out = tmp_path / "fit.csv"
        code = main([
            "fit-demo", "--grid", "8", "--steps", "2", "--lr", "0.5",
            "--target", "uniform", "--hinge", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv_rows(out)
        assert float(rows[1][1]) == pytest.approx(0.015, abs=1e-12)

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["fit-demo", "--steps", "30", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def write_metrics_file(path, cc, kl):
    from gazekit import write_metrics_table

    write_metrics_table(
        path,
        [("f0", {"cc": cc, "kl": kl, "sim": 0.5, "auc_j": 0.7, "auc_b": 0.6, "nss": 1.0})],
    )


class TestReport:
    def test_compares_two_tables(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_file(a, cc=0.3, kl=1.0)
        write_metrics_file(b, cc=0.9, kl=0.2)
        out = tmp_path / "radar.svg"
        code = main(["report", "--tables", str(a), str(b), "--labels", "base", "ours", "--out", str(out)])
        assert code == 0
        svg = out.read_text()
        assert svg.startswith("<svg") and "ours" in svg
        err = capsys.readouterr().err
        # sim/auc/nss are identical across the two tables, so those axes
        # degrade to half radius with a notice each.
        assert err.count("half radius") == 4

    def test_requires_two_tables(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        write_metrics_file(a, cc=0.5, kl=0.5)
        code = main(["report", "--tables", str(a), "--labels", "one", "--out", str(tmp_path / "r.svg")])
        assert code == 2
        assert "two" in capsys.readouterr().err

    def test_label_count_must_match(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_file(a, cc=0.5, kl=0.5)
        write_metrics_file(b, cc=0.6, kl=0.4)
        code = main(["report", "--tables", str(a), str(b), "--labels", "only-one", "--out", str(tmp_path / "r.svg")])
        assert code == 2

    def test_finite_means_whose_span_overflows(self, tmp_path):
        # 1e308 - (-1e308) is inf in floats, yet both means are finite.
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_file(a, cc=1e308, kl=0.5)
        write_metrics_file(b, cc=-1e308, kl=0.4)
        out = tmp_path / "radar.svg"
        code = main(["report", "--tables", str(a), str(b), "--labels", "a", "b", "--out", str(out)])
        assert code == 0
        # Word boundaries, because "dominant-baseline" contains "nan".
        assert not re.search(r"\b(nan|inf)\b", out.read_text(encoding="utf-8"))

    def test_non_numeric_mean_is_rejected(self, tmp_path, capsys):
        from gazekit import write_metrics_table

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        # Every auc_j cell errored, so its mean is NA.
        write_metrics_table(
            a, [("f0", {"cc": 0.5, "kl": 0.5, "sim": 0.5, "auc_j": "skipped", "auc_b": 0.6, "nss": 1.0})]
        )
        write_metrics_file(b, cc=0.6, kl=0.4)
        code = main(["report", "--tables", str(a), str(b), "--labels", "a", "b", "--out", str(tmp_path / "r.svg")])
        assert code == 2
        assert "auc_j" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_mean_is_rejected(self, tmp_path, capsys, cell):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(
            "id,cc,kl,sim,auc_j,auc_b,nss\n"
            "f0,0.5,0.2,0.5,0.7,0.6,1\n"
            f"mean,0.5,{cell},0.5,0.7,0.6,1\n",
            encoding="utf-8",
        )
        write_metrics_file(b, cc=0.6, kl=0.4)
        out = tmp_path / "r.svg"
        code = main(["report", "--tables", str(a), str(b), "--labels", "a", "b", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"{a}: mean of column kl is not finite ({float(cell)!r})"]
        assert not out.exists()

    @pytest.mark.parametrize("labels", [["R&D <v2>", "ours"], ["a & b", "\"x\" 'y' <z> &amp;"]])
    def test_labels_are_escaped(self, tmp_path, labels):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_file(a, cc=0.3, kl=1.0)
        write_metrics_file(b, cc=0.9, kl=0.2)
        out = tmp_path / "radar.svg"
        assert main(["report", "--tables", str(a), str(b), "--labels", *labels, "--out", str(out)]) == 0
        root = ElementTree.parse(out).getroot()
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        # Six axis names, then one legend entry per model.
        assert texts[6:] == labels

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_file(a, cc=0.3, kl=1.0)
        write_metrics_file(b, cc=0.9, kl=0.2)
        outs = []
        for name in ("r1.svg", "r2.svg"):
            out = tmp_path / name
            assert main(["report", "--tables", str(a), str(b), "--labels", "x", "y", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def curated_manifest(tmp_path, rows=2):
    root = tmp_path / "corpus"
    write_sequence_dir(root, "vid0", two_segment_arrays())
    if rows == 2:
        write_sequence_dir(root, "vid1", two_segment_arrays(20, 40))
    manifest = tmp_path / "pairs.csv"
    assert main(["curate", str(root), "--out", str(manifest)]) == 0
    return manifest


GOOD_CAPTION = "Scene: a | Current: b | Next: c | Why: d"


class TestReview:
    def run_review(self, monkeypatch, manifest, out, stdin_text):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        return main(["review", str(manifest), "--out", str(out)])

    def test_accept_all(self, tmp_path, monkeypatch, capsys):
        manifest = curated_manifest(tmp_path)
        out = tmp_path / "reviewed.csv"
        code = self.run_review(monkeypatch, manifest, out, "a\na\n")
        assert code == 0
        captured = capsys.readouterr().out
        assert "row 1/2" in captured and "row 2/2" in captured
        assert "caption: (empty)" in captured
        header, rows = read_manifest_rows(out)
        assert header[-1] == "decision"
        assert [r["decision"] for r in rows] == ["accept", "accept"]
        assert [r["video_id"] for r in rows] == ["vid0", "vid1"]

    def test_edit_loops_until_the_caption_parses(self, tmp_path, monkeypatch, capsys):
        manifest = curated_manifest(tmp_path, rows=1)
        out = tmp_path / "reviewed.csv"
        code = self.run_review(
            monkeypatch, manifest, out, f"e\nnot a caption\n{GOOD_CAPTION}\n"
        )
        assert code == 0
        assert "not a valid caption" in capsys.readouterr().out
        _, rows = read_manifest_rows(out)
        assert rows[0]["decision"] == GOOD_CAPTION

    def test_malformed_caption_cannot_be_accepted(self, tmp_path, monkeypatch, capsys):
        from gazekit import read_manifest_rows as read_rows, write_manifest_rows

        manifest = curated_manifest(tmp_path, rows=1)
        _, rows = read_rows(manifest)
        rows[0]["caption"] = "free text with no labels"
        write_manifest_rows(manifest, rows)
        out = tmp_path / "reviewed.csv"
        code = self.run_review(monkeypatch, manifest, out, "a\nr\n")
        assert code == 0
        captured = capsys.readouterr().out
        assert "caption does not parse" in captured
        assert "unrecognized choice" in captured
        _, reviewed = read_rows(out)
        assert reviewed[0]["decision"] == "reject"

    @pytest.mark.parametrize("blank", ["", "   "], ids=["empty", "spaces"])
    def test_blank_caption_is_no_caption_yet(self, tmp_path, monkeypatch, capsys, blank):
        from gazekit import read_manifest_rows as read_rows, write_manifest_rows

        manifest = curated_manifest(tmp_path, rows=1)
        _, rows = read_rows(manifest)
        rows[0]["caption"] = blank
        write_manifest_rows(manifest, rows)
        out = tmp_path / "reviewed.csv"
        assert self.run_review(monkeypatch, manifest, out, "a\n") == 0
        captured = capsys.readouterr().out
        assert "caption: (empty)" in captured
        assert "caption does not parse" not in captured
        _, reviewed = read_rows(out)
        assert reviewed[0]["decision"] == "accept"
        assert reviewed[0]["caption"] == blank

    def test_end_of_input_saves_progress(self, tmp_path, monkeypatch, capsys):
        manifest = curated_manifest(tmp_path)
        out = tmp_path / "reviewed.csv"
        code = self.run_review(monkeypatch, manifest, out, "a")  # no trailing newline, then EOF
        assert code == 0
        assert "input ended; 1 of 2 rows decided" in capsys.readouterr().out
        _, rows = read_manifest_rows(out)
        assert len(rows) == 1 and rows[0]["decision"] == "accept"

    def test_resume_skips_decided_rows(self, tmp_path, monkeypatch, capsys):
        manifest = curated_manifest(tmp_path)
        out = tmp_path / "reviewed.csv"
        assert self.run_review(monkeypatch, manifest, out, "a") == 0
        capsys.readouterr()
        code = self.run_review(monkeypatch, manifest, out, "r\n")
        assert code == 0
        captured = capsys.readouterr().out
        assert "row 1/2" not in captured and "row 2/2" in captured
        _, rows = read_manifest_rows(out)
        assert [r["decision"] for r in rows] == ["accept", "reject"]
        assert [r["video_id"] for r in rows] == ["vid0", "vid1"]

    def test_duplicate_rows_resume_one_at_a_time(self, tmp_path, monkeypatch):
        from gazekit import write_manifest_rows

        manifest = tmp_path / "pairs.csv"
        row = {
            "video_id": "v", "anchor": "4", "target": "8", "delta": "4",
            "anchor_peak_kl": "1.5", "pair_kl": "2.5",
            "anchor_map_path": "", "target_map_path": "", "caption": "",
        }
        write_manifest_rows(manifest, [dict(row), dict(row)])
        out = tmp_path / "reviewed.csv"
        assert self.run_review(monkeypatch, manifest, out, "a") == 0
        assert self.run_review(monkeypatch, manifest, out, "r\n") == 0
        _, rows = read_manifest_rows(out)
        assert [r["decision"] for r in rows] == ["accept", "reject"]

    def test_unreadable_manifest(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = main(["review", str(missing), "--out", str(tmp_path / "r.csv")])
        assert code == 2


class TestParserPlumbing:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_help_lists_all_subcommands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for name in ("evaluate", "curate", "caption-eval", "grad-check", "fit-demo", "report", "review"):
            assert name in text

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["evaluate", "--pred-dir", "p", "--gt-dir", "g", "--fix-dir", "f",
              "--out", "m.csv", "--n-splits", "0"], "--n-splits"),
            (["grad-check", "--trials", "0"], "--trials"),
            (["fit-demo", "--grid", "-3", "--out", "fit.csv"], "--grid"),
            (["caption-eval", "--candidates", "c.txt", "--references", "r.txt",
              "--out", "s.csv", "--max-n", "0"], "--max-n"),
            (["caption-eval", "--candidates", "c.txt", "--references", "r.txt",
              "--out", "s.csv", "--max-n", "-1"], "--max-n"),
        ],
    )
    def test_counts_below_one_are_usage_errors(self, argv, flag, tmp_path, monkeypatch, capsys):
        # SystemExit comes from argparse: no command runs, no file is read or written.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be at least 1" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize(
        "argv",
        [
            ["grad-check", "--seed=-3"],
            ["evaluate", "--pred-dir", "p", "--gt-dir", "g", "--out", "m.csv", "--seed", "-1"],
        ],
    )
    def test_negative_seeds_are_usage_errors(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be at least 0, got -" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["grad-check"], ["evaluate", "--pred-dir", "p", "--gt-dir", "g", "--out", "m"]])
    def test_large_seeds_parse(self, command):
        for seed in (0, 2**70):
            assert build_parser().parse_args(command + [f"--seed={seed}"]).seed == seed


def _contract_inputs(root):
    """One small valid input of every kind, under ``root``."""
    root.mkdir()
    gaze = peaked_map(np.random.default_rng(0), 6, (2, 3))
    for sub in ("pred", "gt"):
        write_map_dir(root / sub, {"f0": gaze})
    write_map_dir(root / "pred_unpaired", {"f0": gaze, "a\nb": gaze})
    (root / "fix").mkdir()
    save_fixations(root / "fix" / "f0.csv", FixationMap(gaze.values == gaze.values.max()))
    # A video with a pair, and one that curate skips: exit 2, after its manifest.
    write_sequence_dir(root / "corpus", "vid0", two_segment_arrays())
    (root / "corpus" / "empty").mkdir()
    (root / "cand.txt").write_text("a red car\n", encoding="utf-8")
    (root / "ref.txt").write_text("a red car stops\n", encoding="utf-8")
    write_metrics_file(root / "table.csv", 0.5, 0.2)
    (root / "empty.csv").write_text("", encoding="utf-8")
    nan_mean = "id,cc,kl,sim,auc_j,auc_b,nss\nf0,0.5,0.2,0.5,0.7,0.6,1\nmean,nan,0.2,0.5,0.7,0.6,1\n"
    (root / "nan_mean.csv").write_text(nan_mean, encoding="utf-8")
    header = ",".join(MANIFEST_HEADER)
    (root / "huge_field.csv").write_text(header + "\nv,4,8,4,1.5,2.5,,," + "x" * 200_000 + "\n", encoding="utf-8")
    (root / "short_row.csv").write_text(header + "\nv,4,8\n", encoding="utf-8")
    (root / "no_rows.csv").write_text(header + "\n", encoding="utf-8")
    # A two-row manifest to review, and two other names for it.
    (root / "pairs.csv").write_text(header + "\nv0,4,8,4,1.5,2.5,,,\nv1,4,8,4,1.5,2.5,,,\n", encoding="utf-8")
    (root / "pairs_symlink.csv").symlink_to("pairs.csv")
    os.link(root / "pairs.csv", root / "pairs_link.csv")


class Row(NamedTuple):
    """A command's row of the exit-contract table: its argv, with {in} for the
    inputs and {out} for its file; its stdin; that file's name; a function of
    ``cli`` it calls, to raise Ctrl-C and memory exhaustion from; and per case
    of bad input an argv, with {out} for a name in the output directory and
    {missing} for one under a missing directory."""

    argv: str
    stdin: str
    out: str | None
    raised_from: str
    bad_input: dict


CONTRACT = {
    "evaluate": Row(
        "evaluate --pred-dir {in}/pred --gt-dir {in}/gt --fix-dir {in}/fix --out {out}", "", "result.csv", "score_maps",
        {
            "evaluate-out-missing-dir": "evaluate --pred-dir {in}/pred --gt-dir {in}/gt --fix-dir {in}/fix"
            " --out {missing}.csv",
            "evaluate-missing-pred-dir": "evaluate --pred-dir {missing} --gt-dir {in}/gt --fix-dir {in}/fix"
            " --out {out}.csv",
            # Its one problem names a file whose name holds a newline.
            "evaluate-unpaired-name-with-a-newline": "evaluate --pred-dir {in}/pred_unpaired --gt-dir {in}/gt"
            " --fix-dir {in}/fix --out {out}.csv",
        },
    ),
    "curate": Row(
        "curate {in}/corpus --out {out}", "", "result.csv", "_curate_stream",
        {
            "curate-out-missing-dir": "curate {in}/corpus --out {missing}.csv",
            "curate-delta-min-0": "curate {in}/corpus --delta-min 0 --out {out}.csv",
            "curate-top-k-0": "curate {in}/corpus --top-k 0 --out {out}.csv",
            "curate-peak-floor-nan": "curate {in}/corpus --peak-floor nan --out {out}.csv",
            "curate-peak-floor-inf": "curate {in}/corpus --peak-floor inf --out {out}.csv",
            "curate-missing-root": "curate {missing} --out {out}.csv",
        },
    ),
    "caption-eval": Row(
        "caption-eval --candidates {in}/cand.txt --references {in}/ref.txt --out {out}", "", "result.csv",
        "score_captions",
        {
            "caption-eval-out-missing-dir": "caption-eval --candidates {in}/cand.txt --references {in}/ref.txt"
            " --out {missing}.csv",
            "caption-eval-line-counts-differ": "caption-eval --candidates {in}/cand.txt --references {in}/empty.csv"
            " --out {out}.csv",
        },
    ),
    "grad-check": Row("grad-check --trials 1", "", None, "run_gradient_checks", {}),
    "fit-demo": Row(
        "fit-demo --grid 4 --steps 20 --out {out}", "", "result.csv", "fit_gaze_demo",
        {
            "fit-demo-out-missing-dir": "fit-demo --grid 2 --steps 1 --out {missing}.csv",
            "fit-demo-negative-steps": "fit-demo --grid 2 --steps -1 --out {out}.csv",
            "fit-demo-lr-inf": "fit-demo --grid 1 --steps 1 --lr inf --out {out}.csv",
        },
    ),
    "report": Row(
        "report --tables {in}/table.csv {in}/table.csv --labels a b --out {out}", "", "result.svg", "render_radar",
        {
            "report-empty-table": "report --tables {in}/empty.csv {in}/table.csv --labels a b --out {out}.svg",
            "report-nan-mean": "report --tables {in}/nan_mean.csv {in}/table.csv --labels a b --out {out}.svg",
            "report-one-table": "report --tables {in}/table.csv --labels a --out {out}.svg",
            "report-three-labels": "report --tables {in}/table.csv {in}/table.csv --labels a b c --out {out}.svg",
            "report-control-character-label": "report --tables {in}/table.csv {in}/table.csv --labels a\x01b b"
            " --out {out}.svg",
        },
    ),
    # One decision per session: the second session resumes at row 2.
    "review": Row(
        "review {in}/pairs.csv --out {out}", "a\n", "result.csv", "_ask_decision",
        {
            "review-short-row": "review {in}/short_row.csv --out {out}.csv",
            "review-huge-field": "review {in}/huge_field.csv --out {out}.csv",
            "review-unreadable-resume-file": "review {in}/no_rows.csv --out {in}/short_row.csv",
            "review-out-is-the-manifest": "review {in}/pairs.csv --out {in}/pairs.csv",
            "review-out-is-a-symlink-to-the-manifest": "review {in}/pairs.csv --out {in}/pairs_symlink.csv",
            "review-out-is-a-hard-link-to-the-manifest": "review {in}/pairs.csv --out {in}/pairs_link.csv",
        },
    ),
}

STREAMS = ("closed-stdout", "closed-stderr", "full-stdout", "full-stderr")
CONDITIONS = ("bad-input", *STREAMS, "file-size-limit", "ctrl-c", "memory")

#: The cells that do not apply, with the reason.
NOT_APPLICABLE = {
    ("grad-check", "bad-input"): "its only inputs are --seed and --trials, which argparse refuses"
    " (TestParserPlumbing)",
    ("grad-check", "file-size-limit"): "it writes no file",
}

CELLS = [
    pytest.param(command, condition, case, id=case or f"{command}-{condition}")
    for command, row in CONTRACT.items()
    for condition in CONDITIONS
    if (command, condition) not in NOT_APPLICABLE
    for case in (row.bad_input if condition == "bad-input" else [None])
]


class Outcome(NamedTuple):
    """A run's exit code, its stdout and stderr (None for one that went to a
    closed pipe or a full device) and its output directory's files."""

    code: int | None
    stdout: str | None
    stderr: str | None
    files: dict


def _files(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def _errno_line(code):
    return f"[Errno {code}] {os.strerror(code)}\n"


def failing_stream(kind):
    """A writable file on a pipe whose reader has gone, or on /dev/full."""
    if kind == "full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    return open(closed_pipe() if kind == "closed" else "/dev/full", "w")


def run_main(monkeypatch, argv, stdin, out_dir, **streams):
    """main(argv) in process, reading ``stdin``; stdout and stderr go to the
    files given in ``streams``, or to buffers whose text is returned."""
    buffers = {name: io.StringIO() for name in ("stdout", "stderr") if name not in streams}
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    for name, stream in {**buffers, **streams}.items():
        monkeypatch.setattr(sys, name, stream)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's help and usage errors
        code = exc.code
    except (KeyboardInterrupt, MemoryError) as exc:
        # Escaping, a KeyboardInterrupt would end the whole test session.
        pytest.fail(f"main raised {exc!r}")
    text = {name: buffer.getvalue() for name, buffer in buffers.items()}
    return Outcome(code, text.get("stdout"), text.get("stderr"), _files(out_dir))


def live_run(monkeypatch, argv, stdin, out_dir, raised_from=None):
    """A run of main, and its outcome so far at three moments: its first
    stdout write ("print"), its first file write ("write") and its first
    call of ``raised_from`` ("raise")."""
    moments = {}

    def watched(function, moment):
        def call(*args, **kwargs):
            if moment != "print" or args[0] is sys.stdout:
                so_far = Outcome(None, sys.stdout.getvalue(), sys.stderr.getvalue(), _files(out_dir))
                moments.setdefault(moment, so_far)
            return function(*args, **kwargs)

        return call

    with monkeypatch.context() as patch:
        watch = [(cli, "_write", "print"), (cli, "_write_file", "write"), (manifests, "_write_file", "write")]
        for module, name, moment in watch + ([(cli, raised_from, "raise")] if raised_from else []):
            patch.setattr(module, name, watched(getattr(module, name), moment))
        return run_main(patch, argv, stdin, out_dir), moments


def stream_expectation(condition, live, moments):
    """What a run gives with the stream of ``condition`` closed or full."""
    if condition == "full-stdout" and "print" in moments:
        # An I/O error at the first stdout write: what was written before stays.
        at = moments["print"]
        return Outcome(2, None, at.stderr + _errno_line(errno.ENOSPC), at.files)
    # Otherwise the stream's text is dropped, and all else is the live run's.
    return live._replace(**{condition.split("-")[1]: None})


def test_the_contract_table_has_a_row_per_command():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert list(CONTRACT) == list(commands)
    for command, row in CONTRACT.items():
        assert callable(getattr(cli, row.raised_from))
        assert all(case.startswith(f"{command}-") for case in row.bad_input)
        assert (not row.bad_input) == ((command, "bad-input") in NOT_APPLICABLE)
        assert (row.out is None) == ((command, "file-size-limit") in NOT_APPLICABLE)
    assert all(NOT_APPLICABLE.values())


@pytest.mark.parametrize(("command", "condition", "case"), CELLS)
def test_the_exit_contract(command, condition, case, tmp_path, monkeypatch):
    """Every command under every condition. A failed stream changes only
    what the stream receives, unless it is a full stdout: an I/O error. An
    error gives its code and one more line on stderr, and keeps the files."""
    row = CONTRACT[command]
    inputs, out_dir = tmp_path / "in", tmp_path / "out"
    _contract_inputs(inputs)
    out_dir.mkdir()
    if condition == "bad-input":
        names = {"in": inputs, "out": out_dir / "result", "missing": tmp_path / "nowhere" / "result"}
        given = {path: path.read_bytes() for path in inputs.rglob("*") if path.is_file()}
        got = run_main(monkeypatch, row.bad_input[case].format(**names).split(), "", out_dir)
        # Nothing reaches stdout: curate prints its counts only after the
        # manifest is written.
        assert (got.code, got.stdout, got.files) == (2, "", {})
        assert "Traceback" not in got.stderr
        assert len(got.stderr.splitlines()) == 1 and got.stderr.endswith("\n")
        assert not (tmp_path / "nowhere").exists()
        assert {path: path.read_bytes() for path in inputs.rglob("*") if path.is_file()} == given
        return

    out = out_dir / row.out if row.out else None
    argv = row.argv.format(**{"in": inputs, "out": out}).split()
    # A first run, from an empty directory, writes the file the live run
    # replaces; no temporary is left after a write that succeeds.
    first, first_moments = live_run(monkeypatch, argv, row.stdin, out_dir, row.raised_from)
    before = first.files
    assert list(before) == ([row.out] if row.out else [])
    live, moments = live_run(monkeypatch, argv, row.stdin, out_dir, row.raised_from)
    for name, data in before.items():
        (out_dir / name).write_bytes(data)

    if condition in STREAMS:
        kind, stream = condition.split("-")
        with failing_stream(kind) as target:
            got = run_main(monkeypatch, argv, row.stdin, out_dir, **{stream: target})
        assert got == stream_expectation(condition, live, moments)
    elif condition == "file-size-limit":
        # A write that fails partway, at half the file's size, over the
        # previous file and then where none was, in a child whose Python
        # ignores SIGXFSZ: the write gets EFBIG.
        for start, at in ((before, moments["write"]), ({}, first_moments["write"])):
            if not start:
                out.unlink()
            done = run_cli(*argv, input=row.stdin, preexec_fn=file_size_limit(len(before[row.out]) // 2))
            got = Outcome(done.returncode, done.stdout, done.stderr, _files(out_dir))
            assert got == Outcome(2, at.stdout, at.stderr + _errno_line(errno.EFBIG), start)
    else:
        errors = {"ctrl-c": (KeyboardInterrupt, 130, "interrupted"), "memory": (MemoryError, 2, "MemoryError")}
        error, code, line = errors[condition]
        if (command, condition) == ("review", "ctrl-c"):  # review saves its decisions again, and counts them
            line = "interrupted; 1 of 2 rows decided"

        def raising(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, row.raised_from, raising)
        got = run_main(monkeypatch, argv, row.stdin, out_dir)
        at = moments["raise"]
        assert got == Outcome(code, at.stdout, at.stderr + line + "\n", before)
        if condition == "ctrl-c":
            # And a real SIGINT, which the child sends itself from that function.
            done = run_cli(row.raised_from, *argv, input=row.stdin, entry=SELF_INTERRUPTED)
            assert Outcome(done.returncode, done.stdout, done.stderr, _files(out_dir)) == got


#: The CLI with the function of ``cli`` its first argument names sending the
#: process SIGINT, as Ctrl-C does, not a timer.
SELF_INTERRUPTED = ("-c", """
import os, signal, sys
from gazekit import cli
def interrupted(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGINT)
    raise AssertionError("SIGINT was not delivered")
setattr(cli, sys.argv[1], interrupted)
sys.exit(cli.main(sys.argv[2:]))
""")

#: grad-check with a wrong infonce gradient, as ``wrong_infonce_gradient`` sets it.
FAILING_GRAD_CHECK = ("-c", """
import sys
from gazekit import cli, gradcheck
right = gradcheck._TRIALS["infonce"]
def wrong(rng):
    loss, point, analytic = right(rng)
    return loss, point, analytic + 1.0
gradcheck._TRIALS["infonce"] = wrong
sys.exit(cli.main(sys.argv[1:]))
""")


#: What a child runs for the flush at interpreter exit, its exit code and the
#: streams it fails: every exit code, and each way a line reaches stderr.
EXIT_RUNS = {
    "failing-grad-check": ("grad-check --trials 5", 1, ("stdout", "stderr")),
    "help": ("--help", 0, ("stdout", "stderr")),
    "grad-check-help": ("grad-check --help", 0, ("stdout",)),
    # Without --fix-dir, evaluate writes a note to stderr before its table.
    "note-first": ("evaluate --pred-dir {in}/pred --gt-dir {in}/gt --out {out}/m.csv", 0, ("stderr",)),
    "refusal": ("evaluate --pred-dir {missing} --gt-dir {missing} --out {out}/m.csv", 2, ("stderr",)),
    "usage-error": ("grad-check --trials 0", 2, ("stderr",)),
}


@pytest.mark.usefixtures("buffering")
@pytest.mark.parametrize(
    ("condition", "run"), [(c, run) for c in STREAMS for run, spec in EXIT_RUNS.items() if c.endswith(spec[2])]
)
def test_the_flush_at_exit(condition, run, tmp_path, monkeypatch):
    """A child's failed stream is flushed again at interpreter exit: the
    child still gives what the same run gives in process."""
    inputs, out_dir = tmp_path / "in", tmp_path / "out"
    _contract_inputs(inputs)
    out_dir.mkdir()
    kind, stream = condition.split("-")
    template, code, _ = EXIT_RUNS[run]
    argv = template.format(**{"in": inputs, "out": out_dir, "missing": tmp_path / "missing"}).split()
    entry = ("-m", "gazekit.cli")
    if run == "failing-grad-check":
        wrong_infonce_gradient(monkeypatch)
        entry = FAILING_GRAD_CHECK
    live, moments = live_run(monkeypatch, argv, "", out_dir)
    assert live.code == code
    for name in live.files:
        (out_dir / name).unlink()
    with failing_stream(kind) as target:
        done = run_cli(*argv, entry=entry, **{stream: target})
    got = Outcome(done.returncode, done.stdout, done.stderr, _files(out_dir))
    assert got == stream_expectation(condition, live, moments)


def test_a_grid_too_large_for_memory_exits_2(tmp_path, monkeypatch):
    # 4 GiB of address space for the child alone; one BLAS thread keeps
    # the start-up well below it.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    limit = 4 << 30
    out = tmp_path / "huge.csv"
    done = run_cli(
        "fit-demo", "--grid", "200000", "--out", out,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("Unable to allocate") and done.stderr.count("\n") == 1, done.stderr
    assert done.stderr.endswith("\n") and "Traceback" not in done.stderr
    assert os.listdir(tmp_path) == []


def file_size_limit(limit):
    """A ``preexec_fn`` that lowers the child's own RLIMIT_FSIZE to ``limit``
    bytes, which fails its writes past that size as a full disk would (the
    child's Python ignores SIGXFSZ, so a write gets EFBIG)."""
    return lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))


#: save_map in a fresh interpreter: exit 2 on EFBIG, 3 on another OSError.
SAVE_MAP = ("-c", """
import errno, sys
import numpy as np
from gazekit import GazeMap, save_map
try:
    save_map(sys.argv[1], GazeMap(np.full((16, 16), 1 / 256)))
except OSError as exc:
    sys.exit(2 if exc.errno == errno.EFBIG else 3)
""")


class TestFailedWrites:
    """A write that fails partway, here at a lowered file-size limit, leaves
    the previous file byte for byte, or none, and no temporary beside it;
    each command's cell is in the contract table."""

    @pytest.mark.parametrize("previous", [True, False], ids=["over-a-file", "new-file"])
    @pytest.mark.parametrize("suffix", [".pgm", ".csv"])
    def test_save_map_keeps_the_previous_file(self, suffix, previous, tmp_path):
        out = tmp_path / f"map{suffix}"
        if previous:
            save_map(out, normalize_to_simplex(np.arange(1.0, 17.0).reshape(4, 4)))
        before = os.listdir(tmp_path), out.read_bytes() if previous else None
        done = run_cli(out, entry=SAVE_MAP, preexec_fn=file_size_limit(64))
        assert (done.returncode, done.stderr) == (2, "")
        assert (os.listdir(tmp_path), out.read_bytes() if previous else None) == before

    def test_review_resumes_from_a_file_a_failed_write_kept(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "reviewed.csv"
        manifest = curated_manifest(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO("r\n"))
        assert main(["review", str(manifest), "--out", str(out)]) == 0
        # A limit inside the saved row: a write in place would tear it.
        limit = out.stat().st_size - 4
        done = run_cli("review", manifest, "--out", out, input="a\n", preexec_fn=file_size_limit(limit))
        assert done.returncode == 2
        monkeypatch.setattr("sys.stdin", io.StringIO("a\n"))
        assert main(["review", str(manifest), "--out", str(out)]) == 0
        assert "row 2/2" in capsys.readouterr().out
        assert [row["decision"] for row in read_manifest_rows(out)[1]] == ["reject", "accept"]


class TestOutputTargets:
    """What the one writer does with the target it replaces."""

    def fit_demo(self, out):
        return main(["fit-demo", "--grid", "3", "--steps", "5", "--out", str(out)])

    def test_dev_stdout_is_written_in_place(self, tmp_path):
        done = run_cli("fit-demo", "--grid", "3", "--steps", "5", "--out", "/dev/stdout")
        assert done.returncode == 0
        expected = tmp_path / "fit.csv"
        assert self.fit_demo(expected) == 0
        trajectory, _, summary = done.stdout.rpartition("final loss ")
        assert trajectory == expected.read_text()
        assert summary.endswith(" after 5 steps\n")

    def test_fifo_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "fit.fifo"
        os.mkfifo(fifo)
        reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE)
        try:
            assert self.fit_demo(fifo) == 0
            written = reader.communicate(timeout=30)[0]
        finally:
            reader.kill()
            reader.wait()
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        expected = tmp_path / "fit.csv"
        assert self.fit_demo(expected) == 0
        assert written == expected.read_bytes()

    @pytest.mark.parametrize("dangling", [False, True])
    def test_a_symlink_survives(self, tmp_path, capsys, dangling):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        link.symlink_to(real.name)
        if not dangling:
            real.write_text("previous\n")
        assert self.fit_demo(link) == 0
        assert os.readlink(link) == real.name
        expected = tmp_path / "expected.csv"
        assert self.fit_demo(expected) == 0
        assert real.read_bytes() == expected.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["expected.csv", "link.csv", "real.csv"]

    def test_an_existing_file_keeps_its_permission_bits(self, tmp_path, capsys):
        out = tmp_path / "fit.csv"
        out.write_text("previous\n")
        out.chmod(0o640)
        assert self.fit_demo(out) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_text().startswith("step,loss,entropy\n")

    @pytest.mark.parametrize("previous", [False, True], ids=["new-file", "over-a-file"])
    def test_a_leftover_temporary_is_kept_and_passed_over(self, tmp_path, capsys, previous):
        # A run killed mid-write leaves its temporary behind, and a later run
        # can have the same PID (PID 1 in a container, on every run).
        leftovers = {f"fit.csv.{os.getpid()}.tmp": b"killed\n", f"fit.csv.{os.getpid()}.1.tmp": b""}
        for name, data in leftovers.items():
            (tmp_path / name).write_bytes(data)
        out = tmp_path / "fit.csv"
        if previous:
            out.write_text("previous\n")
            out.chmod(0o640)
        old = os.umask(0o077)
        try:
            assert self.fit_demo(out) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == (0o640 if previous else 0o600)
        assert out.read_text().startswith("step,loss,entropy\n")
        assert {name: (tmp_path / name).read_bytes() for name in leftovers} == leftovers
        assert sorted(os.listdir(tmp_path)) == sorted([*leftovers, "fit.csv"])

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_a_new_file_gets_the_umask(self, tmp_path, capsys, umask):
        out = tmp_path / "fit.csv"
        old = os.umask(umask)
        try:
            assert self.fit_demo(out) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


@pytest.fixture(params=["buffered", "unbuffered"])
def buffering(request, monkeypatch):
    """Children with Python's streams buffered, its default, or unbuffered. A
    buffered stream keeps the bytes of a failed flush, so the flush at exit
    must not fail on them again (status 120)."""
    if request.param == "buffered":
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    else:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")


def test_an_interrupted_write_of_a_review_is_made_again(tmp_path, monkeypatch, capsys):
    # Ctrl-C during the write of a decision: the failed write kept the old
    # file, and the session ends by writing the decision again.
    manifest = curated_manifest(tmp_path)
    out = tmp_path / "reviewed.csv"
    write, calls = cli._write_review, []

    def interrupted(*args):
        calls.append(args)
        if len(calls) == 1:
            raise KeyboardInterrupt
        write(*args)

    monkeypatch.setattr(cli, "_write_review", interrupted)
    monkeypatch.setattr("sys.stdin", io.StringIO("a\na\n"))
    assert main(["review", str(manifest), "--out", str(out)]) == 130
    assert capsys.readouterr().err == "interrupted; 1 of 2 rows decided\n"
    assert [row["decision"] for row in read_manifest_rows(out)[1]] == ["accept"]


def test_interrupted_review_saves_its_decisions_and_exits_130(tmp_path, monkeypatch, capsys):
    manifest = curated_manifest(tmp_path)
    out = tmp_path / "reviewed.csv"
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    child = subprocess.Popen(
        [sys.executable, "-m", "gazekit.cli", "review", str(manifest), "--out", str(out)],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        child.stdin.write("a\n")
        child.stdin.flush()
        # The second row's prompt comes after the first decision is saved.
        shown = ""
        while shown.count("? ") < 2:
            char = child.stdout.read(1)
            assert char, shown
            shown += char
        child.send_signal(signal.SIGINT)
        # stdin stays open until the child exits: at EOF it would end the
        # session with exit 0 if it read the EOF before the signal landed.
        child.wait(timeout=60)
        rest, err = child.stdout.read(), child.stderr.read()
    finally:
        child.kill()
        child.wait()
        for pipe in (child.stdin, child.stdout, child.stderr):
            pipe.close()
    assert child.returncode == 130
    assert err == "interrupted; 1 of 2 rows decided\n"
    assert "row 2/2" in shown and rest == ""
    # A second session reads the resume file back whole and asks only row 2.
    monkeypatch.setattr("sys.stdin", io.StringIO("r\n"))
    assert main(["review", str(manifest), "--out", str(out)]) == 0
    assert "row 1/2" not in capsys.readouterr().out
    assert [row["decision"] for row in read_manifest_rows(out)[1]] == ["accept", "reject"]
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
