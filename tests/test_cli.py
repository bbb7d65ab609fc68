"""End-to-end command tests driving main() with temp directories.

Every command is exercised through its argv surface, asserting exit
codes, emitted files, and the stdout/stderr contract. File outputs are
checked for byte determinism where the command promises it.
"""

from __future__ import annotations

import csv
import io
import re

import numpy as np
import pytest

from conftest import random_map
from gazekit import (
    MANIFEST_HEADER,
    GazeMap,
    load_map,
    normalize_to_simplex,
    read_manifest_rows,
    read_metrics_table,
    save_fixations,
    save_map,
    FixationMap,
)
from gazekit import gradcheck
from gazekit.cli import main


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

    def test_identity_scores(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        refs = tmp_path / "refs.txt"
        cand.write_text("\n".join(self.SENTS) + "\n")
        refs.write_text("\n".join(self.SENTS) + "\n")
        out = tmp_path / "scores.csv"
        code = main(["caption-eval", "--candidates", str(cand), "--references", str(refs), "--out", str(out)])
        assert code == 0
        assert "tf-idf" in capsys.readouterr().err
        rows = read_csv_rows(out)
        assert rows[0] == ["id", "bleu", "rouge_l", "cider", "error"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "mean"]
        mean = rows[-1]
        assert float(mean[1]) == pytest.approx(1.0)
        assert float(mean[2]) == pytest.approx(1.0)
        assert float(mean[3]) == pytest.approx(10.0)

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


class TestGradCheck:
    def test_passes_and_prints_one_line_per_path(self, capsys):
        code = main(["grad-check", "--trials", "5", "--seed", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert [line.split(":")[0] for line in lines] == ["gaze", "caption", "infonce", "chained"]
        assert all("max relative error" in line and line.endswith("pass") for line in lines)

    def test_wrong_gradient_fails(self, capsys, monkeypatch):
        right = gradcheck._TRIALS["infonce"]

        def wrong(rng):
            loss, point, analytic = right(rng)
            return loss, point, analytic + 1.0

        monkeypatch.setitem(gradcheck._TRIALS, "infonce", wrong)
        code = main(["grad-check", "--trials", "5"])
        assert code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        failing = [line for line in lines if line.endswith("FAIL")]
        assert len(failing) == 1 and failing[0].startswith("infonce")

    def test_deterministic_output(self, capsys):
        assert main(["grad-check", "--trials", "4", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["grad-check", "--trials", "4", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first


class TestFitDemo:
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


def _contract_inputs(root):
    """One small valid input of every kind, under ``root``."""
    root.mkdir()
    gaze = peaked_map(np.random.default_rng(0), 6, (2, 3))
    for sub in ("pred", "gt"):
        write_map_dir(root / sub, {"f0": gaze})
    (root / "fix").mkdir()
    save_fixations(root / "fix" / "f0.csv", FixationMap(gaze.values == gaze.values.max()))
    write_sequence_dir(root / "corpus", "vid0", two_segment_arrays(3, 3))
    (root / "cand.txt").write_text("a red car\n", encoding="utf-8")
    (root / "ref.txt").write_text("a red car stops\n", encoding="utf-8")
    write_metrics_file(root / "table.csv", 0.5, 0.2)
    (root / "empty.csv").write_text("", encoding="utf-8")
    (root / "nan_mean.csv").write_text(
        "id,cc,kl,sim,auc_j,auc_b,nss\nf0,0.5,0.2,0.5,0.7,0.6,1\nmean,nan,0.2,0.5,0.7,0.6,1\n",
        encoding="utf-8",
    )
    (root / "huge_field.csv").write_text(
        ",".join(MANIFEST_HEADER) + "\nv,4,8,4,1.5,2.5,,," + "x" * 200_000 + "\n", encoding="utf-8"
    )
    (root / "short_row.csv").write_text(
        "video_id,anchor,target,delta,anchor_peak_kl,pair_kl,"
        "anchor_map_path,target_map_path,caption\nv,4,8\n",
        encoding="utf-8",
    )


#: (argv with {in} for the inputs and {out} for an output path) per case
#: of bad input that must end in exit 2 with a one-line reason.
CONTRACT_CASES = {
    "report-empty-table": "report --tables {in}/empty.csv {in}/table.csv --labels a b --out {out}.svg",
    "report-nan-mean": "report --tables {in}/nan_mean.csv {in}/table.csv --labels a b --out {out}.svg",
    "review-short-row": "review {in}/short_row.csv --out {out}.csv",
    "review-huge-field": "review {in}/huge_field.csv --out {out}.csv",
    "evaluate-out-missing-dir": "evaluate --pred-dir {in}/pred --gt-dir {in}/gt --fix-dir {in}/fix"
    " --out {missing}.csv",
    "curate-out-missing-dir": "curate {in}/corpus --out {missing}.csv",
    "fit-demo-out-missing-dir": "fit-demo --grid 2 --steps 1 --out {missing}.csv",
    "caption-eval-out-missing-dir": "caption-eval --candidates {in}/cand.txt --references {in}/ref.txt"
    " --out {missing}.csv",
    "curate-delta-min-0": "curate {in}/corpus --delta-min 0 --out {out}.csv",
    "curate-top-k-0": "curate {in}/corpus --top-k 0 --out {out}.csv",
    "curate-peak-floor-nan": "curate {in}/corpus --peak-floor nan --out {out}.csv",
    "curate-peak-floor-inf": "curate {in}/corpus --peak-floor inf --out {out}.csv",
    "fit-demo-negative-steps": "fit-demo --grid 2 --steps -1 --out {out}.csv",
    "fit-demo-lr-inf": "fit-demo --grid 1 --steps 1 --lr inf --out {out}.csv",
}


class TestExitCodeContract:
    @pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
    def test_bad_input_exits_2_with_one_line(self, case, tmp_path, monkeypatch, capsys):
        _contract_inputs(tmp_path / "in")
        (tmp_path / "out").mkdir()
        argv = CONTRACT_CASES[case].format(
            **{"in": tmp_path / "in", "out": tmp_path / "out" / "result", "missing": tmp_path / "nowhere" / "result"}
        ).split()
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        assert list((tmp_path / "out").iterdir()) == []
        assert not (tmp_path / "nowhere").exists()
