"""Command-line front end.

Subcommands:

* ``evaluate``     score prediction maps against ground-truth maps
* ``curate``       select anchor/target frame pairs from a map corpus
* ``caption-eval`` score caption files with BLEU / ROUGE-L / CIDEr
* ``grad-check``   verify analytic gradients by finite differences
* ``fit-demo``     gradient-descent a logit grid onto a target map
* ``report``       draw a radar chart comparing metrics tables
* ``review``       step through a manifest recording accept/reject/edit

Exit status is 0 on success, 1 when an internal check fails
(grad-check), and 2 on input errors. All output files are deterministic
for fixed inputs, flags, and seeds: CSV with LF line endings, SVG with
fixed formatting, no timestamps.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .captions import parse_caption, serialize_caption
from .curation import CurationParams, GazeSequence, curate_video
from .errors import CaptionError, GazeKitError
from .gradcheck import TOLERANCE, run_gradient_checks
from .grids import GazeMap, normalize_to_simplex
from .manifests import (
    MANIFEST_HEADER,
    MEAN_ROW_ID,
    read_manifest_rows,
    read_metrics_table,
    write_manifest,
    write_manifest_rows,
    write_csv,
    write_metrics_table,
)
from .mapio import is_map_file, load_fixations, load_map
from .objectives import fit_gaze_demo
from .radar import RADAR_AXES, render_radar
from .saliency import score_maps
from .textmetrics import score_captions

__all__ = ["main", "build_parser"]

#: Column added to a manifest by the review pass.
DECISION_COLUMN = "decision"

CAPTION_SCORE_HEADER = ("id", "bleu", "rouge_l", "cider", "error")


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _prefix(directory: Path) -> str:
    # What ``str(directory / name)`` puts before ``name``.
    text = str(directory)
    return "" if text == "." else os.path.join(text, "")


def _map_files(directory: Path) -> dict[str, str]:
    """Map files in ``directory`` by name, in name order, with their paths."""
    with os.scandir(directory) as entries:
        names = sorted(e.name for e in entries if e.is_file() and is_map_file(e.name))
    prefix = _prefix(directory)
    return {name: prefix + name for name in names}


def cmd_evaluate(args) -> int:
    pred_dir = Path(args.pred_dir)
    gt_dir = Path(args.gt_dir)
    fix_dir = Path(args.fix_dir) if args.fix_dir else None
    try:
        pred_files = _map_files(pred_dir)
        gt_files = _map_files(gt_dir)
    except OSError as exc:
        _diag(f"cannot list inputs: {exc}")
        return 2

    problems = []
    for name in sorted(set(pred_files) - set(gt_files)):
        problems.append(f"{name}: present under {pred_dir}, missing under {gt_dir}")
    for name in sorted(set(gt_files) - set(pred_files)):
        problems.append(f"{name}: present under {gt_dir}, missing under {pred_dir}")

    if fix_dir is None:
        _diag("no fixation directory given; auc_j, auc_b and nss columns are skipped")

    fix_prefix = _prefix(fix_dir) if fix_dir is not None else None
    rows = []
    for name in sorted(set(pred_files) & set(gt_files)):
        try:
            pred = load_map(pred_files[name])
            gt = load_map(gt_files[name])
        except (GazeKitError, ValueError, OSError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        fix = None
        if fix_dir is not None:
            # A map file name ends in its four-byte suffix.
            try:
                fix = load_fixations(f"{fix_prefix}{name[:-4]}.csv")
            except (GazeKitError, ValueError, OSError) as exc:
                problems.append(f"{name}: fixations: {exc}")
                continue
        rows.append((name, score_maps(pred, gt, fix, n_splits=args.n_splits, seed=args.seed)))

    if problems:
        for message in problems:
            _diag(message)
        return 2
    write_metrics_table(args.out, rows)
    return 0


def cmd_curate(args) -> int:
    root = Path(args.input_dir)
    params = CurationParams(
        delta_min=args.delta_min,
        delta_max=args.delta_max,
        min_frames=args.min_frames,
        top_k=args.top_k,
        peak_floor=args.peak_floor,
    )
    try:
        with os.scandir(root) as entries:
            videos = sorted(e.name for e in entries if e.is_dir())
    except OSError as exc:
        _diag(f"cannot list {root}: {exc}")
        return 2

    pairs, counts, skipped = [], [], []
    frame_paths: dict[str, list[str]] = {}
    # Each video is curated before the next is read: one is in memory at a time.
    for video in videos:
        files = _map_files(root / video)
        if not files:
            skipped.append(f"{video}: no map files, skipped")
            continue
        try:
            seq = GazeSequence(video, tuple(load_map(f) for f in files.values()))
        except (GazeKitError, ValueError, OSError) as exc:
            skipped.append(f"{video}: {exc}, skipped")
            continue
        frame_paths[video] = [f"{video}/{name}" for name in files]
        selected = curate_video(seq, params)
        pairs.extend(selected)
        counts.append(f"{video}: {len(selected)}")
    # Written before anything is printed: a failed write leaves stdout empty.
    write_manifest(args.out, pairs, frame_paths)
    for line in counts:
        print(line)
    for message in skipped:
        _diag(message)
    return 2 if skipped else 0


def _read_lines(path) -> list[str]:
    # Lines end only at "\n", into which read_text turns "\r\n" and "\r";
    # str.splitlines would also end one at a form feed, U+0085 or U+2028.
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return text.removesuffix("\n").split("\n") if text else []


def cmd_caption_eval(args) -> int:
    candidates = _read_lines(args.candidates)
    references = _read_lines(args.references)
    if len(candidates) != len(references):
        _diag(
            f"line counts differ: {len(candidates)} candidates, {len(references)} references"
        )
        return 2
    corpus_lines = _read_lines(args.corpus) if args.corpus else references
    corpus = [[line] for line in corpus_lines]

    pairs = [(cand, [ref]) for cand, ref in zip(candidates, references)]
    report = score_captions(pairs, corpus, max_n=args.max_n, per_field=args.per_field)

    def cells(score, missing: str) -> list[str]:
        if score is None:
            return [missing] * 3
        return [f"{value:.9g}" for value in (score.bleu, score.rouge_l, score.cider)]

    out_rows = [[str(row.index + 1), *cells(row.score, ""), row.error or ""] for row in report.rows]
    out_rows.append([MEAN_ROW_ID, *cells(report.means, "NA"), ""])
    write_csv(args.out, CAPTION_SCORE_HEADER, out_rows)
    _diag("note: the cider column is the plain tf-idf consensus score")
    return 0


def cmd_grad_check(args) -> int:
    reports = run_gradient_checks(seed=args.seed, trials=args.trials)
    all_passed = True
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        print(
            f"{report.name}: max relative error {report.max_rel_error:.3e} "
            f"over {report.trials} trials, tolerance {TOLERANCE:.0e}: {status}"
        )
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def cmd_fit_demo(args) -> int:
    n = args.grid
    if args.target == "delta":
        values = np.zeros((n, n))
        values[n // 2, n // 2] = 1.0
        gt = GazeMap(values)
    else:
        gt = normalize_to_simplex(np.ones((n, n)))
    trajectory = fit_gaze_demo(gt, args.steps, args.lr, use_hinge=args.hinge)
    rows = [
        [str(step.step), f"{step.loss:.17g}", f"{step.entropy:.17g}"] for step in trajectory
    ]
    write_csv(args.out, ("step", "loss", "entropy"), rows)
    print(f"final loss {trajectory[-1].loss:.9g} after {args.steps} steps")
    return 0


def cmd_report(args) -> int:
    if len(args.tables) < 2:
        _diag("at least two metrics tables are required")
        return 2
    if len(args.labels) != len(args.tables):
        _diag(f"{len(args.tables)} tables but {len(args.labels)} labels")
        return 2
    means = []
    for path in args.tables:
        _, mean_row = read_metrics_table(path)
        cells = {}
        for _, column, _ in RADAR_AXES:
            value = mean_row.get(column)
            if not isinstance(value, float) or not math.isfinite(value):
                what = "finite" if isinstance(value, float) else "numeric"
                _diag(f"{path}: mean of column {column} is not {what} ({value!r})")
                return 2
            cells[column] = value
        means.append(cells)
    svg, degenerate = render_radar(args.labels, means)
    Path(args.out).write_text(svg, encoding="utf-8", newline="")
    for axis in degenerate:
        _diag(f"axis {axis}: all models score the same, drawn at half radius")
    return 0


def _prompt(stream, text: str) -> str | None:
    """Print a prompt and read one stripped line; None signals end of input."""
    print(text, end="", flush=True)
    line = stream.readline()
    if line == "":
        return None
    return line.strip()


def _ask_decision(stream, can_accept: bool) -> str | None:
    """Prompt until the row is accepted, rejected or given a valid caption.

    Returns "accept", "reject" or the edited caption in canonical form,
    or None when input ends first.
    """
    choices = "[a]ccept / [r]eject / [e]dit" if can_accept else "[r]eject / [e]dit"
    while True:
        answer = _prompt(stream, f"{choices}? ")
        if answer is None:
            return None
        answer = answer.lower()
        if answer == "a" and can_accept:
            return "accept"
        if answer == "r":
            return "reject"
        if answer != "e":
            print("unrecognized choice")
            continue
        while True:
            text = _prompt(stream, "replacement caption: ")
            if text is None:
                return None
            try:
                return serialize_caption(parse_caption(text))
            except CaptionError as exc:
                print(f"not a valid caption ({type(exc).__name__}: {exc})")


def _write_review(path, rows, decisions) -> None:
    out_rows = []
    for row, decision in zip(rows, decisions):
        if decision is None:
            continue
        merged = {key: row.get(key, "") for key in MANIFEST_HEADER}
        merged[DECISION_COLUMN] = decision
        out_rows.append(merged)
    write_manifest_rows(path, out_rows, extra_columns=(DECISION_COLUMN,))


def cmd_review(args) -> int:
    _, rows = read_manifest_rows(args.manifest)
    out_path = Path(args.out)

    # Earlier decisions are matched back to input rows by their original
    # columns, so an interrupted session resumes where it stopped. Equal
    # rows are matched positionally via a per-key queue.
    prior: dict[tuple, list[str]] = {}
    if out_path.exists():
        try:
            _, done_rows = read_manifest_rows(out_path)
        except (ValueError, OSError) as exc:
            _diag(f"cannot resume from {out_path}: {exc}")
            return 2
        for row in done_rows:
            decision = row.get(DECISION_COLUMN, "")
            if decision:
                key = tuple(row.get(col, "") for col in MANIFEST_HEADER)
                prior.setdefault(key, []).append(decision)

    decisions: list[str | None] = []
    for row in rows:
        key = tuple(row.get(col, "") for col in MANIFEST_HEADER)
        queue = prior.get(key)
        decisions.append(queue.pop(0) if queue else None)

    stream = sys.stdin
    pending = [i for i, d in enumerate(decisions) if d is None]
    for index in pending:
        row = rows[index]
        print(
            f"row {index + 1}/{len(rows)}: video {row['video_id']} "
            f"anchor {row['anchor']} target {row['target']} delta {row['delta']} "
            f"pair_kl {row['pair_kl']}"
        )
        # A caption that is empty after stripping whitespace is no caption yet.
        caption = row.get("caption", "")
        parse_error = None
        if caption.strip():
            try:
                parse_caption(caption)
            except CaptionError as exc:
                parse_error = f"{type(exc).__name__}: {exc}"
        print(f"caption: {caption if caption.strip() else '(empty)'}")
        if parse_error:
            print(f"caption does not parse ({parse_error}); it must be edited or rejected")

        decision = _ask_decision(stream, can_accept=parse_error is None)
        if decision is None:
            _write_review(out_path, rows, decisions)
            print()
            print(f"input ended; {sum(d is not None for d in decisions)} of {len(rows)} rows decided")
            return 0
        decisions[index] = decision
        _write_review(out_path, rows, decisions)

    _write_review(out_path, rows, decisions)
    print(f"{len(rows)} rows decided")
    return 0


def _int_at_least(minimum: int):
    """argparse type for integers no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazekit",
        description="Gaze-map metrics, objectives, curation and reporting toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score prediction maps against ground truth")
    p.add_argument("--pred-dir", required=True, help="directory of predicted maps")
    p.add_argument("--gt-dir", required=True, help="directory of ground-truth maps")
    p.add_argument("--fix-dir", help="directory of fixation CSV files, matched by stem")
    p.add_argument("--out", required=True, help="metrics table CSV to write")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="seed for the shuffled-negatives AUC")
    p.add_argument("--n-splits", type=_int_at_least(1), default=100, help="negative resamplings per map")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("curate", help="select anchor/target frame pairs from a map corpus")
    p.add_argument("input_dir", help="directory with one subdirectory of frame maps per video")
    p.add_argument("--out", required=True, help="manifest CSV to write")
    p.add_argument("--delta-min", type=int, default=3, help="smallest anchor-to-target gap")
    p.add_argument("--delta-max", type=int, default=18, help="largest anchor-to-target gap")
    p.add_argument("--min-frames", type=int, default=50, help="shortest usable video")
    p.add_argument("--top-k", type=int, default=2, help="pairs kept per video")
    p.add_argument("--peak-floor", type=float, default=0.0, help="smallest usable peak height")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("caption-eval", help="score caption files against references")
    p.add_argument("--candidates", required=True, help="candidate captions, one per line")
    p.add_argument("--references", required=True, help="reference captions, line-aligned")
    p.add_argument("--corpus", help="corpus for document frequencies (default: references)")
    p.add_argument("--out", required=True, help="score CSV to write")
    p.add_argument("--max-n", type=_int_at_least(1), default=4, help="largest n-gram order")
    p.add_argument("--per-field", action="store_true", help="score each caption field separately")
    p.set_defaults(func=cmd_caption_eval)

    p = sub.add_parser("grad-check", help="verify analytic gradients by finite differences")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--trials", type=_int_at_least(1), default=100, help="random instances per gradient path")
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("fit-demo", help="gradient-descent a logit grid onto a target map")
    p.add_argument("--grid", type=_int_at_least(1), default=16, help="grid side length")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=1.0, help="learning rate")
    p.add_argument("--hinge", action="store_true", help="add the blur-gap hinge to the loss")
    p.add_argument("--target", choices=("delta", "uniform"), default="delta")
    p.add_argument("--out", required=True, help="trajectory CSV to write")
    p.set_defaults(func=cmd_fit_demo)

    p = sub.add_parser("report", help="draw a radar chart comparing metrics tables")
    p.add_argument("--tables", nargs="+", required=True, help="metrics table CSVs (two or more)")
    p.add_argument("--labels", nargs="+", required=True, help="one model label per table")
    p.add_argument("--out", required=True, help="SVG file to write")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("review", help="record accept/reject/edit decisions for a manifest")
    p.add_argument("manifest", help="curation manifest to review")
    p.add_argument("--out", required=True, help="decisions CSV; reused to resume")
    p.set_defaults(func=cmd_review)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The one boundary for input and I/O errors: exit 2 with a one-line
    # reason. A check that fails inside grad-check returns 1 on its own.
    try:
        return args.func(args)
    except (GazeKitError, ValueError, OSError) as exc:
        _diag(" ".join(str(exc).splitlines()) or type(exc).__name__)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
