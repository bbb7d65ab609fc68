"""The ten headline guarantees, one test per numbered criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion; each test also prints its own summary line. The
tolerances and time bounds asserted here are fixed guarantees of the
package, not tuning knobs.
"""

from __future__ import annotations

import math
import time

import numpy as np

from test_curation import brute_force_pairs
from gazekit import (
    CurationParams,
    FixationMap,
    GazeLossConfig,
    GazeMap,
    GazeSequence,
    LossWeights,
    auc_borji,
    auc_judd,
    bleu,
    cc,
    cider,
    curate_video,
    fit_gaze_demo,
    kl_div,
    loss_gaze,
    normalize_to_simplex,
    render_radar,
    rouge_l,
    run_gradient_checks,
    save_fixations,
    save_map,
    load_map,
    sim,
    total_loss,
)
from gazekit.cli import main


def _random_simplex(rng, side=64):
    return normalize_to_simplex(rng.uniform(0.05, 1.0, size=(side, side)))


def _line(number, label):
    print(f"criterion {number:02d} ({label}): PASS")


def test_criterion_01_metric_self_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(50):
        m = _random_simplex(rng)
        assert np.ptp(m.values) > 0.0
        assert abs(cc(m, m) - 1.0) <= 1e-9
        assert abs(kl_div(m, m)) <= 1e-9
        assert abs(sim(m, m) - 1.0) <= 1e-9
    assert time.perf_counter() - start < 5.0
    _line(1, "metric self identity")


def test_criterion_02_gradient_checks():
    start = time.perf_counter()
    reports = run_gradient_checks(seed=0, trials=100)
    elapsed = time.perf_counter() - start
    assert sorted(r.name for r in reports) == ["caption", "chained", "gaze", "infonce"]
    for report in reports:
        assert report.trials >= 100
        assert report.max_rel_error < 1e-4, f"{report.name}: {report.max_rel_error}"
    assert elapsed < 60.0
    _line(2, "finite-difference gradient checks")


def test_criterion_03_hinge_never_reduces_the_loss():
    rng = np.random.default_rng(303)
    for _ in range(1000):
        gt = _random_simplex(rng, side=8)
        logits = rng.normal(0.0, 2.0, size=(8, 8))
        parts = loss_gaze(gt, logits)
        assert parts.hinge >= 0.0
        assert parts.total >= parts.kl
    uniform = normalize_to_simplex(np.ones((8, 8)))
    parts = loss_gaze(uniform, np.zeros((8, 8)))
    assert abs(parts.total - 0.015) <= 1e-12
    _line(3, "hinge bound and uniform fixture")


def test_criterion_04_curation_matches_brute_force():
    # Deterministic two-segment fixture: point mass moves at frame 10.
    a = np.zeros((8, 8))
    a[1, 1] = 1.0
    b = np.zeros((8, 8))
    b[6, 6] = 1.0
    fixture = GazeSequence("ab", tuple(GazeMap(v) for v in [a] * 10 + [b] * 50))
    pairs = curate_video(fixture)
    assert [(p.anchor, p.target, p.delta) for p in pairs] == [(9, 12, 3)]

    short = GazeSequence("short", tuple(GazeMap(v) for v in [a] * 10 + [b] * 30))
    assert curate_video(short) == []

    params = CurationParams()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 121))
        seq = GazeSequence(
            f"s{seed}",
            tuple(_random_simplex(rng, side=8) for _ in range(n)),
        )
        assert curate_video(seq, params) == brute_force_pairs(seq, params), f"seed {seed} diverged"
    _line(4, "curation equals brute force")


def test_criterion_05_auc_sanity():
    rng = np.random.default_rng(505)
    pred = _random_simplex(rng)
    order = np.argsort(pred.values.ravel())[::-1]
    mask = np.zeros(64 * 64, dtype=bool)
    mask[order[:5]] = True
    fix = FixationMap(mask.reshape(64, 64))
    assert auc_judd(pred, fix) == 1.0
    assert auc_borji(pred, fix, n_splits=100, seed=0) == 1.0

    for seed in range(20):
        gen = np.random.default_rng(seed)
        p = _random_simplex(gen)
        f = FixationMap(gen.uniform(size=(64, 64)) < 0.1)
        assert abs(auc_borji(p, f, n_splits=100, seed=seed) - 0.5) <= 0.05
    _line(5, "auc extremes and chance level")


def test_criterion_06_text_metric_fixtures():
    score = bleu(["the", "the", "the"], [["the", "cat"]], max_n=1)
    assert abs(score - 0.238844) <= 1e-6

    assert abs(rouge_l(["a", "b", "c", "d"], ["a", "c", "d", "e"]) - 0.75) <= 1e-6

    tokens = "a red car stops".split()
    assert abs(cider(tokens, [tokens], [[tokens]])) <= 1e-6
    _line(6, "text metric fixtures")


def test_criterion_07_fit_demo_convergence():
    start = time.perf_counter()
    values = np.zeros((16, 16))
    values[8, 8] = 1.0
    trajectory = fit_gaze_demo(GazeMap(values), 500, 1.0)
    assert trajectory[-1].loss < 0.05

    for seed in range(3):
        rng = np.random.default_rng(seed)
        gt = _random_simplex(rng, side=8)
        losses = [s.loss for s in fit_gaze_demo(gt, 300, 0.1)]
        assert max(np.diff(losses)) <= 0.0
    assert time.perf_counter() - start < 10.0
    _line(7, "descent demo convergence")


def test_criterion_08_loss_composition():
    assert total_loss(0.5, 1.0, 2.0) == 1.9
    cfg = GazeLossConfig()
    assert (cfg.hinge_weight, cfg.hinge_margin, cfg.blur_sigma) == (0.3, 0.05, 1.0)
    weights = LossWeights()
    assert (weights.gaze, weights.caption, weights.align) == (1.0, 1.0, 0.2)
    _line(8, "loss composition and defaults")


def test_criterion_09_io_determinism(tmp_path):
    rng = np.random.default_rng(909)
    for i in range(20):
        original = _random_simplex(rng)
        path = tmp_path / f"m{i}.pgm"
        save_map(path, original)
        assert np.abs(load_map(path).values - original.values).max() <= 1.0 / 65535.0

    # Identical command lines must give identical bytes.
    pred_dir = tmp_path / "pred"
    fix_dir = tmp_path / "fix"
    pred_dir.mkdir()
    fix_dir.mkdir()
    for i in range(3):
        gaze = _random_simplex(rng, side=16)
        save_map(pred_dir / f"f{i}.pgm", gaze)
        mask = np.zeros((16, 16), dtype=bool)
        mask[np.unravel_index(np.argmax(gaze.values), (16, 16))] = True
        save_fixations(fix_dir / f"f{i}.csv", FixationMap(mask))
    runs = []
    for name in ("e1.csv", "e2.csv"):
        out = tmp_path / name
        assert main([
            "evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(pred_dir),
            "--fix-dir", str(fix_dir), "--out", str(out),
        ]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]

    corpus = tmp_path / "corpus" / "vid"
    corpus.mkdir(parents=True)
    a = np.zeros((8, 8))
    a[1, 1] = 1.0
    b = np.zeros((8, 8))
    b[6, 6] = 1.0
    for i, v in enumerate([a] * 10 + [b] * 50):
        save_map(corpus / f"frame_{i:03d}.csv", GazeMap(v))
    runs = []
    for name in ("c1.csv", "c2.csv"):
        out = tmp_path / name
        assert main(["curate", str(tmp_path / "corpus"), "--out", str(out)]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]

    runs = []
    for name in ("r1.svg", "r2.svg"):
        out = tmp_path / name
        assert main([
            "report", "--tables", str(tmp_path / "e1.csv"), str(tmp_path / "e2.csv"),
            "--labels", "a", "b", "--out", str(out),
        ]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]
    _line(9, "on-disk determinism")


def test_criterion_10_radar_geometry():
    columns = dict(
        cc=[0.25, 0.55, 0.85], sim=[0.2, 0.5, 0.9], nss=[0.8, 2.4, 1.6],
        auc_j=[0.55, 0.75, 0.95], auc_b=[0.5, 0.65, 0.8], kl=[2.5, 0.9, 0.4],
    )
    means = [{col: vals[i] for col, vals in columns.items()} for i in range(3)]
    svg, degenerate = render_radar(["m0", "m1", "m2"], means)
    assert degenerate == []

    polygons = []
    for line in svg.splitlines():
        if "fill-opacity" in line:
            raw = line.split('points="')[1].split('"')[0]
            polygons.append([tuple(map(float, pt.split(","))) for pt in raw.split()])
    assert len(polygons) == 3

    axis_columns = [("cc", False), ("sim", False), ("nss", False),
                    ("auc_j", False), ("auc_b", False), ("kl", True)]
    for model in range(3):
        for axis, (column, invert) in enumerate(axis_columns):
            values = columns[column]
            lo, hi = min(values), max(values)
            unit = (values[model] - lo) / (hi - lo)
            if invert:
                unit = 1.0 - unit
            angle = -0.5 * math.pi + axis * math.pi / 3.0
            x = 260.0 + unit * 190.0 * math.cos(angle)
            y = 270.0 + unit * 190.0 * math.sin(angle)
            got_x, got_y = polygons[model][axis]
            assert abs(got_x - x) <= 1e-12 and abs(got_y - y) <= 1e-12
    _line(10, "radar min-max geometry")
