"""Seeded input generators for the four benchmark workloads.

Each workload turns a pool key into one input set on disk plus the
``gazekit`` CLI calls that consume it. The same key always yields the
same bytes, so the digests recorded for a key at one commit identify
the outputs every later commit must reproduce. The CLI sees only the
generated files.

Input sets are built so that every set of a workload costs about the
same to process, which keeps the per-invocation throughput samples
tight: evaluate pairs its fixation counts antithetically, captions has
a fixed count of malformed lines, and so on. The remaining variation is
what a real input mix would have.

The ``gazekit`` package must already be importable when this module is
imported; the worker puts the checkout's ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import functools
import importlib.util
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gazekit import mapio
from gazekit.grids import FixationMap, GazeMap

#: Workload names in their canonical order.
NAMES = ("evaluate", "curate", "captions", "gradients")


@dataclass
class Call:
    """One CLI call: its argv and the outputs whose digests are gated."""

    argv: list[str]
    outputs: list[Path] = field(default_factory=list)
    stdout_gated: bool = False


@dataclass
class InputSet:
    """Everything one timed invocation needs, plus its descriptors."""

    calls: list[Call]
    items: int
    descriptors: dict


def _rng(workload: str, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([NAMES.index(workload), key]))


# --- evaluate -------------------------------------------------------------

_EVAL_SIZES = {
    # (height, width, float frames, fixated-cell range)
    "full": (90, 160, 4, (20, 400)),
    "smoke": (24, 32, 2, (5, 30)),
}


def _blob_field(rng, height, width, blobs):
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    values = np.zeros((height, width))
    for _ in range(blobs):
        r, c = rng.uniform(0, height), rng.uniform(0, width)
        s = rng.uniform(0.05, 0.2) * min(height, width)
        values += rng.uniform(0.3, 1.0) * np.exp(-((rows - r) ** 2 + (cols - c) ** 2) / (2 * s * s))
    return values


def _eval_frame(rng, height, width, fixated, constant):
    scene = _blob_field(rng, height, width, 4)
    # The prediction is a noisy view of the scene, so fixations drawn from
    # the scene give AUCs away from both 0.5 and 1.
    pred = scene + 0.3 * _blob_field(rng, height, width, 3) + rng.uniform(0.0, 0.05, scene.shape)
    weights = scene.ravel() + 0.02
    cells = rng.choice(scene.size, size=fixated, replace=False, p=weights / weights.sum())
    fix = np.zeros(scene.size)
    fix[cells] = 1.0
    fix = fix.reshape(scene.shape)
    gt = scene + 1e-3
    if constant:
        pred = np.ones_like(scene)
    return GazeMap(pred / pred.sum()), GazeMap(gt / gt.sum()), FixationMap(fix)


def _make_evaluate(key, root, size):
    height, width, n_float, (lo, hi) = _EVAL_SIZES[size]
    rng = _rng("evaluate", key)
    # Fixated-cell counts are spread evenly over the whole range, with a
    # little jitter, so every input set carries the same ROC work: its cost
    # grows faster than linearly in the count. evaluate pairs prediction and
    # ground truth by full file name, so both maps of a frame share one
    # format; frames alternate between CSVF and PGM.
    jitter = (hi - lo) // (16 * (n_float - 1))
    frames = []
    for index, target in enumerate(np.linspace(lo, hi, n_float)):
        fixated = int(np.clip(round(target) + rng.integers(-jitter, jitter + 1), lo, hi))
        frames.append((fixated, (".csv", ".pgm")[index % 2]))
    frames.append((int(rng.integers(lo, hi + 1)), ".csv"))  # the constant-prediction frame
    dirs = {name: root / name for name in ("pred", "gt", "fix")}
    for d in dirs.values():
        d.mkdir(parents=True)
    distinct = []
    for index, (fixated, suffix) in enumerate(frames):
        constant = index == len(frames) - 1
        pred, gt, fix = _eval_frame(rng, height, width, fixated, constant)
        stem = f"frame_{index:03d}"
        mapio.save_map(dirs["pred"] / f"{stem}{suffix}", pred)
        mapio.save_map(dirs["gt"] / f"{stem}{suffix}", gt)
        mapio.save_fixations(dirs["fix"] / f"{stem}.csv", fix)
        # Distinct values as the CLI reads them back, after PGM quantization.
        read_back = mapio.load_grid(dirs["pred"] / f"{stem}{suffix}")
        distinct.append(int(np.unique(read_back[fix.fixated]).size))
    out = root / "metrics.csv"
    argv = ["evaluate", "--pred-dir", str(dirs["pred"]), "--gt-dir", str(dirs["gt"]),
            "--fix-dir", str(dirs["fix"]), "--out", str(out)]
    descriptors = {
        "frames": len(frames),
        "grid": f"{height}x{width}",
        "formats": "".join(suffix[1] for _, suffix in frames),
        "constant_frames": 1,
        "fixated_cells": [fixated for fixated, _ in frames],
        "distinct_fixated_values": distinct,
    }
    return InputSet([Call(argv, [out])], len(frames), descriptors)


# --- curate ---------------------------------------------------------------

_CURATE_SIZES = {
    # (videos, frames min, frames max, grid)
    "full": (16, 50, 120, 64),
    "smoke": (2, 50, 56, 16),
}


@functools.cache
def _synth_video():
    """``synth_video`` from the repository's corpus script."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_synthetic_corpus.py"
    spec = importlib.util.spec_from_file_location("make_synthetic_corpus", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.synth_video


def _make_curate(key, root, size):
    videos, fmin, fmax, grid = _CURATE_SIZES[size]
    synth_video = _synth_video()
    rng = _rng("curate", key)
    corpus = root / "corpus"
    lengths = []
    # The same loop as make_synthetic_corpus.main, with 3 jumps and width 2.
    for index in range(videos):
        frames = int(rng.integers(fmin, fmax + 1))
        vdir = corpus / f"video_{index:03d}"
        vdir.mkdir(parents=True)
        for frame, gaze in enumerate(synth_video(rng, grid, frames, 3, 2.0)):
            mapio.save_map(vdir / f"frame_{frame:04d}.pgm", gaze)
        lengths.append(frames)
    out = root / "pairs.csv"
    descriptors = {"videos": videos, "grid": f"{grid}x{grid}", "frames_per_video": lengths, "jumps": 3}
    return InputSet([Call(["curate", str(corpus), "--out", str(out)], [out], True)], sum(lengths), descriptors)


# --- captions -------------------------------------------------------------

_VOCAB = {
    "scene": "urban rural highway intersection roundabout tunnel bridge parking lot residential "
    "downtown suburban night dusk dawn rain fog snow sunny wet dry busy quiet narrow wide "
    "two-lane four-lane street road avenue with heavy light traffic at on near the a".split(),
    "current": "driver watches looks checks monitors scans follows tracks the lead vehicle car truck "
    "bus cyclist pedestrian mirror speedometer traffic light sign lane marking ahead left right "
    "while braking accelerating steady slowing".split(),
    "next": "gaze shifts moves returns jumps to toward the crosswalk pedestrian cyclist side street "
    "merging vehicle rear mirror left right signal exit ramp oncoming lane shoulder next then "
    "briefly quickly back".split(),
    "why": "because since a an the pedestrian cyclist vehicle car is are steps starts merging "
    "crossing braking turning signal changes light turns red green yellow from into lane road "
    "suddenly ahead behind slowly".split(),
}

_LABELS = ("Scene", "Current", "Next", "Why")

_CAPTION_SIZES = {"full": 200, "smoke": 12}

#: Malformed candidates per input set: about 3 % at full size.
_MALFORMED = {"full": 6, "smoke": 2}


def _field_text(rng, vocab):
    return " ".join(rng.choice(vocab, size=int(rng.integers(2, 5))))


def _perturb(rng, text, vocab):
    words = text.split()
    for i in range(len(words)):
        if rng.random() < 0.3:
            words[i] = str(rng.choice(vocab))
    if len(words) > 4 and rng.random() < 0.3:
        del words[int(rng.integers(0, len(words)))]
    return " ".join(words)


def _caption_line(fields):
    return " | ".join(f"{label}: {text}" for label, text in zip(_LABELS, fields))


def _malformed(rng, fields, kind):
    parts = [f"{label}: {text}" for label, text in zip(_LABELS, fields)]
    if kind == 0:  # MissingField
        del parts[int(rng.integers(0, 4))]
    elif kind == 1:  # OrderViolation
        parts[1], parts[2] = parts[2], parts[1]
    else:  # EmptyField
        index = int(rng.integers(0, 4))
        parts[index] = f"{_LABELS[index]}:"
    return " | ".join(parts)


def _make_captions(key, root, size):
    n = _CAPTION_SIZES[size]
    rng = _rng("captions", key)
    # Malformed lines cycle through the three parse failures.
    bad = sorted(int(i) for i in rng.choice(n, size=_MALFORMED[size], replace=False))
    candidates, references, tokens = [], [], []
    for index in range(n):
        ref_fields = [_field_text(rng, _VOCAB[f]) for f in ("scene", "current", "next", "why")]
        cand_fields = [_perturb(rng, text, _VOCAB[f]) for text, f in zip(ref_fields, _VOCAB)]
        references.append(_caption_line(ref_fields))
        if index in bad:
            candidates.append(_malformed(rng, cand_fields, bad.index(index) % 3))
        else:
            candidates.append(_caption_line(cand_fields))
        tokens.extend(len(t.split()) for t in cand_fields)
    root.mkdir(parents=True)
    cand_path, ref_path = root / "cand.txt", root / "refs.txt"
    cand_path.write_text("\n".join(candidates) + "\n", encoding="utf-8")
    ref_path.write_text("\n".join(references) + "\n", encoding="utf-8")
    calls = []
    for mode, extra in (("whole", []), ("fields", ["--per-field"])):
        out = root / f"scores_{mode}.csv"
        argv = ["caption-eval", "--candidates", str(cand_path), "--references", str(ref_path),
                "--out", str(out)] + extra
        calls.append(Call(argv, [out]))
    descriptors = {
        "captions": n,
        "malformed": len(bad),
        "tokens_per_field": [min(tokens), round(sum(tokens) / len(tokens), 2), max(tokens)],
    }
    return InputSet(calls, 2 * n, descriptors)


# --- gradients ------------------------------------------------------------

_GRAD_TRIALS = {"full": 100, "smoke": 2}


def _make_gradients(key, root, size):
    trials = _GRAD_TRIALS[size]
    argv = ["grad-check", "--trials", str(trials), "--seed", str(key)]
    # Four gradient paths, each checked ``trials`` times.
    return InputSet([Call(argv, [], True)], 4 * trials, {"trials": trials, "seed": key})


_MAKERS = {
    "evaluate": _make_evaluate,
    "curate": _make_curate,
    "captions": _make_captions,
    "gradients": _make_gradients,
}


def make_inputs(workload: str, key: int, root: Path, size: str) -> InputSet:
    """Write the input set for ``key`` under ``root`` and return its calls."""
    return _MAKERS[workload](key, root, size)
