"""The exit-code contract under corrupted input files and fuzzed flags.

Each example copies one small valid input set, corrupts one of its files
and runs a command on it in-process. Whatever the corruption, the command
returns 0 or 2 and writes no traceback. Where the README promises it, an
exit 2 leaves no output file behind, and a radar chart that is written
holds no NaN coordinate.

``fit-demo`` and ``grad-check`` read no input file, so their flags are
fuzzed instead: any value either runs, is refused by argparse with a
usage error, or ends in exit 2 with one line and no output file.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_map
from gazekit import FixationMap, save_fixations, save_map, write_manifest_rows, write_metrics_table
from gazekit.cli import main


def build_inputs(root: Path) -> None:
    """One small valid input set for every fuzzed command."""
    rng = np.random.default_rng(7)
    for sub in ("pred", "gt", "fix"):
        (root / sub).mkdir(parents=True)
    for stem, suffix in (("f0", ".pgm"), ("f1", ".csv")):
        save_map(root / "pred" / f"{stem}{suffix}", random_map(rng, 4, 5))
        save_map(root / "gt" / f"{stem}{suffix}", random_map(rng, 4, 5))
        save_fixations(root / "fix" / f"{stem}.csv", FixationMap(rng.uniform(size=(4, 5)) > 0.6))
    video = root / "corpus" / "vid0"
    video.mkdir(parents=True)
    for frame in range(6):
        save_map(video / f"frame_{frame:02d}{('.pgm', '.csv')[frame % 2]}", random_map(rng, 4, 4))
    for name, cc in (("a.csv", 0.3), ("b.csv", 0.9)):
        write_metrics_table(
            root / name,
            [("f0", {"cc": cc, "kl": 1.0 - cc, "sim": 0.5, "auc_j": 0.7, "auc_b": cc, "nss": 1.0})],
        )
    row = {"video_id": "v", "anchor": "1", "target": "3", "delta": "2",
           "anchor_peak_kl": "1.5", "pair_kl": "2.5", "caption": ""}
    write_manifest_rows(root / "pairs.csv", [row, dict(row, anchor="2", delta="1")])
    captions = [
        "Scene: a red car | Current: it brakes | Next: it turns left | Why: a red light",
        "Scene: a dog | Current: it crosses | Next: it waits | Why: a car, then a bus",
        "Scene: rain | Current: wipers on | Next: slow down | Why: wet road",
    ]
    for name, lines in (("cand.txt", [captions[1], captions[0]]), ("ref.txt", captions[:2]), ("corpus.txt", captions)):
        (root / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


#: Per command: the files a corruption may hit, the argv, and whether an
#: exit 2 must leave no output file behind.
COMMANDS = {
    "evaluate": (
        ["pred/f0.pgm", "pred/f1.csv", "gt/f0.pgm", "gt/f1.csv", "fix/f0.csv", "fix/f1.csv"],
        "evaluate --pred-dir {in}/pred --gt-dir {in}/gt --fix-dir {in}/fix --n-splits 3 --out {out}",
        True,
    ),
    "curate": (
        [f"corpus/vid0/frame_{frame:02d}{('.pgm', '.csv')[frame % 2]}" for frame in range(6)],
        "curate {in}/corpus --min-frames 3 --delta-min 1 --delta-max 2 --out {out}",
        False,  # a skipped video still leaves a manifest
    ),
    "report": (["a.csv", "b.csv"], "report --tables {in}/a.csv {in}/b.csv --labels a b --out {out}", True),
    "review": (["pairs.csv"], "review {in}/pairs.csv --out {out}", True),
    "caption-eval": (
        ["cand.txt", "ref.txt", "corpus.txt"],
        "caption-eval --candidates {in}/cand.txt --references {in}/ref.txt --corpus {in}/corpus.txt --out {out}",
        True,
    ),
    "caption-eval-per-field": (
        ["cand.txt", "ref.txt", "corpus.txt"],
        "caption-eval --candidates {in}/cand.txt --references {in}/ref.txt --corpus {in}/corpus.txt"
        " --per-field --out {out}",
        True,
    ),
}

_TOKENS = re.compile(rb"([,\n ])")

corruptions = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(
        st.just("cell"),
        st.integers(0, 200),
        st.sampled_from([b"nan", b"inf", b"-inf", b"1e308", b"-1", b"", b"x", b"0"]),
    ),
    st.tuples(st.just("ragged"), st.integers(0, 200), st.booleans()),
    st.tuples(st.just("bytes"), st.floats(0.0, 1.0), st.sampled_from([b"\xff", b"\xfe\xff", b"\x80abc"])),
)


def corrupt(data: bytes, how) -> bytes:
    kind, *args = how
    if kind == "truncate":
        return data[: int(args[0] * len(data))]
    if kind == "bytes":
        at = int(args[0] * len(data))
        return data[:at] + args[1] + data[at:]
    parts = _TOKENS.split(data)  # tokens at even indices, separators between
    if kind == "cell":
        index, token = args
        parts[2 * (index % ((len(parts) + 1) // 2))] = token
        return b"".join(parts)
    index, add = args
    commas = [i for i, part in enumerate(parts) if part == b","]
    if not commas:
        return data + b",1"
    at = commas[index % len(commas)]
    parts[at] = b",1," if add else b""
    return b"".join(parts)


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    build_inputs(root)
    return root


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=40)
@given(target=st.integers(0, 5), how=corruptions)
def test_corrupted_input_exits_0_or_2(valid_inputs, command, target, how):
    files, argv, no_output_on_2 = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "in"
        shutil.copytree(valid_inputs, inputs)
        victim = inputs / files[target % len(files)]
        victim.write_bytes(corrupt(victim.read_bytes(), how))
        out = Path(tmp) / "result"
        stdout, stderr = io.StringIO(), io.StringIO()
        stdin = io.StringIO("a\nr\ne\nScene: a | Current: b | Next: c | Why: d\n")
        with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv.format(**{"in": inputs, "out": out}).split())
        assert code in (0, 2), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        if code == 2 and no_output_on_2:
            assert not out.exists()
        if command == "report" and code == 0:
            assert not re.search(r"\b(nan|inf)\b", out.read_text(encoding="utf-8"))


def run_flags(argv: list[str]) -> tuple[int, str, bool]:
    """Run the CLI in-process: (exit code, stderr, whether argparse refused argv)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            return main(argv), stderr.getvalue(), False
        except SystemExit as exc:
            return exc.code, stderr.getvalue(), True


def assert_flag_contract(code: int, err: str, usage: bool, codes) -> None:
    assert code in codes, err
    assert "Traceback" not in err
    if code == 2 and not usage:
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err


_FLOAT_MAX = 1.7976931348623157e308

# Values are passed as --flag=VALUE: with a space, argparse reads a value
# such as -inf or -1e308 as an option of its own.
@settings(max_examples=60)
@given(
    grid=st.integers(-1, 6),
    steps=st.integers(-1, 8),
    lr=st.one_of(st.floats(), st.sampled_from([_FLOAT_MAX, -_FLOAT_MAX, 5e-324])),
    target=st.sampled_from(["delta", "uniform"]),
    hinge=st.booleans(),
)
@example(grid=2, steps=3, lr=-_FLOAT_MAX, target="delta", hinge=False)
@example(grid=1, steps=1, lr=float("inf"), target="delta", hinge=False)
def test_fit_demo_flags_keep_the_contract(grid, steps, lr, target, hinge):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "fit.csv"
        argv = ["fit-demo", f"--grid={grid}", f"--steps={steps}", f"--lr={lr!r}", f"--target={target}", f"--out={out}"]
        code, err, usage = run_flags(argv + ["--hinge"] * hinge)
        assert_flag_contract(code, err, usage, (0, 2))
        assert out.exists() == (code == 0)


@settings(max_examples=60)
@given(seed=st.integers(-3, 2**70), trials=st.integers(-1, 2))
def test_grad_check_flags_keep_the_contract(seed, trials):
    code, err, usage = run_flags(["grad-check", f"--seed={seed}", f"--trials={trials}"])
    assert_flag_contract(code, err, usage, (0, 1, 2))
