"""Reading and writing gaze maps and fixation grids.

Two on-disk map formats are supported, chosen by file suffix:

* ``.pgm``: binary PGM ("P5") with maxval 65535 and big-endian 16-bit
  samples, row-major from the top-left. Writing scales the map so its
  peak cell hits 65535; loading renormalizes to the simplex, so a
  save/load round trip is exact up to the 16-bit quantization step.
* ``.csv``: comma-separated decimal floats, one row per line ("CSVF").
  Values round-trip exactly. The file must be ASCII (another byte is
  refused with the path and its offset); blank lines are skipped and
  every other line must hold the same number of commas.
  A cell is a decimal or exponent float, ``inf``, ``infinity`` or
  ``nan`` in any case, optionally signed, with spaces or tabs around
  it. Cells are parsed by ``np.loadtxt``, which rounds correctly and
  so gives the same float as ``float()`` with two exceptions: digits
  grouped by underscores (``1_0``) are refused, and a ``\x1f`` byte
  next to a number is taken as whitespace. A cell that does not parse
  is named as numpy names it: by its row among the non-blank lines,
  counted from 0, and its column, counted from 1.

Loaded maps are always normalized to the simplex; a file with no mass
raises AllZeroGrid, and one whose cells sum past the float64 range
raises ValueError. Fixation grids use the CSV format with the rule
that any cell strictly greater than 0.5 is fixated.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np

from .grids import FixationMap, GazeMap, normalize_to_simplex

__all__ = [
    "is_map_file",
    "load_grid",
    "load_map",
    "save_map",
    "load_fixations",
    "save_fixations",
]

_MAP_SUFFIXES = (".pgm", ".csv")

_PGM_MAXVAL = 65535


def _suffix(path) -> str:
    # The lower-cased suffix of the last path component, by pathlib's rule:
    # a name that only starts with a dot has none.
    name = os.path.basename(os.fspath(path))
    dot = name.rfind(".")
    return name[dot:].lower() if 0 < dot < len(name) - 1 else ""


def is_map_file(path) -> bool:
    return _suffix(path) in _MAP_SUFFIXES


# PGM header: tokens are separated by whitespace, and '#' starts a comment
# that runs to end of line. Neither pattern can match into the other, so
# one separator match and one token match per token read the header.
_PGM_SEPARATOR = re.compile(rb"(?:[ \t\r\n]|#[^\r\n]*)*")
_PGM_TOKEN = re.compile(rb"[^ \t\r\n#]+")


def _read_pgm16(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()

    pos = 0
    tokens = []
    while len(tokens) < 4:
        pos = _PGM_SEPARATOR.match(data, pos).end()
        if pos >= len(data):
            raise ValueError(f"{path}: truncated header")
        token = _PGM_TOKEN.match(data, pos)
        tokens.append(token.group())
        pos = token.end()
    pos += 1  # exactly one whitespace byte follows the maxval

    magic, w_tok, h_tok, maxval_tok = tokens
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM file (magic {magic!r})")
    width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    if maxval != _PGM_MAXVAL:
        raise ValueError(f"{path}: expected maxval {_PGM_MAXVAL}, got {maxval}")
    expected = width * height * 2
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise ValueError(f"{path}: raster holds {len(raster)} bytes, expected {expected}")
    samples = np.frombuffer(raster, dtype=">u2").astype(np.float64)
    return samples.reshape(height, width)


def _write_pgm16(path: Path, values: np.ndarray) -> None:
    peak = float(values.max())
    if peak <= 0.0:
        raise ValueError("cannot encode a grid with no positive cells")
    samples = np.round(values / peak * _PGM_MAXVAL).astype(">u2")
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n{_PGM_MAXVAL}\n".encode("ascii")
    path.write_bytes(header + samples.tobytes())


def _read_csv_grid(path) -> np.ndarray:
    try:
        text = Path(path).read_bytes().decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not ASCII text ({exc.reason} at byte {exc.start})") from None
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: no rows")
    commas = lines[0].count(",")
    if any(line.count(",") != commas for line in lines):
        raise ValueError(f"{path}: ragged rows")
    try:
        return np.loadtxt(lines, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_csv_grid(path: Path, values: np.ndarray) -> None:
    lines = [",".join(f"{cell:.17g}" for cell in row) for row in values]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def load_grid(path) -> np.ndarray:
    """Read raw cell values from a map file without normalizing."""
    suffix = _suffix(path)
    if suffix == ".pgm":
        return _read_pgm16(path)
    if suffix == ".csv":
        return _read_csv_grid(path)
    raise ValueError(f"{path}: unrecognized map suffix (expected one of {_MAP_SUFFIXES})")


def load_map(path) -> GazeMap:
    """Read a map file and normalize it to the simplex."""
    return normalize_to_simplex(load_grid(path))


def save_map(path, gaze: GazeMap) -> None:
    """Write a gaze map in the format named by the file suffix."""
    p = Path(path)
    suffix = _suffix(p)
    if suffix == ".pgm":
        _write_pgm16(p, gaze.values)
    elif suffix == ".csv":
        _write_csv_grid(p, gaze.values)
    else:
        raise ValueError(f"{p}: unrecognized map suffix (expected one of {_MAP_SUFFIXES})")


def load_fixations(path) -> FixationMap:
    """Read a CSV grid and mark every cell above 0.5 as fixated."""
    return FixationMap(_read_csv_grid(path) > 0.5)


def save_fixations(path, fix: FixationMap) -> None:
    """Write a fixation map as a CSV grid of zeros and ones."""
    _write_csv_grid(Path(path), fix.fixated.astype(np.float64))
