r"""Reading and writing gaze maps and fixation grids.

Two on-disk map formats are supported, chosen by file suffix:

* ``.pgm``: binary PGM ("P5") with maxval 65535 and big-endian 16-bit
  samples, row-major from the top-left. Writing scales the map so its
  peak cell hits 65535; loading renormalizes to the simplex, so a
  save/load round trip is exact up to the 16-bit quantization step.
  A header field that ``int()`` refuses is named with the path. The
  header is parsed once per run of files that start with the same
  header bytes: the reader keeps the last header that passed every
  check, through the one byte after maxval, and a file that starts
  with those bytes has the same width and height, so only its raster
  length is checked. The samples are unsigned by type, so loading
  skips the finite and sign check that CSV cells get and divides them
  in place in their float64 copy.
* ``.csv``: comma-separated decimal floats, one row per line ("CSVF").
  Values round-trip exactly. The file must be ASCII (another byte is
  refused with the path and its offset). Lines end only at LF, CRLF or
  CR, not at a vertical tab, form feed or ``\x1c`` to ``\x1e``. Blank
  lines are skipped and every other line must hold the same number of
  commas.
  A cell is a decimal or exponent float, ``inf``, ``infinity`` or
  ``nan`` in any case, optionally signed, with spaces or tabs around
  it. Cells are parsed by ``np.loadtxt``, which rounds correctly and
  so gives the same float as ``float()`` with two exceptions: digits
  grouped by underscores (``1_0``) are refused, and a ``\x1c`` to
  ``\x1f`` byte next to a number is taken as whitespace. A cell that
  does not parse is named as numpy names it: by its row among the
  non-blank lines, counted from 0, and its column, counted from 1.

Loaded maps are always normalized to the simplex; a file with no mass
raises AllZeroGrid, and one whose cells sum past the float64 range
raises ValueError. Fixation grids use the CSV format with the rule
that any cell strictly greater than 0.5 is fixated. A fixation file in
the canonical form that ``save_fixations`` writes (every row
``c,c,...,c`` with each cell ``0`` or ``1``, all rows of one width, each
row ending in LF, the last one too) is read as bytes, with no float
parsing. Any other file (CRLF or CR line ends, a blank or missing last
line, ``1.0``, spaces, another digit, a ragged row, a non-ASCII byte, an
empty file) falls back to the CSV reader on the bytes already read, so
its mask or its error is the CSV reader's.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np

from .grids import FixationMap, GazeMap, normalize_to_simplex
from .manifests import _read_lines, _write_file

__all__ = [
    "is_map_file",
    "load_grid",
    "load_map",
    "save_map",
    "load_fixations",
    "save_fixations",
]

_PGM_MAXVAL = 65535


def _suffix(path) -> str:
    # The lower-cased suffix of the last path component, by pathlib's rule:
    # a name that only starts with a dot has none.
    name = os.path.basename(os.fspath(path))
    dot = name.rfind(".")
    return name[dot:].lower() if 0 < dot < len(name) - 1 else ""


def is_map_file(path) -> bool:
    return _suffix(path) in _FORMATS


# PGM header: tokens are separated by whitespace, and '#' starts a comment
# that runs to end of line. Neither pattern can match into the other, so
# one separator match and one token match per token read the header.
_PGM_SEPARATOR = re.compile(rb"(?:[ \t\r\n]|#[^\r\n]*)*")
_PGM_TOKEN = re.compile(rb"[^ \t\r\n#]+")

# The last PGM header that parsed and passed every check: its bytes through
# the one byte after maxval, its width and its height. The walk reads nothing
# past that byte, so a file that starts with the same bytes has the same
# fields. The tuple is read and replaced whole, so a thread sees one valid
# entry or the next. It starts as the smallest valid header.
_last_pgm_header = (b"P5\n1 1\n65535\n", 1, 1)


def _read_pgm16(path) -> np.ndarray:
    # The raster's big-endian 16-bit samples, as a read-only view of the file's
    # bytes: unsigned by type, so ``normalize_to_simplex`` needs no cell check.
    # A file that starts with the last validated header's bytes takes its
    # fields from ``_last_pgm_header`` and skips the header walk.
    global _last_pgm_header
    with open(path, "rb", buffering=0) as f:
        data = f.readall()

    header, width, height = _last_pgm_header
    hit = data.startswith(header)
    if hit:
        pos = len(header)
    else:
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

        magic, *fields = tokens
        if magic != b"P5":
            raise ValueError(f"{path}: not a binary PGM file (magic {magic!r})")
        width, height, maxval = (_header_int(path, token) for token in fields)
        if width < 1 or height < 1:
            raise ValueError(f"{path}: bad dimensions {width}x{height}")
        if maxval != _PGM_MAXVAL:
            raise ValueError(f"{path}: expected maxval {_PGM_MAXVAL}, got {maxval}")
    expected = width * height * 2
    held = len(data) - pos
    if held < expected:
        raise ValueError(f"{path}: raster holds {max(held, 0)} bytes, expected {expected}")
    if not hit:
        # A raster of at least two bytes follows, so the byte after maxval
        # is in the file. A bytes slice is a copy: the entry holds no view
        # that would keep the whole file alive.
        _last_pgm_header = (data[:pos], width, height)
    samples = np.frombuffer(data, ">u2", count=width * height, offset=pos)
    return samples.reshape(height, width)


def _header_int(path, token: bytes) -> int:
    # A header field as int() reads it, or an error that names the file.
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{path}: bad header field {token!r}") from None


def _write_pgm16(path, values: np.ndarray) -> None:
    peak = float(values.max())
    if peak <= 0.0:
        raise ValueError("cannot encode a grid with no positive cells")
    samples = np.round(values / peak * _PGM_MAXVAL).astype(">u2")
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n{_PGM_MAXVAL}\n".encode("ascii")
    _write_file(path, header + samples.tobytes())


def _read_csv_grid(path, data: bytes | None = None) -> np.ndarray:
    lines = [line for line in _read_lines(path, "ascii", data) if line.strip()]
    if not lines:
        raise ValueError(f"{path}: no rows")
    commas = lines[0].count(",")
    if any(line.count(",") != commas for line in lines):
        raise ValueError(f"{path}: ragged rows")
    try:
        return np.loadtxt(lines, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_csv_grid(path, values: np.ndarray) -> None:
    # No header, and no cell needs quoting: each row is its cells joined by commas.
    rows = (",".join([f"{cell:.17g}" for cell in row.tolist()]) + "\n" for row in values)
    _write_file(path, "".join(rows).encode("ascii"))


# Each map format's reader and writer, by suffix. A reader returns the cells
# as stored: uint16 for a PGM, float64 for a CSV.
_FORMATS = {".pgm": (_read_pgm16, _write_pgm16), ".csv": (_read_csv_grid, _write_csv_grid)}


def _format(path) -> tuple:
    try:
        return _FORMATS[_suffix(path)]
    except KeyError:
        raise ValueError(f"{path}: unrecognized map suffix (expected one of {tuple(_FORMATS)})") from None


def load_grid(path) -> np.ndarray:
    """Read raw cell values from a map file without normalizing."""
    return _format(path)[0](path).astype(np.float64, copy=False)


def load_map(path) -> GazeMap:
    """Read a map file and normalize it to the simplex."""
    return normalize_to_simplex(_format(path)[0](path))


def save_map(path, gaze: GazeMap) -> None:
    """Write a gaze map in the format named by the file suffix."""
    _format(path)[1](path, gaze.values)


def load_fixations(path) -> FixationMap:
    """Read a fixation grid and mark every cell above 0.5 as fixated.

    The file is read once. One in the canonical form ``save_fixations``
    writes (rows of ``0`` and ``1`` cells joined by commas, all of one
    width, each ending in LF) is taken as bytes; any other is parsed as a
    CSV grid, with the same mask or the same error either way.
    """
    data = Path(path).read_bytes()
    cells = _canonical_cells(data)
    if cells is None:
        return FixationMap(_read_csv_grid(path, data) > 0.5)
    return FixationMap(cells == ord("1"))


def _canonical_cells(data: bytes) -> np.ndarray | None:
    # The cell bytes of a canonical fixation file as a (rows, cols) view of
    # ``data``, or None for any other file. A row of n cells is 2n bytes, each
    # cell followed by a comma or, after the last, LF. Read as little-endian
    # 16-bit (cell, separator) pairs with the cell's lowest bit set, the one
    # bit in which "0" and "1" differ, every row must read "1," ... "1," "1\n".
    width = data.find(b"\n") + 1  # 0 when there is no LF at all
    if width == 0 or width % 2 or len(data) % width:
        return None
    row = np.full(width // 2, ord("1") | ord(",") << 8, np.uint16)
    row[-1] = ord("1") | ord("\n") << 8
    if ((np.frombuffer(data, "<u2").reshape(-1, width // 2) | 1) == row).all():
        return np.frombuffer(data, np.uint8).reshape(-1, width)[:, ::2]
    return None


def save_fixations(path, fix: FixationMap) -> None:
    """Write a fixation map as a CSV grid of zeros and ones."""
    _write_csv_grid(path, fix.fixated.astype(np.float64))
