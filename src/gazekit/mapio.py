"""Reading and writing gaze maps and fixation grids.

Two on-disk map formats are supported, chosen by file suffix:

* ``.pgm``: binary PGM ("P5") with maxval 65535 and big-endian 16-bit
  samples, row-major from the top-left. Writing scales the map so its
  peak cell hits 65535; loading renormalizes to the simplex, so a
  save/load round trip is exact up to the 16-bit quantization step.
* ``.csv``: comma-separated decimal floats, one row per line ("CSVF").
  Values round-trip exactly.

Loaded maps are always normalized to the simplex; a file with no mass
raises AllZeroGrid. Fixation grids use the CSV format with the rule
that any cell strictly greater than 0.5 is fixated.
"""

from __future__ import annotations

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


def is_map_file(path) -> bool:
    return Path(path).suffix.lower() in _MAP_SUFFIXES


def _read_pgm16(path: Path) -> np.ndarray:
    data = path.read_bytes()

    # Header tokens are separated by whitespace; '#' starts a comment that
    # runs to end of line. Exactly one whitespace byte follows the maxval.
    pos = 0
    tokens = []
    while len(tokens) < 4:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated header")
        ch = data[pos : pos + 1]
        if ch in b" \t\r\n":
            pos += 1
        elif ch == b"#":
            while pos < len(data) and data[pos : pos + 1] not in b"\r\n":
                pos += 1
        else:
            start = pos
            while pos < len(data) and data[pos : pos + 1] not in b" \t\r\n#":
                pos += 1
            tokens.append(data[start:pos])
    pos += 1  # the single whitespace byte after maxval

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


def _read_csv_grid(path: Path) -> np.ndarray:
    rows = []
    for line in path.read_text(encoding="ascii").splitlines():
        if not line.strip():
            continue
        rows.append([float(cell) for cell in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: no rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return np.asarray(rows, dtype=np.float64)


def _write_csv_grid(path: Path, values: np.ndarray) -> None:
    lines = [",".join(f"{cell:.17g}" for cell in row) for row in values]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def load_grid(path) -> np.ndarray:
    """Read raw cell values from a map file without normalizing."""
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == ".pgm":
        return _read_pgm16(p)
    if suffix == ".csv":
        return _read_csv_grid(p)
    raise ValueError(f"{p}: unrecognized map suffix (expected one of {_MAP_SUFFIXES})")


def load_map(path) -> GazeMap:
    """Read a map file and normalize it to the simplex."""
    return normalize_to_simplex(load_grid(path))


def save_map(path, gaze: GazeMap) -> None:
    """Write a gaze map in the format named by the file suffix."""
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == ".pgm":
        _write_pgm16(p, gaze.values)
    elif suffix == ".csv":
        _write_csv_grid(p, gaze.values)
    else:
        raise ValueError(f"{p}: unrecognized map suffix (expected one of {_MAP_SUFFIXES})")


def load_fixations(path) -> FixationMap:
    """Read a CSV grid and mark every cell above 0.5 as fixated."""
    return FixationMap(_read_csv_grid(Path(path)) > 0.5)


def save_fixations(path, fix: FixationMap) -> None:
    """Write a fixation map as a CSV grid of zeros and ones."""
    _write_csv_grid(Path(path), fix.fixated.astype(np.float64))
