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
  A canonical float grid is parsed without ``np.loadtxt``: rows of cells
  joined by commas, all of one width, each row ending in LF (the last one
  too), every cell ``-?D(.D+)?(e[+-]DD(D)?)?`` with one digit before the
  point, at most 24 after it and at most 19 significant digits.
  ``save_map``'s ``%.17g`` cells are canonical, and so is
  ``np.savetxt(..., delimiter=",")`` with its default ``%.18e``. Such a
  file is parsed with numpy a block of cells at a time (no temporary
  above 64 KiB): each cell's digits are read as 8-byte words and combined
  into its exact mantissa M < 2**64 (Lemire 2021), and M and an exact
  power of ten up to 10**27 are multiplied or divided once in x87
  extended precision, then rounded to float64. That second rounding is
  wrong only where the first lands exactly on a float64 midpoint, and
  such a cell, like one whose power of ten is above 10**27, is parsed by
  ``float()`` (Boldo & Melquiond 2008). So every value is ``float()``'s.
  Any other file, and every file where ``np.longdouble`` is not x87
  extended precision, is parsed by ``np.loadtxt`` from the bytes already
  read, so its values or its error are the same either way.

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
import sys
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
    # A canonical float grid is parsed in numpy blocks; any other file, or
    # any file where longdouble is not x87 extended precision, by np.loadtxt.
    if data is None:
        data = Path(path).read_bytes()
    grid = _canonical_floats(data) if _EXTENDED else None
    if grid is not None:
        return grid
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


# A canonical float grid is parsed a block of at most _CSV_BLOCK bytes at a
# time, and a block of more than _CSV_CELLS cells is split in two, so that
# no temporary outgrows 64 KiB (three 8-byte words a cell at most): larger
# ones come from fresh pages on every call.
_CSV_BLOCK = 56 * 1024
_CSV_CELLS = 65536 // 24
# x87 extended precision has a 64-bit significand: it holds every mantissa
# of up to 19 digits and every power of ten up to 10**27 exactly, so
# M * 10**k and M / 10**k are rounded once.
_EXTENDED = np.finfo(np.longdouble).nmant == 63 and sys.byteorder == "little"
_EXACT_POW10 = np.ldexp(np.array([5**k for k in range(28)], np.uint64).astype(np.longdouble), np.arange(28))
_POW10 = np.array([10**k if k < 20 else 0 for k in range(25)], np.uint64)  # lead digit weights
# _FRACTION_DIGITS[f] keeps the low nibble of the last f bytes of three
# little-endian words: the values of a fraction's f digits, if they end there.
_FRACTION_DIGITS = np.array(
    [[0x0F0F0F0F0F0F0F0F >> 8 * (8 - v) << 8 * (8 - v) for v in (min(max(f - w, 0), 8) for w in (16, 8, 0))] for f in range(25)],
    np.uint64,
)
# At most 19 significant digits: for a fraction of f digits, the lead digit
# times 1000 plus the value of the fraction's digits before its last 16
# stays under _DIGIT_LIMIT[f]. That always holds for f <= 18; for
# 19 <= f <= 24 the lead digit and the first f - 19 fraction digits must be
# 0; more than 24 fraction digits are not canonical.
_DIGIT_LIMIT = np.array([10000] * 19 + [1000] * 6 + [0], np.uint64)


def _pair_table(pairs: dict) -> np.ndarray:
    # A table over the little-endian 16-bit value of two bytes, up to "99"
    # and one 0 after it, for a lookup that clips larger values.
    table = np.zeros(0x3939 + 2, np.int16)
    for (first, second), value in pairs.items():
        table[ord(first) | ord(second) << 8] = value
    return table


# A cell with an exponent ends "e+DD" or "e+DDD". Of its last 8 bytes, bytes
# 4 and 5 are then "e" and the sign, or the sign and the hundreds digit:
# _EXPONENT_LENGTH gives the exponent's length with its "e" and sign, negated
# for "-", and _EXPONENT_HUNDREDS the hundreds. Bytes 6 and 7 are the last
# two digits.
_EXPONENT_LENGTH = _pair_table(
    {("e", "+"): 4, ("e", "-"): -4} | {(s, d): 5 * (44 - ord(s)) for s in "+-" for d in "0123456789"}
)
_EXPONENT_HUNDREDS = _pair_table({(s, d): 100 * int(d) for s in "+-" for d in "0123456789"})
_TWO_DIGITS = _pair_table({(a, b): 10 * int(a) + int(b) for a in "0123456789" for b in "0123456789"})


def _canonical_floats(data: bytes) -> np.ndarray | None:
    # The grid of a canonical float file, or None for any other file.
    first = data.find(b"\n")
    if first < 0 or not data.endswith(b"\n"):
        return None
    width = data.count(b",", 0, first) + 1
    buf = np.frombuffer(data, np.uint8)
    rows = sum(np.count_nonzero(buf[lo : lo + _CSV_BLOCK] == 10) for lo in range(0, buf.size, _CSV_BLOCK))
    out = np.empty(rows * width)
    # A cell is read from the 24 bytes that end where its mantissa ends and
    # the 8 that end at its separator. The first cells, up to the last
    # separator in the first 64 bytes, are read from a copy with 32 bytes in
    # front of them, the last of those an LF. A canonical cell is at most 32
    # bytes, so that separator is at byte 31 or later.
    head = len(data)
    if head > 64:
        head = max(data.rfind(b",", 0, 64), data.rfind(b"\n", 0, 64)) + 1
        if head < 32:
            return None
    padded = np.zeros(32 + head, np.uint8)
    padded[31] = 10
    padded[32:] = buf[:head]
    done = _parse_cells(padded, 32, 32 + head, width, 0, out)
    lo = head
    while done is not None and lo < len(data):
        hi = len(data)
        if lo + _CSV_BLOCK < hi:  # end the block after its last separator
            hi = max(data.rfind(b",", lo, lo + _CSV_BLOCK), data.rfind(b"\n", lo, lo + _CSV_BLOCK)) + 1
            if hi <= lo:
                return None
        done = _parse_cells(buf, lo, hi, width, done, out)
        lo = hi
    return out.reshape(rows, width) if done == out.size else None


def _parse_cells(buf, lo, hi, width, done, out) -> int | None:
    # Parse the cells of buf[lo:hi], which follow the separator buf[lo - 1],
    # into out from index done on. Returns the new done, or None if the cells
    # are not canonical.
    block = buf[lo - 1 : hi]
    lf = block == 10
    seps = block == 44
    seps |= lf
    if np.count_nonzero(seps) > _CSV_CELLS + 1:
        # Split the block after the last separator in its first half.
        mid = lo + (hi - lo) // 2
        mid -= np.argmax(seps[mid - lo :: -1])
        del lf, seps
        done = _parse_cells(buf, lo, mid, width, done, out) if mid > lo else None
        return None if done is None else _parse_cells(buf, mid, hi, width, done, out)
    seps = np.flatnonzero(seps)
    seps += lo - 1
    ends = seps[1:]
    n = ends.size
    # Every row is width cells, each but the last ending in a comma.
    row_ends = ends[(width - 1 - done) % width :: width]
    if done + n > out.size or np.count_nonzero(lf[1:]) != row_ends.size or not (buf[row_ends] == 10).all():
        return None
    del lf
    # Every byte that is not a digit is a separator or a sign, point, "e" or
    # exponent sign found below, each at its place in its cell.
    nondigits = block ^ 48
    nondigits //= 10
    nondigits = np.count_nonzero(nondigits) - 1

    d0 = seps[:-1] + 1
    neg = buf[d0] == 45
    d0 += neg  # the lead digit
    # The exponent, read from each cell's last 8 bytes as four byte pairs.
    tail = np.ndarray((buf.size - 7,), "<u8", buf, 0, (1,))[ends - 8]
    pairs = tail.view("<u2").reshape(n, 4)
    xl = _EXPONENT_LENGTH.take(pairs[:, 2], mode="clip")
    xl *= (tail.view(np.uint8).reshape(n, 8)[:, 3] == 101) | ((xl & 1) == 0)  # "e" before three digits
    k = _EXPONENT_HUNDREDS.take(pairs[:, 2], mode="clip").astype(np.int64)
    k += _TWO_DIGITS.take(pairs[:, 3], mode="clip")
    has_exp = xl != 0
    np.negative(k, out=k, where=xl < 0)
    k *= has_exp
    np.abs(xl, out=xl)
    del tail, pairs
    fe = ends - xl  # the mantissa's end
    f = fe - d0  # its lead digit, point and fraction
    dot = buf.take(d0 + 1, mode="clip") == 46  # clipped after an empty last cell
    ok = np.where(dot, f >= 3, f == 1)
    specials = n + np.count_nonzero(neg) + 2 * np.count_nonzero(has_exp) + np.count_nonzero(dot)
    f -= 2
    np.maximum(f, 0, out=f)  # fraction digits
    lead = buf[d0]
    lead &= 15
    del d0

    # The fraction's digits, as three words that end where it ends with the
    # bytes before it masked off; each word's eight digits are then combined
    # in three multiply-shift steps (Lemire 2021).
    windows = np.ndarray((buf.size - 23,), "V24", buf, 0, (1,))
    frac = windows[fe - 24].view("<u8").reshape(n, 3)
    del fe
    frac &= _FRACTION_DIGITS.take(f, axis=0, mode="clip")
    frac *= np.uint64(10 * 256 + 1)
    frac >>= np.uint64(8)
    frac &= np.uint64(0x00FF00FF00FF00FF)
    frac *= np.uint64(100 * 65536 + 1)
    frac >>= np.uint64(16)
    frac &= np.uint64(0x0000FFFF0000FFFF)
    frac *= np.uint64(10000 * 2**32 + 1)
    frac >>= np.uint64(32)
    high = lead * np.uint64(1000)
    high += frac[:, 0]
    ok &= high < _DIGIT_LIMIT.take(f, mode="clip")
    if nondigits != specials or not ok.all():
        return None
    m = frac[:, 0] * np.uint64(10**8)
    m += frac[:, 1]
    m *= np.uint64(10**8)
    m += frac[:, 2]
    del frac
    m += lead * _POW10.take(f, mode="clip")

    # The value M * 10**k, rounded once to 64 bits and then to float64.
    k -= f
    scale = _EXACT_POW10.take(np.abs(k), mode="clip")
    value = m.astype(np.longdouble)
    if k.max() <= 0:
        value /= scale
    else:
        np.divide(value, scale, out=value, where=k < 0)
        np.multiply(value, scale, out=value, where=k > 0)
    del scale
    cells = out[done : done + n]
    cells[...] = value
    np.negative(cells, out=cells, where=neg)
    # The second rounding is wrong only where the first lands on a float64
    # midpoint: the low 11 of the 64 significand bits are then exactly 0x400
    # (Boldo & Melquiond 2008). Such a cell, and one whose power of ten is
    # not exact, is parsed again by float().
    redo = (value.view(np.uint16)[:: value.itemsize // 2] & 0x7FF) == 0x400
    redo |= np.abs(k) > 27
    for j in np.flatnonzero(redo).tolist():
        cells[j] = float(buf[seps[j] + 1 : seps[j + 1]].tobytes())
    return done + n


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
