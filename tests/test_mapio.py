"""On-disk formats: 16-bit PGM maps, CSV grids, manifests, metrics
tables, and the radar SVG. Everything here must be byte-deterministic.
"""

from __future__ import annotations

import math
import re
import struct
import tracemalloc
from fractions import Fraction
from pathlib import Path, PurePosixPath
from unittest import mock
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_map, traced_peak
from gazekit import (
    AllZeroGrid,
    FixationMap,
    FramePair,
    MANIFEST_HEADER,
    MEAN_ROW_ID,
    METRICS_HEADER,
    RADAR_AXES,
    GazeMap,
    is_map_file,
    load_fixations,
    load_grid,
    load_map,
    normalize_to_simplex,
    read_manifest_rows,
    read_metrics_table,
    render_radar,
    save_fixations,
    save_map,
    write_manifest,
    write_manifest_rows,
    write_metrics_table,
)
from gazekit import mapio
from gazekit.mapio import _canonical_cells


_PGM_MAXVAL = 65535


def read_pgm16_reference(path: Path) -> np.ndarray:
    """The PGM reader that walked its header one byte at a time.

    Kept verbatim as the exact oracle for the regex header reader.
    """
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


def read_csv_grid_reference(path: Path) -> np.ndarray:
    """The CSV reader that parsed every cell with ``float()``.

    Kept verbatim as the exact oracle for the ``np.loadtxt`` reader.
    """
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


def outcome(read, path):
    """A reader's result as comparable data: exact bytes or the error."""
    try:
        grid = read(path)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return grid.dtype, grid.shape, grid.tobytes()


def pgm_outcome_reference(path):
    """``read_pgm16_reference``'s outcome, with the one declared difference:
    a header field that ``int()`` refuses is named with the file's path."""
    result = outcome(read_pgm16_reference, path)
    refused = "invalid literal for int() with base 10: "
    if result[0] is ValueError and result[1].startswith(refused):
        return ValueError, f"{path}: bad header field {result[1][len(refused):]}"
    return result


def make_pair(video, anchor, target, peak=1.5, pair_kl=2.5):
    return FramePair(
        video_id=video,
        anchor=anchor,
        target=target,
        delta=target - anchor,
        anchor_peak_kl=peak,
        pair_kl=pair_kl,
    )


def frame_paths(*videos, frames=50):
    """Ordered frame file paths per video, as curate lists them."""
    return {v: [f"{v}/f{i}.pgm" for i in range(frames)] for v in videos}


class TestPGM16:
    @pytest.mark.parametrize("side", [4, 16, 64])
    def test_round_trip_within_one_quantum(self, tmp_path, rng, side):
        original = random_map(rng, side, side)
        path = tmp_path / "m.pgm"
        save_map(path, original)
        loaded = load_map(path)
        assert np.abs(loaded.values - original.values).max() <= 1.0 / 65535.0

    def test_point_mass_survives_exactly(self, tmp_path):
        v = np.zeros((5, 5))
        v[2, 3] = 1.0
        path = tmp_path / "d.pgm"
        save_map(path, GazeMap(v))
        np.testing.assert_array_equal(load_map(path).values, v)

    def test_written_header_and_scaling(self, tmp_path, rng):
        gaze = random_map(rng, 3, 7)
        path = tmp_path / "m.pgm"
        save_map(path, gaze)
        data = path.read_bytes()
        assert data.startswith(b"P5\n7 3\n65535\n")
        raster = np.frombuffer(data[len(b"P5\n7 3\n65535\n") :], dtype=">u2")
        assert raster.shape == (21,)
        assert raster.max() == 65535  # the peak cell is always full scale

    def test_header_comments_and_whitespace(self, tmp_path):
        samples = struct.pack(">4H", 1, 2, 3, 65280)
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # magic\n# full comment line\n2\t2 # dims\r\n65535\n" + samples)
        np.testing.assert_array_equal(load_grid(path), [[1.0, 2.0], [3.0, 65280.0]])

    def test_samples_are_big_endian(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n" + bytes([0x00, 0x01, 0xFF, 0x00]))
        np.testing.assert_array_equal(load_grid(path), [[1.0, 65280.0]])

    def test_rejects_other_pgm_flavors(self, tmp_path):
        bad_magic = tmp_path / "a.pgm"
        bad_magic.write_bytes(b"P2\n2 1\n65535\n1 2\n")
        with pytest.raises(ValueError, match="magic"):
            load_grid(bad_magic)
        eight_bit = tmp_path / "b.pgm"
        eight_bit.write_bytes(b"P5\n2 1\n255\n" + bytes([1, 2]))
        with pytest.raises(ValueError, match="maxval"):
            load_grid(eight_bit)

    def test_rejects_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes([0, 1, 0, 2]))
        with pytest.raises(ValueError, match="raster"):
            load_grid(path)

    def test_suffix_dispatch(self):
        assert is_map_file("x/y/map.pgm")
        assert is_map_file("MAP.CSV")
        assert not is_map_file("frame.png")


class TestCSVGrid:
    def test_round_trip_is_exact(self, tmp_path, rng):
        original = random_map(rng, 6, 9)
        path = tmp_path / "m.csv"
        save_map(path, original)
        np.testing.assert_array_equal(load_map(path).values, original.values)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0.25,0.25\n\n0.25,0.25\n\n")
        np.testing.assert_array_equal(load_map(path).values, np.full((2, 2), 0.25))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_lf_crlf_and_cr_end_a_row(self, tmp_path, newline):
        path = tmp_path / "n.csv"
        path.write_bytes(newline.join(["0.25,0.5", "", "1,2", ""]).encode("ascii"))
        assert load_grid(path).tolist() == [[0.25, 0.5], [1.0, 2.0]]

    @pytest.mark.parametrize("separator", ["\v", "\f", "\x1c", "\x1d", "\x1e"], ids=["vt", "ff", "fs", "gs", "rs"])
    def test_no_other_line_break_ends_a_row(self, tmp_path, separator):
        # str.splitlines would read this one line as a 2x2 grid.
        path = tmp_path / "s.csv"
        path.write_bytes(f"0.1,0.2{separator}0.3,0.4\n".encode("ascii"))
        with pytest.raises(ValueError) as info:
            load_grid(path)
        cell = f"0.2{separator}0.3"
        assert str(info.value) == f"{path}: could not convert string {cell!r} to float64 at row 0, column 2."

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_grid(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no rows"):
            load_grid(path)

    @pytest.mark.parametrize("reader", [load_grid, load_fixations])
    @pytest.mark.parametrize("rows", [1, 2000])  # past the first 8 KiB read
    def test_non_ascii_file_is_named(self, tmp_path, reader, rows):
        path = tmp_path / "n.csv"
        path.write_bytes(b"0.25,0.5\n" * rows + "\u00e90,1\n".encode("utf-8"))
        with pytest.raises(ValueError) as info:
            reader(path)
        assert type(info.value) is ValueError
        assert str(info.value) == f"{path}: not ASCII text (ordinal not in range(128) at byte {9 * rows})"

    def test_fixation_threshold_rule(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0.0,0.4\n0.6,1.0\n")
        fix = load_fixations(path)
        np.testing.assert_array_equal(fix.fixated, [[False, False], [True, True]])

    def test_fixation_round_trip(self, tmp_path, rng):
        fix = FixationMap(rng.uniform(size=(5, 5)) > 0.7)
        path = tmp_path / "f.csv"
        save_fixations(path, fix)
        np.testing.assert_array_equal(load_fixations(path).fixated, fix.fixated)


_PAD = st.text(" \t", max_size=2)

#: One double in each of the forms a CSV map may hold it.
csv_cells = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.floats(allow_nan=False).map(lambda x: f"{x:.17g}"),
    st.floats(allow_nan=False).map(lambda x: f"{x:.6e}"),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["nan", "NaN", "-inf", "+Infinity", "0", "-0.0", "1e-320", ".5", "5."]),
)


@st.composite
def csv_files(draw):
    """CSV text: padded cells, LF or CRLF, blank lines, any grid shape."""
    height = draw(st.integers(1, 4))
    width = draw(st.integers(1, 4))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for _ in range(height):
        cells = [draw(_PAD) + draw(csv_cells) + draw(_PAD) for _ in range(width)]
        if draw(st.integers(0, 9)) == 0:
            cells = cells[:-1] or ["1", "2"]  # a ragged row
        lines.append(",".join(cells))
        if draw(st.booleans()):
            lines.append(draw(_PAD))  # a blank line
    if draw(st.integers(0, 19)) == 0:
        lines = [draw(_PAD) for _ in lines]  # no rows at all
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


_SEPARATORS = st.lists(
    st.one_of(
        st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\r\n"]),
        st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\r", b"").replace(b"\n", b"") + b"\n"),
    ),
    min_size=1,
    max_size=3,
).map(b"".join)


@st.composite
def pgm_parts(draw):
    """A PGM with comments, tabs and CRLF in its header, mostly valid, as
    its bytes through the maxval token and the bytes after them."""
    width = draw(st.integers(1, 4))
    height = draw(st.integers(1, 3))
    tokens = [b"P5", str(width).encode(), str(height).encode(), b"65535"]
    if draw(st.integers(0, 4)) == 0:
        index = draw(st.integers(0, 3))
        tokens[index] = draw(st.sampled_from([b"P2", b"0", b"-1", b"255", b"x", b"07"]))
    header = draw(st.sampled_from([b"", b"# lead\n"]))
    for token in tokens[:-1]:
        header += token + draw(_SEPARATORS)
    raster = draw(st.binary(min_size=2 * width * height, max_size=2 * width * height))
    rest = draw(_SEPARATORS) + raster + draw(st.sampled_from([b"", b"\x00\x01"]))
    return header + tokens[-1], rest


def pgm_files():
    """A PGM with comments, tabs and CRLF in its header, mostly valid."""
    return pgm_parts().map(b"".join)


@st.composite
def pgm_file_pairs(draw):
    """Two PGM files to read one after the other. The second is drawn on its
    own, or is the first with a byte changed or inserted just before, at or
    just after its header's end (the byte after maxval), or cut short."""
    head, rest = draw(pgm_parts())
    first = head + rest
    end = len(head) + 1
    kind = draw(st.sampled_from(["other", "changed", "inserted", "cut"]))
    if kind == "other":
        return first, draw(pgm_files())
    if kind == "cut":
        return first, first[: draw(st.integers(end, len(first) - 1))]
    at = draw(st.integers(end - 3, end + 1))
    byte = draw(st.one_of(st.sampled_from([b"0", b"5", b" ", b"\n", b"#"]), st.binary(min_size=1, max_size=1)))
    return first, first[:at] + byte + first[at + (kind == "changed") :]


def pgm_map_outcome_reference(path):
    """``load_map``'s expected outcome: ``pgm_outcome_reference``'s error, or
    the reference reader's grid normalized to the simplex."""
    result = pgm_outcome_reference(path)
    if len(result) == 2:
        return result
    return outcome(lambda p: normalize_to_simplex(read_pgm16_reference(p)).values, path)


class TestReadersMatchTheirOracles:
    """The loadtxt and regex readers against the readers they replaced."""

    @settings(max_examples=300)
    @given(text=csv_files())
    def test_csv_reader_matches_float_per_cell(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "g.csv"
        path.write_bytes(text.encode("ascii"))
        assert outcome(load_grid, path) == outcome(read_csv_grid_reference, path)

    @settings(max_examples=300)
    @given(data=st.one_of(pgm_files(), st.binary(max_size=40)))
    @example(data=b"P5\nabc 2\n65535\n")
    def test_pgm_reader_matches_byte_walk(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("pgm") / "m.pgm"
        path.write_bytes(data)
        assert outcome(load_grid, path) == pgm_outcome_reference(path)

    @pytest.mark.parametrize(
        "data, field",
        [(b"P5\nabc 2\n65535\n", b"abc"), (b"P5 2 1.0 65535\n", b"1.0"), (b"P5 2 1 6e4\n\0\0\0\0", b"6e4")],
    )
    def test_bad_header_field_names_the_file(self, tmp_path, data, field):
        path = tmp_path / "m.pgm"
        path.write_bytes(data)
        for read in (load_grid, load_map):
            with pytest.raises(ValueError) as info:
                read(path)
            assert str(info.value) == f"{path}: bad header field {field!r}"

    @settings(max_examples=300)
    @given(data=pgm_files())
    @example(data=b"P5 2 1 65535\n" + bytes(4))  # AllZeroGrid
    @example(data=b"P5 3 1 65535\n\x00\x00\xff\xff\x00\x07")
    def test_pgm_map_is_the_normalized_grid(self, tmp_path_factory, data):
        # load_map hands the raw 16-bit samples to normalize_to_simplex,
        # which skips the cell check for them; load_grid still gives float64.
        path = tmp_path_factory.mktemp("pgm") / "m.pgm"
        path.write_bytes(data)
        expected = outcome(lambda p: normalize_to_simplex(load_grid(p)).values, path)
        assert outcome(lambda p: load_map(p).values, path) == expected

    def test_all_zero_raster(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5 2 1 65535\n" + bytes(4))
        grid = load_grid(path)
        assert grid.dtype == np.float64 and grid.tolist() == [[0.0, 0.0]]
        with pytest.raises(AllZeroGrid):
            load_map(path)

    def test_every_prefix_of_a_pgm(self, tmp_path):
        data = b"P5 # magic\n# note\r\n3\t2\r\n65535\n" + struct.pack(">6H", 0, 1, 2, 65535, 300, 7)
        path = tmp_path / "m.pgm"
        for end in range(len(data) + 1):
            path.write_bytes(data[:end])
            assert outcome(load_grid, path) == outcome(read_pgm16_reference, path), end

    @pytest.mark.parametrize("header", [b"P5 2 1", b"P5 2 1 # 65535 to the end", b"P5 2 # 1 65535\n", b"P5 2 1 \t\r\n"])
    def test_header_that_ends_early_is_truncated(self, tmp_path, header):
        path = tmp_path / "m.pgm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match=r"m\.pgm: truncated header$"):
            load_grid(path)
        assert outcome(load_grid, path) == outcome(read_pgm16_reference, path)

    def test_comment_directly_after_a_token(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5#c\n2#c\n1#c\n65535#" + bytes([0, 1, 0, 2]))
        assert outcome(load_grid, path) == outcome(read_pgm16_reference, path)
        np.testing.assert_array_equal(load_grid(path), [[1.0, 2.0]])


class TestHeaderCache:
    """The reader keeps the last header that passed every check and reuses
    it for a file that starts with the same bytes; every read must still
    give what that file gives read alone."""

    @settings(max_examples=300)
    @given(pair=pgm_file_pairs())
    @example(pair=(b"P5\n2 1\n65535\n\0\1\0\2", b"P5\n2 1\n655350\n\0\1\0\2"))
    @example(pair=(b"P5 2 1 65535#\0\1\0\2", b"P5 2 1 65535#c\n\0\3\0\4"))
    @example(pair=(b"P5 2 1 65535\n\0\1\0\2", b"P5 2 1 65535#\0\3\0\4"))
    @example(pair=(b"P5 # a\n2 1\n65535\n\0\1\0\2", b"P5 # b\n2 1\n65535\n\0\3\0\4"))
    @example(pair=(b"P5\n2 2\n65535\n" + bytes(range(1, 9)), b"P5\n2 2\n65535\n" + bytes(range(1, 8))))
    @example(pair=(b"P5\n2 1\n255\n\0\1\0\2", b"P5\n2 1\n255\n\0\1\0\2"))
    def test_a_file_reads_as_it_would_alone(self, tmp_path_factory, pair):
        directory = tmp_path_factory.mktemp("pgm")
        paths = [directory / "first.pgm", directory / "second.pgm"]
        for path, data in zip(paths, pair):
            path.write_bytes(data)
        readers = [(load_grid, pgm_outcome_reference), (lambda p: load_map(p).values, pgm_map_outcome_reference)]
        for read, reference in readers:
            for path in paths:
                assert outcome(read, path) == reference(path), path.name

    def test_the_cache_keeps_no_file_alive(self, tmp_path):
        # The cached header is a copy of the file's first bytes, not a view
        # that would keep the whole 128 KiB file in memory after the read.
        other, path = tmp_path / "other.pgm", tmp_path / "m.pgm"
        other.write_bytes(b"P5 1 1 65535\n\0\1")
        path.write_bytes(b"P5 # large\n256 256\n65535\n" + bytes(range(256)) * 512)
        load_map(other)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            load_map(path)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 4096


class TestCSVDeclaredDifferences:
    """Where the loadtxt reader departs from ``float()`` per cell, pinned."""

    def test_underscore_grouping_is_refused(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("1_0,2\n")
        assert read_csv_grid_reference(path).tolist() == [[10.0, 2.0]]
        with pytest.raises(ValueError) as info:
            load_grid(path)
        assert str(info.value) == f"{path}: could not convert string '1_0' to float64 at row 0, column 1."

    def test_unit_separator_next_to_a_number_is_whitespace(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1\x1f,\x1f2\n")
        with pytest.raises(ValueError, match="could not convert string to float"):
            read_csv_grid_reference(path)
        assert load_grid(path).tolist() == [[1.0, 2.0]]

    def test_bad_cell_message_names_the_path_row_and_column(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("0.5,0.5\n\n0.25,x\n")
        with pytest.raises(ValueError) as info:
            load_grid(path)
        # The row counts non-blank lines from 0, the column cells from 1.
        assert str(info.value) == f"{path}: could not convert string 'x' to float64 at row 1, column 2."

    def test_ragged_rows_are_found_before_a_bad_cell(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x,1\n2\n")
        with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
            read_csv_grid_reference(path)
        with pytest.raises(ValueError) as info:
            load_grid(path)
        assert str(info.value) == f"{path}: ragged rows"

    def test_fixations_use_the_same_reader(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0,1\n1,y\n")
        with pytest.raises(ValueError) as info:
            load_fixations(path)
        assert str(info.value) == f"{path}: could not convert string 'y' to float64 at row 1, column 2."


def grid_bytes(rows, newline: str = "\n") -> bytes:
    """A CSV grid file: each row's cells joined by commas, each row ended."""
    return "".join(",".join(row) + newline for row in rows).encode("utf-8")


#: Each takes a fixation file out of the form ``save_fixations`` writes.
FIXATION_DEFECTS = [
    "crlf", "cr", "no final LF", "blank last line", "float cell", "padded cell",
    "other digit", "ragged row", "trailing comma", "non-ASCII", "empty",
]


@st.composite
def fixation_files(draw):
    """A canonical grid of 0/1 cells, 1x1 to 6x6, or one with a single defect.

    Returns the file's bytes and whether they are canonical.
    """
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = [draw(st.lists(st.sampled_from("01"), min_size=width, max_size=width)) for _ in range(height)]
    defect = draw(st.sampled_from([None, *FIXATION_DEFECTS]))
    r, c = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
    if defect == "float cell":
        rows[r][c] = draw(st.sampled_from(["1.0", "0.0", "0.5", "0.6", "00", "01", "-0", "+1", "1e0"]))
    elif defect == "padded cell":
        pad = draw(st.sampled_from([" ", "\t"]))
        rows[r][c] = pad + rows[r][c] if draw(st.booleans()) else rows[r][c] + pad
    elif defect == "other digit":
        rows[r][c] = draw(st.sampled_from("23456789"))
    elif defect == "ragged row":
        rows.insert(r, rows[r][:-1] or ["0", "1"])
    elif defect == "trailing comma":
        rows[r].append("")
    elif defect == "non-ASCII":
        rows[r][c] = draw(st.sampled_from(["\u00e9", "\u00b9", "\u0661"]))
    data = grid_bytes(rows, {"crlf": "\r\n", "cr": "\r"}.get(defect, "\n"))
    if defect == "no final LF":
        data = data[:-1]
    elif defect == "blank last line":
        data += b"\n"
    elif defect == "empty":
        data = draw(st.sampled_from([b"", b"\n"]))
    return data, defect is None


#: A benchmark-size fixation grid: 90x160 with about 2 % of its cells fixated.
BENCHMARK_FIXATIONS = grid_bytes(
    [["01"[cell] for cell in row] for row in (np.random.default_rng(0).random((90, 160)) < 0.02).tolist()]
)


class TestCanonicalFixations:
    """``load_fixations`` reads a file in the form ``save_fixations`` writes
    as bytes and hands any other file to the CSV reader, on the bytes it
    read: either way the mask or the error is the CSV reader's."""

    @settings(max_examples=300)
    @given(case=fixation_files())
    @example(case=(BENCHMARK_FIXATIONS, True))
    @example(case=(b"1\n", True))
    @example(case=(b"0,1,1,0,1,0\n", True))
    @example(case=(b"1\n0\n1\n", True))
    @example(case=(b"0,1\r\n1,0\r\n", False))
    @example(case=(b"0,1\n1,0", False))
    @example(case=(b"0,1\n" * 2000 + "\u00e90,1\n".encode("utf-8"), False))
    def test_byte_path_matches_the_csv_path(self, tmp_path_factory, case):
        data, canonical = case
        path = tmp_path_factory.mktemp("fix") / "f.csv"
        path.write_bytes(data)
        assert (_canonical_cells(data) is not None) == canonical
        assert outcome(lambda p: load_fixations(p).fixated, path) == outcome(lambda p: load_grid(p) > 0.5, path)

    @pytest.mark.parametrize("data", [b"0,1\n1,0\n", b"0,1\r\n1,0\r\n", b"0.0,1\n1,0\n"])
    def test_each_file_is_read_once(self, tmp_path, monkeypatch, data):
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or read_bytes(self))
        assert load_fixations(path).fixated.tolist() == [[False, True], [True, False]]
        assert reads == [path]

    def test_camera_frame_allocates_no_float_frame(self, tmp_path):
        # A 540x960 float64 frame is 4.1 MB. Parsing the grid as floats peaked
        # at 5.7 MB; the byte path holds the file and arrays of at most two
        # bytes a cell, 2.6 MB.
        h, w = 540, 960
        mask = np.zeros(h * w, dtype=bool)
        mask[np.random.default_rng(0).choice(mask.size, 800, replace=False)] = True
        path = tmp_path / "f.csv"
        save_fixations(path, FixationMap(mask.reshape(h, w)))
        assert traced_peak(lambda: load_fixations(path)) < 8 * h * w
        np.testing.assert_array_equal(load_fixations(path).fixated, mask.reshape(h, w))


#: A float cell as save_map (%.17g), repr, np.savetxt (%.18e) and a short
#: format write it.
FLOAT_FORMATS = {
    "%.17g": lambda x: f"{x:.17g}",
    "repr": repr,
    "%.18e": lambda x: f"{x:.18e}",
    "%.3g": lambda x: f"{x:.3g}",
}

_CANONICAL_CELL = re.compile(rb"-?([0-9])(?:\.([0-9]+))?(?:e[+-][0-9]{2,3})?")


def is_canonical_float_grid(data: bytes) -> bool:
    """The canonical float form, written out: rows of cells joined by
    commas, all of one width, each row ending in LF; every cell one digit
    with an optional fraction of at most 24 digits and an optional exponent
    of two or three digits, with at most 19 significant digits."""
    if not data.endswith(b"\n"):
        return False
    widths = set()
    for row in data[:-1].split(b"\n"):
        cells = row.split(b",")
        widths.add(len(cells))
        for cell in cells:
            match = _CANONICAL_CELL.fullmatch(cell)
            if match is None:
                return False
            digits = match.group(2) or b""
            if len(digits) > 24 or len((match.group(1) + digits).lstrip(b"0")) > 19:
                return False
    return len(widths) == 1


#: Each takes a canonical float file out of the canonical form.
FLOAT_DEFECTS = {
    "crlf": None,
    "no final LF": None,
    "space": lambda cell: cell + " ",
    "plus": lambda cell: "+" + cell.lstrip("-"),
    "leading point": lambda cell: ".5",
    "trailing point": lambda cell: "5.",
    "bare exponent": lambda cell: "1e5",
    "one-digit exponent": lambda cell: "1e+5",
    "junk after exponent": lambda cell: "1.0e+05x",
    "ragged row": None,
    "moved cell": None,
    "20 digits": lambda cell: "1.2345678901234567890",
    "non-ASCII": lambda cell: cell + "\u00e9",
}

_FLOAT_EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 1e-30, 1e20, 0.1, 1 / 14400]


@st.composite
def float_grid_files(draw):
    """A grid of 1x1 to 6x6 finite floats in one of FLOAT_FORMATS, or the
    same with one defect. Returns the file's bytes."""
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cell = FLOAT_FORMATS[draw(st.sampled_from(sorted(FLOAT_FORMATS)))]
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_FLOAT_EDGES))
    rows = [[cell(draw(values)) for _ in range(width)] for _ in range(height)]
    defect = draw(st.sampled_from([None, *FLOAT_DEFECTS]))
    r, c = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
    if defect == "ragged row":
        rows[r] = rows[r][:-1] or ["1", "2"]
    elif defect == "moved cell":  # ragged rows, but as many cells as a full grid
        rows[(r + 1) % height].append(rows[r].pop(0))
    elif FLOAT_DEFECTS.get(defect):
        rows[r][c] = FLOAT_DEFECTS[defect](rows[r][c])
    data = grid_bytes(rows, "\r\n" if defect == "crlf" else "\n")
    if defect == "no final LF":
        data = data[:-1]
    return data


def loadtxt_outcome(read, path):
    """``read``'s outcome with the canonical float path switched off, as on
    a platform without x87 extended precision: the np.loadtxt reader's."""
    with mock.patch.object(mapio, "_EXTENDED", False):
        return outcome(read, path)


def round_to_bits(q: Fraction, bits: int) -> Fraction:
    """A positive rational rounded to nearest, ties to even, at ``bits``
    significant bits."""
    e = q.numerator.bit_length() - q.denominator.bit_length()
    if Fraction(2) ** e > q:
        e -= 1
    scaled = q * Fraction(2) ** (bits - 1 - e)
    n, r = divmod(scaled.numerator, scaled.denominator)
    n += 2 * r > scaled.denominator or (2 * r == scaled.denominator and n % 2)
    return n / Fraction(2) ** (bits - 1 - e)


def _gaussian_map(height: int, width: int, tail: float) -> GazeMap:
    """A Gaussian bump whose far corner is ``tail`` times its peak."""
    rows, cols = np.mgrid[:height, :width]
    d2 = ((rows - height / 3) ** 2 + (cols - width / 4) ** 2) / ((height * 2 / 3) ** 2 + (width * 3 / 4) ** 2)
    return normalize_to_simplex(np.exp(d2 * math.log(tail)) + np.random.default_rng(0).uniform(0, 1e-6, (height, width)) * (d2 < 0.1))


class TestCanonicalFloatGrid:
    """A file in the canonical float form is parsed in numpy blocks with
    one exact rounding; any other file takes the np.loadtxt reader. Either
    way every value, mask and error is the np.loadtxt reader's, and the
    values are ``float()``'s."""

    @settings(max_examples=500)
    @given(data=float_grid_files())
    @example(data=b"0\n")
    @example(data=b"-0\n")
    @example(data=b"1e+05,-0.0,5e-324\n")
    @example(data=b"\n")
    @example(data=b"1,2\n\n")
    @example(data=b"1,2\n3\n4,5,6\n")
    @example(data=b"1e-999,1e+999\n")
    def test_fast_path_matches_the_reference(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("csv") / "g.csv"
        path.write_bytes(data)
        with mock.patch.object(mapio, "_read_lines", wraps=mapio._read_lines) as fallback:
            result = outcome(load_grid, path)
        assert fallback.called != is_canonical_float_grid(data)
        assert result == loadtxt_outcome(load_grid, path)
        if not fallback.called:
            assert result == outcome(read_csv_grid_reference, path)

    @pytest.mark.parametrize(
        "cell",
        [
            # Exact float64 ties: 2**53 + 1 and 2**53 + 3, and 2**63 + 2**10.
            "9.007199254740993e+15",
            "-9.007199254740995e+15",
            "9.223372036854776832e+18",
            # The extended-precision quotient lands on a float64 midpoint that
            # the exact value is just above (first three) or just below; the
            # midpoints lie just above and just below a power of two.
            "2.980232238769531581e-08",
            "3.125000000000000347e-02",
            "4.294967296000000477e+09",
            "5.960464477539062169e-08",
            "6.249999999999999653e-02",
            "8.589934591999999523e+09",
        ],
    )
    def test_a_midpoint_after_the_first_rounding_is_parsed_exactly(self, tmp_path, cell):
        mantissa, exponent = cell.lstrip("-").split("e")
        exact = Fraction(int(mantissa.replace(".", ""))) * Fraction(10) ** (int(exponent) - len(mantissa) + 2)
        extended = round_to_bits(exact, 64)  # M / 10**k or M * 10**k in x87 extended precision
        assert round_to_bits(extended, 54) == extended != round_to_bits(extended, 53)  # a float64 midpoint
        path = tmp_path / "t.csv"
        path.write_text(f"{cell},1\n{cell},0.5\n")
        assert float(cell) == math.copysign(float(round_to_bits(exact, 53)), float(cell))
        with mock.patch.object(mapio, "_read_lines") as fallback:
            grid = load_grid(path)
        assert not fallback.called
        assert grid.tolist() == [[float(cell), 1.0], [float(cell), 0.5]]

    @pytest.mark.parametrize(
        "make",
        [
            lambda p: save_map(p, _gaussian_map(90, 160, 1e-30)),
            lambda p: np.savetxt(p, _gaussian_map(90, 160, 1e-30).values, fmt="%.18e", delimiter=","),
            lambda p: save_map(p, GazeMap(np.full((7, 3), 1 / 21))),
            lambda p: save_fixations(p, FixationMap(np.random.default_rng(1).random((200, 200)) < 0.5)),
        ],
        ids=["save_map", "savetxt", "constant", "short cells"],
    )
    def test_files_of_many_blocks(self, tmp_path, make):
        path = tmp_path / "m.csv"
        make(path)
        with mock.patch.object(mapio, "_read_lines") as fallback:
            result = outcome(load_grid, path)
        assert not fallback.called
        assert result == outcome(read_csv_grid_reference, path)

    def test_a_frame_holds_its_file_its_grid_and_bounded_blocks(self, tmp_path):
        # Each block's temporaries are each at most 64 KiB, and no more than
        # four 64 KiB arrays' worth are live at once; the whole-file parse
        # held about 2 MB.
        path = tmp_path / "m.csv"
        save_map(path, _gaussian_map(90, 160, 1e-30))
        bound = path.stat().st_size + 8 * 90 * 160 + 4 * 65536
        assert traced_peak(lambda: load_grid(path)) < bound

    @pytest.mark.parametrize("data", [b"0.5,0.25\n0.125,0.125\n", b"0.5,0.25\r\n0.125,0.125\r\n"])
    def test_each_file_is_read_once(self, tmp_path, monkeypatch, data):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or read_bytes(self))
        assert load_map(path).values.tolist() == [[0.5, 0.25], [0.125, 0.125]]
        assert load_grid(path).tolist() == [[0.5, 0.25], [0.125, 0.125]]
        assert reads == [path, path]


class TestSuffixRule:
    # A file's path never ends in "/" or "/.", where pathlib would look
    # at the component before.
    @given(name=st.text("ab.csvCSVpgm/", min_size=1, max_size=8).filter(lambda n: not n.endswith(("/", "/."))))
    def test_matches_pathlib_suffix(self, name):
        expected = PurePosixPath(name).suffix.lower() in (".pgm", ".csv")
        assert is_map_file(name) == expected
        assert is_map_file(PurePosixPath(name)) == expected

    def test_unrecognized_suffix_names_the_path(self, tmp_path):
        path = tmp_path / "m.png"
        with pytest.raises(ValueError, match=r"m\.png: unrecognized map suffix"):
            load_grid(path)

    @pytest.mark.parametrize("name", ["m.png", "m", "m.csv.gz", ".pgm"])
    def test_every_map_call_refuses_a_suffix_alike(self, tmp_path, name):
        # Loading and saving share one format table, and so one refusal,
        # raised before the file is opened or written.
        path = tmp_path / name
        expected = f"{path}: unrecognized map suffix (expected one of ('.pgm', '.csv'))"
        uniform = GazeMap(np.full((2, 2), 0.25))
        for call in (load_map, load_grid, lambda p: save_map(p, uniform)):
            with pytest.raises(ValueError) as info:
                call(path)
            assert str(info.value) == expected
        assert not path.exists()


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        pairs = (make_pair("va", 9, 12), make_pair("vb", 30, 41, peak=0.75, pair_kl=1.25))
        path = tmp_path / "pairs.csv"
        write_manifest(path, pairs, frame_paths("va", "vb"))
        header, rows = read_manifest_rows(path)
        assert tuple(header) == MANIFEST_HEADER
        assert [r["video_id"] for r in rows] == ["va", "vb"]
        assert rows[0]["anchor"] == "9" and rows[0]["target"] == "12"
        assert rows[0]["delta"] == "3"
        assert rows[1]["pair_kl"] == "1.25"
        assert all(r["caption"] == "" for r in rows)

    def test_frame_paths_fill_the_path_columns(self, tmp_path):
        path = tmp_path / "pairs.csv"
        write_manifest(path, [make_pair("v", 1, 4)], frame_paths("v", frames=6))
        _, rows = read_manifest_rows(path)
        assert rows[0]["anchor_map_path"] == "v/f1.pgm"
        assert rows[0]["target_map_path"] == "v/f4.pgm"

    def test_extra_columns_append_after_the_base_header(self, tmp_path):
        path = tmp_path / "pairs.csv"
        write_manifest(path, [make_pair("v", 1, 4)], frame_paths("v"))
        _, rows = read_manifest_rows(path)
        rows[0]["decision"] = "accept"
        path = tmp_path / "reviewed.csv"
        write_manifest_rows(path, rows, extra_columns=("decision",))
        header, back = read_manifest_rows(path)
        assert tuple(header) == MANIFEST_HEADER + ("decision",)
        assert back[0]["decision"] == "accept"

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_manifest_rows(path)

    @pytest.mark.parametrize("reader", [read_manifest_rows, read_metrics_table])
    def test_non_utf8_file_is_named(self, tmp_path, reader):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"id,cc\n\xff,1\n")
        with pytest.raises(ValueError, match=r"bad\.csv: not UTF-8 text \(invalid start byte at byte 6\)"):
            reader(path)

    def test_lf_only_bytes(self, tmp_path):
        path = tmp_path / "pairs.csv"
        write_manifest(path, [make_pair("v", 1, 4)], frame_paths("v"))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestMetricsTable:
    def test_mean_row_and_formatting(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_table(
            path,
            [
                ("f0", {"cc": 1.0, "kl": 0.25, "sim": 0.5, "auc_j": 1.0, "auc_b": 0.75, "nss": 2.0}),
                ("f1", {"cc": 0.5, "kl": 0.75, "sim": 1.0, "auc_j": 0.5, "auc_b": 0.25, "nss": 1.0}),
            ],
        )
        rows, mean = read_metrics_table(path)
        assert [r["id"] for r in rows] == ["f0", "f1"]
        assert mean["id"] == MEAN_ROW_ID
        assert mean["cc"] == 0.75 and mean["kl"] == 0.5 and mean["nss"] == 1.5

    def test_error_cells_are_passed_through_and_skipped_in_means(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_table(
            path,
            [
                ("f0", {"cc": 1.0, "kl": 0.5, "sim": 1.0, "auc_j": "skipped", "auc_b": "skipped", "nss": "ZeroVariance"}),
                ("f1", {"cc": 0.0, "kl": 1.5, "sim": 0.0, "auc_j": "skipped", "auc_b": "skipped", "nss": "skipped"}),
            ],
        )
        rows, mean = read_metrics_table(path)
        assert rows[0]["nss"] == "ZeroVariance"
        assert mean["cc"] == 0.5
        assert mean["auc_j"] == "NA"  # no finite value in the column

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "metrics.csv"
        value = 1.0 / 3.0
        write_metrics_table(
            path,
            [("f0", {"cc": value, "kl": value, "sim": value, "auc_j": value, "auc_b": value, "nss": value})],
        )
        text = path.read_text()
        assert "0.333333333," in text
        assert "0.3333333333" not in text

    def test_missing_mean_row_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(METRICS_HEADER) + "\nf0,1,0,1,1,1,1\n")
        with pytest.raises(ValueError, match="mean"):
            read_metrics_table(path)

    def test_deterministic_bytes(self, tmp_path):
        rows = [("f0", {"cc": 0.1, "kl": 0.2, "sim": 0.3, "auc_j": 0.4, "auc_b": 0.5, "nss": 0.6})]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_table(a, rows)
        write_metrics_table(b, rows)
        assert a.read_bytes() == b.read_bytes()


def radar_means(**columns):
    """Expand {column: [per-model values]} into per-model dicts."""
    n = len(next(iter(columns.values())))
    return [{col: values[i] for col, values in columns.items()} for i in range(n)]


class TestRadar:
    BASE = dict(cc=[0.2, 0.8], sim=[0.3, 0.9], nss=[1.0, 2.0],
                auc_j=[0.6, 0.9], auc_b=[0.55, 0.85], kl=[1.2, 0.4])

    def test_dominating_model_hits_the_rim(self):
        svg, degenerate = render_radar(["weak", "strong"], radar_means(**self.BASE))
        assert degenerate == []
        radius = 190.0
        cx, cy = 260.0, 270.0
        # Axis 0 (CC) points straight up; the strong model is at the rim
        # and the weak one at the center on every axis, KL included.
        assert f'points="{cx:.17g},{cy:.17g}' in svg  # weak polygon collapses to the center
        assert f"{cx:.17g},{(cy - radius):.17g}" in svg  # strong polygon on top of the CC axis

    def test_vertex_radii_match_hand_normalization(self):
        columns = dict(cc=[0.2, 0.5, 0.8], sim=[0.1, 0.9, 0.5], nss=[1.0, 3.0, 2.0],
                       auc_j=[0.5, 0.7, 0.9], auc_b=[0.5, 0.6, 0.7], kl=[2.0, 1.0, 0.5])
        svg, _ = render_radar(["m0", "m1", "m2"], radar_means(**columns))
        for axis_index, (_, column, invert) in enumerate(RADAR_AXES):
            values = columns[column]
            lo, hi = min(values), max(values)
            for model_value in values:
                unit = (model_value - lo) / (hi - lo)
                if invert:
                    unit = 1.0 - unit
                angle = -0.5 * math.pi + axis_index * math.pi / 3.0
                x = 260.0 + unit * 190.0 * math.cos(angle)
                y = 270.0 + unit * 190.0 * math.sin(angle)
                assert f"{x:.17g},{y:.17g}" in svg

    def test_degenerate_axis_falls_back_to_half_radius(self):
        columns = dict(self.BASE)
        columns["nss"] = [1.5, 1.5]
        svg, degenerate = render_radar(["a", "b"], radar_means(**columns))
        assert degenerate == ["NSS"]
        # NSS is axis 2: unit 0.5 for both models.
        angle = -0.5 * math.pi + 2 * math.pi / 3.0
        x = 260.0 + 0.5 * 190.0 * math.cos(angle)
        y = 270.0 + 0.5 * 190.0 * math.sin(angle)
        model_polygons = [line for line in svg.splitlines() if "fill-opacity" in line]
        assert len(model_polygons) == 2
        assert all(f"{x:.17g},{y:.17g}" in line for line in model_polygons)

    def test_needs_two_models(self):
        with pytest.raises(ValueError):
            render_radar(["only"], radar_means(**{k: [v[0]] for k, v in self.BASE.items()}))

    def test_deterministic_text(self):
        args = (["a", "b"], radar_means(**self.BASE))
        assert render_radar(*args) == render_radar(*args)

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x0b", "\x1f", "\ud800", "\udc80", "\ufffe", "\uffff"])
    def test_a_label_xml_cannot_hold_is_refused(self, char):
        # Escaping cannot carry a character outside XML 1.0's Char production.
        with pytest.raises(ValueError, match=f"^label {re.escape(repr(f'a{char}b'))} "):
            render_radar([f"a{char}b", "b"], radar_means(**self.BASE))

    @pytest.mark.parametrize("char", ["\t", "\n", "\r", "\ud7ff", "\ue000", "\ufffd", "\U00010000"])
    def test_a_label_xml_can_hold_gives_a_well_formed_svg(self, char):
        svg, _ = render_radar([f"a{char}b", "b"], radar_means(**self.BASE))
        ElementTree.fromstring(svg.encode("utf-8"))

    @given(labels=st.lists(st.text(st.characters(min_codepoint=0x20, max_codepoint=0x17F)), min_size=2, max_size=4))
    def test_legend_reads_back_every_label(self, labels):
        columns = {k: [v[i % 2] for i in range(len(labels))] for k, v in self.BASE.items()}
        svg, _ = render_radar(labels, radar_means(**columns))
        root = ElementTree.fromstring(svg)
        texts = [t.text or "" for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[len(RADAR_AXES):] == labels
