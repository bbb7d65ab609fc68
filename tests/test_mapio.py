"""On-disk formats: 16-bit PGM maps, CSV grids, manifests, metrics
tables, and the radar SVG. Everything here must be byte-deterministic.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path, PurePosixPath
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_map
from gazekit import (
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
    read_manifest_rows,
    read_metrics_table,
    render_radar,
    save_fixations,
    save_map,
    write_manifest,
    write_manifest_rows,
    write_metrics_table,
)


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
def pgm_files(draw):
    """A PGM with comments, tabs and CRLF in its header, mostly valid."""
    width = draw(st.integers(1, 4))
    height = draw(st.integers(1, 3))
    tokens = [b"P5", str(width).encode(), str(height).encode(), b"65535"]
    if draw(st.integers(0, 4)) == 0:
        index = draw(st.integers(0, 3))
        tokens[index] = draw(st.sampled_from([b"P2", b"0", b"-1", b"255", b"x", b"07"]))
    header = draw(st.sampled_from([b"", b"# lead\n"]))
    for token in tokens:
        header += token + draw(_SEPARATORS)
    raster = draw(st.binary(min_size=2 * width * height, max_size=2 * width * height))
    return header + raster + draw(st.sampled_from([b"", b"\x00\x01"]))


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
    def test_pgm_reader_matches_byte_walk(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("pgm") / "m.pgm"
        path.write_bytes(data)
        assert outcome(load_grid, path) == outcome(read_pgm16_reference, path)

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

    @given(labels=st.lists(st.text(st.characters(min_codepoint=0x20, max_codepoint=0x17F)), min_size=2, max_size=4))
    def test_legend_reads_back_every_label(self, labels):
        columns = {k: [v[i % 2] for i in range(len(labels))] for k, v in self.BASE.items()}
        svg, _ = render_radar(labels, radar_means(**columns))
        root = ElementTree.fromstring(svg)
        texts = [t.text or "" for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[len(RADAR_AXES):] == labels
