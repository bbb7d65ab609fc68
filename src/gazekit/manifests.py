"""CSV schemas: the curation manifest and the per-frame metrics table.

Both files are RFC-style CSV with a header row, LF line endings, no
trailing delimiter, and fields quoted only when needed. Divergence and
metric values are printed with 9 significant digits. Writers are
deterministic: the same data always produces the same bytes.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

__all__ = [
    "MANIFEST_HEADER",
    "METRICS_HEADER",
    "MEAN_ROW_ID",
    "write_manifest_rows",
    "read_manifest_rows",
    "write_manifest",
    "write_metrics_table",
    "read_metrics_table",
    "write_csv",
]

MANIFEST_HEADER = (
    "video_id",
    "anchor",
    "target",
    "delta",
    "anchor_peak_kl",
    "pair_kl",
    "anchor_map_path",
    "target_map_path",
    "caption",
)

METRICS_HEADER = ("id", "cc", "kl", "sim", "auc_j", "auc_b", "nss")

#: id of the aggregate row appended to every metrics table.
MEAN_ROW_ID = "mean"


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def write_csv(path, header, rows) -> None:
    """Write a header row and data rows as CSV with LF line endings, UTF-8."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue(), encoding="utf-8", newline="")


def write_manifest_rows(path, rows, extra_columns=()) -> None:
    """Write manifest row dicts, optionally with appended extra columns."""
    header = MANIFEST_HEADER + tuple(extra_columns)
    write_csv(path, header, [[row.get(col, "") for col in header] for row in rows])


def _read_csv(path, kind: str) -> tuple[list[str], list[list[str]]]:
    # Header and data rows; every row must be as wide as the header.
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty {kind} file")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(row)} fields, "
                    f"the header has {len(header)}"
                )
            rows.append(row)
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return header, rows


def read_manifest_rows(path) -> tuple[list[str], list[dict]]:
    """Read a manifest (or reviewed manifest); returns (header, row dicts)."""
    header, rows = _read_csv(path, "manifest")
    if tuple(header[: len(MANIFEST_HEADER)]) != MANIFEST_HEADER:
        raise ValueError(f"{path}: unexpected manifest header {header}")
    return header, [dict(zip(header, row)) for row in rows]


def write_manifest(path, pairs, frame_paths) -> None:
    """Write curated ``FramePair`` objects, in the given order, as a manifest CSV.

    ``frame_paths`` maps each video_id to that video's ordered frame file
    paths, which fill the anchor and target path columns. Captions start
    empty; review adds them later.
    """
    rows = []
    for pair in pairs:
        paths = frame_paths[pair.video_id]
        rows.append(
            [
                pair.video_id,
                str(pair.anchor),
                str(pair.target),
                str(pair.delta),
                _fmt(pair.anchor_peak_kl),
                _fmt(pair.pair_kl),
                str(paths[pair.anchor]),
                str(paths[pair.target]),
                "",
            ]
        )
    write_csv(path, MANIFEST_HEADER, rows)


def write_metrics_table(path, rows) -> None:
    """Write per-frame metric rows plus the aggregate mean row.

    ``rows`` is a sequence of (id, cells) where cells maps metric names
    to floats or error labels. The final row, id "mean", averages the
    finite values per column; a column with none gets "NA".
    """
    out = []
    sums = {name: 0.0 for name in METRICS_HEADER[1:]}
    counts = {name: 0 for name in METRICS_HEADER[1:]}
    for row_id, cells in rows:
        line = [row_id]
        for name in METRICS_HEADER[1:]:
            value = cells.get(name)
            if isinstance(value, float) and math.isfinite(value):
                line.append(_fmt(value))
                sums[name] += value
                counts[name] += 1
            else:
                line.append("" if value is None else str(value))
        out.append(line)
    mean_line = [MEAN_ROW_ID]
    for name in METRICS_HEADER[1:]:
        mean_line.append(_fmt(sums[name] / counts[name]) if counts[name] else "NA")
    out.append(mean_line)
    write_csv(path, METRICS_HEADER, out)


def read_metrics_table(path) -> tuple[list[dict], dict]:
    """Read a metrics table; returns (frame rows, mean row) as cell dicts.

    Numeric cells come back as floats, everything else as the original
    string.
    """
    header, rows = _read_csv(path, "metrics table")
    if tuple(header) != METRICS_HEADER:
        raise ValueError(f"{path}: unexpected metrics header {header}")
    parsed = []
    for row in rows:
        cells = {"id": row[0]}
        for name, cell in zip(METRICS_HEADER[1:], row[1:]):
            try:
                cells[name] = float(cell)
            except ValueError:
                cells[name] = cell
        parsed.append(cells)
    if not parsed or parsed[-1]["id"] != MEAN_ROW_ID:
        raise ValueError(f"{path}: missing mean row")
    return parsed[:-1], parsed[-1]
