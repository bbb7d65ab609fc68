"""Deterministic SVG radar chart comparing models across the six metrics.

Axes run clockwise from the top at 60 degree spacing: CC, SIM, NSS,
AUC-J, AUC-B, and KL (inverted). Each axis is min-max normalized across
the models independently, with KL inverted so that outward always means
better. An axis where every model scored the same has no spread to
show; those axes fall back to radius 0.5 for every model and are
reported back to the caller.

The output is plain SVG text with no timestamps, randomness, or
locale-dependent formatting, so identical inputs give identical bytes.
"""

from __future__ import annotations

import math
from html import escape

__all__ = ["RADAR_AXES", "render_radar"]

#: (display label, metrics-table column, invert) per axis, clockwise from the top.
RADAR_AXES = (
    ("CC", "cc", False),
    ("SIM", "sim", False),
    ("NSS", "nss", False),
    ("AUC-J", "auc_j", False),
    ("AUC-B", "auc_b", False),
    ("KL (inverted)", "kl", True),
)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#17becf", "#7f7f7f")

_CX = 260.0
_CY = 270.0
_RADIUS = 190.0
_WIDTH = 640
_HEIGHT = 540


def _normalize_axis(values: list[float], invert: bool) -> list[float] | None:
    # Min-max normalize one axis's scores to [0, 1]; inversion maps the
    # minimum to 1, which is how smaller-is-better metrics are plotted.
    # All-equal scores have no range to normalize by: None.
    lo, hi = min(values), max(values)
    if hi == lo:
        return None
    if math.isinf(hi - lo):
        # Finite scores whose span overflows: halving every value keeps
        # each ratio and brings the span back into range.
        values, lo, hi = [v / 2 for v in values], lo / 2, hi / 2
    out = [(v - lo) / (hi - lo) for v in values]
    return [1.0 - v for v in out] if invert else out


def _axis_angle(index: int) -> float:
    return -0.5 * math.pi + index * math.pi / 3.0


def _point(index: int, radius: float) -> tuple[float, float]:
    angle = _axis_angle(index)
    return _CX + radius * math.cos(angle), _CY + radius * math.sin(angle)


def _coord(value: float) -> str:
    return f"{value:.17g}"


def _polygon(radii, **attrs) -> str:
    points = " ".join(
        f"{_coord(x)},{_coord(y)}"
        for x, y in (_point(i, r) for i, r in enumerate(radii))
    )
    body = " ".join(f'{k.replace("_", "-")}="{v}"' for k, v in attrs.items())
    return f'<polygon points="{points}" {body}/>'


def render_radar(labels, means) -> tuple[str, list[str]]:
    """Render one radar chart; returns (svg text, degenerate axis labels).

    ``labels`` names the models and ``means`` holds one metrics dict per
    model with at least the six axis columns as floats.
    """
    if len(labels) != len(means):
        raise ValueError("one label per metrics dict is required")
    if len(means) < 2:
        raise ValueError("a comparison needs at least two models")

    normalized = []  # one list per axis, one value per model
    degenerate = []
    for axis_label, column, invert in RADAR_AXES:
        scaled = _normalize_axis([float(m[column]) for m in means], invert)
        if scaled is None:
            scaled = [0.5] * len(means)
            degenerate.append(axis_label)
        normalized.append(scaled)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    for ring in (0.25, 0.5, 0.75, 1.0):
        parts.append(
            _polygon([ring * _RADIUS] * 6, fill="none", stroke="#cccccc", stroke_width="1")
        )
    for i, (axis_label, _, _) in enumerate(RADAR_AXES):
        x, y = _point(i, _RADIUS)
        parts.append(
            f'<line x1="{_coord(_CX)}" y1="{_coord(_CY)}" x2="{_coord(x)}" y2="{_coord(y)}" '
            f'stroke="#999999" stroke-width="1"/>'
        )
        lx, ly = _point(i, _RADIUS * 1.12)
        parts.append(
            f'<text x="{_coord(lx)}" y="{_coord(ly)}" text-anchor="middle" '
            f'dominant-baseline="middle" font-family="sans-serif" font-size="14">{axis_label}</text>'
        )
    for model_idx, label in enumerate(labels):
        color = _PALETTE[model_idx % len(_PALETTE)]
        radii = [normalized[axis][model_idx] * _RADIUS for axis in range(6)]
        parts.append(
            _polygon(radii, fill=color, fill_opacity="0.15", stroke=color, stroke_width="2")
        )
    legend_x = _WIDTH - 150
    for model_idx, label in enumerate(labels):
        color = _PALETTE[model_idx % len(_PALETTE)]
        y = 30 + 22 * model_idx
        parts.append(f'<rect x="{legend_x}" y="{y}" width="14" height="14" fill="{color}"/>')
        parts.append(
            f'<text x="{legend_x + 20}" y="{y + 11}" font-family="sans-serif" '
            f'font-size="13">{escape(str(label), quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n", degenerate
