"""Standalone SVG rendering: silhouette plots and stacked radar charts.

Output is plain SVG 1.1 text built from the inputs alone (no timestamps, no
randomness), so identical inputs always produce byte-identical files. The
geometry is fixed: 800x600 viewBox, one palette of six cluster colors,
35% fill opacity for radar polygons.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .kmeans import ClusteringResult

WIDTH = 800
HEIGHT = 600
PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
MEAN_LINE_COLOR = "#d62728"
RADAR_FILL_OPACITY = 0.35


def cluster_letter(index: int) -> str:
    """Display name for a cluster index: A, B, C, ... then C26, C27, ..."""
    if 0 <= index < 26:
        return chr(ord("A") + index)
    return f"C{index}"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _line(x1, y1, x2, y2, stroke: str, width: str = "1", extra: str = "") -> str:
    return (f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{width}"{extra}/>')


def _text(x, y, text: str, size: int, anchor: str = "middle", extra: str = "") -> str:
    return (f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
            f'font-family="Helvetica" font-size="{size}"{extra}>{_escape(text)}</text>')


def _write_svg(path, title: str, body: list[str]) -> None:
    """Write ``body`` between the prolog, white canvas and title and the closing tag."""
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        # y="28" is written unformatted, unlike every other coordinate, so the
        # title does not go through _text
        f'<text x="{WIDTH / 2:.2f}" y="28" text-anchor="middle" '
        f'font-family="Helvetica" font-size="18">{_escape(title)}</text>',
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(head + body + ["</svg>"]) + "\n")


def render_silhouette_plot(result: ClusteringResult, path) -> None:
    """Write an SVG of per-cluster silhouette bars plus the mean line.

    Bars are horizontal, grouped into contiguous bands by cluster (one
    palette color each) and sorted descending within a band; a dashed
    vertical line marks the mean silhouette. The x-axis spans [-1, 1].
    """
    left, right, top, bottom = 70.0, 770.0, 60.0, 545.0
    span = right - left

    def x_of(s: float) -> float:
        return left + (s + 1.0) / 2.0 * span

    n = len(result.sample_silhouettes)
    row_h = (bottom - top) / n

    # axis frame, zero line and ticks
    parts = [_line(left, bottom, right, bottom, "#000000")]
    for tick in (-1.0, -0.5, 0.0, 0.5, 1.0):
        tx = x_of(tick)
        parts.append(_line(tx, bottom, tx, bottom + 6, "#000000"))
        parts.append(_text(tx, bottom + 22, f"{tick:g}", 13))
    parts.append(_line(x_of(0.0), top, x_of(0.0), bottom, "#bbbbbb"))

    y = top
    for c in range(result.k):
        values = np.sort(result.sample_silhouettes[result.labels == c])[::-1]
        color = PALETTE[c % len(PALETTE)]
        band_top = y
        for s in values:
            x0, x1 = x_of(0.0), x_of(float(s))
            bar_left, bar_width = min(x0, x1), abs(x1 - x0)
            parts.append(
                f'<rect x="{bar_left:.2f}" y="{y:.2f}" width="{bar_width:.2f}" '
                f'height="{row_h:.2f}" fill="{color}"/>'
            )
            y += row_h
        label_y = (band_top + y) / 2.0 + 4.0
        parts.append(_text(left - 40, label_y, f"{cluster_letter(c)} ({values.size})", 14,
                           anchor="start", extra=f' fill="{color}"'))

    mx = x_of(result.mean_silhouette)
    parts.append(_line(mx, top, mx, bottom, MEAN_LINE_COLOR, width="1.5",
                       extra=' stroke-dasharray="6,4"'))
    _write_svg(path, f"Silhouette plot (k={result.k}, mean={result.mean_silhouette:.4f})",
               parts)


def render_stacked_radar(axis_labels, rows, cluster_id: int, path) -> None:
    """Write an SVG stacking one translucent polygon per row of ``rows`` on
    radial axes, one per label in ``axis_labels``, in cluster ``cluster_id``'s color.

    Axes are scaled 0..1 from the center outward. ``rows`` must be a nonempty
    2-D matrix with one value per axis, each in [0, 1] (values within 1e-12
    of it are clipped), and at least 3 axes are required to form a polygon.
    """
    rows = np.asarray(rows, dtype=np.float64)
    n_axes = len(axis_labels)
    if rows.ndim != 2:
        raise ParameterError("rows must be a 2-D matrix")
    if rows.shape[0] == 0:
        raise ParameterError("rows must be nonempty")
    if rows.shape[1] != n_axes:
        raise ParameterError(f"rows have {rows.shape[1]} values for {n_axes} axes")
    if rows.size and (rows.min() < -1e-12 or rows.max() > 1.0 + 1e-12):
        raise ParameterError("row values must lie in [0, 1]")
    if n_axes < 3:
        raise ParameterError("a radar chart needs at least 3 axes")
    rows = np.clip(rows, 0.0, 1.0)

    cx, cy, radius = 400.0, 315.0, 210.0
    angles = [-np.pi / 2.0 + 2.0 * np.pi * i / n_axes for i in range(n_axes)]

    def point(axis: int, value: float) -> tuple[float, float]:
        return (cx + radius * value * np.cos(angles[axis]),
                cy + radius * value * np.sin(angles[axis]))

    color = PALETTE[cluster_id % len(PALETTE)]
    parts = []
    for frac in (0.25, 0.5, 0.75, 1.0):
        ring = " ".join(f"{x:.2f},{y:.2f}" for x, y in
                        (point(i, frac) for i in range(n_axes)))
        parts.append(
            f'<polygon points="{ring}" fill="none" stroke="#cccccc" stroke-width="1"/>'
        )
    for i in range(n_axes):
        ex, ey = point(i, 1.0)
        parts.append(_line(cx, cy, ex, ey, "#999999"))
        lx = cx + (radius + 26.0) * np.cos(angles[i])
        ly = cy + (radius + 26.0) * np.sin(angles[i]) + 4.0
        parts.append(_text(lx, ly, axis_labels[i], 13))

    for row in rows:
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in
                       (point(i, float(v)) for i, v in enumerate(row)))
        parts.append(
            f'<polygon points="{pts}" fill="{color}" fill-opacity="{RADAR_FILL_OPACITY}" '
            f'stroke="{color}" stroke-width="1"/>'
        )
    _write_svg(path, f"Cluster {cluster_letter(cluster_id)} ({rows.shape[0]} rows)", parts)
