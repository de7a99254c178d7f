"""Minimal standalone SVG line plots, no renderer or plotting dependency.

Each series becomes one ``<polyline>`` carrying ``data-series`` (the
name) and ``data-values`` (the raw y values) attributes, so tests and
scripts can read the plotted numbers straight back out of the file.
Pixel coordinates are computed on whole arrays with the per-point
formula's operations in its order, so each is the double a point-by-point
computation gives; each series' points and values take one ``%`` call.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .core import InvalidArgument

_WIDTH, _HEIGHT = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 130, 40, 45

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _axis_range(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        pad = abs(lo) * 0.1 or 1.0
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def write_line_plot(
    path: str | Path,
    x: Sequence[float],
    series: Sequence[tuple[str, Sequence[float]]],
    *,
    title: str,
    y_label: str = "",
) -> None:
    """Write one SVG with a polyline per (name, values) series, a value per round in ``x``."""
    if not series or not x:
        raise InvalidArgument("plot needs at least one series and one x value")

    xs = np.asarray(x, dtype=np.float64)
    ys = np.array([values for _, values in series], dtype=np.float64)
    # Python's min and max keep the first of equal values (0.0 and -0.0)
    x_lo, x_hi = _axis_range(xs.tolist())
    y_lo, y_hi = _axis_range(ys.ravel().tolist())

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    with np.errstate(all="ignore"):  # inf and NaN pass silently, as in float arithmetic
        px = _MARGIN_L + (xs - x_lo) / (x_hi - x_lo) * plot_w
        py = _MARGIN_T + (y_hi - ys) / (y_hi - y_lo) * plot_h
    point_format = " ".join(["%.2f,%.2f"] * len(xs))
    value_format = " ".join(["%.17g"] * len(xs))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes
    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    x1, y1 = _WIDTH - _MARGIN_R, _MARGIN_T
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for value, anchor_x, anchor_y, anchor in (
        (x_lo, x0, y0 + 16, "start"),
        (x_hi, x1, y0 + 16, "end"),
    ):
        out.append(
            f'<text x="{anchor_x:.1f}" y="{anchor_y:.1f}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="11">{value:.6g}</text>'
        )
    for value, ty in ((y_lo, y0), (y_hi, y1 + 4)):
        out.append(
            f'<text x="{x0 - 6:.1f}" y="{ty:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{value:.6g}</text>'
        )
    out.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">round</text>'
    )
    if y_label:
        out.append(
            f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">{y_label}</text>'
        )

    for idx, (name, _) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = point_format % tuple(np.column_stack((px, py[idx])).ravel().tolist())
        raw = value_format % tuple(ys[idx].tolist())
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}" data-series="{name}" data-values="{raw}"/>'
        )
        ly = _MARGIN_T + 14 + 16 * idx
        lx = _WIDTH - _MARGIN_R + 10
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(
            f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )

    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")
