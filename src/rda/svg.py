"""Minimal static SVG log-log line charts, no rendering deps.

Output is deterministic text: fixed canvas, fixed tick logic, floats
formatted with repr.
"""

from __future__ import annotations

import math

__all__ = ["line_chart"]

_WIDTH, _HEIGHT = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _transform(value: float, lo: float, hi: float) -> float:
    value, lo, hi = math.log10(value), math.log10(lo), math.log10(hi)
    if hi == lo:
        return 0.5
    return (value - lo) / (hi - lo)


def _ticks(lo: float, hi: float) -> list[float]:
    """Powers of ten from the one at or below lo to the one at or above hi."""
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(int(lo_e), int(hi_e) + 1)]


def line_chart(series: dict[str, tuple[list, list]], title: str = "",
               x_label: str = "t", y_label: str = "") -> str:
    """Render named (x, y) series as an SVG string on log-log axes.

    Nonpositive points are dropped; a series with no plottable points is
    skipped.
    """
    plottable: dict[str, tuple[list, list]] = {}
    for name, (xs, ys) in series.items():
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)
               if math.isfinite(x) and math.isfinite(y) and x > 0 and y > 0]
        if pts:
            plottable[name] = ([p[0] for p in pts], [p[1] for p in pts])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>')
    px0, px1 = _ML, _WIDTH - _MR
    py0, py1 = _HEIGHT - _MB, _MT
    parts.append(
        f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" height="{py0 - py1}" '
        'fill="none" stroke="black"/>')
    if plottable:
        all_x = [x for xs, _ in plottable.values() for x in xs]
        all_y = [y for _, ys in plottable.values() for y in ys]
        x_lo, x_hi = min(all_x), max(all_x)
        y_lo, y_hi = min(all_y), max(all_y)
        if x_lo == x_hi:
            x_hi = x_lo + 1.0
        if y_lo == y_hi:
            y_lo, y_hi = y_lo * 0.5, y_hi * 2.0

        def sx(x):
            return px0 + _transform(x, x_lo, x_hi) * (px1 - px0)

        def sy(y):
            return py0 - _transform(y, y_lo, y_hi) * (py0 - py1)

        for t in _ticks(x_lo, x_hi):
            if t < x_lo or t > x_hi:
                continue
            parts.append(
                f'<line x1="{sx(t):.2f}" y1="{py0}" x2="{sx(t):.2f}" '
                f'y2="{py0 + 5}" stroke="black"/>')
            parts.append(
                f'<text x="{sx(t):.2f}" y="{py0 + 18}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{t:g}</text>')
        for t in _ticks(y_lo, y_hi):
            if t < y_lo or t > y_hi:
                continue
            parts.append(
                f'<line x1="{px0 - 5}" y1="{sy(t):.2f}" x2="{px0}" '
                f'y2="{sy(t):.2f}" stroke="black"/>')
            parts.append(
                f'<text x="{px0 - 8}" y="{sy(t):.2f}" text-anchor="end" '
                f'dominant-baseline="middle" font-family="sans-serif" '
                f'font-size="11">{t:g}</text>')
        for idx, (name, (xs, ys)) in enumerate(plottable.items()):
            color = _COLORS[idx % len(_COLORS)]
            points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>')
            parts.append(
                f'<text x="{px1 - 8}" y="{py1 + 16 + 16 * idx}" text-anchor="end" '
                f'font-family="sans-serif" font-size="12" fill="{color}">'
                f'{name}</text>')
    if x_label:
        parts.append(
            f'<text x="{(px0 + px1) / 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{x_label}</text>')
    if y_label:
        parts.append(
            f'<text x="16" y="{(py0 + py1) / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {(py0 + py1) / 2})">{y_label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
