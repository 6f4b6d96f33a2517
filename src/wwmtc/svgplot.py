"""Deterministic SVG line plots.

Hand-rolled on purpose: identical inputs must produce byte-identical files,
which rules out plotting libraries that embed versions or timestamps.  Only
what the CLI needs: polyline series over labeled, ticked axes.
"""

from __future__ import annotations

import math

from .errors import DomainError

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_WIDTH = 800
_HEIGHT = 600
_MARGIN_LEFT = 72.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 24.0
_MARGIN_BOTTOM = 56.0


_NOT_FINITE = "cannot plot a value that is not a finite number"
_TICKS = 6  # the number of ticks an axis aims at


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi] at a 1/2/5 step.

    Where such a step underflows to 0, or cannot move a tick because it is
    below half an ULP of it (or the tick has passed the largest double),
    the ticks are the axis ends.
    """
    raw = (hi - lo) / (_TICKS - 1)
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else 0.0
    step = next((m * mag for m in (1.0, 2.0, 5.0) if raw <= m * mag), 10.0 * mag)
    if step == 0.0:
        return [lo, hi]
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 0.5 * step:
        ticks.append(0.0 if abs(t) < 0.5 * step * 1e-9 else t)
        if t + step == t:
            return [lo, hi]
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _fmt_tick(v: float) -> str:
    return f"{v:.6g}"


def _escape(text: str) -> str:
    """Caption text as SVG character data (labels carry user file names)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_line_plot(
    series: list[tuple[str, list[float], list[float]]],
    xlabel: str,
    ylabel: str,
) -> str:
    """Render labeled polyline series as an SVG document string.

    Args:
        series: (label, xs, ys) triples; each needs at least two points.
        xlabel/ylabel: axis captions, units included by the caller.
    """
    if not series:
        raise DomainError("need at least one series to plot")
    for label, xs, ys in series:
        if len(xs) != len(ys) or len(xs) < 2:
            raise DomainError(f"series {label!r} needs >= 2 paired points")

    x_lo = min(min(xs) for _, xs, _ in series)
    x_hi = max(max(xs) for _, xs, _ in series)
    y_lo = min(min(ys) for _, _, ys in series)
    y_hi = max(max(ys) for _, _, ys in series)
    # a flat axis is widened by 1, or by an ULP where 1 is lost to rounding
    if x_hi == x_lo:
        pad = max(1.0, math.ulp(x_lo))
        x_lo, x_hi = x_lo - pad, x_hi + pad
    if y_hi == y_lo:
        pad = max(1.0, math.ulp(y_lo))
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x_span, y_span = x_hi - x_lo, y_hi - y_lo
    # an infinite value, or a NaN that min or max met first, makes a span
    # infinite or NaN; a later NaN shows in the sum of the pixel coordinates
    if not (math.isfinite(x_span) and math.isfinite(y_span)):
        raise DomainError(_NOT_FINITE)

    def sx(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / x_span * plot_w

    def sy(y: float) -> float:
        return _MARGIN_TOP + (y_hi - y) / y_span * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )

    for t in _nice_ticks(x_lo, x_hi):
        px = sx(t)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(_MARGIN_TOP + plot_h)}" '
            f'x2="{_fmt(px)}" y2="{_fmt(_MARGIN_TOP + plot_h + 5)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(_MARGIN_TOP + plot_h + 18)}" '
            f'font-family="sans-serif" font-size="11" text-anchor="middle">{_fmt_tick(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        out.append(
            f'<line x1="{_fmt(_MARGIN_LEFT - 5)}" y1="{_fmt(py)}" '
            f'x2="{_fmt(_MARGIN_LEFT)}" y2="{_fmt(py)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 8)}" y="{_fmt(py + 4)}" '
            f'font-family="sans-serif" font-size="11" text-anchor="end">{_fmt_tick(t)}</text>'
        )

    out.append(
        f'<text x="{_fmt(_MARGIN_LEFT + plot_w / 2)}" y="{_fmt(_HEIGHT - 14)}" '
        f'font-family="sans-serif" font-size="13" text-anchor="middle">{_escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="16" y="{_fmt(_MARGIN_TOP + plot_h / 2)}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt(_MARGIN_TOP + plot_h / 2)})">{_escape(ylabel)}</text>'
    )

    # sx and sy spelled out in the same operation order, and the points
    # interleaved and formatted in one operation: a long series then costs
    # no Python call per coordinate
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        flat = [0.0] * (2 * len(xs))
        flat[0::2] = [_MARGIN_LEFT + (x - x_lo) / x_span * plot_w for x in xs]
        flat[1::2] = [_MARGIN_TOP + (y_hi - y) / y_span * plot_h for y in ys]
        if not math.isfinite(sum(flat)):
            raise DomainError(_NOT_FINITE)
        pts = ("%.2f,%.2f " * len(xs))[:-1] % tuple(flat)
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    if len(series) > 1:
        for i, (label, _, _) in enumerate(series):
            color = _PALETTE[i % len(_PALETTE)]
            ly = _MARGIN_TOP + 14 + 16 * i
            lx = _MARGIN_LEFT + plot_w - 150
            out.append(
                f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 22)}" '
                f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="1.5"/>'
            )
            out.append(
                f'<text x="{_fmt(lx + 28)}" y="{_fmt(ly)}" font-family="sans-serif" '
                f'font-size="12">{_escape(label)}</text>'
            )

    out.append("</svg>")
    return "\n".join(out) + "\n"
