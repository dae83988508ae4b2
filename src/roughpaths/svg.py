"""Minimal deterministic SVG line plots (polyline primitives only)."""

from __future__ import annotations

import math

from .rough_paths import _rewrite

__all__ = ["line_plot"]

_PALETTE = ["#1f6fb4", "#d1495b", "#2e933c", "#8332ac", "#e28413", "#3b3b3b"]
_W, _H = 720, 460
_ML, _MR, _MT, _MB = 72, 24, 34, 52


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * span:
        out.append(0.0 if abs(v) < 1e-12 * span else v)
        v += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_plot(path, series, title: str = "", xlabel: str = "",
              ylabel: str = "", logy: bool = False) -> None:
    """Write a line plot to `path`.

    series: list of (label, xs, ys) triples.  With logy=True the y axis
    is log10 and nonpositive values are dropped.
    """
    data = []
    for label, xs, ys in series:
        pts = [(float(a), float(b)) for a, b in zip(xs, ys)
               if not logy or b > 0]
        if logy:
            pts = [(a, math.log10(b)) for a, b in pts]
        if pts:
            data.append((label, pts))
    if not data:
        raise ValueError("nothing to plot")
    xlo = min(p[0] for _, pts in data for p in pts)
    xhi = max(p[0] for _, pts in data for p in pts)
    ylo = min(p[1] for _, pts in data for p in pts)
    yhi = max(p[1] for _, pts in data for p in pts)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def sx(v):
        return _ML + (v - xlo) / (xhi - xlo) * pw

    def sy(v):
        return _MT + ph - (v - ylo) / (yhi - ylo) * ph

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#888"/>',
    ]
    if title:
        lines.append(f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
    for tv in _ticks(xlo, xhi):
        px = sx(tv)
        lines.append(f'<line x1="{px:.2f}" y1="{_MT + ph}" x2="{px:.2f}" '
                     f'y2="{_MT + ph + 5}" stroke="#888"/>')
        lines.append(f'<text x="{px:.2f}" y="{_MT + ph + 18}" '
                     f'text-anchor="middle">{_fmt(tv)}</text>')
    for tv in _ticks(ylo, yhi):
        py = sy(tv)
        label = f"1e{_fmt(tv)}" if logy else _fmt(tv)
        lines.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" '
                     f'y2="{py:.2f}" stroke="#888"/>')
        lines.append(f'<text x="{_ML - 8}" y="{py + 4:.2f}" '
                     f'text-anchor="end">{label}</text>')
    if xlabel:
        lines.append(f'<text x="{_ML + pw / 2:.1f}" y="{_H - 12}" '
                     f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        lines.append(f'<text x="16" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {_MT + ph / 2:.1f})">{ylabel}'
                     f'</text>')
    for k, (label, pts) in enumerate(data):
        color = _PALETTE[k % len(_PALETTE)]
        coords = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in pts)
        lines.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 14 + 16 * k
        lines.append(f'<line x1="{_ML + pw - 130}" y1="{ly - 4}" '
                     f'x2="{_ML + pw - 110}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        lines.append(f'<text x="{_ML + pw - 104}" y="{ly}">{label}</text>')
    lines.append("</svg>")
    with _rewrite(path) as fh:
        fh.write("\n".join(lines) + "\n")
