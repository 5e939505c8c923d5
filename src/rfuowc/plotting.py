"""Deterministic SVG line charts for sweep CSVs.

No plotting library is used on purpose: the output must be byte-identical
across runs, which rules out generators that embed ids or timestamps.
"""

from __future__ import annotations

import csv
import math
import io
from xml.sax.saxutils import escape

__all__ = ["PlotError", "render_svg", "emit_plot"]

_PALETTE = ("#1f6fb4", "#d95f02", "#2a9d52", "#b03a94", "#7a5a2b",
            "#4059ad", "#c02d2d", "#4f8d8d", "#8a8d10", "#5b5b5b")

_W, _H = 860.0, 520.0
_ML, _MR, _MT, _MB = 76.0, 20.0, 22.0, 58.0


class PlotError(ValueError):
    """Malformed sweep CSV."""


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _read_rows(csv_path: str):
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise PlotError("empty CSV")
        need = {"axis", "axis_value", "method", "p_out"}
        missing = need - set(reader.fieldnames)
        if missing:
            raise PlotError(f"CSV missing columns {sorted(missing)}")
        rows = list(reader)
    if not rows:
        raise PlotError("CSV has a header but no rows")
    return rows


def render_svg(csv_path: str) -> str:
    rows = _read_rows(csv_path)
    axis_label = rows[0]["axis"]
    groups: dict = {}
    for i, row in enumerate(rows, start=2):
        try:
            x = float(row["axis_value"])
            y = float(row["p_out"])
        except (TypeError, ValueError) as exc:
            raise PlotError(f"CSV row {i}: non-numeric axis_value/p_out") from exc
        key = (row.get("scenario") or "", row["method"])
        groups.setdefault(key, []).append((x, y))

    pts = [(x, y) for series in groups.values() for x, y in series if y > 0.0]
    if not pts:
        raise PlotError("no positive outage values to plot")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    logx = min(xs) > 0 and max(xs) / min(xs) >= 100.0
    x_lo, x_hi = (math.log10(min(xs)), math.log10(max(xs))) if logx else (min(xs), max(xs))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo = math.floor(math.log10(min(ys)))
    y_hi = math.ceil(math.log10(max(ys)))
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def sx(x):
        t = ((math.log10(x) if logx else x) - x_lo) / (x_hi - x_lo)
        return _ML + t * (_W - _ML - _MR)

    def sy(y):
        t = (math.log10(y) - y_lo) / (y_hi - y_lo)
        return _H - _MB - t * (_H - _MT - _MB)

    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_W)}" '
              f'height="{_fmt(_H)}" viewBox="0 0 {_fmt(_W)} {_fmt(_H)}">\n')
    out.write(f'<rect width="{_fmt(_W)}" height="{_fmt(_H)}" fill="white"/>\n')
    # frame
    out.write(f'<rect x="{_fmt(_ML)}" y="{_fmt(_MT)}" width="{_fmt(_W-_ML-_MR)}" '
              f'height="{_fmt(_H-_MT-_MB)}" fill="none" stroke="#222" stroke-width="1"/>\n')
    # y ticks: decades
    for dec in range(y_lo, y_hi + 1):
        yy = sy(10.0 ** dec)
        out.write(f'<line x1="{_fmt(_ML-4)}" y1="{_fmt(yy)}" x2="{_fmt(_ML)}" '
                  f'y2="{_fmt(yy)}" stroke="#222"/>\n')
        out.write(f'<text x="{_fmt(_ML-8)}" y="{_fmt(yy+4)}" text-anchor="end" '
                  f'font-family="monospace" font-size="12">1e{dec}</text>\n')
        if dec != y_lo:
            out.write(f'<line x1="{_fmt(_ML)}" y1="{_fmt(yy)}" x2="{_fmt(_W-_MR)}" '
                      f'y2="{_fmt(yy)}" stroke="#ddd" stroke-width="0.6"/>\n')
    # x ticks
    n_ticks = 6
    for i in range(n_ticks + 1):
        tv = x_lo + (x_hi - x_lo) * i / n_ticks
        xv = 10.0 ** tv if logx else tv
        xx = _ML + (_W - _ML - _MR) * i / n_ticks
        out.write(f'<line x1="{_fmt(xx)}" y1="{_fmt(_H-_MB)}" x2="{_fmt(xx)}" '
                  f'y2="{_fmt(_H-_MB+4)}" stroke="#222"/>\n')
        out.write(f'<text x="{_fmt(xx)}" y="{_fmt(_H-_MB+18)}" text-anchor="middle" '
                  f'font-family="monospace" font-size="12">{_fmt(xv)}</text>\n')
    out.write(f'<text x="{_fmt((_ML+_W-_MR)/2)}" y="{_fmt(_H-16)}" text-anchor="middle" '
              f'font-family="monospace" font-size="13">{escape(axis_label)}</text>\n')
    out.write(f'<text x="16" y="{_fmt((_MT+_H-_MB)/2)}" text-anchor="middle" '
              f'font-family="monospace" font-size="13" '
              f'transform="rotate(-90 16 {_fmt((_MT+_H-_MB)/2)})">outage probability</text>\n')

    # curves, in first-appearance order
    for idx, (key, series) in enumerate(groups.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        vis = [(x, y) for x, y in series if y > 0.0]
        if not vis:
            continue
        path = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in vis)
        out.write(f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
                  f'points="{path}"/>\n')
    # legend
    ly = _MT + 10.0
    for idx, key in enumerate(groups):
        color = _PALETTE[idx % len(_PALETTE)]
        label = escape(f"{key[0]} {key[1]}".strip())
        out.write(f'<line x1="{_fmt(_ML+10)}" y1="{_fmt(ly)}" x2="{_fmt(_ML+34)}" '
                  f'y2="{_fmt(ly)}" stroke="{color}" stroke-width="2"/>\n')
        out.write(f'<text x="{_fmt(_ML+40)}" y="{_fmt(ly+4)}" font-family="monospace" '
                  f'font-size="11">{label}</text>\n')
        ly += 15.0
    out.write("</svg>\n")
    return out.getvalue()


def emit_plot(csv_path: str, out_path: str) -> None:
    """Write a log-scale SVG chart of a sweep CSV; deterministic bytes."""
    svg = render_svg(csv_path)
    with open(out_path, "w", newline="\n") as fh:
        fh.write(svg)
