"""Hand-rolled SVG trajectory plots plus merged-CSV export.

One polyline per series, linear or log x axis, labeled axes, a legend,
and an optional dotted learning-rate overlay on a secondary axis. Every
SVG ships with a sibling CSV carrying the plotted points.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple
from xml.sax.saxutils import escape

from .errors import ReportError
from .harness import METRICS
from .metrics import CSV_COLUMNS, MetricsStore
from .store import atomic_write

WIDTH, HEIGHT = 760, 480  # SVG canvas, px
PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
    "#9467bd", "#8c564b", "#e377c2", "#17becf",
]


@dataclass
class Series:
    label: str
    xs: List[float]
    ys: List[float]
    dotted: bool = False
    secondary: bool = False


def _nice_ticks(lo: float, hi: float, target: int = 5) -> List[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if mult * mag >= raw:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> List[float]:
    ticks = []
    e = math.floor(math.log10(lo))
    while 10**e <= hi * (1 + 1e-12):
        if 10**e >= lo * (1 - 1e-12):
            ticks.append(10.0**e)
        e += 1
    return ticks or [lo, hi]


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.6g}"


def svg_plot(
    series: Sequence[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    y2label: str = "",
    logx: bool = False,
) -> str:
    """Render series as an SVG document string (one polyline per series)."""
    primary = [s for s in series if not s.secondary]
    if not primary or all(not s.xs for s in primary):
        raise ReportError("nothing to plot")
    ml, mr, mt, mb = 72, 72, 40, 56
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb

    def xvals(ss):
        return [x for s in ss for x in s.xs]

    all_x = xvals(series)
    if logx:
        pos = [x for x in all_x if x > 0]
        if not pos:
            raise ReportError("log x axis needs positive x values")
        xlo, xhi = min(pos), max(pos)
    else:
        xlo, xhi = min(all_x), max(all_x)
    if xhi == xlo:
        xhi = xlo + 1
    ys1 = [y for s in primary for y in s.ys]
    ylo, yhi = min(ys1), max(ys1)
    if yhi == ylo:
        yhi, ylo = ylo + 1, ylo - 1
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    secondary = [s for s in series if s.secondary]
    if secondary:
        ys2 = [y for s in secondary for y in s.ys]
        y2lo, y2hi = min(ys2 + [0.0]), max(ys2)
        if y2hi == y2lo:
            y2hi = y2lo + 1

    def px(x: float) -> float:
        if logx:
            x = max(x, xlo)
            return ml + pw * (math.log10(x) - math.log10(xlo)) / (math.log10(xhi) - math.log10(xlo))
        return ml + pw * (x - xlo) / (xhi - xlo)

    def py(y: float) -> float:
        return mt + ph * (1 - (y - ylo) / (yhi - ylo))

    def py2(y: float) -> float:
        return mt + ph * (1 - (y - y2lo) / (y2hi - y2lo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH/2:.1f}" y="22" text-anchor="middle" font-size="15">{escape(title)}</text>'
        )
    xticks = _log_ticks(xlo, xhi) if logx else _nice_ticks(xlo, xhi)
    for t in xticks:
        x = px(t)
        out.append(f'<line x1="{x:.1f}" y1="{mt+ph}" x2="{x:.1f}" y2="{mt+ph+5}" stroke="#444"/>')
        out.append(
            f'<text x="{x:.1f}" y="{mt+ph+18}" text-anchor="middle">{escape(_fmt_tick(t))}</text>'
        )
    for t in _nice_ticks(ylo, yhi):
        y = py(t)
        out.append(f'<line x1="{ml-5}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="#444"/>')
        out.append(
            f'<text x="{ml-8}" y="{y+4:.1f}" text-anchor="end">{escape(_fmt_tick(t))}</text>'
        )
    if secondary:
        for t in _nice_ticks(y2lo, y2hi, 4):
            y = py2(t)
            out.append(
                f'<line x1="{ml+pw}" y1="{y:.1f}" x2="{ml+pw+5}" y2="{y:.1f}" stroke="#999"/>'
            )
            out.append(
                f'<text x="{ml+pw+8}" y="{y+4:.1f}" text-anchor="start" fill="#777">'
                f"{escape(_fmt_tick(t))}</text>"
            )
        if y2label:
            out.append(
                f'<text x="{WIDTH-14}" y="{mt+ph/2:.1f}" text-anchor="middle" fill="#777" '
                f'transform="rotate(90 {WIDTH-14} {mt+ph/2:.1f})">{escape(y2label)}</text>'
            )
    if xlabel:
        out.append(
            f'<text x="{ml+pw/2:.1f}" y="{HEIGHT-12}" text-anchor="middle">{escape(xlabel)}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="18" y="{mt+ph/2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 18 {mt+ph/2:.1f})">{escape(ylabel)}</text>'
        )
    color_i = 0
    legend_y = mt + 8
    for s in series:
        color = "#999999" if s.secondary else PALETTE[color_i % len(PALETTE)]
        if not s.secondary:
            color_i += 1
        pts = []
        for x, y in zip(s.xs, s.ys):
            if logx and x <= 0:
                continue
            yy = py2(y) if s.secondary else py(y)
            pts.append(f"{px(x):.2f},{yy:.2f}")
        dash = ' stroke-dasharray="4 3"' if s.dotted else ""
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} '
            f'points="{" ".join(pts)}"/>'
        )
        lx = ml + pw - 190
        out.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx+22}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="2"{dash}/>'
        )
        out.append(
            f'<text x="{lx+28}" y="{legend_y+4}" text-anchor="start">{escape(s.label)}</text>'
        )
        legend_y += 16
    out.append("</svg>")
    return "\n".join(out)


def cmd_report(
    run_dirs: Sequence[str],
    metric: str,
    x: str = "tokens_seen",
    logx: bool = False,
    lr_overlay: bool = True,
    out: str = "plot.svg",
    title: str = "",
) -> Tuple[str, str]:
    """Plot one metric across runs; writes the SVG and a merged CSV.

    Raises ReportError (and writes nothing) when the metric or x column is
    unknown or not numeric, or no run has data for the metric, and
    StoreError when a file cannot be written; a partial file never appears.
    """
    for col in (metric, x):
        if col not in CSV_COLUMNS:
            raise ReportError(f"unknown metrics column {col!r}")
        if col == "run_id":
            raise ReportError("run_id is not numeric: plot a numeric metrics column")
    series: List[Series] = []
    merged = ["run_id,%s,%s,lr" % (x, metric)]
    for run_dir in run_dirs:
        store = MetricsStore(os.path.join(run_dir, METRICS))
        by_run: Dict[str, List[Tuple[float, float, str]]] = {}
        for row in store.rows.values():
            if not row[metric] or not row[x]:
                continue
            by_run.setdefault(row["run_id"], []).append(
                (float(row[x]), float(row[metric]), row["lr"])
            )
        for run_id, pts in by_run.items():
            pts.sort(key=lambda p: p[0])
            series.append(Series(run_id[:12], [p[0] for p in pts], [p[1] for p in pts]))
            for p in pts:
                merged.append(f"{run_id},{p[0]:.9g},{p[1]:.9g},{p[2]}")
            if lr_overlay:
                lr_pts = [(p[0], float(p[2])) for p in pts if p[2]]
                if lr_pts:
                    series.append(
                        Series(f"lr {run_id[:8]}", [p[0] for p in lr_pts],
                               [p[1] for p in lr_pts], dotted=True, secondary=True)
                    )
    if not series:
        raise ReportError(f"no data for column {metric!r} in {list(run_dirs)}")
    svg = svg_plot(
        series, title=title or metric, xlabel=x, ylabel=metric,
        y2label="lr" if lr_overlay else "", logx=logx,
    )
    atomic_write(out, svg.encode("utf-8"))
    csv_path = os.path.splitext(out)[0] + ".csv"
    atomic_write(csv_path, ("\n".join(merged) + "\n").encode("utf-8"))
    return out, csv_path
