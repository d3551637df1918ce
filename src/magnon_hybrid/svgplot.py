"""Minimal deterministic SVG charts.

Self-contained line/scatter plots with an optional heat background, written
without any rendering dependency so that identical inputs always give
byte-identical files (the output is hashed into run reports).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 28.0, 44.0
_WIDTH, _HEIGHT = 880, 560


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(target, 2)
    mag = 10.0 ** np.floor(np.log10(raw))
    # the 1e-9 slacks keep the step and the first tick from flipping when an
    # axis span or end that sits on a tick boundary moves by its last bit
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag * (1.0 + 1e-9):
            step = mult * mag
            break
    first = np.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else float(t))
        t += step
    return ticks


@dataclass
class Series:
    """One plotted curve or point set."""

    x: np.ndarray
    y: np.ndarray
    label: str = ""
    color: str | None = None
    marker: bool = False
    dash: str | None = None
    css_class: str = "series"


@dataclass
class HeatBackground:
    """Downsampled grid rendered as grayscale cells behind the series."""

    x: np.ndarray          # cell centers along x
    y: np.ndarray          # cell centers along y
    values: np.ndarray     # (len(y), len(x))


def _downsample(bg: HeatBackground):
    ny, nx = bg.values.shape
    tx, ty = 120, 90      # most cells drawn; a larger grid is block-averaged
    sx = max(1, int(np.ceil(nx / tx)))
    sy = max(1, int(np.ceil(ny / ty)))
    nxo, nyo = nx // sx, ny // sy
    # scaled into [-1, 1] by a power of two, exact for normal floats, so that
    # neither a block mean nor the value range can overflow
    top = float(np.nanmax(np.abs(bg.values)))
    exp = int(np.frexp(top)[1]) if np.isfinite(top) else 0
    v = np.ldexp(bg.values[:nyo * sy, :nxo * sx], -exp).reshape(nyo, sy, nxo, sx).mean(axis=(1, 3))
    x = bg.x[:nxo * sx].reshape(nxo, sx).mean(axis=1)
    y = bg.y[:nyo * sy].reshape(nyo, sy).mean(axis=1)
    return x, y, v


def render_chart(*, series: list[Series], x_label: str, y_label: str,
                 title: str = "", background: HeatBackground | None = None) -> str:
    """Render series (and optional heat background) to an SVG string."""
    xs = [np.asarray(s.x, dtype=float) for s in series]
    ys = [np.asarray(s.y, dtype=float) for s in series]
    finite_x = np.concatenate([x[np.isfinite(x)] for x in xs]) if xs else np.array([0.0])
    finite_y = np.concatenate([y[np.isfinite(y)] for y in ys]) if ys else np.array([0.0])
    if background is not None:
        finite_x = np.append(finite_x, [background.x.min(), background.x.max()])
        finite_y = np.append(finite_y, [background.y.min(), background.y.max()])
    if finite_x.size == 0 or finite_y.size == 0:
        finite_x, finite_y = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    x_lo, x_hi = float(finite_x.min()), float(finite_x.max())
    y_lo, y_hi = float(finite_y.min()), float(finite_y.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 0.5
    y_lo, y_hi = y_lo - pad, y_hi + pad

    pw = _WIDTH - _MARGIN_L - _MARGIN_R
    ph = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        out.append(f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="13">{title}</text>')

    if background is not None:
        bx, by, bv = _downsample(background)
        vmin, vmax = float(np.nanmin(bv)), float(np.nanmax(bv))
        span = (vmax - vmin) or 1.0
        cw = pw / bx.size
        ch = ph / by.size
        cells = ['<g shape-rendering="crispEdges">']
        for r in range(by.size):
            for c in range(bx.size):
                level = (bv[r, c] - vmin) / span
                shade = int(round(250 - 170 * level))
                cells.append(
                    f'<rect x="{px(bx[c]) - cw / 2:.2f}" y="{py(by[r]) - ch / 2:.2f}" '
                    f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" '
                    f'fill="rgb({shade},{shade},{shade})"/>')
        cells.append("</g>")
        out.extend(cells)

    # axes box and ticks
    out.append(f'<rect x="{_MARGIN_L:.1f}" y="{_MARGIN_T:.1f}" width="{pw:.1f}" '
               f'height="{ph:.1f}" fill="none" stroke="#333333"/>')
    for t in _nice_ticks(x_lo, x_hi):
        out.append(f'<line x1="{px(t):.2f}" y1="{_MARGIN_T + ph:.1f}" x2="{px(t):.2f}" '
                   f'y2="{_MARGIN_T + ph + 5:.1f}" stroke="#333333"/>')
        out.append(f'<text x="{px(t):.2f}" y="{_MARGIN_T + ph + 18:.1f}" '
                   f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                   f'{_fmt(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        out.append(f'<line x1="{_MARGIN_L - 5:.1f}" y1="{py(t):.2f}" x2="{_MARGIN_L:.1f}" '
                   f'y2="{py(t):.2f}" stroke="#333333"/>')
        out.append(f'<text x="{_MARGIN_L - 8:.1f}" y="{py(t) + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    out.append(f'<text x="{_MARGIN_L + pw / 2:.1f}" y="{_HEIGHT - 8:.1f}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="12">{x_label}</text>')
    out.append(f'<text x="14" y="{_MARGIN_T + ph / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 14 {_MARGIN_T + ph / 2:.1f})">{y_label}</text>')

    for k, s in enumerate(series):
        color = s.color or _PALETTE[k % len(_PALETTE)]
        x = np.asarray(s.x, dtype=float)
        y = np.asarray(s.y, dtype=float)
        ok = np.isfinite(x) & np.isfinite(y)
        if s.marker:
            pts = [f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="2.4" fill="{color}"/>'
                   for a, b in zip(x[ok], y[ok])]
            out.append(f'<g class="{s.css_class}">' + "".join(pts) + "</g>")
        else:
            dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
            # NaN samples split the curve into separate polylines
            runs, cur = [], []
            for a, b, good in zip(x, y, ok):
                if good:
                    cur.append((a, b))
                elif cur:
                    runs.append(cur)
                    cur = []
            if cur:
                runs.append(cur)
            for run in runs:
                coords = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in run)
                out.append(f'<polyline class="{s.css_class}" points="{coords}" '
                           f'fill="none" stroke="{color}" stroke-width="1.6"{dash}/>')
        if s.label:
            ly = _MARGIN_T + 14 + 14 * k
            out.append(f'<line x1="{_MARGIN_L + pw - 110:.1f}" y1="{ly - 4:.1f}" '
                       f'x2="{_MARGIN_L + pw - 92:.1f}" y2="{ly - 4:.1f}" '
                       f'stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{_MARGIN_L + pw - 88:.1f}" y="{ly:.1f}" '
                       f'font-family="sans-serif" font-size="11">{s.label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
