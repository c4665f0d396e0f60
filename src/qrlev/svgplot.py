"""
Minimal self-contained SVG emitter for the figure experiments.

Each panel is a log-scale scatter of a per-index column with an
optional bound column drawn as a curve above it. No external assets,
no plotting library: the output is a single valid XML document. NaN
entries are undefined and not drawn. Values of zero (or below the
floor) and -inf are clipped to the plot floor, since a log axis cannot
display them; +inf is drawn at the top of the log range, a decade
above the largest finite value.
"""

import math
from dataclasses import dataclass

import numpy as np

# Log-scale clipping floor for nonpositive or underflowing values.
PLOT_FLOOR = 1e-16

PANEL_W = 300
PANEL_H = 220
MARGIN_L = 48
MARGIN_R = 12
MARGIN_T = 28
MARGIN_B = 30
PANELS_PER_ROW = 3


@dataclass
class Panel:
    """
    One scatter panel of per-index columns: values[j] is drawn at index
    j, and the bound curve joins the defined bound[j] in index order.
    NaN entries are not drawn. bound None marks a leverage-score panel,
    drawn as green points with no curve; a panel with a bound column
    draws blue points under it, even when every bound entry is NaN.
    """

    title: str
    values: np.ndarray
    bound: np.ndarray | None = None


def _defined(column):
    """Indices and values of the defined (non-NaN) entries; None has none."""
    column = np.asarray([] if column is None else column, dtype=float)
    defined = ~np.isnan(column)
    return np.flatnonzero(defined), column[defined]


def _clip(values):
    """Values below PLOT_FLOOR or not finite are clipped to the floor."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isfinite(values) & (values >= PLOT_FLOOR), values, PLOT_FLOOR)


def _log10(values, top):
    """log10 of the clipped values, with +inf at top."""
    # math.log10, not np.log10: the two differ in the last bit on about
    # 7% of random inputs, and one bit can move a pixel's .2f text.
    values = np.asarray(values, dtype=float)
    logs = np.array(list(map(math.log10, _clip(values).tolist())), dtype=float)
    return np.where(values == np.inf, top, logs)


def _log_range(columns):
    raw = [values for _, values in columns if values.size]
    if not raw:
        return -1.0, 1.0
    clipped = [_clip(c) for c in raw]
    lo = math.floor(math.log10(min(c.min() for c in clipped)))
    hi = math.ceil(math.log10(max(c.max() for c in clipped)))
    if lo == hi:
        lo -= 1
        hi += 1
    # One more decade keeps +inf, drawn at hi, apart from the finite values.
    if any(np.isposinf(c).any() for c in raw):
        hi += 1
    return float(lo), float(hi)


def _x_range(columns):
    ends = [int(index.max()) for index, _ in columns if index.size]
    return 0.0, float(max([1, *ends]))


def render(panels, title=""):
    """Render panels into one SVG document (returned as a string)."""
    n_panels = max(len(panels), 1)
    cols = min(PANELS_PER_ROW, n_panels)
    rows = (n_panels + cols - 1) // cols
    width = cols * PANEL_W
    height = rows * PANEL_H + (16 if title else 0)

    # Each panel's points and curve, as (index, values) of its defined entries.
    selected = [(_defined(p.values), _defined(p.bound)) for p in panels]
    columns = [column for pair in selected for column in pair]
    ylo, yhi = _log_range(columns)
    xlo, xhi = _x_range(columns)

    plot_w = PANEL_W - MARGIN_L - MARGIN_R
    plot_h = PANEL_H - MARGIN_T - MARGIN_B

    def x_pix(index):
        return MARGIN_L + (index - xlo) / max(xhi - xlo, 1.0) * plot_w

    def y_pix(values):
        return MARGIN_T + (yhi - _log10(values, yhi)) / (yhi - ylo) * plot_h

    def pixels(index, values):
        return zip(x_pix(index).tolist(), y_pix(values).tolist())

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    out.append(
        "<style>"
        ".pt-rel{fill:#1f4fd6;stroke:none}"
        ".pt-lev{fill:#1f8f3a;stroke:none}"
        ".bound{fill:none;stroke:#d62717;stroke-width:1.2}"
        ".axis{stroke:#222;stroke-width:1;fill:none}"
        ".grid{stroke:#ccc;stroke-width:0.5}"
        "text{font-family:sans-serif;font-size:9px;fill:#222}"
        ".ptitle{font-size:11px}"
        "</style>"
    )
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    if title:
        out.append(f'<text x="6" y="12" class="ptitle">{_escape(title)}</text>')

    # Every panel shares the y range and so the same decade grid.
    decade = int(yhi - ylo) // 8 + 1
    levels = range(int(ylo), int(yhi) + 1, decade)
    grid = []
    for level, yp in zip(levels, y_pix([10.0**level for level in levels]).tolist()):
        grid.append(
            f'<line x1="{MARGIN_L}" y1="{yp:.2f}" '
            f'x2="{MARGIN_L + plot_w}" y2="{yp:.2f}" class="grid"/>'
        )
        grid.append(f'<text x="2" y="{yp + 3:.2f}">1e{level}</text>')

    y_off0 = 16 if title else 0
    for idx, (panel, (points, curve)) in enumerate(zip(panels, selected)):
        gx = (idx % cols) * PANEL_W
        gy = (idx // cols) * PANEL_H + y_off0
        out.append(f'<g transform="translate({gx},{gy})">')
        out.append(
            f'<text x="{MARGIN_L}" y="{MARGIN_T - 10}" class="ptitle">'
            f"{_escape(panel.title)}</text>"
        )
        out.append(
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
            f'height="{plot_h}" class="axis"/>'
        )
        out.extend(grid)
        out.append(
            f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{PANEL_H - 8}">index j</text>'
        )
        cls = "pt-lev" if panel.bound is None else "pt-rel"
        out.extend(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.4" class="{cls}"/>'
            for x, y in pixels(*points)
        )
        if curve[0].size:
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in pixels(*curve))
            out.append(f'<polyline points="{pts}" class="bound"/>')
        out.append("</g>")

    out.append("</svg>")
    return "\n".join(out)


def _escape(text):
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
