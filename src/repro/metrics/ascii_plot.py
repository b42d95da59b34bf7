"""Terminal rendering of the paper's figures (no plotting dependency).

Renders step series (Figure 5's node counts) and x/y scatter-lines
(Figure 4's response-vs-nodes curve) as fixed-width character grids for
benchmark logs and EXPERIMENTS.md.  numpy is imported inside the
plotting functions, so importing this module does not load it.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["plot_series", "plot_xy"]


def _grid(width: int, height: int) -> list:
    return [[" "] * width for _ in range(height)]


def _render(grid: list, ylabels: Sequence[str], xlabel: str) -> str:
    label_w = max(len(l) for l in ylabels)
    lines = []
    for label, row in zip(ylabels, grid):
        lines.append(f"{label.rjust(label_w)} |{''.join(row)}")
    lines.append(" " * label_w + " +" + "-" * len(grid[0]))
    lines.append(" " * (label_w + 2) + xlabel)
    return "\n".join(lines)


def plot_series(times: Sequence[float], values: Sequence[float],
                width: int = 72, height: int = 14,
                title: Optional[str] = None,
                y_max: Optional[float] = None) -> str:
    """Render a right-continuous step series (e.g. node count vs time)."""
    import numpy as np
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size == 0:
        return (title or "") + "\n(empty series)"
    t0, t1 = float(times[0]), float(times[-1])
    if t1 <= t0:
        t1 = t0 + 1.0
    vmax = y_max if y_max is not None else max(float(values.max()), 1.0)
    grid = _grid(width, height)
    # Sample the step function at each column.
    sample_ts = np.linspace(t0, t1, width)
    idx = np.searchsorted(times, sample_ts, side="right") - 1
    idx = np.clip(idx, 0, len(values) - 1)
    sampled = values[idx]
    for col, v in enumerate(sampled):
        row = height - 1 - int(min(v, vmax) / vmax * (height - 1))
        grid[row][col] = "*"
    ylabels = []
    for r in range(height):
        frac = (height - 1 - r) / (height - 1)
        ylabels.append(f"{vmax * frac:.0f}" if r % 3 == 0 or r == height - 1
                       else "")
    body = _render(grid, ylabels, f"t = {t0:.0f}s ... {t1:.0f}s")
    return (title + "\n" + body) if title else body


def plot_xy(xs: Sequence[float], ys: Sequence[float], width: int = 72,
            height: int = 14, title: Optional[str] = None,
            hline: Optional[float] = None,
            logx: bool = False) -> str:
    """Render y-vs-x points joined column-wise (Figure 4 style), with an
    optional horizontal reference line (the cluster's response)."""
    import numpy as np
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size == 0:
        return (title or "") + "\n(no points)"
    fx = np.log10(xs) if logx else xs
    x0, x1 = float(fx.min()), float(fx.max())
    if x1 <= x0:
        x1 = x0 + 1.0
    y_all = list(ys) + ([hline] if hline is not None else [])
    vmax = max(y_all) * 1.05
    grid = _grid(width, height)
    if hline is not None:
        row = height - 1 - int(min(hline, vmax) / vmax * (height - 1))
        for col in range(width):
            grid[row][col] = "-"
    for x, y in zip(fx, ys):
        col = int((x - x0) / (x1 - x0) * (width - 1))
        row = height - 1 - int(min(y, vmax) / vmax * (height - 1))
        grid[row][col] = "o"
    ylabels = []
    for r in range(height):
        frac = (height - 1 - r) / (height - 1)
        ylabels.append(f"{vmax * frac:.0f}" if r % 3 == 0 or r == height - 1
                       else "")
    xlab = ("log10(nodes)" if logx else "nodes") + \
        f" = {xs.min():.0f} ... {xs.max():.0f}"
    body = _render(grid, ylabels, xlab)
    return (title + "\n" + body) if title else body
