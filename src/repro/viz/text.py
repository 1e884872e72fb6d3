"""Text-based charts for terminals.

The offline environment has no plotting stack, so the figure runners
and examples render their series and grids as Unicode charts: compact
sparklines and shaded heatmaps.  Pure functions over numpy arrays;
both return strings.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sparkline", "heatmap"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"
_SHADE_LEVELS = " ░▒▓█"


def _normalize(values, low=None, high=None):
    values = np.asarray(values, dtype=float)
    low = float(np.nanmin(values)) if low is None else low
    high = float(np.nanmax(values)) if high is None else high
    if high == low:
        return np.zeros_like(values)
    return np.clip((values - low) / (high - low), 0.0, 1.0)


def sparkline(values, low=None, high=None):
    """One-line bar chart: ``sparkline([1,5,3]) == '▁█▄'``.

    ``low``/``high`` pin the scale (useful when aligning several
    sparklines); NaNs render as spaces.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return ""
    unit = _normalize(values, low, high)
    chars = []
    for value, u in zip(values, unit):
        if np.isnan(value):
            chars.append(" ")
        else:
            chars.append(_SPARK_LEVELS[int(round(u * (len(_SPARK_LEVELS) - 1)))])
    return "".join(chars)


def heatmap(matrix, low=None, high=None, row_labels=None):
    """Shaded-block rendering of a 2-D array.

    Intensity maps to ``' ░▒▓█'``; pass ``low``/``high`` to pin the
    scale across several heatmaps.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    unit = _normalize(matrix, low, high)
    lines = []
    for r, row in enumerate(unit):
        cells = "".join(
            _SHADE_LEVELS[int(round(u * (len(_SHADE_LEVELS) - 1)))] * 2 for u in row
        )
        label = f"{row_labels[r]:>8} " if row_labels is not None else ""
        lines.append(label + cells)
    return "\n".join(lines)
