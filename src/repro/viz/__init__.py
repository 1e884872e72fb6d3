"""Terminal visualization (no plotting libraries available offline)."""

from repro.viz.text import heatmap, sparkline

__all__ = ["sparkline", "heatmap"]
