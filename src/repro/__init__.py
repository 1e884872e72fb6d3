"""MUSE-Net reproduction library.

Reproduces *MUSE-Net: Disentangling Multi-Periodicity for Traffic Flow
Forecasting* (ICDE 2024) on a from-scratch numpy substrate:

- :mod:`repro.tensor` — reverse-mode autodiff engine.
- :mod:`repro.nn` / :mod:`repro.optim` — layers and the Adam optimizer.
- :mod:`repro.data` — grid-city traffic simulator and dataset pipeline.
- :mod:`repro.core` — the MUSE-Net model and its training objective.
- :mod:`repro.baselines` — the 11 comparison methods from the paper.
- :mod:`repro.metrics` / :mod:`repro.analysis` — evaluation and the
  paper's interpretability analyses.
- :mod:`repro.profiling` — op profiler and tape-memory accounting for
  the autodiff runtime.
- :mod:`repro.experiments` — one runner per paper table/figure.
"""

__version__ = "1.0.0"
