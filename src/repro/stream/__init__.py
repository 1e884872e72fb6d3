"""Disruption-tolerant streaming runtime (docs/streaming.md).

Real deployments do not see the clean, complete, chronologically
ordered flow tensor the offline pipeline trains on.  Ticks arrive late
or duplicated, sensors drop cells, whole intervals go missing, and the
underlying demand process drifts.  :mod:`repro.stream` turns the
serving stack into a runtime that survives all of that:

- :class:`StreamIngestor` — watermark reordering, duplicate/corrupt
  quarantine, gap declaration (:mod:`repro.stream.ingest`);
- :class:`DriftSentinel` — EMA + CUSUM separation of sustained drift
  from transient spikes (:mod:`repro.stream.drift`);
- :class:`StreamingHistoricalAverage` — the climatology rung of the
  graceful-degradation ladder (:mod:`repro.stream.degrade`);
- :class:`StreamRuntime` — the facade tying ingestion, rolling
  windows, drift monitoring, warm re-training, and the fallback ladder
  together around a :class:`~repro.serve.server.ForecastServer`
  (:mod:`repro.stream.runtime`);
- :mod:`repro.stream.simulate` — shared disruption scenarios for the
  CLI, the robustness benchmark, and the tests.
"""

from repro.stream.adapt import AdaptationConfig, AdaptationError, warm_retrain
from repro.stream.degrade import StreamingHistoricalAverage
from repro.stream.drift import DriftSentinel
from repro.stream.ingest import StreamIngestor
from repro.stream.runtime import StreamConfig, StreamRuntime
from repro.stream.ticks import QuarantineRecord, SocketTickSource, Tick

__all__ = [
    "AdaptationConfig",
    "AdaptationError",
    "DriftSentinel",
    "QuarantineRecord",
    "SocketTickSource",
    "StreamConfig",
    "StreamIngestor",
    "StreamRuntime",
    "StreamingHistoricalAverage",
    "Tick",
    "warm_retrain",
]
