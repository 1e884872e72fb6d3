"""Low-latency forecast serving (see ``docs/serving.md``).

The north-star workload is millions of users querying forecasts, not
offline training.  This package serves that traffic:

- :class:`~repro.serve.server.ForecastServer` — the facade: submit
  requests, stream ticks, hot-swap checkpoints, read latency stats;
- :class:`~repro.serve.batcher.MicroBatcher` — dynamic micro-batching
  of concurrent requests into one tape-free forward;
- :class:`~repro.serve.pool.ReplicaPool` — forked replicas over one
  shared flat parameter buffer with generation-counted hot swap;
- :class:`~repro.serve.cache.WindowCache` — incremental rolling
  closeness/period/trend window assembly, bit-identical to
  ``build_samples``;
- :class:`~repro.serve.stats.LatencyStats` — p50/p99 latency, queue
  wait, throughput, and batching-shape telemetry (bounded reservoirs);
- :class:`~repro.serve.results.ForecastCache` — generation-aware
  memoization of completed streaming forecasts with single-flight
  deduplication (N concurrent same-tick requests, one forward);
- :class:`~repro.serve.frontend.SocketFrontend` /
  :class:`~repro.serve.frontend.ForecastClient` — asyncio TCP/Unix
  socket front-end speaking the length-prefixed JSON protocol of
  :mod:`repro.serve.wire`, with a blocking client;
- :class:`~repro.serve.autoscale.AutoScaler` — load-adaptive replica
  scaling between configured bounds, with hysteresis and cooldown.
"""

from repro.serve.autoscale import AutoScaler
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import WindowCache
from repro.serve.frontend import ForecastClient, SocketFrontend
from repro.serve.pool import ReplicaPool
from repro.serve.results import ForecastCache
from repro.serve.server import ForecastServer, ServeConfig
from repro.serve.stats import LatencyStats

__all__ = [
    "ForecastServer", "ServeConfig", "MicroBatcher", "WindowCache",
    "ReplicaPool", "LatencyStats", "ForecastCache", "SocketFrontend",
    "ForecastClient", "AutoScaler",
]
