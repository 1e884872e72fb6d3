"""Training history record."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["History"]


@dataclass
class History:
    """Per-epoch curves and run telemetry collected by the trainer.

    Besides the loss/validation curves, the trainer records wall-clock
    telemetry: ``epoch_time`` (seconds per epoch, including validation)
    and ``batches_per_sec`` (training-section throughput).  When op
    profiling is enabled (``TrainConfig.profile_ops``), ``op_profile``
    holds the :meth:`repro.profiling.OpProfiler.snapshot` for the
    whole fit and ``peak_tape_bytes`` the tape's high-water mark.

    Robustness bookkeeping: ``interrupted`` is set when a fit was
    stopped by SIGINT/SIGTERM (the run is resumable from its final
    checkpoint), and ``sentinel`` holds the divergence sentinel's
    ``snapshot()`` — policy, thresholds, and the anomalous steps it
    acted on (see :mod:`repro.training.sentinel`).
    """

    train_loss: list = field(default_factory=list)
    train_reg: list = field(default_factory=list)
    val_rmse: list = field(default_factory=list)
    epoch_time: list = field(default_factory=list)
    batches_per_sec: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_rmse: float = float("inf")
    stopped_early: bool = False
    interrupted: bool = False
    # Set when TrainConfig.max_steps ended the fit mid-run: the step
    # budget, not convergence or early stopping, decided the stop
    # (bounded warm re-training, docs/streaming.md).
    budget_exhausted: bool = False
    peak_tape_bytes: int = 0
    op_profile: dict = None
    sentinel: dict = None
    # Data-parallel run telemetry (ParallelEngine.snapshot()): worker
    # count, allreduce time, prefetch stalls, per-worker BLAS pinning.
    parallel: dict = None
    # Graph-compiled stepping report (StepCompiler.snapshot()): plans
    # built/validated, compiled vs eager step counts, the bytes a plan
    # keeps and their reuse, kernels and fused chains, and any
    # fallback reasons.  None unless TrainConfig.compile is set.
    compiled: dict = None

    @property
    def epochs_run(self):
        """Number of completed epochs."""
        return len(self.train_loss)

    def record(self, train_loss, train_reg, val_rmse):
        """Append one epoch; returns True when this is a new best."""
        self.train_loss.append(train_loss)
        self.train_reg.append(train_reg)
        self.val_rmse.append(val_rmse)
        if val_rmse < self.best_val_rmse:
            self.best_val_rmse = val_rmse
            self.best_epoch = len(self.val_rmse) - 1
            return True
        return False

    def record_telemetry(self, epoch_seconds, batches_per_sec):
        """Append one epoch's wall-clock telemetry."""
        self.epoch_time.append(float(epoch_seconds))
        self.batches_per_sec.append(float(batches_per_sec))

    @property
    def total_time(self):
        """Total training wall time in seconds."""
        return float(sum(self.epoch_time))

    def telemetry_summary(self):
        """One-line human-readable run telemetry."""
        if not self.epoch_time:
            return "telemetry: none recorded"
        mean_bps = sum(self.batches_per_sec) / len(self.batches_per_sec)
        line = (f"telemetry: {self.epochs_run} epochs in {self.total_time:.2f}s "
                f"(mean {mean_bps:.1f} batches/s")
        if self.peak_tape_bytes:
            line += f", peak tape {self.peak_tape_bytes / 2**20:.2f} MiB"
        if self.parallel:
            line += f", {self.parallel.get('workers', '?')} workers"
        if self.compiled and self.compiled.get("compiled_steps"):
            line += f", {self.compiled['compiled_steps']} compiled steps"
        line += ")"
        if self.stopped_early:
            line += " [stopped early]"
        if self.interrupted:
            line += " [interrupted]"
        if self.sentinel and self.sentinel.get("events"):
            line += f" [{len(self.sentinel['events'])} sentinel event(s)]"
        return line
