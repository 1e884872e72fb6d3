"""Generic trainer for MUSE-Net and the baselines.

Every model follows the same protocol:

- ``training_loss(batch, rng) -> (LossBreakdown, outputs)`` where
  ``outputs.prediction`` is the scaled flow prediction, and
- ``predict(batch) -> ndarray`` of scaled predictions.

The trainer mirrors the paper's setup — Adam, batch size 8 — with
early stopping on validation RMSE and restoration of the best weights.

Fault tolerance (see ``docs/robustness.md``): a per-step divergence
sentinel guards against NaN/Inf losses and gradients and grad-norm
spikes (``TrainConfig.sentinel``), periodic checkpoints go to
``TrainConfig.checkpoint_dir`` with rotation and best-pinning, SIGINT/
SIGTERM finish the current step and write a resumable final snapshot,
and ``fit(resume_from=...)`` / ``TrainConfig.resume`` continue a run
from the newest valid checkpoint.
"""

from __future__ import annotations

import contextlib
import signal
import threading
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.data.pipeline import ForecastData
from repro.data.windows import SampleBatch, iterate_batches
from repro.metrics import evaluate_flows, rmse
from repro.optim import Adam, clip_grad_norm
from repro.profiling import OpProfiler, profile
from repro.tensor import Tensor, default_dtype, detect_anomaly, no_grad
from repro.training.checkpoint import CheckpointManager, find_latest_checkpoint, \
    load_checkpoint
from repro.training.history import History
from repro.training.sentinel import POLICIES, DivergenceSentinel

__all__ = ["TrainConfig", "Trainer"]

#: Global gradient-norm cap applied before every optimizer step.
CLIP_NORM = 5.0
#: Samples per forward when predicting for validation and evaluation.
EVAL_BATCH_SIZE = 64


def _cast_model(model, dtype):
    """Cast a module tree's floating state to ``dtype`` in place.

    Covers registered parameters, plain ndarray buffers (BatchNorm
    running statistics), constant tensors (graph adjacencies), and
    lists/tuples of constant tensors (Chebyshev operator stacks).
    """
    for module in model.modules():
        for attr, value in vars(module).items():
            if attr in ("_parameters", "_modules"):
                continue
            if isinstance(value, Tensor):
                if value.data.dtype.kind == "f" and value.data.dtype != dtype:
                    value.data = value.data.astype(dtype)
                    value.grad = None
            elif isinstance(value, np.ndarray):
                if value.dtype.kind == "f" and value.dtype != dtype:
                    setattr(module, attr, value.astype(dtype))
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if (isinstance(item, Tensor)
                            and item.data.dtype.kind == "f"
                            and item.data.dtype != dtype):
                        item.data = item.data.astype(dtype)
                        item.grad = None


@dataclass
class TrainConfig:
    """Trainer hyper-parameters (paper defaults where applicable)."""

    epochs: int = 20
    batch_size: int = 8
    lr: float = 2e-4  # the paper's Adam learning rate
    # Early stopping: stop after `patience` consecutive epochs without a
    # val-RMSE improvement; None disables (use patience >= 1).
    patience: int | None = None
    seed: int = 0
    verbose: bool = False
    profile_ops: bool = False  # collect a per-op profile during fit()
    # Compute precision: "float32", "float64", or None to keep whatever
    # the model/data already use.  float32 halves the tape footprint
    # and speeds up the hot path (see docs/performance.md).
    dtype: str | None = None
    # Divergence sentinel: per-step non-finite/spike guard applied
    # before each optimizer step.  One of "raise", "skip_batch",
    # "rollback", or None/"off" to disable; DivergenceSentinel owns the
    # thresholds and the rollback budget (docs/robustness.md).
    sentinel: str | None = "raise"
    # Pinpoint the op introducing a NaN/Inf by running the whole fit
    # under repro.tensor.detect_anomaly() (slow; debugging only).
    detect_anomaly: bool = False
    # Hard step budget for this fit: stop after this many steps
    # (applied or sentinel-dropped), even mid-epoch.  The warm-restart
    # path online adaptation uses (docs/streaming.md): a rolling
    # re-train must return in bounded time, not run `epochs` to the
    # end.  None (default) leaves the fit unbounded.
    max_steps: int | None = None
    # Periodic durable checkpoints: every `checkpoint_every` epochs into
    # `checkpoint_dir`, keeping CheckpointManager's newest three plus a
    # pinned best snapshot.  `resume=True` restarts fit() from the newest
    # valid checkpoint in `checkpoint_dir` (corrupt files skipped).
    checkpoint_dir: str | None = None
    checkpoint_every: int | None = None
    resume: bool = False
    # Data-parallel training: number of forked worker processes.  0
    # (default) keeps the single-process path; >= 1 routes every epoch
    # through repro.parallel's shared-memory worker pool (deterministic
    # sharding, flat gradient allreduce, prefetching batch ring — see
    # docs/performance.md).
    workers: int = 0
    # Graph-compiled stepping (repro.compile): record each batch
    # signature's step once, then replay a fused in-place kernel
    # schedule over the retained graph.  Bit-identical to eager by
    # construction (build + shadow validation gates, atol 0); falls
    # back to eager per signature whenever equivalence can't be proven.
    # Requires workers = 0; ignored (eager per step) while
    # detect_anomaly is active.  See docs/performance.md.
    compile: bool = False

    def __post_init__(self):
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0; got {self.workers}")
        if self.compile and self.workers >= 1:
            raise ValueError(
                "compile=True requires workers=0: the compiled step "
                "replays in-process, not in forked workers")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1; got {self.batch_size}")
        if self.sentinel in ("off", "none"):
            self.sentinel = None
        if self.sentinel is not None and self.sentinel not in POLICIES:
            raise ValueError(
                f"unknown sentinel policy {self.sentinel!r}; choose from "
                f"{POLICIES} or None")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1; got {self.max_steps}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1; got {self.checkpoint_every}")
        if self.checkpoint_every is not None and self.checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError(
                "resume=True requires checkpoint_dir to discover the "
                "newest checkpoint in")


class Trainer:
    """Fit a forecasting model on prepared :class:`ForecastData`."""

    def __init__(self, model, config: TrainConfig = None):
        self.model = model
        self.config = config if config is not None else TrainConfig()
        dtype = self.config.dtype
        self.dtype = None if dtype is None else np.dtype(dtype)
        if self.dtype is not None and self.dtype.kind != "f":
            raise ValueError(f"dtype must be floating; got {self.dtype}")
        if self.dtype is not None:
            _cast_model(model, self.dtype)
        # Build the optimizer *after* the cast so its state and scratch
        # buffers are allocated in the target dtype from step one.
        self.optimizer = Adam(model.parameters(), lr=self.config.lr)
        self._rng = np.random.default_rng(self.config.seed)
        self.history = None  # set by fit()
        self._interrupt_requested = False

    # ------------------------------------------------------------------
    # Rollback snapshots (in-memory, weights + optimizer slots)
    # ------------------------------------------------------------------
    def _take_snapshot(self):
        """Deep-copy the model weights and optimizer state."""
        return {
            "model": self.model.state_dict(),  # state_dict copies
            "opt_state": [
                {key: value.copy() if isinstance(value, np.ndarray) else value
                 for key, value in state.items()}
                for state in self.optimizer._state
            ],
            "step_count": self.optimizer._step_count,
        }

    def _restore_snapshot(self, snapshot):
        """Reinstall a :meth:`_take_snapshot` copy (keeps the current lr).

        The snapshot's slot arrays are installed as they are: the next
        optimizer step copies them into its arena and never writes
        them, so rolling back twice to the same snapshot restores the
        same state.
        """
        self.model.load_state_dict(snapshot["model"])
        self.optimizer._state = [dict(state)
                                 for state in snapshot["opt_state"]]
        self.optimizer._step_count = snapshot["step_count"]
        for param in self.optimizer.parameters:
            param.zero_grad()

    # ------------------------------------------------------------------
    # Graceful interruption
    # ------------------------------------------------------------------
    def _install_signal_handlers(self):
        """Trap SIGINT/SIGTERM (main thread only); returns the old handlers."""
        if threading.current_thread() is not threading.main_thread():
            return []

        def request_interrupt(signum, frame):
            if self._interrupt_requested:
                # Second signal: the user really means it.
                raise KeyboardInterrupt
            self._interrupt_requested = True

        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                installed.append((signum, signal.signal(signum,
                                                        request_interrupt)))
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
        return installed

    # ------------------------------------------------------------------
    def fit(self, data: ForecastData, resume_from=None):
        """Train with early stopping; restores the best-val weights.

        Telemetry (per-epoch wall time, batches/sec) is always recorded
        on the returned :class:`History`; with
        ``TrainConfig.profile_ops`` the fit additionally runs under
        :func:`repro.profiling.profile` and attaches the per-op
        timing/tape snapshot as ``history.op_profile``.

        ``resume_from`` restores a checkpoint (path, or implicitly the
        newest valid archive in ``config.checkpoint_dir`` when
        ``config.resume`` is set) before training continues from the
        epoch after the snapshot.  On SIGINT/SIGTERM the current step
        finishes, a final checkpoint is written (when a checkpoint
        directory is configured), ``history.interrupted`` is set, and
        fit returns with the *current* (not best) weights so the
        in-memory model matches the resumable snapshot.
        """
        config = self.config
        history = History()
        start_epoch = 0
        if resume_from is None and config.resume:
            resume_from = find_latest_checkpoint(config.checkpoint_dir)
        if resume_from is not None:
            restored, ckpt_epoch = load_checkpoint(resume_from, self.model,
                                                   self.optimizer)
            if restored is not None:
                history = restored
                history.interrupted = False  # this attempt starts clean
                start_epoch = history.epochs_run
            elif ckpt_epoch is not None:
                start_epoch = ckpt_epoch + 1
        self.history = history
        best_state = None
        bad_epochs = 0
        profiler = OpProfiler() if config.profile_ops else None
        sentinel = None
        if config.sentinel is not None:
            sentinel = DivergenceSentinel(policy=config.sentinel)
        manager = None
        if config.checkpoint_dir is not None:
            manager = CheckpointManager(config.checkpoint_dir)
        parameters = self.optimizer.parameters
        global_step = self.optimizer._step_count
        snapshot = None
        engine = None
        compiler = None
        if config.compile:
            from repro.compile import StepCompiler

            compiler = StepCompiler(self.model, self.optimizer, self._rng)
        self._interrupt_requested = False
        old_handlers = self._install_signal_handlers()

        try:
            with contextlib.ExitStack() as stack:
                if self.dtype is not None:
                    # Scope the precision policy to the fit: python scalars
                    # and fresh arrays created inside the loop follow the
                    # training dtype, and the splits are cast once up front.
                    stack.enter_context(default_dtype(self.dtype))
                    data = data.astype(self.dtype)
                if profiler is not None:
                    stack.enter_context(profile(profiler))
                if config.detect_anomaly:
                    stack.enter_context(detect_anomaly())
                if config.workers:
                    # Fork the pool *after* the dtype cast and any resume
                    # restore so the replicas inherit the final weights;
                    # the ExitStack drains the workers on every exit path.
                    from repro.parallel import ParallelEngine

                    engine = stack.enter_context(ParallelEngine(
                        self.model, self.optimizer, data.train,
                        config.batch_size, config.workers, seed=config.seed,
                        detect_anomaly=config.detect_anomaly))
                steps_this_fit = 0
                budget_exhausted = False
                for epoch in range(start_epoch, config.epochs):
                    self.model.train()
                    if sentinel is not None and sentinel.policy == "rollback":
                        snapshot = self._take_snapshot()
                    epoch_start = perf_counter()
                    num_batches = 0
                    epoch_losses = []
                    epoch_regs = []
                    mid_epoch_stop = False
                    if engine is None:
                        steps = self._serial_steps(data, config, profiler,
                                                   compiler)
                    else:
                        # Same rng draw as iterate_batches: one shuffle
                        # per epoch, so the global sample order matches
                        # the single-process path at any worker count.
                        order = np.arange(len(data.train))
                        self._rng.shuffle(order)
                        steps = engine.epoch_steps(order, epoch)
                    try:
                        for loss_value, reg_value in steps:
                            step_done = self._fit_step_tail(
                                loss_value, reg_value, sentinel, snapshot,
                                parameters, global_step, epoch,
                                epoch_losses, epoch_regs)
                            global_step += 1
                            steps_this_fit += 1
                            if step_done:
                                num_batches += 1
                            if (config.max_steps is not None
                                    and steps_this_fit >= config.max_steps):
                                budget_exhausted = True
                                mid_epoch_stop = True
                                break
                            if self._interrupt_requested:
                                mid_epoch_stop = True
                                break
                    finally:
                        # Breaking mid-epoch must stop the prefetch
                        # producer / serial generator deterministically.
                        steps.close()

                    if mid_epoch_stop:
                        # Don't record a partial epoch; the resumable
                        # state is "epochs_run epochs completed".
                        break
                    train_seconds = perf_counter() - epoch_start
                    val_rmse = self._validation_rmse(data)
                    epoch_seconds = perf_counter() - epoch_start
                    history.record_telemetry(
                        epoch_seconds, num_batches / max(train_seconds, 1e-9))
                    improved = history.record(
                        float(np.mean(epoch_losses)) if epoch_losses
                        else float("nan"),
                        float(np.mean(epoch_regs)) if epoch_regs
                        else float("nan"),
                        val_rmse,
                    )
                    if improved:
                        best_state = self.model.state_dict()
                        bad_epochs = 0
                    else:
                        bad_epochs += 1
                    if config.verbose:
                        print(
                            f"epoch {epoch + 1}/{config.epochs} "
                            f"loss {history.train_loss[-1]:.4f} "
                            f"reg {history.train_reg[-1]:.4f} val-rmse {val_rmse:.4f} "
                            f"[{epoch_seconds:.2f}s, "
                            f"{history.batches_per_sec[-1]:.1f} batches/s]"
                        )
                    if (manager is not None and config.checkpoint_every
                            and (epoch + 1) % config.checkpoint_every == 0):
                        if sentinel is not None:
                            history.sentinel = sentinel.snapshot()
                        manager.save(self.model, self.optimizer,
                                     history=history, epoch=epoch,
                                     is_best=history.best_epoch == epoch)
                    if config.patience is not None and bad_epochs >= config.patience:
                        history.stopped_early = True
                        break
                    if self._interrupt_requested:
                        break
        finally:
            for signum, old in old_handlers:
                signal.signal(signum, old)

        history.budget_exhausted = budget_exhausted
        if sentinel is not None:
            history.sentinel = sentinel.snapshot()
        if engine is not None:
            history.parallel = engine.snapshot()
        if compiler is not None:
            history.compiled = compiler.snapshot()
        if profiler is not None:
            history.op_profile = profiler.snapshot()
            history.peak_tape_bytes = profiler.peak_tape_bytes
        if self._interrupt_requested:
            history.interrupted = True
            if manager is not None:
                # Final resumable snapshot with the *current* weights.
                manager.save(self.model, self.optimizer, history=history,
                             tag="final")
        elif best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        return history

    def _serial_steps(self, data, config, profiler, compiler=None):
        """Single-process step source: yields ``(loss, reg)`` per batch.

        Each yield happens after ``backward()``, with the batch
        gradients deposited on the parameters — the same post-state the
        parallel engine presents after its allreduce, so the fit loop's
        sentinel/clip/step tail is shared between the two paths.  With
        ``compiler`` set, each step routes through
        :meth:`repro.compile.StepCompiler.step`, which preserves that
        exact post-state (bit-identical, validated) while replaying a
        compiled plan whenever one is trusted for the batch signature.
        """
        for batch in iterate_batches(data.train, config.batch_size,
                                     rng=self._rng):
            if compiler is not None:
                yield compiler.step(batch)
                continue
            self.optimizer.zero_grad()
            if profiler is not None:
                profiler.mark()  # don't attribute batch prep to op 1
            breakdown, _outputs = self.model.training_loss(
                batch, rng=self._rng)
            breakdown.total.backward()
            yield breakdown.total.item(), breakdown.reg.item()

    def _fit_step_tail(self, loss_value, reg_value, sentinel, snapshot,
                       parameters, global_step, epoch, epoch_losses,
                       epoch_regs):
        """Sentinel → clip → optimizer step, once gradients are in place.

        Returns ``True`` when the update was applied (and the losses
        recorded), ``False`` when the sentinel dropped the batch.
        """
        if sentinel is not None:
            event = sentinel.check(loss_value, parameters, global_step,
                                   epoch)
            if event is not None:
                self._handle_divergence(sentinel, event, snapshot)
                return False
        # Reuse the sentinel's norm (bit-identical ordered vdot sum)
        # instead of recomputing.
        clip_grad_norm(parameters, CLIP_NORM,
                       norm=None if sentinel is None else sentinel.last_norm)
        self.optimizer.step()
        epoch_losses.append(loss_value)
        epoch_regs.append(reg_value)
        return True

    def _handle_divergence(self, sentinel, event, snapshot):
        """Apply the sentinel's policy to a flagged step."""
        if sentinel.policy == "raise":
            sentinel.raise_(event)
        if sentinel.policy == "rollback":
            sentinel.note_rollback()  # raises past the budget
            if snapshot is not None:
                self._restore_snapshot(snapshot)
            self.optimizer.lr *= sentinel.lr_backoff
            # Restored weights + backed-off lr shift the grad-norm
            # distribution; the old EMA baseline no longer applies.
            sentinel.rearm()
        if self.config.verbose:
            print(f"sentinel[{sentinel.policy}] step {event.step}: "
                  f"{event.kind} — {event.detail}")

    # ------------------------------------------------------------------
    def predict_scaled(self, batch: SampleBatch):
        """Model predictions in scaled ([-1, 1]) space, chunked.

        The whole chunk loop runs under :func:`~repro.tensor.no_grad`:
        models whose ``predict`` doesn't guard itself (some baselines)
        would otherwise record — and leak — an autodiff tape for every
        evaluation batch.  Chunks are contiguous zero-copy views
        (:meth:`SampleBatch.slice`), not fancy-index copies.
        """
        self.model.eval()
        if self.dtype is not None and batch.target.dtype != self.dtype:
            batch = batch.astype(self.dtype)
        if len(batch) == 0:
            # np.concatenate rejects an empty piece list; predictions
            # share the target's per-sample shape, so the empty answer
            # is well-defined without calling the model.
            return np.empty((0,) + batch.target.shape[1:],
                            dtype=batch.target.dtype)
        pieces = []
        size = EVAL_BATCH_SIZE
        with no_grad():
            for start in range(0, len(batch), size):
                pieces.append(self.model.predict(batch.slice(start, start + size)))
        return np.concatenate(pieces, axis=0)

    def predict_flows(self, data: ForecastData, batch: SampleBatch):
        """Predictions mapped back to flow units."""
        return data.inverse(self.predict_scaled(batch))

    def _validation_rmse(self, data: ForecastData):
        prediction = self.predict_flows(data, data.val)
        truth = data.inverse(data.val.target)
        return rmse(prediction, truth)

    def evaluate(self, data: ForecastData, batch: SampleBatch = None, sample_mask=None):
        """Full :class:`~repro.metrics.EvalReport` on a split (default test)."""
        batch = batch if batch is not None else data.test
        prediction = self.predict_flows(data, batch)
        truth = data.inverse(batch.target)
        return evaluate_flows(prediction, truth, sample_mask=sample_mask)
