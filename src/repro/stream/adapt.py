"""Warm rolling re-training for confirmed drift.

A confirmed drift means the serving weights describe a world that no
longer exists.  The fix is *bounded*: re-fit on the rolling raw-frame
history, seeded from the serving weights (warm restart — most of the
model is still right, only the shifted statistics need to move), under
a hard :attr:`~repro.training.trainer.TrainConfig.max_steps` budget so
the stream is never blocked on an open-ended fit.

The candidate trains on a *copy* built by ``model_factory`` — the
serving model keeps answering (from the fallback ladder) for the whole
retrain.  Before any swap, the candidate must clear a validation gate:
its RMSE on the held-out tail of the rolling window must not be worse
than :data:`GATE_FACTOR` times the serving model's on the same tail.  A
failed gate, a diverged fit (the trainer's sentinel runs in ``raise``
mode), or a checkpoint/swap error all raise :class:`AdaptationError`;
the caller degrades gracefully instead of installing a bad model.

The scaler is widened (:meth:`repro.data.scaler.MinMaxScaler.update`)
with the rolling window *before* building samples, so a post-shift
regime is not clipped against the tanh head's asymptotes.  Bounds only
ever widen — the serving model's inputs stay valid mid-flight.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.data.pipeline import ForecastData
from repro.data.windows import build_samples
from repro.metrics import rmse
from repro.tensor import no_grad
from repro.training.checkpoint import save_checkpoint
from repro.training.trainer import TrainConfig, Trainer

__all__ = ["AdaptationConfig", "AdaptationError", "warm_retrain"]


class AdaptationError(RuntimeError):
    """Warm re-training failed; the serving model must not be swapped."""


#: Nominal epochs of a retrain (the step budget cuts them off).
EPOCHS = 50
BATCH_SIZE = 8
#: Held-out share of the rolling window.
VAL_FRACTION = 0.25
#: Drift-to-retrain delay: the runtime retrains while applying the
#: FRESH_TICKS-th tick, counting the one that confirmed the drift, so
#: the rolling window actually contains new-regime samples to fit on
#: (the fallback ladder answers in the meantime).
FRESH_TICKS = 12
#: Recency oversampling: the newest RECENT_SPAN training targets are
#: repeated ``recent_boost`` times, so a dozen fresh post-shift samples
#: are not drowned out by a hundred stale ones.
RECENT_SPAN = 16
#: Swap gate: candidate val RMSE must be <= GATE_FACTOR x the serving
#: model's val RMSE.  > 1 tolerates a little noise — the point is
#: rejecting candidates that are *worse*, not demanding improvement a
#: 60-step budget may not deliver.
GATE_FACTOR = 1.05


@dataclass
class AdaptationConfig:
    """Knobs of the bounded warm-restart fit (docs/streaming.md)."""

    step_budget: int = 60     # hard cap on optimizer steps per retrain
    lr: float = 1e-3
    recent_boost: int = 4     # repeats of the newest RECENT_SPAN targets
    seed: int = 0

    def __post_init__(self):
        if self.step_budget < 1:
            raise ValueError(
                f"step_budget must be >= 1; got {self.step_budget}")
        if self.recent_boost < 1:
            raise ValueError(
                f"recent_boost must be >= 1; got {self.recent_boost}")


def _model_val_rmse(model, data):
    """Flow-space RMSE of ``model`` on ``data.val`` (tape-free)."""
    with no_grad():
        prediction = np.asarray(model.predict(data.val))
    return rmse(data.inverse(prediction), data.inverse(data.val.target))


def prepare_rolling_data(frames, scaler, periodicity, val_fraction=0.25,
                         horizon=1, recent_span=0, recent_boost=1):
    """Window a rolling raw-frame history into train/val batches.

    ``frames`` is the ``(T, 2, H, W)`` rolling window (gap fills
    included — they are what the serving windows saw too).  The scaler
    must already cover the window's range (call ``scaler.update``
    first).

    The validation indices are spread *uniformly* across the window,
    not taken from the tail: after a drift, the tail is exactly where
    the only new-regime samples live, and a tail-only val split would
    hide them all from training.  ``recent_span``/``recent_boost``
    oversample the newest training targets (see :data:`RECENT_SPAN`).
    Returns a :class:`ForecastData` with an empty test split; its
    ``dataset`` is ``None`` — a rolling window has no backing
    :class:`~repro.data.datasets.TrafficDataset`.
    """
    frames = np.asarray(frames, dtype=np.float64)
    first = periodicity.min_index
    if len(frames) - first < 4:
        raise AdaptationError(
            f"rolling history too short to retrain: {len(frames)} frames, "
            f"warm-up needs {first} and the split needs 4 more")
    scaled = scaler.transform(frames)
    indices = np.arange(first, len(frames))
    num_val = max(1, int(round(len(indices) * val_fraction)))
    if num_val >= len(indices):
        num_val = len(indices) - 1
    val_positions = np.unique(
        np.linspace(0, len(indices) - 1, num_val).astype(int))
    val_idx = indices[val_positions]
    train_idx = np.delete(indices, val_positions)
    if recent_span > 0 and recent_boost > 1:
        recent = train_idx[-recent_span:]
        train_idx = np.concatenate(
            [train_idx] + [recent] * (recent_boost - 1))
    train = build_samples(scaled, periodicity, train_idx, horizon=horizon)
    val = build_samples(scaled, periodicity, val_idx, horizon=horizon)
    return ForecastData(dataset=None, scaler=scaler, train=train, val=val,
                        test=train.slice(0, 0), horizon=horizon)


def warm_retrain(serving_model, model_factory, frames, scaler, periodicity,
                 config: AdaptationConfig = None, checkpoint_path=None):
    """Fit a warm-seeded candidate on the rolling window.

    Returns ``(checkpoint_path, fit_history, candidate_rmse,
    serving_rmse)`` on success; raises :class:`AdaptationError` when
    the candidate diverges or fails the validation gate.  The serving
    model is never touched — the caller installs the returned
    checkpoint through the server's hot-swap path.
    """
    config = config if config is not None else AdaptationConfig()
    scaler.update(frames)
    data = prepare_rolling_data(frames, scaler, periodicity,
                                val_fraction=VAL_FRACTION,
                                recent_span=RECENT_SPAN,
                                recent_boost=config.recent_boost)

    candidate = model_factory()
    candidate.load_state_dict(serving_model.state_dict())
    trainer = Trainer(candidate, TrainConfig(
        epochs=EPOCHS, batch_size=BATCH_SIZE, lr=config.lr,
        max_steps=config.step_budget, sentinel="raise", seed=config.seed,
    ))
    try:
        fit_history = trainer.fit(data)
    except Exception as error:
        raise AdaptationError(f"warm retrain diverged: {error}") from error

    candidate_rmse = _model_val_rmse(candidate, data)
    serving_rmse = _model_val_rmse(serving_model, data)
    if not np.isfinite(candidate_rmse):
        raise AdaptationError(
            f"candidate validation RMSE is non-finite ({candidate_rmse})")
    if candidate_rmse > GATE_FACTOR * serving_rmse:
        raise AdaptationError(
            f"candidate failed the swap gate: val RMSE {candidate_rmse:.4f} "
            f"> {GATE_FACTOR:g} x serving {serving_rmse:.4f}")

    if checkpoint_path is None:
        raise AdaptationError("no checkpoint path configured for the swap")
    os.makedirs(os.path.dirname(os.path.abspath(checkpoint_path)),
                exist_ok=True)
    try:
        written = save_checkpoint(checkpoint_path, candidate,
                                  trainer.optimizer, history=fit_history)
    except Exception as error:
        raise AdaptationError(
            f"failed to write retrain checkpoint: {error}") from error
    return written, fit_history, float(candidate_rmse), float(serving_rmse)
