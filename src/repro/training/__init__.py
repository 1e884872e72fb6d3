"""Training harness: trainer, history, checkpoints, fault tolerance."""

from repro.training.history import History
from repro.training.trainer import TrainConfig, Trainer
from repro.training.uncertainty import ConformalForecaster, interval_coverage
from repro.training.checkpoint import (
    CheckpointCorruptError,
    CheckpointManager,
    find_latest_checkpoint,
    load_checkpoint,
    read_weights,
    save_checkpoint,
    verify_checkpoint,
)
from repro.training.sentinel import DivergenceError, DivergenceSentinel, SentinelEvent

__all__ = [
    "History", "TrainConfig", "Trainer",
    "ConformalForecaster", "interval_coverage",
    "save_checkpoint", "load_checkpoint", "read_weights", "verify_checkpoint",
    "CheckpointCorruptError", "CheckpointManager", "find_latest_checkpoint",
    "DivergenceError", "DivergenceSentinel", "SentinelEvent",
]
