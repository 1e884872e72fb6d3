"""Divergence sentinel: cheap per-step guards for the training loop.

A single non-finite loss silently poisons the weights, the optimizer
moments, and every later history entry; on a multi-hour run that is a
lost day.  :class:`DivergenceSentinel` watches three signals after each
backward pass and *before* the optimizer applies the update:

- **non-finite loss** — ``loss.item()`` is NaN/Inf;
- **non-finite gradients** — any parameter gradient contains NaN/Inf;
- **gradient-norm spike** — the global grad norm exceeds
  ``spike_factor`` times its running mean (tracked by an EMA that only
  updates on healthy steps, so a spike cannot drag its own baseline
  up).  Spike detection arms after ``warmup`` healthy steps.

What happens next is the *policy*:

- ``"raise"`` (default) — abort with :class:`DivergenceError` before
  the bad update is applied;
- ``"skip_batch"`` — drop the batch (no optimizer step, loss excluded
  from the epoch mean) and keep training;
- ``"rollback"`` — restore the last good in-memory snapshot of the
  weights and optimizer state, multiply the learning rate by
  ``lr_backoff``, and continue; after ``max_rollbacks`` restores the
  sentinel escalates to :class:`DivergenceError`.

Every trigger is recorded as a :class:`SentinelEvent`; the trainer
attaches the full report (policy, thresholds, events) to
``History.sentinel``.  The checks are read-only on the model — a run
that never triggers is bit-identical to a sentinel-off run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["POLICIES", "DivergenceError", "DivergenceSentinel", "SentinelEvent"]

POLICIES = ("raise", "skip_batch", "rollback")

# Bound the per-run report; a pathological run can trigger on every
# step and the events list must not become the memory leak it guards.
_MAX_RECORDED_EVENTS = 100


class DivergenceError(RuntimeError):
    """Training diverged (or exhausted its rollback budget).

    Carries the triggering :class:`SentinelEvent` as ``event``.
    """

    def __init__(self, message, event=None):
        super().__init__(message)
        self.event = event


@dataclass
class SentinelEvent:
    """One sentinel trigger: what fired, where, and what was done."""

    step: int          # global optimizer step index (0-based)
    epoch: int
    kind: str          # "nonfinite_loss" | "nonfinite_grad" | "grad_spike"
    action: str        # the policy applied: "raise"|"skip_batch"|"rollback"
    loss: float
    grad_norm: float = None
    detail: str = ""


class DivergenceSentinel:
    """Per-step divergence detector with a configurable response policy."""

    def __init__(self, policy="raise", spike_factor=1e3, warmup=10,
                 lr_backoff=0.5, max_rollbacks=3):
        if policy not in POLICIES:
            raise ValueError(
                f"unknown sentinel policy {policy!r}; choose from {POLICIES}")
        if spike_factor <= 1.0:
            raise ValueError(
                f"spike_factor must be > 1; got {spike_factor}")
        if not 0.0 < lr_backoff < 1.0:
            raise ValueError(
                f"lr_backoff must be in (0, 1); got {lr_backoff}")
        self.policy = policy
        self.spike_factor = float(spike_factor)
        self.warmup = int(warmup)
        self.lr_backoff = float(lr_backoff)
        self.max_rollbacks = int(max_rollbacks)
        self.events = []
        self.counts = {}
        self.rollbacks = 0
        # Norm computed by the most recent healthy check(); the trainer
        # hands it to clip_grad_norm so the sentinel's scan replaces —
        # not duplicates — the clip's own norm pass.
        self.last_norm = None
        self._healthy_steps = 0
        self._norm_ema = 0.0
        self._ema_beta = 0.9

    # ------------------------------------------------------------------
    @staticmethod
    def grad_norm(parameters):
        """Global L2 norm of all parameter gradients (pre-clip)."""
        total = 0.0
        for param in parameters:
            grad = param.grad
            if grad is not None:
                total += float(np.vdot(grad, grad).real)
        return float(np.sqrt(total))

    def check(self, loss_value, parameters, step, epoch):
        """Inspect one step; returns a :class:`SentinelEvent` or ``None``.

        Call after ``backward()`` and before ``optimizer.step()`` so a
        flagged update never reaches the weights.  ``None`` means the
        step is healthy and the update may proceed.
        """
        loss_value = float(loss_value)
        self.last_norm = None
        if not np.isfinite(loss_value):
            return self._event(step, epoch, "nonfinite_loss", loss_value, None,
                               "loss is NaN/Inf")
        norm = self.grad_norm(parameters)
        self.last_norm = norm
        if not np.isfinite(norm):
            return self._event(step, epoch, "nonfinite_grad", loss_value, norm,
                               "a parameter gradient contains NaN/Inf")
        if (self._healthy_steps >= max(self.warmup, 1)
                and norm > self.spike_factor * self._norm_ema
                and self._norm_ema > 0.0):
            return self._event(
                step, epoch, "grad_spike", loss_value, norm,
                f"grad norm {norm:.3e} exceeds {self.spike_factor:g}x "
                f"running mean {self._norm_ema:.3e}")
        # Healthy: fold this norm into the spike baseline.
        self._healthy_steps += 1
        self._norm_ema = (self._ema_beta * self._norm_ema
                          + (1.0 - self._ema_beta) * norm
                          if self._healthy_steps > 1 else norm)
        return None

    def _event(self, step, epoch, kind, loss, norm, detail):
        event = SentinelEvent(step=step, epoch=epoch, kind=kind,
                              action=self.policy, loss=loss,
                              grad_norm=norm, detail=detail)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if len(self.events) < _MAX_RECORDED_EVENTS:
            self.events.append(event)
        return event

    # ------------------------------------------------------------------
    def rearm(self):
        """Reset the spike baseline and re-enter warmup.

        Called after a rollback restore (and by the streaming adapter
        after a successful hot swap): the restored weights × backed-off
        learning rate produce a different grad-norm distribution, so
        the old EMA is no longer a valid spike baseline.  Spike
        detection re-arms only after ``warmup`` fresh healthy steps;
        the first healthy step after a rearm re-seeds the EMA with its
        own norm (cold start), exactly like step one of a run.
        Non-finite detection is unaffected — it never needs a baseline.
        """
        self._healthy_steps = 0
        self._norm_ema = 0.0
        self.last_norm = None

    def note_rollback(self):
        """Count one rollback; raise once the budget is exhausted."""
        self.rollbacks += 1
        if self.rollbacks > self.max_rollbacks:
            last = self.events[-1] if self.events else None
            raise DivergenceError(
                f"training diverged: {self.rollbacks} rollbacks exceed the "
                f"budget of {self.max_rollbacks}; last trigger: "
                f"{last.kind if last else 'unknown'} "
                f"({last.detail if last else ''})",
                event=last,
            )

    def raise_(self, event):
        """Abort the run for ``event`` (the ``raise`` policy)."""
        raise DivergenceError(
            f"training diverged at step {event.step} (epoch {event.epoch}): "
            f"{event.kind} — {event.detail}; loss={event.loss!r}"
            + (f", grad_norm={event.grad_norm:.3e}"
               if event.grad_norm is not None else ""),
            event=event,
        )

    def snapshot(self):
        """JSON-able summary for ``History.sentinel``.

        ``counts`` tallies every trigger; ``events`` carries the first
        100 in full (the cap keeps a pathological run's report bounded).
        """
        counts = dict(self.counts)
        return {
            "policy": self.policy,
            "spike_factor": self.spike_factor,
            "warmup": self.warmup,
            "lr_backoff": self.lr_backoff,
            "max_rollbacks": self.max_rollbacks,
            "rollbacks": self.rollbacks,
            "counts": counts,
            "events": [asdict(event) for event in self.events],
        }
