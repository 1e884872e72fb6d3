"""Sample assembly, chronological splits, and batch iteration."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.data.periodicity import MultiPeriodicity

__all__ = ["SampleBatch", "build_samples", "chronological_split", "iterate_batches"]


@dataclass
class SampleBatch:
    """A batch of multi-periodic samples.

    Shapes: ``closeness (N, L_c, 2, H, W)``, ``period (N, L_p, 2, H, W)``,
    ``trend (N, L_t, 2, H, W)``, ``target (N, 2, H, W)``,
    ``indices (N,)`` — the target interval of each sample.
    """

    closeness: np.ndarray
    period: np.ndarray
    trend: np.ndarray
    target: np.ndarray
    indices: np.ndarray

    def __len__(self):
        return len(self.indices)

    def take(self, positions):
        """Sub-batch at the given positions (fancy-index view copy)."""
        positions = np.asarray(positions)
        return SampleBatch(
            closeness=self.closeness[positions],
            period=self.period[positions],
            trend=self.trend[positions],
            target=self.target[positions],
            indices=self.indices[positions],
        )

    def slice(self, start, stop):
        """Contiguous sub-batch ``[start:stop)`` as zero-copy views.

        Use for chunked evaluation loops: unlike :meth:`take` with a
        range, no arrays are copied.  Callers must not mutate the
        result, since it aliases this batch's storage.
        """
        return SampleBatch(
            closeness=self.closeness[start:stop],
            period=self.period[start:stop],
            trend=self.trend[start:stop],
            target=self.target[start:stop],
            indices=self.indices[start:stop],
        )

    @staticmethod
    def concat(batches):
        """Concatenate several batches along the sample axis.

        Order is preserved: sample ``i`` of batch ``k`` lands after all
        samples of batches ``0..k-1``.  This is how the serving
        micro-batcher coalesces concurrent requests into one forward.
        """
        batches = list(batches)
        if not batches:
            raise ValueError("concat needs at least one batch")
        if len(batches) == 1:
            return batches[0]
        return SampleBatch(
            closeness=np.concatenate([b.closeness for b in batches], axis=0),
            period=np.concatenate([b.period for b in batches], axis=0),
            trend=np.concatenate([b.trend for b in batches], axis=0),
            target=np.concatenate([b.target for b in batches], axis=0),
            indices=np.concatenate([b.indices for b in batches], axis=0),
        )

    def astype(self, dtype):
        """Cast the float arrays to ``dtype``; ``indices`` stay integer.

        No-copy when already in ``dtype``, so calling this defensively
        is free in the common case.
        """
        dtype = np.dtype(dtype)
        return SampleBatch(
            closeness=self.closeness.astype(dtype, copy=False),
            period=self.period.astype(dtype, copy=False),
            trend=self.trend.astype(dtype, copy=False),
            target=self.target.astype(dtype, copy=False),
            indices=self.indices,
        )


#: Field names of :class:`SampleBatch`, in declaration order.
BATCH_FIELDS = tuple(field.name for field in fields(SampleBatch))


def build_samples(flows, periodicity: MultiPeriodicity, indices, horizon=1):
    """Assemble a :class:`SampleBatch` for the given target indices.

    With ``horizon == 1`` each index ``i`` produces the one-step sample
    whose target is ``flows[i]``; with ``horizon > 1`` each index is
    treated as the anchor of a multi-step sample (see
    :meth:`MultiPeriodicity.slice_multistep`).
    """
    indices = np.asarray(indices)
    samples = []
    for i in indices:
        if horizon == 1:
            samples.append(periodicity.slice_at(flows, int(i)))
        else:
            samples.append(periodicity.slice_multistep(flows, int(i), horizon))
    return SampleBatch(
        closeness=np.stack([s.closeness for s in samples]),
        period=np.stack([s.period for s in samples]),
        trend=np.stack([s.trend for s in samples]),
        target=np.stack([s.target for s in samples]),
        indices=np.array([s.index for s in samples]),
    )


def chronological_split(num_intervals, periodicity, test_intervals, val_fraction=0.1,
                        horizon_margin=0):
    """Split target indices into train/val/test chronologically.

    Mirrors the paper's protocol: the last ``test_intervals`` intervals
    are the test set, the remainder trains, and the last
    ``val_fraction`` of the training block validates.

    ``horizon_margin`` reserves extra intervals at the end so multi-step
    anchors can still reach their targets inside the array.
    """
    first = periodicity.min_index
    last = num_intervals - horizon_margin
    if last - first < 3:
        raise ValueError(
            f"not enough intervals: history needs {first}, "
            f"got {num_intervals} total"
        )
    all_indices = np.arange(first, last)
    if test_intervals < 0:
        raise ValueError(f"test_intervals must be >= 0; got {test_intervals}")
    if test_intervals >= len(all_indices):
        raise ValueError("test window swallows the whole usable range")
    if test_intervals == 0:
        # Explicit: `all_indices[-0:]` would return the *whole* range.
        # A zero-length test window is valid (train/val-only splits).
        test = all_indices[:0]
        fit = all_indices
    else:
        test = all_indices[-test_intervals:]
        fit = all_indices[:-test_intervals]
    num_val = max(1, int(round(len(fit) * val_fraction)))
    val = fit[-num_val:]
    train = fit[:-num_val]
    if len(train) == 0:
        raise ValueError("train split is empty; reduce test/val sizes")
    return train, val, test


# Shared fallback rng for callers that don't pass one.  It lives at
# module level so its state advances across calls: seeding inside
# iterate_batches would hand every epoch the identical shuffle order.
_DEFAULT_RNG = np.random.default_rng(0)


def iterate_batches(batch: SampleBatch, batch_size, rng=None, shuffle=True):
    """Yield mini-batches; shuffles with ``rng`` when requested.

    Pass the training loop's ``rng`` for reproducible runs; when ``rng``
    is ``None`` a process-wide default generator is used, so successive
    epochs still see different shuffle orders.
    """
    order = np.arange(len(batch))
    if shuffle:
        if rng is None:
            rng = _DEFAULT_RNG
        rng.shuffle(order)
    for start in range(0, len(order), batch_size):
        yield batch.take(order[start:start + batch_size])
