"""MUSE-Net's objective as fused nodes equals the composed objective.

``composed_*`` below are the elementwise objective that the fused
``gaussian_kl`` and ``sum_squares`` nodes replaced, kept as the
reference.  ``MUSENet``'s breakdown must equal it bitwise.  Gradients
may differ by rounding only, because the analytic backward sums in
another order.  ``PairwiseMUSENet``'s reconstruction multiplied in
another order, so it is held to 1e-12.  The op counts are pinned, so an
edit that composes the KLs from elementwise ops again fails here.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import MUSENet, muse_training_loss
from repro.core.losses import SERIES, UNORDERED_PAIRS, LossBreakdown
from repro.core.variants import PairwiseMUSENet
from repro.data.windows import SampleBatch
from repro.experiments.common import muse_config
from repro.profiling import profile
from repro.stream.simulate import make_model, stream_geometry
from repro.tensor import Tensor, default_dtype, exp, mean, sum_
from repro.training import TrainConfig, Trainer

COMPONENTS = ("total", "dis", "push", "pull", "reg")
GRAD_TOL = {"float64": 1e-12, "float32": 1e-5}


# -- the composed reference ----------------------------------------------
def composed_kl_standard_normal(mu, logvar):
    per_dim = 0.5 * (exp(logvar) + mu * mu - 1.0 - logvar)
    return mean(sum_(per_dim, axis=-1))


def composed_kl_diag_gaussians(mu_p, logvar_p, mu_q, logvar_q):
    diff = mu_p - mu_q
    per_dim = 0.5 * (
        logvar_q - logvar_p
        + (exp(logvar_p) + diff * diff) / exp(logvar_q)
        - 1.0
    )
    return mean(sum_(per_dim, axis=-1))


def composed_reconstruction_nll(target, reconstruction):
    diff = target - reconstruction
    flat = (diff * diff).flatten(start_axis=1)
    return mean(sum_(0.5 * flat, axis=-1))


def composed_muse_training_loss(outputs, targets, lam=1.0, use_push=True,
                                use_pull=True, gen_weight=1.0,
                                pull_mode="alternating"):
    push_weight = (1.0 + lam) if use_push else 1.0
    kl_exclusive = sum(
        composed_kl_standard_normal(outputs.exclusive_posteriors[i].mu,
                                    outputs.exclusive_posteriors[i].logvar)
        for i in SERIES)
    kl_interactive = composed_kl_standard_normal(
        outputs.interactive_posterior.mu, outputs.interactive_posterior.logvar)
    dis = push_weight * kl_exclusive + kl_interactive
    recon = sum(composed_reconstruction_nll(outputs.series_inputs[i],
                                            outputs.reconstructions[i])
                for i in SERIES)
    push = push_weight * recon
    if use_pull:
        duplex_vs_simplex = 0.0
        for i, j in UNORDERED_PAIRS:
            duplex = outputs.duplex_posteriors[(i, j)]
            for member in (i, j):
                simplex = outputs.simplex_posteriors[member]
                duplex_vs_simplex = duplex_vs_simplex + composed_kl_diag_gaussians(
                    duplex.mu, duplex.logvar, simplex.mu, simplex.logvar)
        full = outputs.interactive_posterior
        if pull_mode == "joint":
            full_vs_duplex = 0.0
            for pair in UNORDERED_PAIRS:
                duplex = outputs.duplex_posteriors[pair]
                full_vs_duplex = full_vs_duplex + composed_kl_diag_gaussians(
                    full.mu, full.logvar, duplex.mu, duplex.logvar)
            pull = lam * (duplex_vs_simplex - full_vs_duplex)
        else:
            encoder_term = 0.0
            tighten_term = 0.0
            for pair in UNORDERED_PAIRS:
                duplex = outputs.duplex_posteriors[pair]
                frozen_duplex = duplex.detach()
                frozen_full = full.detach()
                encoder_term = encoder_term - composed_kl_diag_gaussians(
                    full.mu, full.logvar, frozen_duplex.mu, frozen_duplex.logvar)
                tighten_term = tighten_term + composed_kl_diag_gaussians(
                    frozen_full.mu, frozen_full.logvar, duplex.mu, duplex.logvar)
            pull = lam * (duplex_vs_simplex + encoder_term + tighten_term)
    else:
        pull = Tensor(0.0)
    diff = outputs.prediction - targets
    reg = mean(sum_((diff * diff).flatten(start_axis=1), axis=-1))
    if gen_weight != 1.0:
        dis = gen_weight * dis
        push = gen_weight * push
        if use_pull:
            pull = gen_weight * pull
    total = dis + push + pull + reg
    return LossBreakdown(total=total, dis=dis, push=push, pull=pull, reg=reg)


def composed_pairwise_loss(model, batch, rng):
    prediction, posteriors, pair_posteriors, recons, inputs = model(
        batch.closeness, batch.period, batch.trend, rng=rng)
    lam = model.config.lam
    kl = sum(composed_kl_standard_normal(posteriors[k].mu, posteriors[k].logvar)
             for k in SERIES)
    kl = kl + sum(composed_kl_standard_normal(pair_posteriors[p].mu,
                                              pair_posteriors[p].logvar)
                  for p in UNORDERED_PAIRS)
    recon = Tensor(0.0)
    for key in SERIES:
        diff = inputs[key] - recons[key]
        recon = recon + mean(sum_((0.5 * diff * diff).flatten(start_axis=1),
                                  axis=-1))
    diff = prediction - Tensor(batch.target)
    reg = mean(sum_((diff * diff).flatten(start_axis=1), axis=-1))
    total = model.config.gen_weight * (1.0 + lam) * (kl + recon) + reg
    return LossBreakdown(total=total, dis=kl, push=recon, pull=Tensor(0.0),
                         reg=reg)


# -- harness ---------------------------------------------------------------
def paper_model(data, **overrides):
    return MUSENet(muse_config(data, "paper", **overrides))


def stream_model(**overrides):
    model = make_model(*stream_geometry())
    model.config = dataclasses.replace(model.config, **overrides)
    return model


def random_batch(config, n=4, seed=0):
    """A batch of ``config``'s geometry (values in the scaled range)."""
    rng = np.random.default_rng(seed)
    frames = (config.flow_channels, config.height, config.width)

    def draw(*shape):
        return rng.uniform(-0.9, 0.9, size=shape)

    return SampleBatch(
        closeness=draw(n, config.len_closeness, *frames),
        period=draw(n, config.len_period, *frames),
        trend=draw(n, config.len_trend, *frames),
        target=draw(n, *frames),
        indices=np.arange(n))


def in_dtype(model, batch, dtype):
    if dtype != "float64":
        Trainer(model, TrainConfig(dtype=dtype))  # casts the model in place
    return batch.astype(np.dtype(dtype))


def run(model, loss_fn, dtype):
    """``loss_fn()``'s breakdown values and every parameter gradient."""
    for param in model.parameters():
        param.zero_grad()
    with default_dtype(np.dtype(dtype)):
        breakdown = loss_fn()
        breakdown.total.backward()
    values = {name: getattr(breakdown, name).data.copy() for name in COMPONENTS}
    grads = [None if param.grad is None else param.grad.copy()
             for param in model.parameters()]
    return values, grads


def assert_grads_close(got, expected, tol):
    for g, e in zip(got, expected):
        if e is None:  # a head the case leaves out of the objective
            assert g is None
            continue
        scale = np.max(np.abs(e))
        assert np.max(np.abs(g - e)) <= tol * scale, (
            np.max(np.abs(g - e)), scale)


def compare(model, batch, dtype, use_push=None, use_pull=None):
    """Fused vs composed on one model: bitwise breakdown, close gradients."""
    use_push = model.use_push if use_push is None else use_push
    use_pull = model.use_pull if use_pull is None else use_pull
    config = model.config

    def fused():
        return model.training_loss(batch, rng=np.random.default_rng(3),
                                   use_push=use_push, use_pull=use_pull)[0]

    def composed():
        outputs = model(batch.closeness, batch.period, batch.trend,
                        rng=np.random.default_rng(3))
        return composed_muse_training_loss(
            outputs, Tensor(batch.target), lam=config.lam, use_push=use_push,
            use_pull=use_pull, gen_weight=config.gen_weight,
            pull_mode=config.pull_mode)

    got, got_grads = run(model, fused, dtype)
    expected, expected_grads = run(model, composed, dtype)
    for name in COMPONENTS:
        assert got[name].dtype == np.dtype(dtype)
        assert got[name].tobytes() == expected[name].tobytes(), (
            name, got[name], expected[name])
    assert_grads_close(got_grads, expected_grads, GRAD_TOL[dtype])


CASES = {
    "alternating": (dict(pull_mode="alternating"), {}),
    "joint": (dict(pull_mode="joint"), {}),
    "no-push": ({}, dict(use_push=False)),
    "no-pull": ({}, dict(use_pull=False)),
    "lam-0": (dict(lam=0.0), {}),
    "gen-weight-1": (dict(gen_weight=1.0), {}),
    "gen-weight-0.02": (dict(gen_weight=0.02), {}),
}


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_paper_model_matches_composed_objective(case, dtype, tiny_data):
    overrides, switches = CASES[case]
    model = paper_model(tiny_data, **overrides)
    batch = in_dtype(model, tiny_data.train.slice(0, 4), dtype)
    compare(model, batch, dtype, **switches)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_model_matches_composed_objective(case, dtype):
    overrides, switches = CASES[case]
    model = stream_model(**overrides)
    batch = in_dtype(model, random_batch(model.config), dtype)
    compare(model, batch, dtype, **switches)


@pytest.mark.parametrize("gen_weight", [1.0, 0.02])
def test_pairwise_matches_composed_objective(gen_weight, tiny_data):
    model = PairwiseMUSENet(muse_config(tiny_data, "paper",
                                        gen_weight=gen_weight))
    batch = tiny_data.train.slice(0, 4)
    got, got_grads = run(model, lambda: model.training_loss(
        batch, rng=np.random.default_rng(3))[0], "float64")
    expected, expected_grads = run(model, lambda: composed_pairwise_loss(
        model, batch, np.random.default_rng(3)), "float64")
    for name in COMPONENTS:
        np.testing.assert_allclose(got[name], expected[name], rtol=1e-12,
                                   atol=0)
    assert_grads_close(got_grads, expected_grads, 1e-12)


def count_ops(fn):
    with profile() as profiler:
        fn()
    return sum(stats.calls for stats in profiler.stats.values())


# Ops one training_loss records.  With every KL and squared error
# composed from elementwise ops they were 393, 385 and 231, and the
# objective's share at the paper profile was 229.
TRAINING_LOSS_OPS = {"paper": 214, "stream": 206, "pairwise": 170}
OBJECTIVE_OPS = 50


def test_training_loss_op_counts_are_pinned(tiny_data):
    models = {"paper": paper_model(tiny_data), "stream": stream_model(),
              "pairwise": PairwiseMUSENet(muse_config(tiny_data, "paper"))}
    for name, model in models.items():
        batch = (random_batch(model.config) if name == "stream"
                 else tiny_data.train.slice(0, 4))
        ops = count_ops(lambda: model.training_loss(batch))
        assert ops == TRAINING_LOSS_OPS[name], (name, ops)


def test_objective_op_count_is_pinned(tiny_data):
    model = paper_model(tiny_data)
    batch = tiny_data.train.slice(0, 4)
    outputs = model(batch.closeness, batch.period, batch.trend)
    targets = Tensor(batch.target)
    ops = count_ops(lambda: muse_training_loss(
        outputs, targets, lam=model.config.lam,
        gen_weight=model.config.gen_weight))
    assert ops == OBJECTIVE_OPS
