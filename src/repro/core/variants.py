"""Ablation variants of MUSE-Net (paper Table VI).

- ``w/o Spatial``          — the ResPlus network is replaced by a
  pointwise fusion, leaving a temporal-only model.
- ``w/o MultiDisentangle`` — the single interactive representation
  ``Z^S`` shared by all sub-series is replaced by three *pairwise*
  interactive representations ``Z^{CP}, Z^{CT}, Z^{PT}`` (cross-variate
  disentanglement), implemented by :class:`PairwiseMUSENet`.
- ``w/o SemanticPushing``  — the Eq. (9) contribution is removed, so the
  ``(1 + lambda)`` weights in the merged bound revert to 1.
- ``w/o SemanticPulling``  — the Eq. (16)/(29) term is removed.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.core.decoders import ReconstructionDecoder
from repro.core.encoders import DuplexEncoder, ExclusiveEncoder, SeriesStem
from repro.core.losses import SERIES, LossBreakdown, UNORDERED_PAIRS
from repro.core.model import MuseConfig, MUSENet
from repro.core.resplus import ResPlusNetwork
from repro.nn import Module
from repro.tensor import (Tensor, concat, gaussian_kl, make_rng, no_grad,
                          sum_squares)

__all__ = ["PairwiseMUSENet", "VARIANT_NAMES", "make_variant"]

VARIANT_NAMES = (
    "full",
    "w/o-Spatial",
    "w/o-MultiDisentangle",
    "w/o-SemanticPushing",
    "w/o-SemanticPulling",
)


class PairwiseMUSENet(Module):
    """Cross-variate (pairwise) disentanglement baseline variant.

    Instead of one ``Z^S`` shared across all three sub-series, each pair
    of sub-series gets its own interactive representation, as in
    bivariate cross-domain disentanglement work.  The decoder for a
    sub-series consumes its exclusive latent plus the latents of the two
    pairs it belongs to.
    """

    def __init__(self, config: MuseConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.rep_channels
        cells = config.spatial_size
        k_int = config.latent_interactive
        k_exc = config.latent_exclusive

        self.stem_c = SeriesStem(config.len_closeness * config.flow_channels, d, rng=rng)
        self.stem_p = SeriesStem(config.len_period * config.flow_channels, d, rng=rng)
        self.stem_t = SeriesStem(config.len_trend * config.flow_channels, d, rng=rng)
        self.exclusive_c = ExclusiveEncoder(d, cells, k_exc, rng=rng)
        self.exclusive_p = ExclusiveEncoder(d, cells, k_exc, rng=rng)
        self.exclusive_t = ExclusiveEncoder(d, cells, k_exc, rng=rng)
        # Pairwise interactive encoders reuse the duplex architecture
        # but here their representations feed prediction directly.
        self.pair_cp = DuplexEncoder(d, cells, k_int, rng=rng)
        self.pair_ct = DuplexEncoder(d, cells, k_int, rng=rng)
        self.pair_pt = DuplexEncoder(d, cells, k_int, rng=rng)
        # Pairwise reps for fusion come from the duplex conv features; a
        # light projection produces them per pair.
        self.rep_cp = SeriesStem(2 * d, d, rng=rng)
        self.rep_ct = SeriesStem(2 * d, d, rng=rng)
        self.rep_pt = SeriesStem(2 * d, d, rng=rng)

        def decoder(key):
            shape = (config.series_length(key) * config.flow_channels,
                     config.height, config.width)
            return ReconstructionDecoder(k_exc, 2 * k_int, shape,
                                         hidden_dim=config.decoder_hidden, rng=rng)

        self.decoder_c = decoder("c")
        self.decoder_p = decoder("p")
        self.decoder_t = decoder("t")

        self.spatial = ResPlusNetwork(
            6 * d, d, config.height, config.width,
            num_blocks=config.res_blocks, plus_channels=config.plus_channels,
            out_channels=config.flow_channels, rng=rng,
        )
        self._sample_rng = np.random.default_rng(rng.integers(0, 2**31))

    _features = MUSENet._features  # the same stem step

    def _pair_representation(self, features, pair):
        """``Z^{ij}``: the pair's stem over both sub-series' features."""
        stem = getattr(self, "rep_" + "".join(pair))
        return stem(concat([features[pair[0]], features[pair[1]]], axis=1))

    def _fuse(self, reps, pair_reps):
        """Concatenate the exclusive and pair reps; run the spatial head."""
        return self.spatial(concat([reps[k] for k in SERIES]
                                   + [pair_reps[p] for p in UNORDERED_PAIRS], axis=1))

    def forward(self, closeness, period, trend, rng=None):
        rng = make_rng(rng) if rng is not None else self._sample_rng
        inputs, features = self._features(closeness, period, trend)
        exclusive = {"c": self.exclusive_c, "p": self.exclusive_p, "t": self.exclusive_t}
        reps, posteriors = {}, {}
        for key in SERIES:
            reps[key], posteriors[key] = exclusive[key](features[key])

        pair_enc = {("c", "p"): self.pair_cp, ("c", "t"): self.pair_ct,
                    ("p", "t"): self.pair_pt}
        pair_posteriors, pair_reps = {}, {}
        for pair in UNORDERED_PAIRS:
            pair_posteriors[pair] = pair_enc[pair](features[pair[0]],
                                                   features[pair[1]])
            pair_reps[pair] = self._pair_representation(features, pair)

        latents = {key: posteriors[key].sample(rng) for key in SERIES}
        pair_latents = {pair: pair_posteriors[pair].sample(rng)
                        for pair in UNORDERED_PAIRS}

        def pairs_of(key):
            return [pair for pair in UNORDERED_PAIRS if key in pair]

        decoders = {"c": self.decoder_c, "p": self.decoder_p, "t": self.decoder_t}
        reconstructions = {}
        for key in SERIES:
            shared = concat([pair_latents[p] for p in pairs_of(key)], axis=-1)
            reconstructions[key] = decoders[key](latents[key], shared)

        prediction = self._fuse(reps, pair_reps)
        return prediction, posteriors, pair_posteriors, reconstructions, inputs

    def training_loss(self, batch, rng=None):
        """Regression + KL + reconstruction loss (no pull terms: there is
        no single shared representation to pull)."""
        prediction, posteriors, pair_posteriors, recons, inputs = self(
            batch.closeness, batch.period, batch.trend, rng=rng
        )
        lam = self.config.lam
        kl = sum(gaussian_kl(posteriors[k].mu, posteriors[k].logvar)
                 for k in SERIES)
        kl = kl + sum(gaussian_kl(pair_posteriors[p].mu, pair_posteriors[p].logvar)
                      for p in UNORDERED_PAIRS)
        recon = sum(sum_squares(inputs[key], recons[key], scale=0.5)
                    for key in SERIES)
        reg = sum_squares(prediction, Tensor(batch.target))
        total = self.config.gen_weight * (1.0 + lam) * (kl + recon) + reg
        breakdown = LossBreakdown(total=total, dis=kl, push=recon,
                                  pull=Tensor(0.0), reg=reg)
        outputs = SimpleNamespace(prediction=prediction)
        return breakdown, outputs

    def predict(self, batch):
        """Prediction path only: stems, exclusive convolutions, pair
        stems, spatial head (no grad, no rng draw)."""
        with no_grad():
            _inputs, f = self._features(batch.closeness, batch.period, batch.trend)
            reps = {"c": self.exclusive_c.represent(f["c"]),
                    "p": self.exclusive_p.represent(f["p"]),
                    "t": self.exclusive_t.represent(f["t"])}
            return self._fuse(reps, {pair: self._pair_representation(f, pair)
                                     for pair in UNORDERED_PAIRS}).data


def make_variant(name, config: MuseConfig):
    """Build a Table VI variant by name."""
    if name == "full":
        return MUSENet(config)
    if name == "w/o-Spatial":
        return MUSENet(config, use_spatial=False)
    if name == "w/o-MultiDisentangle":
        return PairwiseMUSENet(config)
    if name == "w/o-SemanticPushing":
        return MUSENet(config, use_push=False)
    if name == "w/o-SemanticPulling":
        return MUSENet(config, use_pull=False)
    raise ValueError(f"unknown variant {name!r}; choose from {VARIANT_NAMES}")
