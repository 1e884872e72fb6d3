"""The MUSE-Net model (paper §IV, Fig. 3).

Dataflow per forward pass:

1. Each sub-series (closeness/period/trend, frames stacked on the
   channel axis) passes through its stem to "convolutional features".
2. Exclusive encoders produce the representations ``Z^c, Z^p, Z^t`` and
   posteriors ``r(z^i | i)``; the interactive encoder produces ``Z^s``
   and ``r(z^s | c, p, t)``.
3. Latents are sampled by reparameterization; reconstruction decoders
   rebuild each sub-series from ``[z^i, z^s]`` (semantic pushing).
4. Simplex/duplex variational encoders emit ``g(z^s | i)`` and
   ``d(z^s | i, j)`` (semantic pulling).
5. The four representations are concatenated and fused by the ResPlus
   network into the flow prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.decoders import ReconstructionDecoder
from repro.core.encoders import (
    DuplexEncoder,
    ExclusiveEncoder,
    InteractiveEncoder,
    SeriesStem,
    SimplexEncoder,
)
from repro.core.losses import SERIES, UNORDERED_PAIRS, muse_training_loss
from repro.core.resplus import ResPlusNetwork
from repro.nn import Conv2d, Module
from repro.tensor import Tensor, concat, make_rng, no_grad, relu, tanh

__all__ = ["MuseConfig", "MuseOutputs", "MUSENet"]


def _stack_frames(series):
    """(N, L, 2, H, W) array/Tensor -> (N, L*2, H, W) Tensor."""
    if not isinstance(series, Tensor):
        series = Tensor(series)
    n, length, channels, h, w = series.shape
    return series.reshape((n, length * channels, h, w))


class _PlainConvHead(Module):
    """Local conv fusion head (spatial_mode="conv"): 3x3 convs, no
    long-range plus branch.  Ends in tanh like the other heads."""

    def __init__(self, in_channels, hidden, out_channels, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.conv1 = Conv2d(in_channels, hidden, 3, padding="same", rng=rng)
        self.conv2 = Conv2d(hidden, hidden, 3, padding="same", rng=rng)
        self.out = Conv2d(hidden, out_channels, 3, padding="same", rng=rng)

    def forward(self, x):
        x = relu(self.conv1(x))
        x = x + relu(self.conv2(x))
        return tanh(self.out(x))


@dataclass
class MuseConfig:
    """Hyper-parameters of MUSE-Net.

    Paper defaults: representation dimension ``d = 64``, sampled
    distribution dimension ``k = 128`` (interactive; exclusives use
    ``k / 4``), balance coefficient ``lambda = 1``, sub-series lengths
    ``(L_c, L_p, L_t) = (3, 4, 4)``.  The reduced defaults here fit the
    CPU-scale benchmark datasets; pass the paper values for full runs.
    """

    len_closeness: int = 3
    len_period: int = 4
    len_trend: int = 4
    height: int = 10
    width: int = 20
    flow_channels: int = 2
    rep_channels: int = 64  # d
    latent_interactive: int = 128  # k
    latent_exclusive: int = None  # defaults to k // 4
    lam: float = 1.0
    gen_weight: float = 1.0  # weight of dis+push+pull vs regression
    pull_mode: str = "alternating"  # or "joint" (diverges; ablation only)
    spatial_mode: str = "resplus"  # "resplus" | "conv" | "none"
    res_blocks: int = 2
    plus_channels: int = 4
    # 1x1-conv channel compression before the plus branch's dense map
    # (None = no compression).  Essential at paper-scale grids: without
    # it the 32x32/d=64 plus branch alone is a half-billion parameters.
    plus_reduce: int = None
    decoder_hidden: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.latent_exclusive is None:
            self.latent_exclusive = max(1, self.latent_interactive // 4)

    @property
    def spatial_size(self):
        """Number of grid cells ``H * W``."""
        return self.height * self.width

    def series_length(self, key):
        """Sub-series length for key ``'c' | 'p' | 't'``."""
        return {"c": self.len_closeness, "p": self.len_period, "t": self.len_trend}[key]

    @classmethod
    def for_data(cls, forecast_data, **overrides):
        """Build a config matching a prepared dataset's geometry."""
        periodicity = forecast_data.periodicity
        grid = forecast_data.grid
        defaults = dict(
            len_closeness=periodicity.len_closeness,
            len_period=periodicity.len_period,
            len_trend=periodicity.len_trend,
            height=grid.height,
            width=grid.width,
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class MuseOutputs:
    """Everything the forward pass produces (prediction + posteriors)."""

    prediction: Tensor
    representations: dict  # 'c'/'p'/'t'/'s' -> (N, d, H, W)
    exclusive_posteriors: dict  # 'c'/'p'/'t' -> GaussianPosterior
    interactive_posterior: object  # GaussianPosterior
    simplex_posteriors: dict  # 'c'/'p'/'t' -> GaussianPosterior
    duplex_posteriors: dict  # ('c','p')... -> GaussianPosterior
    latents: dict  # 'c'/'p'/'t'/'s' -> sampled z
    reconstructions: dict  # 'c'/'p'/'t' -> reconstructed sub-series
    series_inputs: dict  # 'c'/'p'/'t' -> the (N, L*2, H, W) inputs


class MUSENet(Module):
    """Multi-periodicity disentanglement network.

    Use :meth:`training_loss` during optimization and :meth:`predict`
    for inference: it runs only what the prediction reads (no posterior,
    latent or decoder), so it is deterministic.  :meth:`encode` runs the
    full forward for analysis.
    """

    def __init__(self, config: MuseConfig, use_spatial=True, use_push=True,
                 use_pull=True):
        super().__init__()
        self.config = config
        # `use_spatial=False` (the Table VI ablation) is shorthand for
        # spatial_mode="none"; otherwise the config decides the head.
        self.spatial_mode = config.spatial_mode if use_spatial else "none"
        if self.spatial_mode not in ("resplus", "conv", "none"):
            raise ValueError(f"unknown spatial_mode {self.spatial_mode!r}")
        self.use_spatial = self.spatial_mode != "none"
        self.use_push = use_push
        self.use_pull = use_pull
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
        self.interactive = InteractiveEncoder(d, cells, k_int, rng=rng)

        self.simplex_c = SimplexEncoder(d, cells, k_int, rng=rng)
        self.simplex_p = SimplexEncoder(d, cells, k_int, rng=rng)
        self.simplex_t = SimplexEncoder(d, cells, k_int, rng=rng)
        self.duplex_cp = DuplexEncoder(d, cells, k_int, rng=rng)
        self.duplex_ct = DuplexEncoder(d, cells, k_int, rng=rng)
        self.duplex_pt = DuplexEncoder(d, cells, k_int, rng=rng)

        def decoder(key):
            shape = (config.series_length(key) * config.flow_channels,
                     config.height, config.width)
            return ReconstructionDecoder(k_exc, k_int, shape,
                                         hidden_dim=config.decoder_hidden, rng=rng)

        self.decoder_c = decoder("c")
        self.decoder_p = decoder("p")
        self.decoder_t = decoder("t")

        if self.spatial_mode == "resplus":
            self.spatial = ResPlusNetwork(
                4 * d, d, config.height, config.width,
                num_blocks=config.res_blocks,
                plus_channels=config.plus_channels,
                out_channels=config.flow_channels, rng=rng,
                plus_reduce=config.plus_reduce,
            )
        elif self.spatial_mode == "conv":
            # Extension ablation (DESIGN.md §4): local 3x3 conv fusion
            # without the long-range "plus" branch — isolates how much
            # of the win comes from ResPlus specifically.
            self.spatial = _PlainConvHead(4 * d, d, config.flow_channels, rng=rng)
        else:
            # Table VI "w/o Spatial": a pointwise fusion with no spatial
            # mixing at all — the model becomes temporal-only.
            self.spatial = Conv2d(4 * d, config.flow_channels, 1, rng=rng)

        self._sample_rng = np.random.default_rng(rng.integers(0, 2**31))

    # ------------------------------------------------------------------
    def _features(self, closeness, period, trend):
        """Stacked inputs and the stems' convolutional features."""
        inputs = dict(zip(SERIES, map(_stack_frames, (closeness, period, trend))))
        stems = {"c": self.stem_c, "p": self.stem_p, "t": self.stem_t}
        return inputs, {key: stems[key](inputs[key]) for key in SERIES}

    def _fuse(self, representations):
        """Concatenate ``Z^c, Z^p, Z^t, Z^S`` and run the spatial head."""
        fused = concat([representations[k] for k in ("c", "p", "t", "s")], axis=1)
        prediction = self.spatial(fused)
        return prediction if self.use_spatial else tanh(prediction)

    def forward(self, closeness, period, trend, rng=None):
        """Full forward pass; returns :class:`MuseOutputs`."""
        rng = make_rng(rng) if rng is not None else self._sample_rng
        inputs, features = self._features(closeness, period, trend)
        exclusive_encoders = {"c": self.exclusive_c, "p": self.exclusive_p,
                              "t": self.exclusive_t}
        representations, exclusive_posteriors = {}, {}
        for key in SERIES:
            representations[key], exclusive_posteriors[key] = \
                exclusive_encoders[key](features[key])

        representations["s"], interactive_posterior = self.interactive(
            features["c"], features["p"], features["t"])

        simplex_encoders = {"c": self.simplex_c, "p": self.simplex_p,
                            "t": self.simplex_t}
        simplex_posteriors = {key: simplex_encoders[key](features[key])
                              for key in SERIES}
        duplex_encoders = {("c", "p"): self.duplex_cp, ("c", "t"): self.duplex_ct,
                           ("p", "t"): self.duplex_pt}
        duplex_posteriors = {
            pair: duplex_encoders[pair](features[pair[0]], features[pair[1]])
            for pair in UNORDERED_PAIRS
        }

        latents = {key: exclusive_posteriors[key].sample(rng) for key in SERIES}
        latents["s"] = interactive_posterior.sample(rng)

        decoders = {"c": self.decoder_c, "p": self.decoder_p, "t": self.decoder_t}
        reconstructions = {key: decoders[key](latents[key], latents["s"])
                           for key in SERIES}

        return MuseOutputs(
            prediction=self._fuse(representations),
            representations=representations,
            exclusive_posteriors=exclusive_posteriors,
            interactive_posterior=interactive_posterior,
            simplex_posteriors=simplex_posteriors,
            duplex_posteriors=duplex_posteriors,
            latents=latents,
            reconstructions=reconstructions,
            series_inputs=inputs,
        )

    # ------------------------------------------------------------------
    def training_loss(self, batch, rng=None, use_push=None, use_pull=None):
        """Forward + loss assembly for a :class:`SampleBatch`.

        The push/pull switches default to the flags set at construction
        (which is how the Table VI ablation variants are built).
        """
        use_push = self.use_push if use_push is None else use_push
        use_pull = self.use_pull if use_pull is None else use_pull
        outputs = self(batch.closeness, batch.period, batch.trend, rng=rng)
        targets = Tensor(batch.target)
        breakdown = muse_training_loss(
            outputs, targets, lam=self.config.lam,
            use_push=use_push, use_pull=use_pull,
            gen_weight=self.config.gen_weight,
            pull_mode=self.config.pull_mode,
        )
        return breakdown, outputs

    def predict(self, batch):
        """Prediction path only: stems, the exclusive and interactive
        convolutions, then the spatial head (no grad, no rng draw)."""
        with no_grad():
            _inputs, f = self._features(batch.closeness, batch.period, batch.trend)
            reps = {"c": self.exclusive_c.represent(f["c"]),
                    "p": self.exclusive_p.represent(f["p"]),
                    "t": self.exclusive_t.represent(f["t"]),
                    "s": self.interactive.represent(f["c"], f["p"], f["t"])}
            return self._fuse(reps).data

    def encode(self, batch):
        """Return detached representations and posteriors for analysis."""
        with no_grad():
            outputs = self(batch.closeness, batch.period, batch.trend)
        return outputs
