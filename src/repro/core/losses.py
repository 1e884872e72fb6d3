"""MUSE-Net's lower-bound training objective (paper Eqs. 26-30).

The paper maximizes

    L-hat_Dis + L-hat_Push + L-hat_Pull - L_Reg

so the training *loss* implemented here is the negation.  Term by term
(all KLs between diagonal Gaussians):

- **Disentanglement** (Eq. 27): ``(1 + lambda)``-weighted KL of each
  exclusive posterior ``r(z^i | i)`` to the standard normal prior, plus
  the KL of the interactive posterior ``r(z^s | c, p, t)``.
- **Semantic pushing** (Eq. 28): ``(1 + lambda)``-weighted
  reconstruction log-likelihood ``log q(i | z^i, z^s)`` of each
  sub-series from its exclusive latent and the shared latent.
- **Semantic pulling** (Eq. 29): ``lambda``-weighted sum of
  ``-KL(d(z^s|i,j) || g(z^s|i))`` over ordered pairs ``i != j`` (the
  duplex posterior for a pair must look like each member's simplex
  posterior) and ``+KL(r(z^s|c,p,t) || d(z^s|i,j))`` over the three
  unordered pairs (the full posterior must stay informative beyond any
  pair).
- **Regression** (Eq. 30): squared error between the prediction and the
  true next-interval flows.

Each KL is one :func:`~repro.tensor.gaussian_kl` node and each squared
error one :func:`~repro.tensor.sum_squares` node, so the objective adds
20 nodes and the few adds and scalings that weigh them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tensor import Tensor, gaussian_kl, sum_squares

__all__ = ["LossBreakdown", "muse_training_loss"]

SERIES = ("c", "p", "t")
UNORDERED_PAIRS = (("c", "p"), ("c", "t"), ("p", "t"))


@dataclass
class LossBreakdown:
    """Total training loss plus its components (all scalar tensors).

    Component signs follow the *loss* convention (lower is better);
    ``dis``, ``push``, ``pull`` are the negations of the paper's
    L-hat terms.
    """

    total: Tensor
    dis: Tensor
    push: Tensor
    pull: Tensor
    reg: Tensor

    def scalars(self):
        """Plain-float view for logging."""
        return {
            "total": self.total.item(),
            "dis": self.dis.item(),
            "push": self.push.item(),
            "pull": self.pull.item(),
            "reg": self.reg.item(),
        }


def _kl(q, p=None):
    """KL(q || p) between two posteriors; N(0, I) when ``p`` is None."""
    if p is None:
        return gaussian_kl(q.mu, q.logvar)
    return gaussian_kl(q.mu, q.logvar, p.mu, p.logvar)


def muse_training_loss(outputs, targets, lam=1.0, use_push=True, use_pull=True,
                       gen_weight=1.0, pull_mode="alternating"):
    """Assemble the total minimization objective.

    Parameters
    ----------
    outputs:
        A :class:`~repro.core.model.MuseOutputs` from the model forward.
    targets:
        Scaled ground-truth flows ``(N, 2, H, W)`` (Tensor).
    lam:
        The balance coefficient ``lambda`` (paper default 1).
    use_push, use_pull:
        Ablation switches for Table VI: dropping pushing removes the
        Eq. (9) contribution, i.e. the ``(1 + lambda)`` weights revert
        to 1; dropping pulling removes Eq. (29) entirely.
    gen_weight:
        Global weight on the generative terms (dis + push + pull)
        relative to regression.  1.0 is the paper's objective at the
        paper's geometry; reduced-scale grids shrink the summed
        regression term relative to the latent KLs, so small-profile
        runs rebalance with ``gen_weight < 1`` (see DESIGN.md).
    pull_mode:
        ``"alternating"`` (default) uses the stop-gradient treatment of
        the ``+KL(r || d)`` bound term; ``"joint"`` optimizes Eq. (29)
        literally as written, which is adversarial between the full
        posterior and the duplex distributions and diverges — kept as
        an ablation to demonstrate why the alternating scheme is
        necessary.
    """
    if pull_mode not in ("alternating", "joint"):
        raise ValueError(f"unknown pull_mode {pull_mode!r}")
    push_weight = (1.0 + lam) if use_push else 1.0

    # -- Eq. 27 (negated): KL regularizers ------------------------------
    kl_exclusive = sum(_kl(outputs.exclusive_posteriors[i]) for i in SERIES)
    kl_interactive = _kl(outputs.interactive_posterior)
    dis = push_weight * kl_exclusive + kl_interactive

    # -- Eq. 28 (negated): reconstruction -------------------------------
    # Unit-variance Gaussian NLL of each sub-series (per-sample sum).
    recon = sum(
        sum_squares(outputs.series_inputs[i], outputs.reconstructions[i],
                    scale=0.5)
        for i in SERIES
    )
    push = push_weight * recon

    # -- Eq. 29 (negated): pulling --------------------------------------
    # The +KL(r || d) bound term (Eq. 23) is valid for ANY duplex
    # distribution d, and is tight when d equals the pair-marginal
    # posterior.  Optimizing it jointly is adversarial — d would flee r
    # and the objective diverges — so we use the standard VIIM-style
    # alternating treatment expressed with stop-gradients:
    #   * the encoder ascends KL(r || sg(d))   (stays informative
    #     beyond any pair),
    #   * the duplex descends KL(sg(r) || d)   (chases r to keep the
    #     bound tight).
    # The two terms have equal value, so the reported `pull` magnitude
    # reflects only the duplex-vs-simplex KLs, but their gradients
    # implement the max-min bound correctly and stably.  A stop-gradient
    # side is a detached posterior: the KL node deposits no gradient
    # into it.
    if use_pull:
        duplex_vs_simplex = 0.0
        for i, j in UNORDERED_PAIRS:
            duplex = outputs.duplex_posteriors[(i, j)]
            for member in (i, j):
                duplex_vs_simplex = duplex_vs_simplex + _kl(
                    duplex, outputs.simplex_posteriors[member])
        full = outputs.interactive_posterior
        if pull_mode == "joint":
            # Literal Eq. (29): maximize KL(r || d) jointly over both
            # sides.  Adversarial — r flees d and d flees r.
            full_vs_duplex = 0.0
            for pair in UNORDERED_PAIRS:
                full_vs_duplex = full_vs_duplex + _kl(
                    full, outputs.duplex_posteriors[pair])
            pull = lam * (duplex_vs_simplex - full_vs_duplex)
        else:
            encoder_term = 0.0  # -KL(r || sg(d)): encoder ascends the bound
            tighten_term = 0.0  # +KL(sg(r) || d): duplex chases r
            for pair in UNORDERED_PAIRS:
                duplex = outputs.duplex_posteriors[pair]
                encoder_term = encoder_term - _kl(full, duplex.detach())
                tighten_term = tighten_term + _kl(full.detach(), duplex)
            pull = lam * (duplex_vs_simplex + encoder_term + tighten_term)
    else:
        pull = Tensor(0.0)

    # -- Eq. 30: regression ----------------------------------------------
    # The paper's L_Reg is the summed squared error ||X - Y||_2^2 (a
    # per-sample sum, like the KL and reconstruction terms), not the
    # elementwise mean — using the mean under-weights regression by a
    # factor of 2*H*W and lets the generative terms swamp it.
    reg = sum_squares(outputs.prediction, targets)

    if gen_weight != 1.0:
        dis = gen_weight * dis
        push = gen_weight * push
        if use_pull:
            pull = gen_weight * pull

    total = dis + push + pull + reg
    return LossBreakdown(total=total, dis=dis, push=push, pull=pull, reg=reg)
