"""Tests for losses and Gaussian divergences."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, check_gradients

RNG = np.random.default_rng(11)


def rand(*shape):
    return Tensor(RNG.standard_normal(shape))


class TestRegressionLosses:
    def test_mse_zero_at_target(self):
        x = rand(4, 3)
        assert nn.mse_loss(x, x).item() == 0.0

    def test_mse_matches_numpy(self):
        a, b = rand(4, 3), rand(4, 3)
        expected = np.mean((a.data - b.data) ** 2)
        np.testing.assert_allclose(nn.mse_loss(a, b).item(), expected)

    @pytest.mark.parametrize("loss", [nn.mse_loss])
    def test_grad(self, loss):
        check_gradients(lambda t: loss(t[0], t[1]), [rand(3, 4), rand(3, 4)])


class TestGaussianKL:
    def test_standard_normal_kl_zero_at_standard(self):
        mu = Tensor(np.zeros((4, 8)))
        logvar = Tensor(np.zeros((4, 8)))
        assert abs(nn.kl_standard_normal(mu, logvar).item()) < 1e-12

    def test_standard_normal_kl_positive(self):
        kl = nn.kl_standard_normal(rand(4, 8), rand(4, 8))
        assert kl.item() > 0

    def test_kl_two_gaussians_zero_when_equal(self):
        mu, logvar = rand(4, 8), rand(4, 8)
        kl = nn.kl_diag_gaussians(mu, logvar, mu, logvar)
        assert abs(kl.item()) < 1e-12

    def test_kl_two_gaussians_nonnegative(self):
        kl = nn.kl_diag_gaussians(rand(4, 8), rand(4, 8), rand(4, 8), rand(4, 8))
        assert kl.item() >= 0

    def test_kl_asymmetric(self):
        mu1, lv1 = rand(4, 8), rand(4, 8)
        mu2, lv2 = rand(4, 8), rand(4, 8)
        forward = nn.kl_diag_gaussians(mu1, lv1, mu2, lv2).item()
        reverse = nn.kl_diag_gaussians(mu2, lv2, mu1, lv1).item()
        assert not np.isclose(forward, reverse)

    def test_kl_against_standard_agrees_with_general_form(self):
        mu, logvar = rand(4, 8), rand(4, 8)
        zeros = Tensor(np.zeros((4, 8)))
        specific = nn.kl_standard_normal(mu, logvar).item()
        general = nn.kl_diag_gaussians(mu, logvar, zeros, zeros).item()
        np.testing.assert_allclose(specific, general, rtol=1e-10)

    def test_kl_closed_form_1d(self):
        # KL(N(1, e^0)||N(0,1)) = 0.5 * (1 + 1 - 1 - 0) = 0.5
        mu = Tensor(np.array([[1.0]]))
        logvar = Tensor(np.array([[0.0]]))
        np.testing.assert_allclose(nn.kl_standard_normal(mu, logvar).item(), 0.5)

    def test_grad(self):
        check_gradients(
            lambda t: nn.kl_diag_gaussians(t[0], t[1], t[2], t[3]),
            [rand(2, 4), rand(2, 4), rand(2, 4), rand(2, 4)],
        )

    def test_reduce_mean_false_returns_per_sample(self):
        kl = nn.kl_standard_normal(rand(4, 8), rand(4, 8), reduce_mean=False)
        assert kl.shape == (4,)
