"""Tests for individual layers: shapes, gradients, semantics."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, check_gradients, stack

RNG = np.random.default_rng(3)


def rand(*shape):
    return Tensor(RNG.standard_normal(shape))


class TestLinear:
    def test_output_shape(self):
        layer = nn.Linear(5, 3, rng=np.random.default_rng(0))
        assert layer(rand(7, 5)).shape == (7, 3)

    def test_batched_leading_axes(self):
        layer = nn.Linear(5, 3, rng=np.random.default_rng(0))
        assert layer(rand(2, 4, 5)).shape == (2, 4, 3)

    def test_no_bias(self):
        layer = nn.Linear(5, 3, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients_flow_to_weights(self):
        layer = nn.Linear(4, 2, rng=np.random.default_rng(0))
        layer(rand(3, 4)).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_repr(self):
        assert "Linear" in repr(nn.Linear(2, 3))


class TestConv2d:
    def test_same_padding_preserves_shape(self):
        layer = nn.Conv2d(2, 8, 3, padding="same", rng=np.random.default_rng(0))
        assert layer(rand(1, 2, 10, 20)).shape == (1, 8, 10, 20)

    def test_same_padding_even_kernel_raises(self):
        with pytest.raises(ValueError):
            nn.Conv2d(2, 4, 2, padding="same")

    def test_stride(self):
        layer = nn.Conv2d(1, 1, 3, stride=2, padding=1, rng=np.random.default_rng(0))
        assert layer(rand(1, 1, 8, 8)).shape == (1, 1, 4, 4)

    def test_gradcheck_through_layer(self):
        layer = nn.Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))

        def fn(t):
            layer.weight.data = t[0].data
            layer.bias.data = t[1].data
            out = nn.Conv2d.forward(layer, t[2])
            return out.tanh().sum()

        # Check input gradient only (weights go through layer state).
        check_gradients(lambda t: layer(t[0]).tanh().sum(), [rand(1, 2, 4, 5)])


class TestNorm:
    def test_batchnorm_normalizes_in_train(self):
        layer = nn.BatchNorm2d(3)
        x = rand(8, 3, 4, 4)
        out = layer(x)
        assert abs(out.data.mean()) < 1e-7
        assert abs(out.data.std() - 1.0) < 1e-2

    def test_batchnorm_tracks_running_stats(self):
        layer = nn.BatchNorm2d(2, momentum=0.5)
        x = Tensor(np.full((4, 2, 3, 3), 10.0))
        layer(x)
        assert np.all(layer.running_mean > 0)

    def test_batchnorm_eval_uses_running_stats(self):
        layer = nn.BatchNorm2d(2)
        for _ in range(20):
            layer(rand(16, 2, 3, 3) * 2.0 + 1.0)
        layer.eval()
        out = layer(rand(4, 2, 3, 3) * 2.0 + 1.0)
        # Should be roughly standardized by the learned running stats.
        assert abs(out.data.mean()) < 0.5

    def test_batchnorm_rejects_3d(self):
        with pytest.raises(ValueError):
            nn.BatchNorm2d(2)(rand(2, 2, 3))


class TestRecurrent:
    def test_gru_cell_shapes(self):
        cell = nn.GRUCell(3, 5, rng=np.random.default_rng(0))
        h = cell.initial_state(2)
        h2 = cell(rand(2, 3), h)
        assert h2.shape == (2, 5)

    def test_gradients_flow_through_time(self):
        cell = nn.GRUCell(2, 3, rng=np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((1, 5, 2)), requires_grad=True)
        h = cell.initial_state(1)
        steps = []
        for t in range(5):
            h = cell(x[:, t, :], h)
            steps.append(h)
        stack(steps, axis=1).sum().backward()
        # Early timesteps must receive gradient from late outputs.
        assert np.abs(x.grad[:, 0]).sum() > 0


class TestAttention:
    def test_scaled_dot_product_shapes(self):
        out, weights = nn.scaled_dot_product_attention(rand(2, 4, 8), rand(2, 6, 8), rand(2, 6, 8))
        assert out.shape == (2, 4, 8)
        assert weights.shape == (2, 4, 6)

    def test_attention_weights_sum_to_one(self):
        _out, weights = nn.scaled_dot_product_attention(rand(2, 4, 8), rand(2, 6, 8), rand(2, 6, 8))
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, rtol=1e-9)

    def test_mask_blocks_positions(self):
        mask = np.zeros((1, 4, 6), dtype=bool)
        mask[..., :3] = True
        _out, weights = nn.scaled_dot_product_attention(
            rand(1, 4, 8), rand(1, 6, 8), rand(1, 6, 8), mask=mask
        )
        np.testing.assert_allclose(weights.data[..., 3:], 0.0, atol=1e-6)

    def test_multihead_shapes(self):
        mha = nn.MultiHeadAttention(16, 4, rng=np.random.default_rng(0))
        assert mha(rand(2, 5, 16)).shape == (2, 5, 16)

    def test_multihead_invalid_heads(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(10, 3)


class TestGraph:
    def test_grid_adjacency_lattice(self):
        adj = nn.grid_adjacency(2, 3)
        assert adj.shape == (6, 6)
        # Corner node (0,0) has 2 neighbours.
        assert adj[0].sum() == 2

    def test_grid_adjacency_diagonal(self):
        plain = nn.grid_adjacency(3, 3)
        diag = nn.grid_adjacency(3, 3, diagonal=True)
        assert diag.sum() > plain.sum()

    def test_normalize_adjacency_symmetric(self):
        adj = nn.normalize_adjacency(nn.grid_adjacency(3, 4))
        np.testing.assert_allclose(adj, adj.T)

    def test_normalize_adjacency_rows_bounded(self):
        adj = nn.normalize_adjacency(nn.grid_adjacency(3, 4))
        assert adj.max() <= 1.0 + 1e-12

    def test_graph_conv_shapes(self):
        adj = nn.normalize_adjacency(nn.grid_adjacency(2, 3))
        layer = nn.GraphConv(4, 7, adj, rng=np.random.default_rng(0))
        assert layer(rand(5, 6, 4)).shape == (5, 6, 7)

    def test_cheb_conv_shapes(self):
        adj = nn.grid_adjacency(2, 3)
        layer = nn.ChebConv(4, 7, adj, order=3, rng=np.random.default_rng(0))
        assert layer(rand(5, 6, 4)).shape == (5, 6, 7)

    def test_adaptive_graph_conv(self):
        layer = nn.AdaptiveGraphConv(4, 7, num_nodes=6, rng=np.random.default_rng(0))
        assert layer(rand(5, 6, 4)).shape == (5, 6, 7)
        np.testing.assert_allclose(layer.adjacency().data.sum(axis=-1), 1.0, rtol=1e-9)


class TestSoftmax:
    def test_softmax_sums_to_one(self):
        out = nn.softmax(rand(3, 5), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, rtol=1e-9)

    def test_softmax_stable_for_large_logits(self):
        out = nn.softmax(Tensor(np.array([[1000.0, 999.0]])))
        assert np.all(np.isfinite(out.data))

    def test_log_softmax_matches_log_of_softmax(self):
        x = rand(3, 5)
        np.testing.assert_allclose(
            nn.log_softmax(x).data, np.log(nn.softmax(x).data), rtol=1e-8
        )

    def test_softmax_grad(self):
        check_gradients(lambda t: (nn.softmax(t[0], axis=-1) * Tensor(np.arange(5.0))).sum(), [rand(3, 5)])
