"""Numerical gradient checks through complete layers.

The op-level checks in tests/tensor cover primitives; these verify
that *composed* layers (recurrent cells, attention, normalization,
graph convs) produce correct gradients end to end — the strongest
guarantee the substrate can give the model implementations.
"""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, check_gradients, stack

RNG = np.random.default_rng(17)


def rand(*shape):
    return Tensor(RNG.standard_normal(shape))


def check_layer_input_grad(layer, x):
    """Gradient-check the layer w.r.t. its input tensor."""
    check_gradients(lambda t: layer(t[0]).tanh().sum(), [x])


class TestLayerInputGradients:
    def test_linear(self):
        check_layer_input_grad(nn.Linear(4, 3, rng=np.random.default_rng(0)),
                               rand(2, 4))

    def test_conv2d(self):
        check_layer_input_grad(
            nn.Conv2d(2, 3, 3, padding="same", rng=np.random.default_rng(0)),
            rand(2, 2, 4, 5),
        )

    def test_batchnorm_training_mode(self):
        layer = nn.BatchNorm2d(2)
        check_gradients(lambda t: layer(t[0]).sum(), [rand(3, 2, 2, 2)])

    def test_graph_conv(self):
        adj = nn.normalize_adjacency(nn.grid_adjacency(2, 3))
        check_layer_input_grad(nn.GraphConv(4, 3, adj, rng=np.random.default_rng(0)),
                               rand(2, 6, 4))

    def test_cheb_conv(self):
        adj = nn.grid_adjacency(2, 3)
        check_layer_input_grad(
            nn.ChebConv(4, 3, adj, order=2, rng=np.random.default_rng(0)),
            rand(2, 6, 4),
        )

    def test_adaptive_graph_conv(self):
        layer = nn.AdaptiveGraphConv(4, 3, num_nodes=6, rng=np.random.default_rng(0))
        check_layer_input_grad(layer, rand(2, 6, 4))


class TestRecurrentGradients:
    def test_gru_cell_input(self):
        cell = nn.GRUCell(3, 4, rng=np.random.default_rng(0))
        h = cell.initial_state(2)
        check_gradients(lambda t: cell(t[0], h).tanh().sum(), [rand(2, 3)])

    def test_gru_cell_hidden(self):
        cell = nn.GRUCell(3, 4, rng=np.random.default_rng(0))
        x = rand(2, 3)
        check_gradients(lambda t: cell(x, t[0]).tanh().sum(), [rand(2, 4)])

    def test_gru_through_time(self):
        cell = nn.GRUCell(2, 3, rng=np.random.default_rng(0))

        def fn(t):
            h = cell.initial_state(1)
            outputs = []
            for step in range(t[0].shape[1]):
                h = cell(t[0][:, step, :], h)
                outputs.append(h)
            return stack(outputs, axis=1).tanh().sum()

        check_gradients(fn, [rand(1, 4, 2)])


class TestAttentionGradients:
    def test_scaled_dot_product(self):
        def fn(t):
            out, _w = nn.scaled_dot_product_attention(t[0], t[1], t[2])
            return out.tanh().sum()

        check_gradients(fn, [rand(1, 3, 4), rand(1, 5, 4), rand(1, 5, 4)])

    def test_multihead_input(self):
        mha = nn.MultiHeadAttention(8, 2, rng=np.random.default_rng(0))
        check_gradients(lambda t: mha(t[0]).tanh().sum(), [rand(1, 3, 8)])


class TestParameterGradients:
    @pytest.mark.parametrize("make_layer,x_shape", [
        (lambda: nn.Linear(3, 2, rng=np.random.default_rng(0)), (2, 3)),
        (lambda: nn.Conv2d(1, 2, 3, padding=1, rng=np.random.default_rng(0)),
         (1, 1, 4, 4)),
        (lambda: nn.GRUCell(2, 3, rng=np.random.default_rng(0)), None),
    ], ids=["linear", "conv", "gru"])
    def test_every_parameter_receives_gradient(self, make_layer, x_shape):
        layer = make_layer()
        if x_shape is None:
            # Non-zero hidden state: from a zero state the recurrent
            # kernel w_hh legitimately receives a zero gradient.
            out = layer(rand(2, 2), rand(2, 3))
        else:
            out = layer(rand(*x_shape))
        out.sum().backward()
        for name, param in layer.named_parameters():
            assert param.grad is not None, name
            assert np.any(param.grad != 0) or param.size == 0, name
