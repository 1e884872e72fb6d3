"""Neural-network layers on the autodiff engine."""

from repro.nn.module import Module, Parameter
from repro.nn import init
from repro.nn.linear import Linear
from repro.nn.conv import Conv2d
from repro.nn.norm import BatchNorm2d
from repro.nn.activations import log_softmax, softmax
from repro.nn.container import ModuleList
from repro.nn.recurrent import GRUCell
from repro.nn.attention import MultiHeadAttention, scaled_dot_product_attention
from repro.nn.graph import (
    AdaptiveGraphConv,
    ChebConv,
    GraphConv,
    grid_adjacency,
    normalize_adjacency,
)
from repro.nn.losses import kl_diag_gaussians, kl_standard_normal, mse_loss

__all__ = [
    "Module", "Parameter", "init",
    "Linear", "Conv2d", "BatchNorm2d",
    "softmax", "log_softmax",
    "ModuleList", "GRUCell",
    "MultiHeadAttention", "scaled_dot_product_attention",
    "GraphConv", "ChebConv", "AdaptiveGraphConv",
    "grid_adjacency", "normalize_adjacency",
    "mse_loss", "kl_standard_normal", "kl_diag_gaussians",
]
