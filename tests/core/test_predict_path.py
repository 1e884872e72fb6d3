"""``predict`` runs the prediction path only.

That path is the stems, the exclusive and interactive convolutions and
the spatial head (the pair stems for the pairwise variant).  Its answer
must be the full forward's ``prediction`` bit for bit.  It must draw
nothing from the model's sampling generator, because the forward
compiler no longer rewinds one.  Its op count is pinned, so an edit that
puts the variational branch back on the serving path fails here.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.core import MUSENet, MuseOutputs
from repro.core.variants import PairwiseMUSENet
from repro.experiments.common import muse_config
from repro.profiling import profile
from repro.tensor import no_grad
from repro.training import TrainConfig, Trainer

KINDS = ("resplus", "conv", "none", "pairwise")


def build(kind, config, dtype="float64"):
    if kind == "pairwise":
        model = PairwiseMUSENet(config)
    else:
        model = MUSENet(dataclasses.replace(config, spatial_mode=kind))
    if dtype != "float64":
        Trainer(model, TrainConfig(dtype=dtype))  # casts the model in place
    model.eval()
    return model


def forward_prediction(model, batch):
    with no_grad():
        outputs = model(batch.closeness, batch.period, batch.trend)
    prediction = (outputs.prediction if isinstance(outputs, MuseOutputs)
                  else outputs[0])
    return prediction.data


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("kind", KINDS)
def test_predict_equals_forward_prediction(kind, dtype, tiny_data,
                                           tiny_config):
    model = build(kind, tiny_config, dtype)
    train = tiny_data.train.astype(np.dtype(dtype))
    for n in (1, 2, 8, 32):
        batch = train.slice(0, n)
        prediction = model.predict(batch)
        assert prediction.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(prediction,
                                      forward_prediction(model, batch))


@pytest.mark.parametrize("kind", ["resplus", "pairwise"])
def test_predict_draws_no_random_numbers(kind, tiny_data, tiny_config):
    model = build(kind, tiny_config)
    before = copy.deepcopy(model._sample_rng.bit_generator.state)
    model.predict(tiny_data.test)
    model.predict(tiny_data.test.slice(0, 1))
    assert model._sample_rng.bit_generator.state == before


# Ops one predict records at the paper profile's sizes (the count
# does not depend on the grid).  The full forward records 164, 151,
# 146 and 147 of them.
PAPER_PREDICT_OPS = {"resplus": 39, "conv": 26, "none": 21, "pairwise": 45}


@pytest.mark.parametrize("kind", KINDS)
def test_predict_op_count_is_pinned(kind, tiny_data):
    model = build(kind, muse_config(tiny_data, "paper"))
    with profile() as profiler:
        model.predict(tiny_data.test.slice(0, 1))
    ops = sum(stats.calls for stats in profiler.stats.values())
    assert ops == PAPER_PREDICT_OPS[kind]


def test_encode_keeps_the_full_forward(tiny_data, tiny_config):
    model = build("resplus", tiny_config)
    outputs = model.encode(tiny_data.test)
    assert set(outputs.reconstructions) == {"c", "p", "t"}
    np.testing.assert_array_equal(outputs.prediction.data,
                                  model.predict(tiny_data.test))
