"""The exact settable fields of every config object.

Each field is one more configuration that tests and benchmarks must
cover, so adding (or removing) a knob must also edit this file.  A
value that every caller sets the same way belongs in a module constant
or in the default of the component it feeds, not here.
"""

import dataclasses

import pytest

from repro.serve import ServeConfig
from repro.stream import AdaptationConfig, StreamConfig
from repro.training import TrainConfig

SURFACE = {
    TrainConfig: (
        "epochs", "batch_size", "lr", "patience", "seed", "verbose",
        "profile_ops", "dtype", "sentinel", "detect_anomaly", "max_steps",
        "checkpoint_dir", "checkpoint_every", "resume", "workers", "compile",
    ),
    ServeConfig: (
        "max_batch", "max_wait_ms", "replicas", "compile", "min_replicas",
        "max_replicas",
    ),
    StreamConfig: ("auto_adapt", "adaptation"),
    AdaptationConfig: ("step_budget", "lr", "recent_boost", "seed"),
}


@pytest.mark.parametrize("config", list(SURFACE), ids=lambda c: c.__name__)
def test_config_fields_are_exactly_the_listed_knobs(config):
    fields = tuple(field.name for field in dataclasses.fields(config))
    assert fields == SURFACE[config]


def test_autoscaling_policy_has_no_config_object():
    import repro.serve

    assert not hasattr(repro.serve, "AutoScaleConfig")
