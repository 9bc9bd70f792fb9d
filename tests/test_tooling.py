"""Contracts between the package and the benchmark under perfbench/: the
tracer looks autodiff ops up by name, and the traced tape record count of
a training step is a benchmark metric."""
import importlib.util
import os

import numpy as np

import noisetrans.autodiff as ad
from noisetrans.autodiff import Tape
from noisetrans.model import desk_config, forward, init_weights
from noisetrans.objective import loss_total

_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def test_traced_autodiff_ops_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [op for op in tracing.AUTODIFF_OPS if not callable(getattr(ad, op, None))]
    assert not missing


def test_desk_training_step_tape_records():
    # 12 embedding layers at one record each; the rest of the network and
    # the loss make 111
    w = init_weights(desk_config(), seed=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((32, 3))
    with Tape() as tape:
        loss_total(forward(x, w), x + 0.05 * rng.standard_normal(x.shape), x)
    assert len(tape) == 123
