"""Contracts between the package and the benchmark under perfbench/: the
tracer looks autodiff ops up by name, and the traced tape record count of
a training step is a benchmark metric."""
import numpy as np

import noisetrans.autodiff as ad
from noisetrans.autodiff import Tape
from noisetrans.model import desk_config, forward, init_weights
from noisetrans.objective import loss_total
from helpers import traced_autodiff_ops


def test_traced_autodiff_ops_exist():
    missing = [op for op in traced_autodiff_ops() if not callable(getattr(ad, op, None))]
    assert not missing


def test_desk_training_step_tape_records():
    # One record per op call. Network, 86: the 12 embedding layers and the
    # 21 dense layers (fuse 2, sparse encoding 2, q/k/v/o and ffn0/ffn1 in
    # each of 2 encoder layers, 4 head layers and the head's final
    # projection) at one record each; 10 transposes, 8 reshapes, 4 matmuls,
    # 2 scalings and 2 softmaxes in the 2 attention blocks; 8 concats, 6
    # adds, 6 gelus, 4 layer norms, 2 relus and 1 sum. Loss, 16: pairwise
    # distances, 2 minima, 4 sums, 6 products, 2 adds and 1 sub. With
    # `linear` as a matmul and an add, the dense layers made 42 and the
    # step 123.
    w = init_weights(desk_config(), seed=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((32, 3))
    with Tape() as tape:
        loss_total(forward(x, w), x + 0.05 * rng.standard_normal(x.shape), x)
    assert len(tape) == 102
