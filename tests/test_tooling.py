"""Contracts between the package and the benchmark under perfbench/: the
tracer looks autodiff ops up by name and counts patches on the result of
extract_patches, the training workload reads the fields of every training
pair, the traced tape record count of a training step is a benchmark
metric, and the denoise workload drives the command line with its flags."""
import importlib
import os

import numpy as np

import noisetrans.autodiff as ad
import noisetrans.cli
from noisetrans.autodiff import Tape
from noisetrans.corruption import NoiseSpec
from noisetrans.geometry import read_pointcloud
from noisetrans.model import desk_config, forward, init_weights
from noisetrans.objective import loss_total
from noisetrans.pipeline import build_training_pairs, make_dataset
from noisetrans.spatial import extract_patches
from helpers import perfbench_tracing, traced_autodiff_ops


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


def test_patch_count_and_training_pair_fields(tmp_path):
    """RESULT_COUNTS turns extract_patches' result into the patch count, and
    the training workload reads noisy_local, clean_local and graphs of every
    build_training_pairs item, passing graphs to forward unread."""
    suffix, count = perfbench_tracing().RESULT_COUNTS["spatial.extract_patches"]
    assert suffix == "patches"
    pts = np.random.default_rng(2).standard_normal((60, 3))
    for size, coverage in ((16, 1), (12, 3), (100, 1)):
        patches = extract_patches(pts, size, coverage)
        assert count(patches) == len(patches.seeds) == len(patches.members) == len(patches.local)
    cfg = desk_config()
    w = init_weights(cfg, seed=3)
    w["head.final.weight"].data = 0.05 * np.random.default_rng(4).standard_normal(
        w["head.final.weight"].shape)
    manifest = make_dataset(tmp_path / "data", ["sphere"], 64,
                            NoiseSpec("gaussian", 0.02, seed=5), seed=5)
    pairs = build_training_pairs(manifest, 16, cfg)
    noisy = read_pointcloud(tmp_path / "data" / "shape_000_sphere_noisy.xyz").coords
    assert len(pairs) == len(extract_patches(noisy, 16))
    for item in pairs:
        assert item.noisy_local.shape == item.clean_local.shape == (16, 3)
        given = forward(item.noisy_local, w, graphs=item.graphs).data
        assert given.tobytes() == forward(item.noisy_local, w).data.tobytes()


def test_denoise_desk_flags_parse(tmp_path, monkeypatch):
    """The denoise-desk workload's own argv parses under build_parser()."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    workloads = importlib.import_module("workloads")
    desk = object.__new__(workloads.DenoiseDesk)   # the argv needs no set-up
    desk.workdir, desk.first, desk.last = str(tmp_path), {}, {}
    calls = []

    def parse_only(argv):
        args = noisetrans.cli.build_parser().parse_args(argv)
        calls.append((argv, args))
        np.savetxt(args.out, np.zeros((1, 3)))
        return 0

    monkeypatch.setattr(noisetrans.cli, "main", parse_only)
    desk._cli_denoise("sphere")()
    (argv, args), = calls
    assert {a for a in argv if a.startswith("--")} == {
        "--in", "--weights", "--iterations", "--rotations", "--patch-size", "--out"}
    assert args.func is noisetrans.cli.cmd_denoise
    assert args.weights == workloads.DESK_WEIGHTS
    assert (args.iterations, args.rotations, args.patch_size) == (
        str(desk.iterations), desk.denoise_rotations, desk.denoise_patch)
