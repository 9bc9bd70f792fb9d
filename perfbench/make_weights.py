"""Regenerate the stored desk weights from the acceptance training recipe.

    python3 perfbench/make_weights.py

Trains `desk_config()` for 16 epochs on 20 noisy sphere/torus clouds of
1024 points (2 % gaussian), exactly as acceptance criterion 7 does, and
writes the tail-averaged weights to perfbench/desk_weights.ntw. Run it
again whenever the model's parameter layout changes. Dataset and
checkpoints go to a temporary directory that is removed afterwards.
"""
from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

from common import DESK_WEIGHTS, pin_blas, use_repo_package

pin_blas()
use_repo_package()

from noisetrans.corruption import NoiseSpec  # noqa: E402
from noisetrans.model import desk_config  # noqa: E402
from noisetrans.pipeline import make_dataset, train  # noqa: E402

TRAIN_RECIPE = dict(epochs=16, base_lr=2e-3, halve_every=50, seed=0,
                    patch_size=32, clip_norm=1.0, average_tail=6)


def main() -> int:
    work = tempfile.mkdtemp(prefix="perfbench_weights_")
    try:
        manifest = make_dataset(os.path.join(work, "train"),
                                ["sphere", "torus:1:0.4"], 1024,
                                NoiseSpec("gaussian", 0.02, seed=0),
                                seed=0, count=20)
        r = TRAIN_RECIPE
        t0 = time.perf_counter()
        result = train(manifest, desk_config(), r["epochs"],
                       os.path.join(work, "run"), base_lr=r["base_lr"],
                       halve_every=r["halve_every"], seed=r["seed"],
                       patch_size=r["patch_size"], clip_norm=r["clip_norm"],
                       average_tail=r["average_tail"], progress=print)
        shutil.copyfile(result.weights_path, DESK_WEIGHTS)
        print(f"wrote {DESK_WEIGHTS} in {time.perf_counter() - t0:.0f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
