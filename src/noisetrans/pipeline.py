"""End-to-end plumbing: dataset synthesis, patch-based training, the
iterative denoising protocol, evaluation, and the ablation sweep.

Every stage is deterministic given (inputs, resolved config, seed); reports
are emitted with fixed formatting so reruns are bitwise identical.
"""
from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .corruption import NoiseSpec, perturb
from .errors import ArgumentError, ContractError, NumericError
from .geometry import (
    PointCloud,
    as_points,
    denormalize,
    load_mesh,
    make_shape,
    normalize_unit_sphere,
    read_pointcloud,
    read_text,
    sample_surface,
    shape_from_dict,
    shape_to_dict,
    write_colored_cloud,
    write_pointcloud,
)
from .model import (
    Graphs,
    ModelConfig,
    ModelWeights,
    build_graphs,
    forward,
    init_weights,
    load_weights,
    repeat_graphs,
    save_weights,
)
from .objective import (
    Adam,
    EvalReport,
    EvalRow,
    chamfer_distance,
    loss_total,
    point_to_mesh,
    surface_sqdist,
)
from .spatial import KdTree, extract_patches, stitch_patches

log = logging.getLogger(__name__)


def _entry_seed(seed: int, index: int, salt: int) -> int:
    return int((seed * 1_000_003 + index * 7919 + salt) % (2 ** 31 - 1))


# ---------------------------------------------------------------------------
# dataset synthesis
# ---------------------------------------------------------------------------

def make_dataset(out_dir, shapes, n_points: int, noise: NoiseSpec,
                 seed: int, count: int | None = None,
                 level_range: tuple[float, float] | None = None) -> str:
    """Write paired clean/noisy xyz clouds plus a manifest; returns its path.

    `shapes` is a list of shape specs ('sphere', 'torus:1:0.4', or mesh file
    paths); entries cycle through it until `count` clouds exist. With
    `level_range` each cloud draws its noise level uniformly from the range.
    """
    os.makedirs(out_dir, exist_ok=True)
    if not shapes:
        raise ArgumentError("no shapes given")
    count = count if count is not None else len(shapes)
    entries = []
    for i in range(count):
        spec = shapes[i % len(shapes)]
        if os.path.exists(spec) or spec.endswith((".off", ".obj")):
            surface = load_mesh(spec)
            surface_desc = {"kind": "mesh", "path": os.path.abspath(spec)}
        else:
            surface = make_shape(spec)
            surface_desc = shape_to_dict(surface)
        clean = sample_surface(surface, n_points, seed=_entry_seed(seed, i, 1))
        if level_range is not None:
            lo, hi = level_range
            level = float(np.random.default_rng(_entry_seed(seed, i, 2)).uniform(lo, hi))
        else:
            level = noise.level
        entry_noise = NoiseSpec(
            distribution=noise.distribution, level=level,
            scale_reference=noise.scale_reference, seed=_entry_seed(seed, i, 3),
        )
        noisy = perturb(clean, entry_noise)
        name = f"shape_{i:03d}_{spec.split(':')[0].split('/')[-1].split('.')[0]}"
        clean_path = f"{name}_clean.xyz"
        noisy_path = f"{name}_noisy.xyz"
        write_pointcloud(clean, os.path.join(out_dir, clean_path))
        write_pointcloud(noisy, os.path.join(out_dir, noisy_path))
        entries.append({
            "name": name,
            "surface": surface_desc,
            "clean": clean_path,
            "noisy": noisy_path,
            "points": n_points,
            "noise": {
                "distribution": entry_noise.distribution,
                "level": entry_noise.level,
                "scale_reference": entry_noise.scale_reference,
                "seed": entry_noise.seed,
            },
        })
    manifest = {"seed": seed, "entries": entries}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_manifest(path) -> dict:
    try:
        manifest = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ContractError(f"{path}: bad manifest: {exc}") from None
    if "entries" not in manifest:
        raise ContractError(f"{path}: manifest lacks 'entries'")
    return manifest


def _entry_surface(entry: dict):
    desc = entry["surface"]
    if desc["kind"] == "mesh":
        return load_mesh(desc["path"])
    return shape_from_dict(desc)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class _TrainPair:
    noisy_local: np.ndarray
    clean_local: np.ndarray
    graphs: Graphs


def build_training_pairs(manifest_path, patch_size: int, cfg: ModelConfig) -> list[_TrainPair]:
    """Extract patches from each noisy cloud and pair each member with its
    nearest clean point, both sides in the patch's local frame.

    The nearest clean point approximates the projection of the member onto
    the underlying surface, so the displacement it supervises is almost
    purely along the surface normal - the same component the denoiser
    keeps at inference time. Row alignment additionally lets the
    displacement loss discourage tangential drift."""
    manifest = load_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    pairs = []
    for entry in manifest["entries"]:
        noisy = read_pointcloud(os.path.join(base, entry["noisy"]))
        clean = read_pointcloud(os.path.join(base, entry["clean"]))
        patches = extract_patches(noisy.coords, patch_size)
        gt_idx, _ = KdTree(clean.coords).query(noisy.coords, 1)
        clean_local = ((clean.coords[gt_idx[patches.members, 0]] - patches.centers[:, None])
                       / patches.scales[:, None, None])
        pairs.extend(_TrainPair(noisy_local=nl, clean_local=cl, graphs=build_graphs(nl, cfg))
                     for nl, cl in zip(patches.local, clean_local))
    if not pairs:
        raise ContractError(f"{manifest_path}: no training pairs")
    return pairs


@dataclass
class TrainResult:
    weights: ModelWeights
    epoch_losses: list[float]
    weights_path: str


def _checkpoint(out_dir, weights, optimizer, epoch) -> None:
    ck = os.path.join(out_dir, "checkpoint")
    os.makedirs(ck, exist_ok=True)
    save_weights(weights, os.path.join(ck, "weights.ntw"))
    with open(os.path.join(ck, "optim.bin"), "wb") as fh:
        fh.write(optimizer.state_bytes())
    with open(os.path.join(ck, "state.json"), "w", encoding="utf-8") as fh:
        json.dump({"next_epoch": epoch + 1}, fh)


def _next_epoch(state_path) -> int:
    """The epoch a checkpoint's state.json says to resume at."""
    try:
        next_epoch = json.loads(read_text(state_path))["next_epoch"]
    except (json.JSONDecodeError, KeyError, TypeError):
        next_epoch = None
    if type(next_epoch) is not int or next_epoch < 0:
        raise ContractError(
            f"{state_path}: checkpoint state needs a non-negative integer 'next_epoch'")
    return next_epoch


def _clip_gradients(weights, max_norm: float) -> None:
    total = 0.0
    for t in weights.params.values():
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for t in weights.params.values():
            if t.grad is not None:
                t.grad *= scale


def train(manifest_path, cfg: ModelConfig, epochs: int, out_dir,
          base_lr: float = 5e-4, halve_every: int = 50, seed: int = 0,
          patch_size: int = 256, alpha: float = 0.9, beta: float = 0.1,
          anchor: str = "input", clip_norm: float = 1.0,
          average_tail: int = 1, resume: str | None = None,
          progress=None) -> TrainResult:
    """Patch-wise supervised training; checkpoints every epoch, resumable.

    Gradients are clipped to a global norm before each update: single-patch
    Chamfer gradients occasionally spike when nearest-neighbour assignments
    flip, and an unclipped spike can destabilize several later epochs.

    With average_tail > 1 the returned weights are the mean of the last
    that many end-of-epoch snapshots (tail averaging); single-patch updates
    keep the trajectory noisy and the average generalizes measurably
    better than the final iterate. Checkpoints hold the raw iterate, so a
    resumed run only averages snapshots from its own epochs."""
    os.makedirs(out_dir, exist_ok=True)
    pairs = build_training_pairs(manifest_path, patch_size, cfg)
    start_epoch = 0
    if resume is None:
        weights = init_weights(cfg, seed=seed)
        optimizer = Adam(weights, base_lr=base_lr, halve_every=halve_every)
    else:
        ck = os.path.join(resume, "checkpoint")
        weights = load_weights(os.path.join(ck, "weights.ntw"), expect_config=cfg)
        optimizer = Adam(weights, base_lr=base_lr, halve_every=halve_every)
        with open(os.path.join(ck, "optim.bin"), "rb") as fh:
            optimizer.load_state_bytes(fh.read())
        start_epoch = _next_epoch(os.path.join(ck, "state.json"))

    epoch_losses: list[float] = []
    tail: list[dict] = []
    for epoch in range(start_epoch, epochs):
        order = np.random.default_rng([seed, epoch]).permutation(len(pairs))
        total = 0.0
        for i in order:
            pair = pairs[i]
            weights.zero_grad()
            with Tape() as tape:
                y = forward(pair.noisy_local, weights, graphs=pair.graphs)
                loss = loss_total(y, pair.clean_local, pair.noisy_local,
                                  alpha=alpha, beta=beta, anchor=anchor)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}; last checkpoint kept"
                    )
                tape.backward(loss)
            del tape  # free the recorded activations and gradients before the optimizer step
            if clip_norm is not None:
                _clip_gradients(weights, clip_norm)
            optimizer.step(epoch)
            total += value
        mean_loss = total / len(pairs)
        epoch_losses.append(mean_loss)
        msg = f"epoch {epoch:3d}  lr {optimizer.lr_at(epoch):.2e}  loss {mean_loss:.6e}"
        (progress or log.info)(msg)
        _checkpoint(out_dir, weights, optimizer, epoch)
        if average_tail > 1:
            tail.append({n: weights[n].data.copy() for n in weights.names()})
            del tail[:-average_tail]
    if len(tail) > 1:
        weights = weights.copy()
        for n in weights.names():
            weights[n].data = np.mean([snap[n] for snap in tail], axis=0)
    weights_path = os.path.join(out_dir, "weights.ntw")
    save_weights(weights, weights_path)
    return TrainResult(weights=weights, epoch_losses=epoch_losses,
                       weights_path=weights_path)


# ---------------------------------------------------------------------------
# iterative denoising
# ---------------------------------------------------------------------------

def auto_iterations(noise_level: float | None) -> int:
    """One pass for levels <= 2%, two above; one when the level is unknown."""
    if noise_level is None:
        return 1
    return 1 if noise_level <= 0.02 else 2


def estimate_normals(coords) -> np.ndarray:
    """Per-point unit normals from the smallest principal axis of the
    covariance of the 24 nearest neighbours (all points in a smaller
    cloud). Signs are arbitrary (unoriented)."""
    coords = np.asarray(coords, dtype=np.float64)
    k = min(24, len(coords))
    idx, _ = KdTree(coords).query(coords, k)
    nb = coords[idx]
    nb = nb - nb.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", nb, nb)
    _, vecs = np.linalg.eigh(cov)
    return vecs[:, :, 0]


def _sampled_rotations(n: int) -> list[np.ndarray]:
    """The identity plus n-1 uniform random rotations (QR-based), drawn from
    the fixed seed 42."""
    rng = np.random.default_rng(42)
    rots = [np.eye(3)]
    for _ in range(n - 1):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        rots.append(q)
    return rots


# Budget, in elements, of one forward's largest tensor: the embedding's edge
# features, rows x max(k_scales) x 2 feat_width. The desk profile then runs
# 512 rows per forward (4 patches x 4 rotations, or 16 patches unrotated),
# which measured fastest: larger chunks spent more time in page faults and
# raised peak memory. A full-profile patch alone exceeds it, so that runs
# one patch per forward.
_EDGE_BUDGET = 2 ** 16


def _patches_per_forward(cfg: ModelConfig, patch_size: int, copies: int) -> int:
    """The most patches whose `copies`-fold edge tensor fits _EDGE_BUDGET,
    and never fewer than one."""
    per_patch = copies * patch_size * max(cfg.k_scales) * 2 * cfg.feat_width
    return max(1, _EDGE_BUDGET // per_patch)


def denoise(coords, weights: ModelWeights, iterations: int = 1,
            patch_size: int = 256, coverage: int = 3,
            rotations: int = 1) -> np.ndarray:
    """normalize -> patches -> forward -> stitch -> denormalize, chained.

    `coverage` is the minimum number of patches holding each point; stitching
    averages the per-patch estimates, so overlapping coverage reduces the
    variance of the prediction at modest extra forward cost.

    Each pass keeps only the component of the predicted displacement
    along the point's estimated surface normal. The tangential component
    of the prediction redistributes points along the surface (it cannot
    reduce the distance to it) and empirically degrades coverage;
    discarding it preserves the input's tangential spread, the way an
    exact projection onto the surface would.

    With `rotations` > 1 each patch is additionally evaluated under that
    many fixed random orientations (the identity plus seeded uniform
    rotations) and the rotated-back predictions are averaged. The network
    is permutation- but not rotation-equivariant, so this ensembling
    averages out orientation-dependent prediction error. The rotations are
    fixed, so the result is deterministic; forward cost grows by
    `rotations`.

    Each pass builds every patch's KNN graphs once, in its unrotated local
    frame, and all rotations share them: the graphs do not change under
    rotation. Patches run through the network in chunks, each chunk one
    forward over all its patches under all rotations. A chunk holds the
    most patches whose edge-feature tensor (rows x max(k_scales) x 2
    feat_width) stays within a fixed element budget, and at least one."""
    coords = as_points(coords, "coords")
    cfg = weights.config
    if len(coords) < cfg.min_points:
        raise ArgumentError(
            f"cloud has {len(coords)} points but the model needs at least "
            f"{cfg.min_points}; supply a larger cloud or a smaller-k config"
        )
    if patch_size < cfg.min_points:
        raise ArgumentError(
            f"patch_size {patch_size} below the model minimum {cfg.min_points}"
        )
    rots = _sampled_rotations(rotations)
    for _ in range(iterations):
        cloud = normalize_unit_sphere(PointCloud(coords))
        patches = extract_patches(cloud.coords, patch_size, min_coverage=coverage)
        local = patches.local                                          # (P, N, 3)
        chunk = _patches_per_forward(cfg, local.shape[1], len(rots))
        denoised = np.zeros_like(local)
        for start in range(0, len(local), chunk):
            block = local[start:start + chunk]
            graphs = repeat_graphs(build_graphs(block, cfg), len(rots))
            rows = np.concatenate([block @ rot.T for rot in rots]).reshape(-1, 3)
            ys = forward(rows, weights, graphs=graphs).data.reshape(len(rots), *block.shape)
            acc = denoised[start:start + chunk]
            for y, rot in zip(ys, rots):
                acc += y @ rot
            acc /= len(rots)
        stitched = stitch_patches(patches, denoised, len(coords))
        out = denormalize(PointCloud(stitched, center=cloud.center,
                                     scale=cloud.scale)).coords
        n = estimate_normals(coords)
        coords = coords + ((out - coords) * n).sum(axis=1, keepdims=True) * n
    return coords


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate_pairs(items, out_dir=None, export_colored: bool = False,
                   config_hash: str = "") -> EvalReport:
    """items: iterable of dicts with keys name, denoised (N,3), clean (M,3),
    surface (TriMesh or analytic), noise (str), iterations (int)."""
    report = EvalReport(config_hash=config_hash)
    if export_colored and out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    for item in items:
        cd = chamfer_distance(item["denoised"], item["clean"])
        p2m = point_to_mesh(item["denoised"], item["surface"])
        report.rows.append(EvalRow(
            name=item["name"], noise=item.get("noise", ""), cd=cd, p2m=p2m,
            iterations=item.get("iterations", 0),
        ))
        if export_colored and out_dir is not None:
            d = np.sqrt(surface_sqdist(item["denoised"], item["surface"]))
            write_colored_cloud(np.asarray(item["denoised"]), d,
                                os.path.join(out_dir, f"{item['name']}_colored.ply"))
    return report


def write_report(report: EvalReport, out_dir) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    txt = os.path.join(out_dir, "report.txt")
    jsonl = os.path.join(out_dir, "report.jsonl")
    with open(txt, "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    with open(jsonl, "w", encoding="utf-8") as fh:
        fh.write(report.to_jsonl())
    return txt, jsonl


# ---------------------------------------------------------------------------
# ablation sweep
# ---------------------------------------------------------------------------

def sweep_variants(encodings, lpa_options, attention_options) -> list[dict]:
    variants = []
    for enc in encodings:
        for lpa in lpa_options:
            for att in attention_options:
                variants.append({
                    "encoding_mode": enc, "lpa_enabled": lpa, "attention_enabled": att,
                })
    return variants


def variant_name(v: dict) -> str:
    return (f"enc={v['encoding_mode']},lpa={'on' if v['lpa_enabled'] else 'off'},"
            f"att={'on' if v['attention_enabled'] else 'off'}")


def run_sweep(train_manifest, test_manifest, base_cfg: ModelConfig, variants,
              epochs: int, out_dir, seed: int = 0, base_lr: float = 5e-4,
              patch_size: int = 256, progress=None) -> str:
    """Train and evaluate every toggle combination; emit a comparison grid
    (rows = variants, columns = noise levels, values = mean CD x 1e4)."""
    os.makedirs(out_dir, exist_ok=True)
    test = load_manifest(test_manifest)
    base = os.path.dirname(os.path.abspath(test_manifest))
    levels = sorted({e["noise"]["level"] for e in test["entries"]})
    grid_rows = []
    records = []
    for v in variants:
        cfg = ModelConfig.from_dict({**base_cfg.to_dict(), **v})
        name = variant_name(v)
        run_dir = os.path.join(out_dir, name.replace(",", "_").replace("=", "-"))
        result = train(train_manifest, cfg, epochs, run_dir, base_lr=base_lr,
                       seed=seed, patch_size=patch_size, progress=progress)
        per_level: dict[float, list[float]] = {lv: [] for lv in levels}
        for entry in test["entries"]:
            noisy = read_pointcloud(os.path.join(base, entry["noisy"]))
            clean = read_pointcloud(os.path.join(base, entry["clean"]))
            level = entry["noise"]["level"]
            out = denoise(noisy.coords, result.weights,
                          iterations=auto_iterations(level), patch_size=patch_size)
            cd = chamfer_distance(out, clean.coords)
            per_level[level].append(cd)
            records.append({"variant": name, "shape": entry["name"],
                            "noise_level": level, "cd": cd, "cd_x1e4": cd * 1e4})
        grid_rows.append((name, [float(np.mean(per_level[lv])) for lv in levels]))

    header = f"{'variant':<36} " + " ".join(f"{lv * 100:>9.1f}%" for lv in levels)
    lines = [header]
    for name, values in grid_rows:
        lines.append(f"{name:<36} " + " ".join(f"{v * 1e4:>10.4f}" for v in values))
    grid_path = os.path.join(out_dir, "ablation_grid.txt")
    with open(grid_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, "ablation_records.jsonl"), "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return grid_path
