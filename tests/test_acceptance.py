"""End-to-end acceptance gate.

Nine criteria, each printing one pass/fail line (run pytest with -s to see
them live). The report-producing criteria (6-8) cache their artifacts so
the reproducibility criterion (9) can rerun the identical pipelines and
compare the emitted files byte for byte.
"""
import os
import shutil
import tempfile

import numpy as np

from noisetrans.autodiff import Tape
from noisetrans.cli import main as cli_main
from noisetrans.corruption import NoiseSpec, perturb, reference_length
from noisetrans.geometry import (
    Sphere,
    read_pointcloud,
    sample_surface,
    write_pointcloud,
)
from noisetrans.model import build_graphs, desk_config, forward, init_weights
from noisetrans.objective import (
    chamfer_distance,
    loss_total,
    point_to_mesh,
    point_triangle_sqdist,
)
from noisetrans.pipeline import (
    _entry_surface,
    denoise,
    load_manifest,
    make_dataset,
    run_sweep,
    sweep_variants,
    train,
)
from noisetrans.spatial import KdTree, knn_brute_force
from helpers import fd_model_param_grads, rel_err, sampled_triangle_dist

TRAIN_RECIPE = dict(epochs=16, base_lr=2e-3, halve_every=50, seed=0,
                    patch_size=32, clip_norm=1.0, average_tail=6)
DENOISE_RECIPE = dict(iterations=4, coverage=3, rotations=4)


def report(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def randomized_head(cfg, seed=0, scale=0.05):
    w = init_weights(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    w["head.final.weight"].data = scale * rng.standard_normal(
        w["head.final.weight"].shape)
    w["head.final.bias"].data = scale * rng.standard_normal(3)
    return w


# ---------------------------------------------------------------------------
# 1. gradient soundness
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_soundness():
    cfg = desk_config()
    rng = np.random.default_rng(0)
    coords = rng.standard_normal((16, 3)) * 0.5
    gt = coords + 0.05 * rng.standard_normal((16, 3))
    graphs = build_graphs(coords, cfg)
    # at the exact zero init every parameter upstream of the final head
    # projection has zero gradient; randomize the head so the check bites
    weights = randomized_head(cfg, seed=0)

    weights.zero_grad()
    with Tape() as tape:
        y = forward(coords, weights, graphs=graphs)
        loss = loss_total(y, gt, coords)
        tape.backward(loss)
    analytic = np.concatenate(
        [weights[n].grad.ravel() for n in weights.names()])

    fd_by_name = fd_model_param_grads(coords, gt, graphs, cfg, weights, h=1e-5)
    fd = np.concatenate([fd_by_name[n].ravel() for n in weights.names()])
    # the FD noise floor is eps*|loss|/(2h) ~ 1e-11; gradients far below the
    # 1e-6 denominator floor are exact zeros that FD cannot resolve
    errs = rel_err(analytic, fd, floor=1e-6)
    frac_tight = float((errs <= 1e-4).mean())
    ok = frac_tight >= 0.99 and errs.max() <= 1e-3
    assert report(1, "gradient soundness", ok), (
        f"{frac_tight:.4%} within 1e-4, max rel err {errs.max():.3e}")


# ---------------------------------------------------------------------------
# 2. permutation equivariance
# ---------------------------------------------------------------------------

def test_criterion_2_permutation_equivariance():
    cfg = desk_config()
    weights = randomized_head(cfg, seed=1)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        pts = rng.standard_normal((64, 3))
        perm = rng.permutation(64)
        with Tape():
            y = forward(pts, weights).data
            yp = forward(pts[perm], weights).data
        worst = max(worst, float(np.abs(yp - y[perm]).max()))
    assert report(2, "permutation equivariance", worst <= 1e-5), worst


# ---------------------------------------------------------------------------
# 3. identity at initialization, through the CLI
# ---------------------------------------------------------------------------

def test_criterion_3_identity_at_init(tmp_path):
    cloud = sample_surface(Sphere(3.0), 200, seed=2)
    noisy = perturb(cloud, NoiseSpec("gaussian", 0.02, seed=3))
    src = tmp_path / "in.xyz"
    write_pointcloud(noisy, src)
    run_dir = tmp_path / "run"
    ds = tmp_path / "ds"
    assert cli_main(["make-dataset", "--shapes", "sphere", "--points", "64",
                     "--count", "1", "--out", str(ds)]) == 0
    assert cli_main(["train", "--data", str(ds / "manifest.json"),
                     "--epochs", "0", "--out", str(run_dir)]) == 0
    out = tmp_path / "out.xyz"
    assert cli_main(["denoise", "--in", str(src),
                     "--weights", str(run_dir / "weights.ntw"),
                     "--iterations", "1", "--patch-size", "32",
                     "--out", str(out)]) == 0
    a = read_pointcloud(src).coords
    b = read_pointcloud(out).coords
    gap = float(np.abs(a - b).max())
    assert report(3, "identity at init", gap <= 1e-9), gap


# ---------------------------------------------------------------------------
# 4. spatial / metric oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(4)
    idx_ok = True
    worst_val = 0.0
    worst_cd = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 513))
        m = int(rng.integers(2, 513))
        pts = rng.standard_normal((n, 3))
        q = rng.standard_normal((m, 3))
        k = int(rng.integers(1, min(n, 16) + 1))
        ti, td = KdTree(pts).query(q, k)
        bi, bd = knn_brute_force(pts, q, k)
        idx_ok = idx_ok and np.array_equal(ti, bi)
        worst_val = max(worst_val, float(np.abs(td - bd).max()))

        cd = chamfer_distance(pts, q)
        d2 = ((pts[:, None, :] - q[None, :, :]) ** 2).sum(axis=-1)
        brute = float(d2.min(axis=1).mean() + d2.min(axis=0).mean())
        worst_cd = max(worst_cd, abs(cd - brute))
    ok = idx_ok and worst_val <= 1e-12 and worst_cd <= 1e-12
    assert report(4, "oracle equivalence", ok), (idx_ok, worst_val, worst_cd)


# ---------------------------------------------------------------------------
# 5. point-to-triangle distance
# ---------------------------------------------------------------------------

def test_criterion_5_point_to_triangle():
    tri = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
    unit = abs(point_triangle_sqdist([0.25, 0.25, 1.0], tri) - 1.0) <= 1e-12
    onsurf = point_triangle_sqdist([0.3, 0.3, 0.0], tri) <= 1e-10

    rng = np.random.default_rng(5)
    worst = 0.0
    done = 0
    while done < 1000:
        t = rng.standard_normal((3, 3))
        if np.linalg.norm(np.cross(t[1] - t[0], t[2] - t[0])) < 1e-3:
            continue
        p = rng.standard_normal(3)
        exact = np.sqrt(point_triangle_sqdist(p, t))
        approx = sampled_triangle_dist(p, t)
        worst = max(worst, abs(approx - exact))
        done += 1
    ok = unit and onsurf and worst <= 1e-3
    assert report(5, "point-to-triangle distance", ok), (unit, onsurf, worst)


# ---------------------------------------------------------------------------
# criteria 6-8 produce reports; cached so criterion 9 can rerun and compare
# ---------------------------------------------------------------------------

_BASE = tempfile.mkdtemp(prefix="acceptance_")


def _run_calibration(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    cloud = sample_surface(Sphere(2.0), 100_000, seed=6)
    ref = reference_length(cloud, "bounding_sphere_radius")
    target = 0.02 * ref
    lines = [f"target std {target:.17g}"]
    results = {}
    for dist in ("gaussian", "laplace", "uniform"):
        noisy = perturb(cloud, NoiseSpec(dist, 0.02, seed=7))
        resid = noisy.coords - cloud.coords
        std = float(resid.std())
        sup = float(np.abs(resid).max())
        results[dist] = (std, sup)
        lines.append(f"{dist} std {std:.17g} max_offset {sup:.17g}")
    path = os.path.join(out_dir, "calibration.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return target, results, path


def _run_desk_training(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    shapes = ["sphere", "torus:1:0.4"]
    noise = NoiseSpec("gaussian", 0.02, seed=0)
    train_m = make_dataset(os.path.join(out_dir, "train"), shapes, 1024,
                           noise, seed=0, count=20)
    test_m = make_dataset(os.path.join(out_dir, "test"), shapes, 1024,
                          NoiseSpec("gaussian", 0.02, seed=100),
                          seed=100, count=5)
    r = TRAIN_RECIPE
    result = train(train_m, desk_config(), r["epochs"],
                   os.path.join(out_dir, "run"), base_lr=r["base_lr"],
                   halve_every=r["halve_every"], seed=r["seed"],
                   patch_size=r["patch_size"], clip_norm=r["clip_norm"],
                   average_tail=r["average_tail"])
    test = load_manifest(test_m)
    base = os.path.dirname(test_m)
    lines = []
    ratios = []
    for entry in test["entries"]:
        noisy = read_pointcloud(os.path.join(base, entry["noisy"])).coords
        clean = read_pointcloud(os.path.join(base, entry["clean"])).coords
        surface = _entry_surface(entry)
        out = denoise(noisy, result.weights, patch_size=r["patch_size"],
                      **DENOISE_RECIPE)
        cd_ratio = chamfer_distance(out, clean) / chamfer_distance(noisy, clean)
        p2m_ratio = point_to_mesh(out, surface) / point_to_mesh(noisy, surface)
        ratios.append((cd_ratio, p2m_ratio))
        lines.append(f"{entry['name']} cd_ratio {cd_ratio:.17g} "
                     f"p2m_ratio {p2m_ratio:.17g}")
    mean_cd = float(np.mean([r0 for r0, _ in ratios]))
    mean_p2m = float(np.mean([r1 for _, r1 in ratios]))
    lines.append(f"MEAN cd_ratio {mean_cd:.17g} p2m_ratio {mean_p2m:.17g}")
    path = os.path.join(out_dir, "denoising_report.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return ratios, path


def _run_ablation(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    noise = NoiseSpec("gaussian", 0.02, seed=0)
    train_m = make_dataset(os.path.join(out_dir, "train"), ["sphere", "torus:1:0.4"],
                           64, noise, seed=8, count=2)
    test_m = make_dataset(os.path.join(out_dir, "test"), ["sphere"],
                          64, NoiseSpec("gaussian", 0.02, seed=9),
                          seed=9, count=1)
    variants = sweep_variants(["sparse", "coordinate", "none"],
                              [True, False], [True, False])
    grid = run_sweep(train_m, test_m, desk_config(), variants, epochs=1,
                     out_dir=os.path.join(out_dir, "sweep"), seed=0,
                     base_lr=1e-3, patch_size=16)
    return variants, grid


def _cached(key, runner):
    cache = _cached.store
    if key not in cache:
        cache[key] = runner(os.path.join(_BASE, key))
    return cache[key]


_cached.store = {}


def test_criterion_6_noise_calibration():
    target, results, _ = _cached("calibration", _run_calibration)
    ok = True
    for dist, (std, sup) in results.items():
        ok = ok and abs(std - target) <= 0.02 * target
    # uniform support bound: per-coordinate level maps to a hard half-width
    half_width = target * np.sqrt(3.0)
    ok = ok and results["uniform"][1] <= half_width + 1e-12
    assert report(6, "noise calibration", ok), (target, results)


def test_criterion_7_desk_training():
    ratios, _ = _cached("desk", _run_desk_training)
    # every held-out cloud individually clears both thresholds
    ok = all(cd <= 0.7 and p2m <= 0.7 for cd, p2m in ratios)
    assert report(7, "desk training beats thresholds", ok), ratios


def test_criterion_8_ablation_sweep():
    variants, grid = _cached("ablation", _run_ablation)
    lines = open(grid, encoding="utf-8").read().splitlines()
    # Table-3 shape: header plus one row per variant, one column per level
    ok = len(variants) == 12 and len(lines) == 13
    header_cols = lines[0].split()
    for line in lines[1:]:
        ok = ok and len(line.split()) == 1 + (len(header_cols) - 1)
    assert report(8, "ablation sweep grid", ok), lines[:2]


def test_criterion_9_reproducibility():
    first = {
        "calibration": _cached("calibration", _run_calibration)[-1],
        "desk": _cached("desk", _run_desk_training)[-1],
        "ablation": _cached("ablation", _run_ablation)[-1],
    }
    runners = {"calibration": _run_calibration, "desk": _run_desk_training,
               "ablation": _run_ablation}
    ok = True
    for key, path in first.items():
        rerun_dir = os.path.join(_BASE, key + "_rerun")
        repeat = runners[key](rerun_dir)[-1]
        with open(path, "rb") as fh:
            a = fh.read()
        with open(repeat, "rb") as fh:
            b = fh.read()
        ok = ok and a == b
        if key == "ablation":
            rec_a = os.path.join(os.path.dirname(path), "ablation_records.jsonl")
            rec_b = os.path.join(os.path.dirname(repeat), "ablation_records.jsonl")
            with open(rec_a, "rb") as fh_a, open(rec_b, "rb") as fh_b:
                ok = ok and fh_a.read() == fh_b.read()
        shutil.rmtree(rerun_dir, ignore_errors=True)
    assert report(9, "bitwise reproducibility", ok)
