"""Dataset synthesis, training loop mechanics (determinism, resume), the
iterative denoising protocol, and report writing."""
import json
import os

import numpy as np
import pytest

from noisetrans.errors import ArgumentError, ContractError, ParseError
from noisetrans.corruption import NoiseSpec
from noisetrans.geometry import Sphere, read_pointcloud, sample_surface
from noisetrans.model import desk_config, init_weights
from noisetrans.pipeline import (
    auto_iterations,
    build_training_pairs,
    denoise,
    evaluate_pairs,
    load_manifest,
    make_dataset,
    sweep_variants,
    train,
    variant_name,
    write_report,
)
from noisetrans.spatial import extract_patches, knn_brute_force


def small_dataset(tmp_path, count=2, n_points=64, seed=0, name="data"):
    return make_dataset(
        tmp_path / name, ["sphere", "torus:1:0.4"], n_points,
        NoiseSpec("gaussian", 0.02, seed=seed), seed=seed, count=count,
    )


def test_make_dataset_files_and_manifest(tmp_path):
    path = small_dataset(tmp_path, count=3)
    manifest = load_manifest(path)
    assert len(manifest["entries"]) == 3
    base = os.path.dirname(path)
    for entry in manifest["entries"]:
        clean = read_pointcloud(os.path.join(base, entry["clean"]))
        noisy = read_pointcloud(os.path.join(base, entry["noisy"]))
        assert len(clean) == len(noisy) == 64
        assert not np.allclose(clean.coords, noisy.coords)
        assert entry["noise"]["level"] == 0.02
    # shapes cycle: sphere, torus, sphere
    kinds = [e["surface"]["kind"] for e in manifest["entries"]]
    assert kinds == ["sphere", "torus", "sphere"]


def test_make_dataset_level_range(tmp_path):
    path = make_dataset(
        tmp_path / "rng", ["sphere"], 32, NoiseSpec("gaussian", 0.01, seed=1),
        seed=1, count=6, level_range=(0.01, 0.04),
    )
    levels = [e["noise"]["level"] for e in load_manifest(path)["entries"]]
    assert all(0.01 <= lv <= 0.04 for lv in levels)
    assert len(set(levels)) > 1


def test_make_dataset_deterministic(tmp_path):
    p1 = small_dataset(tmp_path, name="a")
    p2 = small_dataset(tmp_path, name="b")
    m1, m2 = load_manifest(p1), load_manifest(p2)
    for e1, e2 in zip(m1["entries"], m2["entries"]):
        c1 = read_pointcloud(os.path.join(os.path.dirname(p1), e1["clean"]))
        c2 = read_pointcloud(os.path.join(os.path.dirname(p2), e2["clean"]))
        assert np.array_equal(c1.coords, c2.coords)


def test_load_manifest_errors(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text("{not json")
    with pytest.raises(ContractError):
        load_manifest(bad)
    bad.write_text("{}")
    with pytest.raises(ContractError):
        load_manifest(bad)


def test_build_training_pairs_local_frames(tmp_path):
    path = small_dataset(tmp_path)
    cfg = desk_config()
    pairs = build_training_pairs(path, patch_size=16, cfg=cfg)
    assert pairs
    for pair in pairs:
        assert pair.noisy_local.shape == pair.clean_local.shape == (16, 3)
        assert np.sqrt((pair.noisy_local ** 2).sum(axis=1)).max() <= 1.0 + 1e-12
        assert pair.graphs.patch_size == 16 and pair.graphs.idx[:, :8].shape == (16, 8)


def test_train_decreases_loss_and_is_deterministic(tmp_path):
    path = small_dataset(tmp_path)
    cfg = desk_config()
    r1 = train(path, cfg, epochs=3, out_dir=tmp_path / "run1", seed=0,
               patch_size=16, base_lr=1e-3)
    r2 = train(path, cfg, epochs=3, out_dir=tmp_path / "run2", seed=0,
               patch_size=16, base_lr=1e-3)
    assert r1.epoch_losses == r2.epoch_losses
    assert r1.epoch_losses[-1] < r1.epoch_losses[0]
    for n in r1.weights.names():
        assert np.array_equal(r1.weights[n].data, r2.weights[n].data)


def test_train_resume_matches_uninterrupted(tmp_path):
    path = small_dataset(tmp_path)
    cfg = desk_config()
    full = train(path, cfg, epochs=4, out_dir=tmp_path / "full", seed=0,
                 patch_size=16)
    part = train(path, cfg, epochs=2, out_dir=tmp_path / "part", seed=0,
                 patch_size=16)
    resumed = train(path, cfg, epochs=4, out_dir=tmp_path / "part", seed=0,
                    patch_size=16, resume=str(tmp_path / "part"))
    # the checkpoint stores f32 weights, so resumption matches to f32 noise
    assert np.allclose(resumed.epoch_losses, full.epoch_losses[2:], rtol=1e-6)
    for n in full.weights.names():
        assert np.allclose(resumed.weights[n].data, full.weights[n].data,
                           atol=1e-6)  # checkpoint stores f32


def test_checkpoint_files_exist(tmp_path):
    path = small_dataset(tmp_path)
    train(path, desk_config(), epochs=1, out_dir=tmp_path / "run", seed=0,
          patch_size=16)
    ck = tmp_path / "run" / "checkpoint"
    assert (ck / "weights.ntw").exists()
    assert (ck / "optim.bin").exists()
    assert json.loads((ck / "state.json").read_text())["next_epoch"] == 1
    assert (tmp_path / "run" / "weights.ntw").exists()


@pytest.mark.parametrize("state, error", [
    (b"{}", ContractError), (b"not json", ContractError), (b"[1]", ContractError),
    (b'{"next_epoch": "1"}', ContractError), (b'{"next_epoch": -1}', ContractError),
    (b"\xff\xfe", ParseError)])
def test_train_resume_refuses_a_malformed_state(tmp_path, state, error):
    path = small_dataset(tmp_path)
    train(path, desk_config(), epochs=1, out_dir=tmp_path / "run", seed=0,
          patch_size=16)
    (tmp_path / "run" / "checkpoint" / "state.json").write_bytes(state)
    with pytest.raises(error, match="state.json"):
        train(path, desk_config(), epochs=2, out_dir=tmp_path / "run", seed=0,
              patch_size=16, resume=str(tmp_path / "run"))


def _gradients(weights):
    return {n: weights[n].grad for n in weights.names()}


def test_clip_gradients_against_the_concatenated_norm():
    from noisetrans.pipeline import _clip_gradients
    w = init_weights(desk_config(), seed=0)
    rng = np.random.default_rng(60)
    names = w.names()
    for n in names:
        w[n].grad = rng.standard_normal(w[n].shape)
    for n in names[::7]:
        w[n].grad = None                       # a parameter the loss never reached
    before = {n: None if g is None else g.copy() for n, g in _gradients(w).items()}
    norm = np.linalg.norm(np.concatenate([g.ravel() for g in before.values()
                                          if g is not None]))

    # under the limit: every gradient keeps its bits
    for max_norm in (2.0 * norm, norm * (1.0 + 1e-9)):
        _clip_gradients(w, max_norm)
        for n, g in _gradients(w).items():
            assert (g is None) == (before[n] is None)
            assert g is None or g.tobytes() == before[n].tobytes()

    # over the limit: one common factor brings the total norm to max_norm
    max_norm = norm / 8.0
    _clip_gradients(w, max_norm)
    after = _gradients(w)
    assert all(after[n] is None for n in names[::7])
    clipped = np.concatenate([g.ravel() for g in after.values() if g is not None])
    assert np.isclose(np.linalg.norm(clipped), max_norm, rtol=1e-12, atol=0.0)
    for n, g in after.items():
        if g is not None:
            assert np.allclose(g, before[n] * (max_norm / norm), rtol=1e-12, atol=0.0)


def test_auto_iterations_policy():
    assert auto_iterations(0.01) == 1
    assert auto_iterations(0.02) == 1
    assert auto_iterations(0.03) == 2
    assert auto_iterations(None) == 1


def test_denoise_identity_with_fresh_weights():
    cfg = desk_config()
    w = init_weights(cfg, seed=0)
    pts = sample_surface(Sphere(2.0), 80, seed=1).coords + np.array([5.0, 0, 0])
    out = denoise(pts, w, iterations=2, patch_size=16)
    assert np.abs(out - pts).max() <= 1e-9


def test_denoise_small_cloud_guidance():
    cfg = desk_config()
    w = init_weights(cfg)
    with pytest.raises(ArgumentError, match="at least"):
        denoise(np.zeros((4, 3)) + np.random.default_rng(0).standard_normal((4, 3)),
                w, patch_size=16)
    with pytest.raises(ArgumentError):
        denoise(np.random.default_rng(0).standard_normal((50, 3)), w, patch_size=4)


def test_evaluate_pairs_and_report_files(tmp_path):
    rng = np.random.default_rng(2)
    clean = sample_surface(Sphere(1.0), 100, seed=3).coords
    noisy = clean + 0.02 * rng.standard_normal((100, 3))
    report = evaluate_pairs(
        [{"name": "sphere_t", "denoised": noisy, "clean": clean,
          "surface": Sphere(1.0), "noise": "gaussian@2%", "iterations": 1}],
        out_dir=tmp_path, export_colored=True, config_hash="deadbeef",
    )
    cd, p2m = report.aggregate()
    assert cd > 0 and p2m > 0
    assert (tmp_path / "sphere_t_colored.ply").exists()
    txt, jsonl = write_report(report, tmp_path)
    assert "sphere_t" in open(txt).read()
    assert json.loads(open(jsonl).read().splitlines()[0])["cd"] == report.rows[0].cd


def test_colored_export_matches_per_point_distances(tmp_path):
    from noisetrans.geometry import TriMesh, read_colored_cloud
    from noisetrans.objective import point_to_mesh, surface_sqdist
    verts = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    faces = np.array([[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
                      [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]])
    mesh = TriMesh(verts, faces)                   # octahedron
    pts = np.random.default_rng(13).uniform(-1.5, 1.5, (40, 3))
    per_point = np.array([point_to_mesh(p[None, :], mesh) for p in pts])
    assert np.abs(surface_sqdist(pts, mesh) - per_point).max() <= 1e-12
    evaluate_pairs([{"name": "octa", "denoised": pts, "clean": pts, "surface": mesh}],
                   out_dir=tmp_path, export_colored=True)
    _, exported = read_colored_cloud(tmp_path / "octa_colored.ply")
    # the ply stores float32
    assert np.abs(exported - np.sqrt(per_point)).max() <= 1e-6


def test_sweep_variants_enumeration():
    vs = sweep_variants(["sparse", "none"], [True, False], [True])
    assert len(vs) == 4
    names = [variant_name(v) for v in vs]
    assert "enc=sparse,lpa=on,att=on" in names
    assert len(set(names)) == 4


def test_estimate_normals_on_plane():
    from noisetrans.pipeline import estimate_normals
    rng = np.random.default_rng(30)
    pts = np.zeros((200, 3))
    pts[:, :2] = rng.uniform(-1, 1, (200, 2))
    n = estimate_normals(pts)
    # unoriented normals of a plane are +-z
    assert np.allclose(np.abs(n[:, 2]), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-12)


def test_train_average_tail_is_mean_of_snapshots(tmp_path):
    # training is deterministic, so the 1- and 2-epoch plain runs reproduce
    # the exact end-of-epoch iterates the tail-averaged run snapshots
    path = small_dataset(tmp_path)
    cfg = desk_config()
    w1 = train(path, cfg, epochs=1, out_dir=tmp_path / "e1", seed=0,
               patch_size=16).weights
    w2 = train(path, cfg, epochs=2, out_dir=tmp_path / "e2", seed=0,
               patch_size=16).weights
    avg = train(path, cfg, epochs=2, out_dir=tmp_path / "avg", seed=0,
                patch_size=16, average_tail=2).weights
    for n in avg.names():
        assert np.array_equal(avg[n].data, (w1[n].data + w2[n].data) / 2)


def test_denoise_rotation_averaging():
    cfg = desk_config()
    w = init_weights(cfg, seed=7)
    pts = sample_surface(Sphere(1.0), 120, seed=8).coords
    # zero-initialized head: identity regardless of orientation ensembling
    assert np.abs(denoise(pts, w, patch_size=16, rotations=4) - pts).max() <= 1e-9
    rng = np.random.default_rng(9)
    w["head.final.weight"].data = 0.05 * rng.standard_normal(
        w["head.final.weight"].shape)
    one = denoise(pts, w, patch_size=16, rotations=1)
    ens = denoise(pts, w, patch_size=16, rotations=4)
    ens2 = denoise(pts, w, patch_size=16, rotations=4)
    assert not np.allclose(one, ens)
    assert np.array_equal(ens, ens2)


def test_denoise_matches_per_patch_rotation_loop():
    """Chunked denoise with shared graphs equals one forward per patch per
    rotation, each building its own graphs."""
    from noisetrans.geometry import PointCloud, denormalize, normalize_unit_sphere
    from noisetrans.model import forward
    from noisetrans.pipeline import _sampled_rotations, estimate_normals
    from noisetrans.spatial import extract_patches, stitch_patches
    cfg = desk_config()
    w = init_weights(cfg, seed=10)
    rng = np.random.default_rng(11)
    w["head.final.weight"].data = 0.05 * rng.standard_normal(
        w["head.final.weight"].shape)
    pts = sample_surface(Sphere(1.0), 200, seed=12).coords
    pts += 0.01 * rng.standard_normal(pts.shape)

    def per_patch_loop(coords, rotations):
        rots = _sampled_rotations(rotations)
        cloud = normalize_unit_sphere(PointCloud(coords))
        patches = extract_patches(cloud.coords, 16, min_coverage=3)
        outs = []
        for local in patches.local:
            acc = np.zeros_like(local)
            for rot in rots:
                acc += forward(local @ rot.T, w).data @ rot
            outs.append(acc / len(rots))
        out = denormalize(PointCloud(stitch_patches(patches, np.stack(outs), len(coords)),
                                     center=cloud.center, scale=cloud.scale)).coords
        n = estimate_normals(coords)
        return coords + ((out - coords) * n).sum(axis=1, keepdims=True) * n

    for rotations in (1, 4):
        got = denoise(pts, w, patch_size=16, rotations=rotations)
        assert np.abs(got - per_patch_loop(pts, rotations)).max() <= 1e-12


def test_denoise_normal_projection_preserves_tangential_position():
    # with a model that moves points, projection keeps each displacement
    # parallel to the estimated normal
    from noisetrans.pipeline import estimate_normals
    cfg = desk_config()
    w = init_weights(cfg, seed=4)
    rng = np.random.default_rng(5)
    w["head.final.weight"].data = 0.05 * rng.standard_normal(
        w["head.final.weight"].shape)
    pts = sample_surface(Sphere(1.0), 150, seed=6).coords
    pts += 0.01 * rng.standard_normal(pts.shape)
    out = denoise(pts, w, iterations=1, patch_size=16)
    delta = out - pts
    n = estimate_normals(pts)
    tangential = delta - (delta * n).sum(axis=1, keepdims=True) * n
    assert np.abs(delta).max() > 0.0
    assert np.abs(tangential).max() <= 1e-12


def test_build_training_pairs_match_per_patch_queries(tmp_path):
    path = small_dataset(tmp_path, n_points=80)
    cfg = desk_config()
    pairs = build_training_pairs(path, patch_size=16, cfg=cfg)
    # oracle: each patch's members matched to the clean cloud on their own
    base = os.path.dirname(path)
    expected = []
    for entry in load_manifest(path)["entries"]:
        noisy = read_pointcloud(os.path.join(base, entry["noisy"])).coords
        clean = read_pointcloud(os.path.join(base, entry["clean"])).coords
        patches = extract_patches(noisy, 16)
        for members, local, center, scale in zip(patches.members, patches.local,
                                                 patches.centers, patches.scales):
            gt, _ = knn_brute_force(clean, noisy[members], 1)
            expected.append((local, (clean[gt[:, 0]] - center) / scale))
    assert len(pairs) == len(expected)
    for pair, (noisy_local, clean_local) in zip(pairs, expected):
        assert np.array_equal(pair.noisy_local, noisy_local)
        assert np.array_equal(pair.clean_local, clean_local)
