"""Tests of the benchmark's checks: each passes the right output and
rejects a wrong one (shifted points, swapped rows, a perturbed weight).

    python3 -m pytest -q perfbench/selftest.py
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.use_repo_package()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import noisetrans.autodiff as ad  # noqa: E402
import noisetrans.model  # noqa: E402
import noisetrans.objective  # noqa: E402
import noisetrans.pipeline  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def f64():
    ad.set_default_dtype(np.float64)


@pytest.fixture(scope="module")
def sphere():
    c = workloads.Cloud("sphere", 400, 0, 0)
    # a stand-in denoised output: the noisy cloud moved 60 % of the way
    # back along each point's normal, as one projected pass would
    n = oracles.pca_normals(c.noisy)
    d = c.clean - c.noisy
    c.denoised = c.noisy + 0.6 * (d * n).sum(axis=1, keepdims=True) * n
    return c


def swap_rows(a, i=0, j=1):
    b = a.copy()
    b[[i, j]] = b[[j, i]]
    return b


SHIFT = np.array([0.05, 0.0, 0.0])


def test_surface_ratio_rejects_shifted_points(sphere):
    ok, ratio = checks.surface_ratio("r", sphere.noisy, sphere.denoised, sphere.sqdist, 0.7)
    assert ok.ok and ratio < 0.7
    bad, _ = checks.surface_ratio("r", sphere.noisy, sphere.denoised + SHIFT, sphere.sqdist, 0.7)
    assert not bad.ok


def test_permutation_check_rejects_swapped_rows(sphere):
    perm = np.random.default_rng(1).permutation(len(sphere.denoised))
    out = sphere.denoised
    assert checks.permutation_equivariant("p", out, out[perm], perm).ok
    assert not checks.permutation_equivariant("p", out, swap_rows(out[perm]), perm).ok


def test_normal_check_rejects_shifted_and_swapped(sphere):
    assert checks.normal_displacement("n", sphere.noisy, sphere.denoised).ok
    assert not checks.normal_displacement("n", sphere.noisy, sphere.denoised + SHIFT).ok
    assert not checks.normal_displacement("n", sphere.noisy, swap_rows(sphere.denoised)).ok


def test_identical_and_shape_reject_swapped_rows_and_nan(sphere):
    out = sphere.denoised
    assert checks.identical("i", out, out.copy()).ok
    assert not checks.identical("i", out, swap_rows(out)).ok
    assert checks.cloud_shape("s", out, len(out)).ok
    assert not checks.cloud_shape("s", out[1:], len(out)).ok
    nan = out.copy()
    nan[3, 1] = np.nan
    assert not checks.cloud_shape("s", nan, len(out)).ok


def test_evaluation_checks_reject_shifted_points(sphere):
    report = noisetrans.pipeline.evaluate_pairs([{
        "name": "s", "denoised": sphere.denoised, "clean": sphere.clean,
        "surface": sphere.surface()}])
    cd, p2m = report.rows[0].cd, report.rows[0].p2m
    want_cd = oracles.brute_chamfer(sphere.denoised, sphere.clean)
    want_p2m = sphere.sqdist(sphere.denoised).mean()
    assert checks.close("cd", cd, want_cd).ok and checks.close("p2m", p2m, want_p2m).ok
    shifted = sphere.denoised + SHIFT
    assert not checks.close(
        "cd", noisetrans.objective.chamfer_distance(shifted, sphere.clean), want_cd).ok
    assert not checks.close(
        "p2m", noisetrans.objective.point_to_mesh(shifted, sphere.surface()), want_p2m).ok


def test_box_distance_matches_mesh_and_rejects_shift():
    mesh = workloads.cube_mesh(1.0, 4)
    pts = workloads.add_noise(np.random.default_rng(2),
                              workloads.sample_box(np.random.default_rng(3), 300))
    want = oracles.box_sqdist(pts, 1.0).mean()
    assert checks.close("box", noisetrans.objective.point_to_mesh(pts, mesh), want).ok
    assert not checks.close("box", noisetrans.objective.point_to_mesh(pts + SHIFT, mesh),
                            want).ok


@pytest.fixture(scope="module")
def desk_patch():
    cfg = noisetrans.model.desk_config()
    weights = workloads.randomized_head(cfg, seed=4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((32, 3))
    x /= np.linalg.norm(x, axis=1).max()
    return cfg, weights, x, x + 0.05 * rng.standard_normal(x.shape)


def perturbed(weights, name="encoder.l0.q.weight", by=1e-3):
    w = weights.copy()
    w[name].data.flat[0] += by
    return w


def test_forward_check_rejects_perturbed_weight(desk_patch):
    cfg, weights, x, _ = desk_patch
    want = oracles.numpy_forward(x, cfg, workloads.param_arrays(weights))
    got = noisetrans.model.forward(x, weights).data
    assert checks.close("f", got, want, rtol=0.0, atol=1e-9).ok
    bad = noisetrans.model.forward(x, perturbed(weights)).data
    assert not checks.close("f", bad, want, rtol=0.0, atol=1e-9).ok


def test_gradient_check_rejects_perturbed_weight(desk_patch):
    _, weights, x, gt = desk_patch
    names = workloads.TrainDesk.FD_PARAMS
    grads = workloads.backward_and_central_differences
    assert checks.gradients_match("g", *grads(weights, x, gt, names)).ok
    bad = perturbed(weights, "head.final.weight", 0.05)
    assert not checks.gradients_match("g", *grads(bad, x, gt, names, fd_weights=weights)).ok


def test_identity_and_loss_checks_reject_bad_values(desk_patch):
    cfg, weights, x, gt = desk_patch
    identity = 0.9 * oracles.brute_chamfer(x, gt)
    assert checks.close("id", oracles.training_loss(x, gt, x), identity).ok
    bad = perturbed(weights, "head.final.bias", 0.2)
    y = oracles.numpy_forward(x, cfg, workloads.param_arrays(bad))
    assert not checks.beats_identity("b", oracles.training_loss(y, gt, x), identity).ok
    assert checks.beats_identity("b", 0.5 * identity, identity).ok
    assert checks.finite_losses("l", [0.1, 0.05]).ok
    assert not checks.finite_losses("l", [0.1, float("nan")]).ok


def test_forward_points_rejects_miscount():
    assert checks.forward_points("t", 190 * 32 * 4, 190, 32, 4).ok
    assert not checks.forward_points("t", 189 * 32 * 4, 190, 32, 4).ok


def test_tracer_restores_every_wrapper():
    import tracing
    before = {id(noisetrans.pipeline.forward), id(noisetrans.model.forward),
              id(noisetrans.spatial.KdTree.query), id(ad.matmul)}
    with tracing.Tracer() as tracer:
        assert noisetrans.pipeline.forward is noisetrans.model.forward
        assert id(noisetrans.model.forward) not in before
        w = workloads.randomized_head(noisetrans.model.desk_config())
        noisetrans.model.forward(np.random.default_rng(6).standard_normal((20, 3)), w)
    after = {id(noisetrans.pipeline.forward), id(noisetrans.model.forward),
             id(noisetrans.spatial.KdTree.query), id(ad.matmul)}
    assert before == after
    m = tracing.layer_metrics(tracer)
    assert m["model.forward.calls"][0] == 1 and m["model.forward.points"][0] == 20
    assert m["model.build_graphs.calls"][0] == 1 and m["autodiff.matmul.calls"][0] > 0
