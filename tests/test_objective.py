"""Metrics against brute-force / dense-sampling oracles, loss gradients by
finite differences, and a reference re-implementation of the optimizer."""
import os
import tempfile

import numpy as np
import pytest

from noisetrans.autodiff import Tape, Tensor
from noisetrans.errors import ArgumentError, ContractError, NumericError
from noisetrans.geometry import Cube, Sphere, Torus, TriMesh, load_mesh
from noisetrans.model import desk_config, init_weights
from noisetrans.objective import (
    Adam,
    EvalReport,
    EvalRow,
    chamfer_distance,
    loss_ad,
    loss_cd,
    loss_total,
    point_to_mesh,
    point_triangle_sqdist,
    surface_sqdist,
)
from noisetrans.pipeline import evaluate_pairs
import noisetrans.objective
from helpers import central_diff, rel_err, scan_surface_sqdist


def chamfer_brute(a, b):
    d = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
    return float(d.min(axis=1).mean() + d.min(axis=0).mean())


def test_chamfer_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.standard_normal((int(rng.integers(2, 100)), 3))
        b = rng.standard_normal((int(rng.integers(2, 100)), 3))
        assert abs(chamfer_distance(a, b) - chamfer_brute(a, b)) <= 1e-12


def test_chamfer_symmetric_and_zero_on_self():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((30, 3))
    b = rng.standard_normal((40, 3))
    assert chamfer_distance(a, a) == 0.0
    assert abs(chamfer_distance(a, b) - chamfer_distance(b, a)) <= 1e-15


def sample_triangle(tri, n, rng):
    r1, r2 = rng.uniform(0, 1, (2, n))
    s = np.sqrt(r1)
    return ((1 - s)[:, None] * tri[0] + (s * (1 - r2))[:, None] * tri[1]
            + (s * r2)[:, None] * tri[2])


def test_point_triangle_analytic_cases():
    tri = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
    # unit height above the interior
    assert abs(point_triangle_sqdist([0.25, 0.25, 1.0], tri) - 1.0) < 1e-15
    # on the surface
    assert point_triangle_sqdist([0.3, 0.3, 0.0], tri) <= 1e-30
    assert point_triangle_sqdist([0.0, 0.0, 0.0], tri) <= 1e-30
    # beyond a vertex: distance to the vertex
    assert abs(point_triangle_sqdist([2.0, 0, 0], tri) - 1.0) < 1e-15
    # beyond an edge: perpendicular distance to the edge line
    assert abs(point_triangle_sqdist([0.5, -2.0, 0], tri) - 4.0) < 1e-15
    # past the hypotenuse: closest point lies on the x+y=1 line
    d = point_triangle_sqdist([1.0, 1.0, 0.0], tri)
    assert abs(d - 0.5) < 1e-15


def test_point_triangle_degenerate_rejected():
    with pytest.raises(ArgumentError):
        point_triangle_sqdist([0, 0, 1.0], np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]))


def test_point_triangle_against_dense_sampling():
    from helpers import dense_triangle_points
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        tri = rng.standard_normal((3, 3))
        if np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])) < 1e-3:
            continue
        p = rng.standard_normal(3)
        exact = np.sqrt(point_triangle_sqdist(p, tri))
        dense = dense_triangle_points(tri, 20000, 2000, rng)
        approx = np.sqrt(((dense - p) ** 2).sum(axis=1).min())
        assert exact <= approx + 1e-12
        worst = max(worst, approx - exact)
    assert worst < 1e-3


def test_point_to_mesh_trimesh_and_analytic():
    # a unit right triangle as a one-triangle mesh
    mesh = TriMesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]]),
                   np.array([[0, 1, 2]]))
    pts = np.array([[0.25, 0.25, 1.0], [0.3, 0.3, 0.0]])
    assert abs(point_to_mesh(pts, mesh) - 0.5) < 1e-15  # mean of 1.0 and 0.0
    # analytic shapes use their closed-form distance
    q = np.array([[2.0, 0.0, 0.0]])
    assert abs(point_to_mesh(q, Sphere(1.0)) - 1.0) < 1e-15
    assert abs(point_to_mesh(q, Torus(1.0, 0.4)) - 0.36) < 1e-12
    assert abs(point_to_mesh(q, Cube(1.0)) - 1.0) < 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_surface_distances_refuse_non_finite_points(bad):
    mesh = TriMesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]]),
                   np.array([[0, 1, 2]]))
    pts = np.array([[bad, 0.0, 0.0], [1.0, 0.0, 0.0]])
    for surface in (Sphere(), Torus(), Cube(), mesh):
        with pytest.raises(ArgumentError, match="non-finite"):
            surface_sqdist(pts, surface)
        with pytest.raises(ArgumentError, match="non-finite"):
            point_to_mesh(pts, surface)
    item = {"name": "s", "denoised": pts, "clean": np.eye(3), "surface": Sphere()}
    with pytest.raises(ArgumentError, match="non-finite"):
        evaluate_pairs([item])


def test_point_to_mesh_mesh_agrees_with_analytic_cube():
    # a finely specified cube mesh should approximate the analytic cube field
    mesh = load_mesh_text(OFF_CUBE)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, (50, 3))
    a = point_to_mesh(pts, mesh)
    b = point_to_mesh(pts, Cube(1.0))
    assert abs(a - b) < 1e-12


OFF_CUBE = (
    "OFF\n8 6 12\n-1 -1 -1\n1 -1 -1\n1 1 -1\n-1 1 -1\n"
    "-1 -1 1\n1 -1 1\n1 1 1\n-1 1 1\n"
    "4 0 1 2 3\n4 4 7 6 5\n4 0 4 5 1\n4 1 5 6 2\n4 2 6 7 3\n4 3 7 4 0\n"
)
OCTAHEDRON = TriMesh(
    np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]),
    np.array([[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
              [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]]))


def load_mesh_text(text):
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "m.off")
        with open(p, "w") as fh:
            fh.write(text)
        return load_mesh(p)


def jittered_torus(rng, nu=16, nv=10):
    """A torus grid with jittered vertices: triangles of uneven size."""
    u, v = np.meshgrid(np.arange(nu) * 2 * np.pi / nu, np.arange(nv) * 2 * np.pi / nv,
                       indexing="ij")
    ring = 1.0 + 0.4 * np.cos(v)
    verts = np.stack([ring * np.cos(u), ring * np.sin(u), 0.4 * np.sin(v)], -1).reshape(-1, 3)
    verts += rng.uniform(-0.03, 0.03, verts.shape)
    i, j = (m.ravel() for m in np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij"))
    p, q = i * nv + j, ((i + 1) % nu) * nv + j
    p1, q1 = i * nv + (j + 1) % nv, ((i + 1) % nu) * nv + (j + 1) % nv
    return TriMesh(verts, np.concatenate([np.stack([p, q, q1], 1), np.stack([p, q1, p1], 1)]))


def on_and_near(mesh, rng, n=60):
    """Vertices, points on edges and inside faces, and points near the surface."""
    c = mesh.triangle_corners()
    t = rng.integers(0, len(c), n)
    w = rng.uniform(0, 1, (n, 1))
    edges = c[t, 0] + w * (c[t, 1] - c[t, 0])
    bary = rng.dirichlet(np.ones(3), n)
    faces = (bary[:, :, None] * c[t]).sum(axis=1)
    near = faces + rng.normal(0, 0.05, faces.shape)
    return np.concatenate([mesh.vertices, edges, faces, near])


def oracle_cases():
    rng = np.random.default_rng(21)
    torus = jittered_torus(rng)
    tri = TriMesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.2, 0.9, 0.1]]), np.array([[0, 1, 2]]))
    doubled = TriMesh(torus.vertices, np.concatenate([torus.triangles,
                                                      torus.triangles[:, ::-1]]))
    off_cube = load_mesh_text(OFF_CUBE)
    octa_pts = np.random.default_rng(13).uniform(-1.5, 1.5, (40, 3))
    far = rng.standard_normal((50, 3))
    far *= 100 * 2.8 / np.linalg.norm(far, axis=1, keepdims=True)
    return {
        "torus on vertices, edges, faces": (torus, on_and_near(torus, rng)),
        "duplicated triangles": (doubled, on_and_near(torus, rng)),
        "single triangle": (tri, np.concatenate([on_and_near(tri, rng),
                                                 rng.uniform(-2, 2, (40, 3))])),
        "coarse OFF cube": (off_cube, np.concatenate([on_and_near(off_cube, rng),
                                                      rng.uniform(-2, 2, (60, 3))])),
        "100x the mesh size away": (torus, far),
        "float32 points": (torus, on_and_near(torus, rng).astype(np.float32)),
        "octahedron": (OCTAHEDRON, octa_pts),
    }


@pytest.mark.parametrize("case", list(oracle_cases()))
def test_pruned_mesh_distance_equals_the_scan_bitwise(case):
    mesh, pts = oracle_cases()[case]
    with np.errstate(all="raise"):
        got = surface_sqdist(pts, mesh)
    assert np.array_equal(got, scan_surface_sqdist(pts, mesh))
    if len(mesh.triangles) == 1:
        tri = mesh.triangle_corners()[0]
        assert np.array_equal(got, [point_triangle_sqdist(p, tri) for p in pts])


def test_pair_blocks_of_a_few_pairs_give_the_same_distances(monkeypatch):
    cases = oracle_cases()
    whole = {name: surface_sqdist(pts, mesh) for name, (mesh, pts) in cases.items()}
    monkeypatch.setattr(noisetrans.objective, "_PAIR_BLOCK", 5)
    for name, (mesh, pts) in cases.items():
        assert np.array_equal(surface_sqdist(pts, mesh), whole[name]), name


def test_loss_cd_gradient_finite_difference():
    rng = np.random.default_rng(4)
    y0 = rng.standard_normal((8, 3))
    gt = rng.standard_normal((10, 3))

    t = Tensor(y0, requires_grad=True)
    with Tape() as tape:
        tape.backward(loss_cd(t, gt))
    analytic = t.grad.copy()

    def f(x):
        with Tape():
            return float(loss_cd(Tensor(x), gt).data)

    fd = central_diff(f, y0, h=1e-6)
    assert rel_err(analytic, fd).max() < 1e-6


def test_loss_ad_gradient_and_value():
    rng = np.random.default_rng(5)
    y0 = rng.standard_normal((6, 3))
    x0 = rng.standard_normal((6, 3))
    t = Tensor(y0, requires_grad=True)
    with Tape() as tape:
        L = loss_ad(t, x0)
        tape.backward(L)
    assert abs(float(L.data) - ((y0 - x0) ** 2).sum(axis=1).mean()) < 1e-12
    assert np.allclose(t.grad, 2.0 * (y0 - x0) / 6.0, atol=1e-12)


def test_loss_total_composition_and_anchor():
    rng = np.random.default_rng(6)
    y0 = rng.standard_normal((7, 3))
    gt = rng.standard_normal((9, 3))
    x0 = rng.standard_normal((7, 3))
    with Tape():
        total = float(loss_total(Tensor(y0), gt, x0).data)
        cd = float(loss_cd(Tensor(y0), gt).data)
        adisp = float(loss_ad(Tensor(y0), x0).data)
    assert abs(total - (0.9 * cd + 0.1 * adisp)) < 1e-12
    with pytest.raises(ArgumentError):
        with Tape():
            loss_total(Tensor(y0), gt, x0, anchor="nearest")


def test_loss_total_matched_gt_anchor():
    rng = np.random.default_rng(7)
    y0 = rng.standard_normal((5, 3))
    gt = rng.standard_normal((5, 3))
    x0 = rng.standard_normal((5, 3))
    with Tape():
        a = float(loss_total(Tensor(y0), gt, x0, anchor="matched_gt").data)
        cd = float(loss_cd(Tensor(y0), gt).data)
        disp = float(loss_ad(Tensor(y0), gt).data)
    assert abs(a - (0.9 * cd + 0.1 * disp)) < 1e-12


def test_adam_matches_reference_implementation():
    cfg = desk_config()
    w = init_weights(cfg, seed=8)
    opt = Adam(w, base_lr=1e-3)
    rng = np.random.default_rng(9)
    ref = {n: t.data.copy() for n, t in w.params.items()}
    m = {n: np.zeros_like(v) for n, v in ref.items()}
    v = {n: np.zeros_like(x) for n, x in ref.items()}
    for step in range(1, 4):
        grads = {n: rng.standard_normal(t.shape) for n, t in w.params.items()}
        for n, t in w.params.items():
            t.grad = grads[n].copy()
        opt.step(epoch=0)
        for n in ref:
            m[n] = 0.9 * m[n] + 0.1 * grads[n]
            v[n] = 0.999 * v[n] + 0.001 * grads[n] ** 2
            mhat = m[n] / (1 - 0.9 ** step)
            vhat = v[n] / (1 - 0.999 ** step)
            ref[n] -= 1e-3 * mhat / (np.sqrt(vhat) + 1e-8)
            assert np.allclose(w[n].data, ref[n], atol=1e-14), n


def test_adam_lr_schedule():
    opt = Adam(init_weights(desk_config()), base_lr=4e-4, halve_every=50)
    assert opt.lr_at(0) == 4e-4
    assert opt.lr_at(49) == 4e-4
    assert opt.lr_at(50) == 2e-4
    assert opt.lr_at(100) == 1e-4


def test_adam_refuses_non_finite_gradients():
    w = init_weights(desk_config())
    opt = Adam(w)
    before = w["fuse.l0.weight"].data.copy()
    for t in w.params.values():
        t.grad = np.zeros_like(t.data)
    w["fuse.l0.weight"].grad[0, 0] = np.nan
    with pytest.raises(NumericError):
        opt.step()
    assert np.array_equal(w["fuse.l0.weight"].data, before)


def test_adam_state_round_trip():
    w = init_weights(desk_config(), seed=10)
    opt = Adam(w)
    rng = np.random.default_rng(11)
    for _ in range(2):
        for t in w.params.values():
            t.grad = rng.standard_normal(t.shape)
        opt.step()
    blob = opt.state_bytes()
    w2 = w.copy()
    opt2 = Adam(w2)
    opt2.load_state_bytes(blob)
    assert opt2.step_count == opt.step_count
    for n in w.names():
        assert np.array_equal(opt2.m[n], opt.m[n])
        assert np.array_equal(opt2.v[n], opt.v[n])
    with pytest.raises(ContractError):
        opt2.load_state_bytes(blob[:-8])
    with pytest.raises(ContractError):
        opt2.load_state_bytes(blob + b"\x00" * 8)


def _per_parameter_adam_step(params, m, v, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam applied one parameter at a time, as plain numpy: the oracle."""
    for n, t in params.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        m[n] *= b1
        m[n] += (1.0 - b1) * g
        v[n] *= b2
        v[n] += (1.0 - b2) * g * g
        mhat = m[n] / (1.0 - b1 ** step)
        vhat = v[n] / (1.0 - b2 ** step)
        t.data -= lr * mhat / (np.sqrt(vhat) + eps)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_flat_step_is_the_per_parameter_update_bitwise(dtype):
    w = init_weights(desk_config(), seed=12)
    for t in w.params.values():
        t.data = t.data.astype(dtype)
    ref = w.copy()
    for t in ref.params.values():
        t.data = t.data.astype(dtype)
    opt = Adam(w, base_lr=1e-3)
    m = {n: np.zeros_like(t.data) for n, t in ref.params.items()}
    v = {n: np.zeros_like(t.data) for n, t in ref.params.items()}
    rng = np.random.default_rng(13)
    names = w.names()
    for step in range(1, 6):
        if step == 4:  # resuming switches the moments to float64
            opt = Adam(w, base_lr=1e-3)
            opt.load_state_bytes(blob)
            m = {n: a.astype(np.float64) for n, a in m.items()}
            v = {n: a.astype(np.float64) for n, a in v.items()}
        for i, n in enumerate(names):
            g = None if i % 7 == 3 else rng.standard_normal(w[n].shape).astype(dtype)
            w[n].grad = g
            ref[n].grad = None if g is None else g.copy()
        opt.step(epoch=0)
        _per_parameter_adam_step(ref.params, m, v, step, 1e-3)
        blob = opt.state_bytes()
        for n in names:
            assert w[n].data.dtype == dtype
            assert np.array_equal(w[n].data, ref[n].data), (step, n)
            assert np.array_equal(opt.m[n], m[n]) and np.array_equal(opt.v[n], v[n])


def test_eval_report_formatting_deterministic():
    rows = [EvalRow("sphere_a", "gaussian@2%", 3.2e-4, 1.1e-4, 1),
            EvalRow("torus_b", "gaussian@2%", 7.6e-4, 2.5e-4, 2)]
    r1 = EvalReport(rows=list(rows), config_hash="abc123")
    r2 = EvalReport(rows=list(rows), config_hash="abc123")
    assert r1.to_text() == r2.to_text()
    assert r1.to_jsonl() == r2.to_jsonl()
    text = r1.to_text()
    assert "MEAN" in text and "abc123" in text
    cd_mean, p2m_mean = r1.aggregate()
    assert abs(cd_mean - (3.2e-4 + 7.6e-4) / 2) < 1e-18
    assert f"{cd_mean * 1e4:.4f}" in text


def test_eval_report_empty_rejected():
    with pytest.raises(ContractError):
        EvalReport().aggregate()
