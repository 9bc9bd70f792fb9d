"""Reference computations the benchmark checks the program against.

Everything here is plain numpy written from the maths, not from the
program's code: closed-form surface distances, brute-force nearest
neighbours and Chamfer distance, PCA normals, and a forward pass of the
network that reads only the parameter arrays.
"""
from __future__ import annotations

import numpy as np
from scipy.special import erf, expit

# ---------------------------------------------------------------------------
# closed-form squared distances to the analytic surfaces
# ---------------------------------------------------------------------------


def sphere_sqdist(p: np.ndarray, radius: float) -> np.ndarray:
    return (np.linalg.norm(p, axis=1) - radius) ** 2


def torus_sqdist(p: np.ndarray, major: float, minor: float) -> np.ndarray:
    """Torus around the z axis: distance to the core circle minus the tube."""
    ring = np.hypot(np.hypot(p[:, 0], p[:, 1]) - major, p[:, 2])
    return (ring - minor) ** 2


def box_sqdist(p: np.ndarray, half: float) -> np.ndarray:
    """Squared distance to the surface of the axis-aligned box [-half, half]^3."""
    a = np.abs(p)
    out = np.sqrt((np.clip(a - half, 0.0, None) ** 2).sum(axis=1))
    inside = np.all(a <= half, axis=1)
    depth = (half - a).min(axis=1)
    return np.where(inside, depth, out) ** 2


# ---------------------------------------------------------------------------
# brute-force neighbours
# ---------------------------------------------------------------------------


def sqdist_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a[:, None, :] - b[None, :, :]
    return (d * d).sum(axis=2)


def brute_chamfer(a: np.ndarray, b: np.ndarray, chunk: int = 512) -> float:
    """Symmetric mean nearest-neighbour squared distance, in row chunks."""
    ab = np.empty(len(a))
    ba = np.full(len(b), np.inf)
    for s in range(0, len(a), chunk):
        d = sqdist_matrix(a[s:s + chunk], b)
        ab[s:s + chunk] = d.min(axis=1)
        ba = np.minimum(ba, d.min(axis=0))
    return float(ab.mean() + ba.mean())


def brute_knn(p: np.ndarray, k: int, exclude_self: bool) -> tuple[np.ndarray, np.ndarray]:
    """k nearest rows of p for every row of p, ordered by (distance, x, y, z, index)."""
    n = len(p)
    d2 = sqdist_matrix(p, p)
    if exclude_self:
        d2[np.arange(n), np.arange(n)] = np.inf
    rows = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        order = np.lexsort((np.arange(n), p[:, 2], p[:, 1], p[:, 0], d2[i]))
        rows[i] = order[:k]
    return rows, np.take_along_axis(d2, rows, axis=1)


def pca_normals(p: np.ndarray, k: int = 24) -> np.ndarray:
    """Unit normals as the least singular direction of each k-neighbourhood."""
    d2 = sqdist_matrix(p, p)
    idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
    nb = p[idx] - p[idx].mean(axis=1, keepdims=True)
    _, _, vt = np.linalg.svd(nb, full_matrices=False)
    return vt[:, -1, :]


# ---------------------------------------------------------------------------
# the network, from its layer definitions
# ---------------------------------------------------------------------------


def _layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gain * (x - mu) / np.sqrt(var + eps) + bias


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def numpy_forward(x: np.ndarray, cfg, params: dict) -> np.ndarray:
    """Denoised (N, 3) patch for the sparse-encoding, attention, LPA config.

    `params` maps parameter names to float64 arrays. Graphs come from
    brute_knn, so the result is independent of the program's KdTree.
    """
    if cfg.encoding_mode != "sparse" or not (cfg.attention_enabled and cfg.embed_norm):
        raise ValueError("numpy_forward covers the default sparse/attention config only")
    P = params

    def lin(h, name):
        return h @ P[f"{name}.weight"] + P[f"{name}.bias"]

    n = len(x)
    nb_all, d2_all = brute_knn(x, max(*cfg.k_scales, cfg.sparse_k), exclude_self=True)
    units = []
    for u, k in enumerate(cfg.k_scales):
        nb = nb_all[:, :k]
        f = x
        outs = []
        for layer in range(cfg.layers_per_unit):
            name = f"embed.u{u}.l{layer}"
            fi = np.repeat(f[:, None, :], k, axis=1)
            e = np.concatenate([fi, f[nb] - fi], axis=2)
            if cfg.lpa_enabled:
                e = e * expit(e @ P[f"{name}.gate"])
            h = _layer_norm(lin(e, name), P[f"{name}.norm_gain"], P[f"{name}.norm_bias"])
            f = np.maximum(h, 0.0).max(axis=1)
            outs.append(f)
        units.append(np.concatenate(outs, axis=1))
    emb = lin(np.maximum(lin(np.concatenate(units, axis=1), "fuse.l0"), 0.0), "fuse.l1")

    nb, d2 = nb_all[:, :cfg.sparse_k], d2_all[:, :cfg.sparse_k]
    u_in = np.concatenate([x[:, None, :] - x[nb], 1.0 / np.maximum(d2, 1e-8)[:, :, None]], axis=2)
    f = emb + lin(np.maximum(lin(u_in, "enc.l0"), 0.0), "enc.l1").sum(axis=1)

    heads, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    for i in range(cfg.n_encoder_layers):
        name = f"encoder.l{i}"
        h = _layer_norm(f, P[f"{name}.ln1_gain"], P[f"{name}.ln1_bias"])
        q, k, v = (lin(h, f"{name}.{s}").reshape(n, heads, dh).transpose(1, 0, 2)
                   for s in "qkv")
        att = _softmax(q @ k.transpose(0, 2, 1) / np.sqrt(dh))
        f = f + lin((att @ v).transpose(1, 0, 2).reshape(n, cfg.d_model), f"{name}.o")
        h = _layer_norm(f, P[f"{name}.ln2_gain"], P[f"{name}.ln2_bias"])
        f = f + lin(_gelu(lin(h, f"{name}.ffn0")), f"{name}.ffn1")

    feats = f
    for m in range(cfg.head_layers):
        feats = np.concatenate([feats, _gelu(lin(feats, f"head.l{m}"))], axis=1)
    return lin(feats, "head.final") + x


def training_loss(y: np.ndarray, gt: np.ndarray, x: np.ndarray,
                  alpha: float = 0.9, beta: float = 0.1) -> float:
    """alpha * brute-force Chamfer(y, gt) + beta * mean squared displacement from x."""
    return alpha * brute_chamfer(y, gt) + beta * float(((y - x) ** 2).sum(axis=1).mean())
