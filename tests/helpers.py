"""Shared test oracles: central finite differences, the op chains that the
one-op `linear` and the fused edge-feature layer replaced, and an
independent plain-numpy evaluator of the full network loss.

The batched evaluator carries a leading batch axis over parameter
perturbations so whole-model gradient checks stay fast on one core. It is
written directly from the layer math, not by calling the library's ops.
"""
from __future__ import annotations

import importlib.util
import os

import numpy as np
from scipy.special import erf, expit

import noisetrans.autodiff as ad

_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def perfbench_tracing():
    """perfbench/tracing.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def traced_autodiff_ops() -> tuple[str, ...]:
    """The autodiff op names that perfbench/tracing.py wraps by name."""
    return tuple(perfbench_tracing().AUTODIFF_OPS)


def central_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def chain_linear(x, weight, bias):
    """A dense layer as the two ops it was built from before `ad.linear`
    became one; the one op's output and gradients must equal this chain's
    bitwise."""
    return ad.add(ad.matmul(x, weight), bias)


def chain_feature_layer(feats, neighbors, gate, weight, bias, gain=None,
                        norm_bias=None):
    """The Local Point Attention layer as the 13 autodiff ops it was built
    from before `ad.edge_feature_layer` fused them; the fused op's output
    and gradients must equal this chain's bitwise."""
    n, d = feats.shape
    k = neighbors.shape[1]
    fj = ad.gather_rows(feats, neighbors)                      # (N, k, d)
    fi = ad.broadcast_to(ad.reshape(feats, (n, 1, d)), (n, k, d))
    e = ad.concat([fi, ad.sub(fj, fi)], axis=2)                # (N, k, 2d)
    if gate is not None:
        e = ad.mul(e, ad.sigmoid(ad.matmul(e, gate)))
    h = chain_linear(e, weight, bias)
    if gain is not None:
        h = ad.layer_norm(h, gain, norm_bias)
    return ad.reduce_max(ad.relu(h), axis=1)


def dense_triangle_points(tri: np.ndarray, n_face: int, n_edge: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Dense samples of a triangle: interior (uniform), edges, and vertices.

    Edge coverage matters because the closest point to an external query
    often lies on an edge; with it the sampled minimum distance is
    second-order accurate in the sample spacing.
    """
    r1, r2 = rng.uniform(0, 1, (2, n_face))
    s = np.sqrt(r1)
    face = ((1 - s)[:, None] * tri[0] + (s * (1 - r2))[:, None] * tri[1]
            + (s * r2)[:, None] * tri[2])
    t = np.linspace(0.0, 1.0, n_edge)[:, None]
    edges = [tri[a] + t * (tri[b] - tri[a]) for a, b in ((0, 1), (1, 2), (2, 0))]
    return np.concatenate([face, *edges, tri], axis=0)


def sampled_triangle_dist(p: np.ndarray, tri: np.ndarray) -> float:
    """Minimum distance from p to a triangle by refined dense sampling.

    The squared distance is convex over the triangle, so a coarse
    barycentric grid followed by successively finer grids around the
    running argmin brackets the true minimum; no closed-form projection
    is used. Final grid spacing is ~1e-5 of the triangle edge length.
    """
    p = np.asarray(p, dtype=np.float64)
    tri = np.asarray(tri, dtype=np.float64)
    e1 = tri[1] - tri[0]
    e2 = tri[2] - tri[0]

    def probe(u, v):
        pts = tri[0] + u[:, None] * e1 + v[:, None] * e2
        d = ((pts - p) ** 2).sum(axis=1)
        i = int(np.argmin(d))
        return float(u[i]), float(v[i]), float(d[i])

    m = 120
    u, v = np.meshgrid(np.linspace(0, 1, m + 1), np.linspace(0, 1, m + 1))
    keep = (u + v) <= 1.0 + 1e-12
    bu, bv, best = probe(u[keep], v[keep], )
    spacing = 1.0 / m
    for _ in range(5):
        r = 2.5 * spacing
        g = np.linspace(-r, r, 41)
        du, dv = np.meshgrid(g, g)
        uu = (bu + du).ravel()
        vv = (bv + dv).ravel()
        keep = (uu >= 0) & (vv >= 0) & (uu + vv <= 1.0)
        if not keep.any():
            break
        bu, bv, d = probe(uu[keep], vv[keep])
        best = min(best, d)
        spacing = r / 20.0
    return float(np.sqrt(best))


def _dot(u, v):
    return (u * v).sum(axis=-1)


def _scan_segment(p, a, b):
    e = b - a
    t = np.clip(_dot(p - a, e) / _dot(e, e), 0.0, 1.0)
    d = p - (a + t[:, None] * e)
    return _dot(d, d)


def _scan_triangle(p, a, b, c):
    """Squared distance from many points to one triangle: the projection's
    barycentric coordinates pick the plane distance or the nearest edge."""
    e0 = b - a
    e1 = c - a
    n = np.cross(e0, e1)
    nn = _dot(n, n)
    w = p - a
    dist_plane = _dot(w, n) / np.sqrt(nn)
    proj = p - dist_plane[:, None] * (n / np.sqrt(nn))
    v = proj - a
    d00 = _dot(e0, e0)
    d01 = _dot(e0, e1)
    d11 = _dot(e1, e1)
    d20 = _dot(v, e0)
    d21 = _dot(v, e1)
    denom = d00 * d11 - d01 * d01
    s = (d11 * d20 - d01 * d21) / denom
    t = (d00 * d21 - d01 * d20) / denom
    inside = (s >= 0.0) & (t >= 0.0) & (s + t <= 1.0)
    edge = np.minimum(
        _scan_segment(p, a, b),
        np.minimum(_scan_segment(p, b, c), _scan_segment(p, c, a)),
    )
    return np.where(inside, dist_plane * dist_plane, edge)


def scan_surface_sqdist(points, mesh) -> np.ndarray:
    """(N,) squared point-to-mesh distances by scanning every triangle.

    The oracle for the pruned search in `objective.surface_sqdist`: the same
    per-pair arithmetic (row-wise dot products), no spatial pruning.
    """
    pts = np.asarray(points, dtype=np.float64)
    best = np.full(len(pts), np.inf)
    for tri in mesh.triangle_corners():
        best = np.minimum(best, _scan_triangle(pts, tri[0], tri[1], tri[2]))
    return best


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


# ---------------------------------------------------------------------------
# batched plain-numpy re-evaluation of the network loss
# ---------------------------------------------------------------------------

def _gelu(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def _layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return (_vec(x.ndim, gain) * (xc / np.sqrt(var + eps))
            + _vec(x.ndim, bias))


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _mm(h, w):
    """h (..., d) @ w, where w is (d, o) or batch-leading (B, d, o)."""
    if w.ndim == 2:
        return np.matmul(h, w)
    extra = h.ndim - w.ndim
    if extra > 0:
        w = w.reshape(w.shape[0], *([1] * extra), *w.shape[1:])
    return np.matmul(h, w)


def _vec(h_ndim, p):
    """Align a (o,) or (B, o) per-feature parameter for broadcasting with h."""
    if p.ndim == 1:
        return p
    extra = h_ndim - 2
    return p.reshape(p.shape[0], *([1] * extra), p.shape[-1])


def _align(parts):
    """Broadcast a mix of unbatched / batched activations to a common rank."""
    nd = max(p.ndim for p in parts)
    out = []
    for p in parts:
        while p.ndim < nd:
            p = p[None]
        out.append(p)
    shape = np.broadcast_shapes(*[p.shape[:-1] for p in out])
    return [np.broadcast_to(p, shape + (p.shape[-1],)) for p in out]


def batched_model_loss(coords, gt, graphs, cfg, params, alpha=0.9, beta=0.1):
    """Loss of the full network with any subset of parameters batched.

    coords: (N, 3); gt: (M, 3); params: dict name -> array, each of the
    library's canonical shape, optionally with a leading batch axis B (all
    batched entries share one B). Returns (B,) losses, or (1,) when nothing
    is batched. Written straight from the layer definitions in plain numpy
    as an oracle independent of the library's tensor engine.

    Every activation carries a leading batch axis (size 1 until a batched
    parameter touches it) so numpy broadcasting keeps the unperturbed part
    of the network cheap.
    """
    x = coords[None]                                # (1, N, 3)

    def lin(h, prefix):
        y = _mm(h, params[f"{prefix}.weight"])
        return y + _vec(y.ndim, params[f"{prefix}.bias"])

    # point embedding: three scales of stacked edge-feature layers
    unit_outs = []
    for u, k in enumerate(cfg.k_scales):
        idx = graphs.idx[:, :k]
        kk = idx.shape[1]
        f = x
        louts = []
        for l in range(cfg.layers_per_unit):
            p = f"embed.u{u}.l{l}"
            fj = f[..., idx, :]                     # (..., N, k, d)
            fi = np.repeat(f[..., :, None, :], kk, axis=-2)
            e = np.concatenate([fi, fj - fi], axis=-1)
            if cfg.lpa_enabled:
                e = e * expit(_mm(e, params[f"{p}.gate"]))
            h = lin(e, p)
            if cfg.embed_norm:
                mu = h.mean(axis=-1, keepdims=True)
                hc = h - mu
                var = (hc * hc).mean(axis=-1, keepdims=True)
                h = (_vec(h.ndim, params[f"{p}.norm_gain"]) * (hc / np.sqrt(var + 1e-5))
                     + _vec(h.ndim, params[f"{p}.norm_bias"]))
            h = np.maximum(h, 0.0)
            f = h.max(axis=-2)                      # (..., N, fw)
            louts.append(f)
        unit_outs.append(np.concatenate(_align(louts), axis=-1))
    cat = np.concatenate(_align(unit_outs), axis=-1)
    emb = lin(np.maximum(lin(cat, "fuse.l0"), 0.0), "fuse.l1")

    if cfg.encoding_mode == "sparse":
        idx, d2 = graphs.idx[:, :cfg.sparse_k], graphs.d2[:, :cfg.sparse_k]
        xi = coords[:, None, :]
        xj = coords[idx]
        inv = 1.0 / np.maximum(d2, 1e-8)
        u_in = np.concatenate([xi - xj, inv[:, :, None]], axis=2)  # (N, k, 4)
        h = lin(np.maximum(lin(u_in[None], "enc.l0"), 0.0), "enc.l1")
        f0, enc = _align([emb, h.sum(axis=-2)])
        f0 = f0 + enc
    elif cfg.encoding_mode == "coordinate":
        f0, enc = _align([emb, lin(x, "enc.coord")])
        f0 = f0 + enc
    else:
        f0 = emb

    f = f0
    nh = cfg.n_heads
    dh = cfg.d_model // nh
    for i in range(cfg.n_encoder_layers):
        p = f"encoder.l{i}"
        h = _layer_norm(f, params[f"{p}.ln1_gain"], params[f"{p}.ln1_bias"])
        if cfg.attention_enabled:
            def heads(z):
                z = z.reshape(*z.shape[:-1], nh, dh)
                return np.swapaxes(z, -3, -2)       # (..., nh, N, dh)
            q = heads(lin(h, f"{p}.q"))
            kmat = heads(lin(h, f"{p}.k"))
            v = heads(lin(h, f"{p}.v"))
            q, kmat, v = _align([q, kmat, v])
            att = _softmax(np.matmul(q, np.swapaxes(kmat, -1, -2)) / np.sqrt(dh))
            o = np.swapaxes(np.matmul(att, v), -3, -2)
            o = o.reshape(*o.shape[:-2], cfg.d_model)
            mixed = lin(o, f"{p}.o")
        else:
            mixed = lin(h, f"{p}.conv")
        f, mixed = _align([f, mixed])
        f = f + mixed
        h2 = _layer_norm(f, params[f"{p}.ln2_gain"], params[f"{p}.ln2_bias"])
        ffn = lin(_gelu(lin(h2, f"{p}.ffn0")), f"{p}.ffn1")
        f, ffn = _align([f, ffn])
        f = f + ffn

    feats = [f]
    for m in range(cfg.head_layers):
        inp = feats[0] if len(feats) == 1 else np.concatenate(_align(feats), axis=-1)
        feats.append(_gelu(lin(inp, f"head.l{m}")))
    y = lin(np.concatenate(_align(feats), axis=-1), "head.final") + x
    if y.ndim == 2:
        y = y[None]

    # loss: symmetric Chamfer + index-matched displacement
    diff = y[:, :, None, :] - gt[None, None, :, :]
    d = (diff * diff).sum(axis=3)                              # (B, N, M)
    cd = d.min(axis=2).mean(axis=1) + d.min(axis=1).mean(axis=1)
    disp = ((y - x) ** 2).sum(axis=2).mean(axis=1)
    return alpha * cd + beta * disp


def fd_model_param_grads(coords, gt, graphs, cfg, weights, h: float = 1e-5,
                         chunk: int = 256, alpha=0.9, beta=0.1):
    """Central-difference gradients of the full loss for every parameter.

    For each parameter array, perturbations are batched through
    batched_model_loss (plus and minus in one batch), keeping the other
    parameters unbatched. Returns dict name -> gradient array.
    """
    base = {name: t.data.astype(np.float64) for name, t in weights.params.items()}
    grads = {}
    for name, arr in base.items():
        flat = arr.reshape(-1)
        g = np.empty_like(flat)
        for start in range(0, flat.size, chunk):
            stop = min(start + chunk, flat.size)
            m = stop - start
            batch = np.repeat(arr[None], 2 * m, axis=0)
            bf = batch.reshape(2 * m, -1)
            rows = np.arange(m)
            bf[2 * rows, start + rows] += h
            bf[2 * rows + 1, start + rows] -= h
            params = dict(base)
            params[name] = batch
            losses = batched_model_loss(coords, gt, graphs, cfg, params,
                                        alpha=alpha, beta=beta)
            g[start:stop] = (losses[0::2] - losses[1::2]) / (2.0 * h)
        grads[name] = g.reshape(arr.shape)
    return grads
