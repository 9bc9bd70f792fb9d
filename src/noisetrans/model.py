"""The denoising network: multi-scale point embedding with local point
attention, sparse positional encoding, a Pre-LN transformer encoder stack,
and a residual densely-connected output head.

The network maps an (N, 3) patch in its local unit-sphere frame to (N, 3)
denoised coordinates with row i of the output corresponding to row i of the
input. Several patches run as one forward when stacked row-wise with their
block-diagonal graphs (see build_graphs). With the final head projection at
zero the whole network is exactly the identity.
"""
from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ArgumentError, ContractError, FormatError, NumericError
from .geometry import as_points
from .spatial import patch_knn

ENCODING_MODES = ("sparse", "coordinate", "none")

_SPARSE_EPS = 1e-8


@dataclass(frozen=True)
class ModelConfig:
    k_scales: tuple[int, int, int] = (8, 16, 24)
    layers_per_unit: int = 4
    feat_width: int = 32
    d_model: int = 128
    n_heads: int = 4
    ffn_hidden: int = 256
    n_encoder_layers: int = 6
    sparse_k: int = 3
    head_hidden: int = 128
    head_layers: int = 4
    encoding_mode: str = "sparse"
    lpa_enabled: bool = True
    attention_enabled: bool = True
    embed_norm: bool = True

    def __post_init__(self):
        object.__setattr__(self, "k_scales", tuple(int(k) for k in self.k_scales))
        if len(self.k_scales) != 3 or any(
            a >= b for a, b in zip(self.k_scales, self.k_scales[1:])
        ):
            raise ArgumentError(f"k_scales must be 3 strictly increasing ints, got {self.k_scales}")
        if self.d_model % self.n_heads != 0:
            raise ArgumentError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if self.sparse_k < 1:
            raise ArgumentError(f"sparse_k must be >= 1, got {self.sparse_k}")
        for name in ("layers_per_unit", "feat_width", "d_model", "ffn_hidden",
                     "n_encoder_layers", "head_hidden", "head_layers"):
            if getattr(self, name) < 1:
                raise ArgumentError(f"{name} must be >= 1")
        if self.encoding_mode not in ENCODING_MODES:
            raise ArgumentError(
                f"unknown encoding_mode '{self.encoding_mode}' (one of {ENCODING_MODES})"
            )

    @property
    def min_points(self) -> int:
        """Smallest patch the network accepts (strict: N > max k used)."""
        k = max(self.k_scales)
        if self.encoding_mode == "sparse":
            k = max(k, self.sparse_k)
        return k + 1

    def to_dict(self) -> dict:
        d = asdict(self)
        d["k_scales"] = list(self.k_scales)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["k_scales"] = tuple(d["k_scales"])
        return cls(**d)


def desk_config(**overrides) -> ModelConfig:
    """Small profile sized for laptop-scale training and tests."""
    base = dict(
        k_scales=(4, 6, 8), feat_width=8, d_model=32, n_heads=2,
        ffn_hidden=64, n_encoder_layers=2, head_hidden=32,
    )
    base.update(overrides)
    return ModelConfig(**base)


def full_config(**overrides) -> ModelConfig:
    return ModelConfig(**overrides)


# ---------------------------------------------------------------------------
# parameter layout
# ---------------------------------------------------------------------------

def param_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Canonical (name, shape, init) list; serialization order follows it."""
    specs: list[tuple[str, tuple[int, ...], str]] = []
    fw = cfg.feat_width

    def lin(prefix, d_in, d_out, init="fanin"):
        specs.append((f"{prefix}.weight", (d_in, d_out), init))
        specs.append((f"{prefix}.bias", (d_out,), "zeros"))

    for u in range(3):
        d_in = 3
        for l in range(cfg.layers_per_unit):
            p = f"embed.u{u}.l{l}"
            if cfg.lpa_enabled:
                specs.append((f"{p}.gate", (2 * d_in, 2 * d_in), "fanin"))
            lin(p, 2 * d_in, fw)
            if cfg.embed_norm:
                specs.append((f"{p}.norm_gain", (fw,), "ones"))
                specs.append((f"{p}.norm_bias", (fw,), "zeros"))
            d_in = fw
    lin("fuse.l0", 3 * cfg.layers_per_unit * fw, cfg.d_model)
    lin("fuse.l1", cfg.d_model, cfg.d_model)
    if cfg.encoding_mode == "sparse":
        lin("enc.l0", 4, cfg.d_model)
        lin("enc.l1", cfg.d_model, cfg.d_model)
    elif cfg.encoding_mode == "coordinate":
        lin("enc.coord", 3, cfg.d_model)
    for i in range(cfg.n_encoder_layers):
        p = f"encoder.l{i}"
        specs.append((f"{p}.ln1_gain", (cfg.d_model,), "ones"))
        specs.append((f"{p}.ln1_bias", (cfg.d_model,), "zeros"))
        if cfg.attention_enabled:
            for proj in ("q", "k", "v", "o"):
                lin(f"{p}.{proj}", cfg.d_model, cfg.d_model)
        else:
            lin(f"{p}.conv", cfg.d_model, cfg.d_model)
        specs.append((f"{p}.ln2_gain", (cfg.d_model,), "ones"))
        specs.append((f"{p}.ln2_bias", (cfg.d_model,), "zeros"))
        lin(f"{p}.ffn0", cfg.d_model, cfg.ffn_hidden)
        lin(f"{p}.ffn1", cfg.ffn_hidden, cfg.d_model)
    d_in = cfg.d_model
    for m in range(cfg.head_layers):
        lin(f"head.l{m}", d_in, cfg.head_hidden)
        d_in += cfg.head_hidden
    lin("head.final", d_in, 3, init="zeros")
    return specs


class ModelWeights:
    """All learnable arrays of the network, in canonical order."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def names(self) -> list[str]:
        return list(self.params)

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def n_params(self) -> int:
        return sum(t.size for t in self.params.values())

    def copy(self) -> "ModelWeights":
        out = {}
        for name, t in self.params.items():
            out[name] = Tensor(t.data.copy(), requires_grad=t.requires_grad,
                               dtype=t.data.dtype)
        return ModelWeights(self.config, out)


def init_weights(cfg: ModelConfig, seed: int = 0) -> ModelWeights:
    """Uniform fan-in init; the final head projection starts at zero so the
    freshly initialized network is exactly the identity."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape, init in param_specs(cfg):
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            bound = 1.0 / np.sqrt(shape[0])
            data = rng.uniform(-bound, bound, shape)
        params[name] = Tensor(data, requires_grad=True)
    return ModelWeights(cfg, params)


_MAGIC = b"NTRW"
_VERSION = 1


def save_weights(weights: ModelWeights, path) -> None:
    """Versioned binary: magic, version, config json, f32 arrays, crc32."""
    cfg_blob = json.dumps(weights.config.to_dict(), sort_keys=True).encode("utf-8")
    parts = [_MAGIC, _VERSION.to_bytes(4, "little"),
             len(cfg_blob).to_bytes(4, "little"), cfg_blob]
    for name, shape, _ in param_specs(weights.config):
        t = weights[name]
        if t.shape != shape:
            raise ContractError(f"parameter '{name}' has shape {t.shape}, expected {shape}")
        parts.append(t.data.astype("<f4").tobytes())
    payload = b"".join(parts)
    crc = zlib.crc32(payload).to_bytes(4, "little")
    with open(path, "wb") as fh:
        fh.write(payload + crc)


def load_weights(path, expect_config: ModelConfig | None = None) -> ModelWeights:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != _MAGIC:
        raise FormatError(f"{path}: not a weights file (bad magic)")
    if zlib.crc32(blob[:-4]) != int.from_bytes(blob[-4:], "little"):
        raise FormatError(f"{path}: checksum mismatch (truncated or corrupt)")
    version = int.from_bytes(blob[4:8], "little")
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported weights version {version}")
    cfg_len = int.from_bytes(blob[8:12], "little")
    try:
        cfg = ModelConfig.from_dict(json.loads(blob[12:12 + cfg_len].decode("utf-8")))
    except (ValueError, TypeError, KeyError, ArgumentError) as exc:
        raise FormatError(f"{path}: bad model config block ({exc})") from None
    if expect_config is not None:
        for key, val in cfg.to_dict().items():
            want = expect_config.to_dict()[key]
            if val != want:
                raise ContractError(
                    f"{path}: weights config field '{key}' is {val}, expected {want}"
                )
    pos = 12 + cfg_len
    params: dict[str, Tensor] = {}
    for name, shape, _ in param_specs(cfg):
        count = int(np.prod(shape))
        end = pos + 4 * count
        if end > len(blob) - 4:
            raise FormatError(f"{path}: parameter block '{name}' truncated")
        arr = np.frombuffer(blob[pos:end], dtype="<f4").reshape(shape)
        params[name] = Tensor(arr.astype(ad.default_dtype()), requires_grad=True)
        pos = end
    if pos != len(blob) - 4:
        raise FormatError(f"{path}: {len(blob) - 4 - pos} trailing bytes")
    return ModelWeights(cfg, params)


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------

class Graphs(NamedTuple):
    """Each row's exclude-self neighbours, nearest first, in B stacked
    patches of `patch_size` rows: idx and d2 (squared distances) are
    (B*N, k_max). KNN scale k is idx[:, :k]; the sparse encoding reads the
    sparse_k prefix of idx and d2."""

    idx: np.ndarray
    d2: np.ndarray
    patch_size: int


def build_graphs(coords: np.ndarray, cfg: ModelConfig) -> Graphs:
    """Exclude-self KNN graphs reused by every layer of one forward pass.

    `coords` is one (N, 3) patch or a (B, N, 3) stack of patches. One
    query per patch at k_max = min_points - 1, the largest k any layer
    uses, gives every graph as a column prefix. Indices address rows of
    the stacked (B*N, 3) block, patch b's offset by b*N, so a stack's
    graphs are one block-diagonal graph.
    """
    pts = as_points(coords, "coords", stacked=np.ndim(coords) == 3)
    if pts.ndim == 2:
        pts = pts[None]
    b, n, _ = pts.shape
    if n < cfg.min_points:
        raise ArgumentError(
            f"patch has {n} points but the model needs at least {cfg.min_points} "
            f"(raise the patch size above max(k_scales)={max(cfg.k_scales)})"
        )
    k_max = cfg.min_points - 1
    idx, d2 = patch_knn(pts, k_max)
    idx = (idx + n * np.arange(b)[:, None, None]).reshape(b * n, k_max)
    return Graphs(idx, d2.reshape(b * n, k_max), n)


def repeat_graphs(graphs: Graphs, copies: int) -> Graphs:
    """The graphs of `copies` stacked repeats of the block `graphs` was built
    on, such as the same patches under several rotations: KNN graphs do not
    change when a patch is rotated."""
    rows = len(graphs.idx)
    idx = np.concatenate([graphs.idx + r * rows for r in range(copies)])
    return Graphs(idx, np.tile(graphs.d2, (copies, 1)), graphs.patch_size)


def feature_layer(feats: Tensor, neighbors: np.ndarray, weights: ModelWeights,
                  prefix: str) -> Tensor:
    """One edge-feature aggregation layer: pair features [f_i || f_j - f_i],
    optional sigmoid gate, shared linear + norm + relu, max over neighbours.

    It is one autodiff op, ad.edge_feature_layer, which computes in place,
    adds a single tape record and recomputes its intermediates in the
    backward; its output and gradients equal bitwise those of the same
    layer built from 13 ops (tests/helpers.py::chain_feature_layer)."""
    cfg = weights.config
    gate = weights[f"{prefix}.gate"] if cfg.lpa_enabled else None
    norm = [weights[f"{prefix}.{p}"] for p in ("norm_gain", "norm_bias")] if cfg.embed_norm else []
    return ad.edge_feature_layer(feats, neighbors, gate, weights[f"{prefix}.weight"],
                                 weights[f"{prefix}.bias"], *norm)


def feature_extraction_unit(coords: Tensor, neighbors: np.ndarray,
                            weights: ModelWeights, unit: int) -> Tensor:
    """Stack of feature layers at one neighbourhood scale; the outputs of all
    layers are concatenated."""
    cfg = weights.config
    outs = []
    f = coords
    for l in range(cfg.layers_per_unit):
        f = feature_layer(f, neighbors, weights, f"embed.u{unit}.l{l}")
        outs.append(f)
    return ad.concat(outs, axis=1)


def point_embedding(coords: Tensor, graphs: Graphs, weights: ModelWeights) -> Tensor:
    """Three scales of local features fused by a shared two-layer MLP."""
    cfg = weights.config
    units = [
        feature_extraction_unit(coords, graphs.idx[:, :k], weights, u)
        for u, k in enumerate(cfg.k_scales)
    ]
    cat = ad.concat(units, axis=1)
    h = ad.relu(ad.linear(cat, weights["fuse.l0.weight"], weights["fuse.l0.bias"]))
    return ad.linear(h, weights["fuse.l1.weight"], weights["fuse.l1.bias"])


def sparse_encoding(coords_np: np.ndarray, graphs: Graphs, weights: ModelWeights) -> Tensor:
    """Positional signal from neighbour offsets and inverse squared distances,
    summed over neighbours so the result is permutation invariant."""
    k = weights.config.sparse_k
    idx, d2 = graphs.idx[:, :k], graphs.d2[:, :k]
    xi = coords_np[:, None, :]
    xj = coords_np[idx]
    inv = 1.0 / np.maximum(d2, _SPARSE_EPS)
    u = np.concatenate([xi - xj, inv[:, :, None]], axis=2)  # (N, k, 4)
    h = ad.relu(ad.linear(Tensor(u), weights["enc.l0.weight"], weights["enc.l0.bias"]))
    h = ad.linear(h, weights["enc.l1.weight"], weights["enc.l1.bias"])
    return ad.reduce_sum(h, axis=1)


def _multihead_attention(h: Tensor, weights: ModelWeights, prefix: str,
                         cfg: ModelConfig, patch_size: int) -> Tensor:
    """Attention within each patch of the stacked (B*N, d) rows."""
    rows, d = h.shape
    b, n = rows // patch_size, patch_size
    nh = cfg.n_heads
    dh = d // nh

    def split_heads(x):
        return ad.transpose(ad.reshape(x, (b, n, nh, dh)), (0, 2, 1, 3))  # (B, H, N, dh)

    q = split_heads(ad.linear(h, weights[f"{prefix}.q.weight"], weights[f"{prefix}.q.bias"]))
    k = split_heads(ad.linear(h, weights[f"{prefix}.k.weight"], weights[f"{prefix}.k.bias"]))
    v = split_heads(ad.linear(h, weights[f"{prefix}.v.weight"], weights[f"{prefix}.v.bias"]))
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    att = ad.softmax(scores, axis=3)                     # (B, H, N, N)
    o = ad.matmul(att, v)                                # (B, H, N, dh)
    o = ad.reshape(ad.transpose(o, (0, 2, 1, 3)), (rows, d))
    return ad.linear(o, weights[f"{prefix}.o.weight"], weights[f"{prefix}.o.bias"])


def encoder_layer(f: Tensor, weights: ModelWeights, layer: int,
                  patch_size: int | None = None) -> Tensor:
    """Pre-LN block: F += MSA(LN(F)); F += MLP(LN(F)). With attention ablated
    the MSA is a shared per-point linear layer. The rows of `f` are patches
    of `patch_size` rows each, by default one patch."""
    cfg = weights.config
    p = f"encoder.l{layer}"
    h = ad.layer_norm(f, weights[f"{p}.ln1_gain"], weights[f"{p}.ln1_bias"])
    if cfg.attention_enabled:
        mixed = _multihead_attention(h, weights, p, cfg, patch_size or f.shape[0])
    else:
        mixed = ad.linear(h, weights[f"{p}.conv.weight"], weights[f"{p}.conv.bias"])
    f = ad.add(f, mixed)
    h2 = ad.layer_norm(f, weights[f"{p}.ln2_gain"], weights[f"{p}.ln2_bias"])
    m = ad.linear(ad.gelu(ad.linear(h2, weights[f"{p}.ffn0.weight"], weights[f"{p}.ffn0.bias"])),
                  weights[f"{p}.ffn1.weight"], weights[f"{p}.ffn1.bias"])
    return ad.add(f, m)


def output_header(f: Tensor, x: Tensor, weights: ModelWeights) -> Tensor:
    """Densely connected GELU MLP; the final projection is zero-initialized so
    Y = X at a fresh network."""
    cfg = weights.config
    feats = [f]
    for m in range(cfg.head_layers):
        inp = feats[0] if len(feats) == 1 else ad.concat(feats, axis=1)
        h = ad.gelu(ad.linear(inp, weights[f"head.l{m}.weight"], weights[f"head.l{m}.bias"]))
        feats.append(h)
    delta = ad.linear(ad.concat(feats, axis=1),
                      weights["head.final.weight"], weights["head.final.bias"])
    return ad.add(delta, x)


def forward(coords, weights: ModelWeights, graphs: Graphs | None = None) -> Tensor:
    """Denoise locally-normalized patches; returns a Tensor shaped like coords.

    `coords` is one (N, 3) patch, or B patches stacked as (B*N, 3) rows
    with `graphs` from build_graphs on the (B, N, 3) stack. Every layer but
    attention works row by row, and the offset graph indices keep each
    patch's neighbours inside it, so a stack is a block-diagonal batch."""
    cfg = weights.config
    coords_np = as_points(coords, "coords").astype(ad.default_dtype(), copy=False)
    if graphs is None:
        graphs = build_graphs(coords_np, cfg)
    graph_rows = len(graphs.idx)
    if graph_rows != len(coords_np):
        raise ArgumentError(f"graphs cover {graph_rows} rows but coords has {len(coords_np)}")
    x = Tensor(coords_np)
    emb = point_embedding(x, graphs, weights)
    if cfg.encoding_mode == "sparse":
        f = ad.add(emb, sparse_encoding(coords_np, graphs, weights))
    elif cfg.encoding_mode == "coordinate":
        f = ad.add(emb, ad.linear(x, weights["enc.coord.weight"], weights["enc.coord.bias"]))
    else:
        f = emb
    for i in range(cfg.n_encoder_layers):
        f = encoder_layer(f, weights, i, graphs.patch_size)
    y = output_header(f, x, weights)
    if not np.all(np.isfinite(y.data)):
        raise NumericError("non-finite values in network output")
    return y
