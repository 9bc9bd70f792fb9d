"""Network components against scripted loop-based oracles, serialization
round trips, identity at init, and permutation equivariance."""
import numpy as np
import pytest
from scipy.special import erf, expit

import noisetrans.autodiff as ad
import noisetrans.model as model
from noisetrans.autodiff import Tape, Tensor
from noisetrans.errors import ArgumentError, ContractError, FormatError, IndexRangeError
from noisetrans.model import (
    ENCODING_MODES,
    ModelConfig,
    build_graphs,
    desk_config,
    encoder_layer,
    feature_layer,
    forward,
    full_config,
    init_weights,
    load_weights,
    param_specs,
    repeat_graphs,
    save_weights,
    sparse_encoding,
)
from noisetrans.objective import loss_total
from noisetrans.spatial import knn_brute_force
from helpers import chain_feature_layer, traced_autodiff_ops


def test_config_validation():
    with pytest.raises(ArgumentError):
        ModelConfig(k_scales=(8, 8, 16))
    with pytest.raises(ArgumentError):
        ModelConfig(k_scales=(8, 16))
    with pytest.raises(ArgumentError):
        ModelConfig(d_model=130, n_heads=4)
    with pytest.raises(ArgumentError):
        ModelConfig(encoding_mode="fourier")
    with pytest.raises(ArgumentError):
        ModelConfig(sparse_k=0)


def test_config_round_trip_and_min_points():
    cfg = desk_config()
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.min_points == max(cfg.k_scales) + 1
    big_sparse = desk_config(sparse_k=20)
    assert big_sparse.min_points == 21


def test_full_profile_matches_published_sizes():
    cfg = full_config()
    assert cfg.k_scales == (8, 16, 24)
    assert cfg.d_model == 128 and cfg.n_encoder_layers == 6
    assert cfg.sparse_k == 3 and cfg.head_layers == 4


def test_param_specs_shapes_and_order_stable():
    cfg = desk_config()
    specs = param_specs(cfg)
    names = [n for n, _, _ in specs]
    assert names[0] == "embed.u0.l0.gate"
    assert names[-1] == "head.final.bias"
    assert len(names) == len(set(names))
    # densely connected head: each layer consumes all previous outputs
    d = {n: s for n, s, _ in specs}
    assert d["head.l0.weight"] == (cfg.d_model, cfg.head_hidden)
    assert d["head.l1.weight"] == (cfg.d_model + cfg.head_hidden, cfg.head_hidden)
    assert d["head.final.weight"][0] == cfg.d_model + cfg.head_layers * cfg.head_hidden


def test_init_zero_head_and_fanin_bounds():
    cfg = desk_config()
    w = init_weights(cfg, seed=3)
    assert not w["head.final.weight"].data.any()
    assert not w["head.final.bias"].data.any()
    fw = w["fuse.l0.weight"]
    assert np.abs(fw.data).max() <= 1.0 / np.sqrt(fw.shape[0])
    assert np.array_equal(w["encoder.l0.ln1_gain"].data, np.ones(cfg.d_model))


def test_identity_at_init():
    cfg = desk_config()
    w = init_weights(cfg, seed=0)
    pts = np.random.default_rng(1).standard_normal((32, 3))
    with Tape():
        y = forward(pts, w)
    assert np.abs(y.data - pts).max() == 0.0


def test_forward_needs_enough_points():
    cfg = desk_config()
    w = init_weights(cfg)
    with pytest.raises(ArgumentError):
        with Tape():
            forward(np.zeros((4, 3)), w)


def randomized_weights(cfg, seed=0, head_scale=0.05):
    w = init_weights(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    w["head.final.weight"].data = head_scale * rng.standard_normal(
        w["head.final.weight"].shape)
    w["head.final.bias"].data = head_scale * rng.standard_normal(3)
    return w


def test_permutation_equivariance_randomized_head():
    cfg = desk_config()
    w = randomized_weights(cfg, seed=2)
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((40, 3))
    perm = rng.permutation(40)
    with Tape():
        y = forward(pts, w).data
        yp = forward(pts[perm], w).data
    assert np.abs(yp - y[perm]).max() <= 1e-12


def test_feature_layer_against_loop_oracle():
    """N=4, k=2 scripted evaluation with explicit per-point loops."""
    cfg = desk_config(k_scales=(2, 3, 4), feat_width=5)
    w = init_weights(cfg, seed=4)
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((4, 3))
    neighbors = np.array([[1, 2], [0, 3], [3, 0], [2, 1]])
    with Tape():
        out = feature_layer(Tensor(feats), neighbors, w, "embed.u0.l0").data

    gate_w = w["embed.u0.l0.gate"].data
    lin_w = w["embed.u0.l0.weight"].data
    lin_b = w["embed.u0.l0.bias"].data
    gain = w["embed.u0.l0.norm_gain"].data
    bias = w["embed.u0.l0.norm_bias"].data
    expect = np.empty((4, 5))
    for i in range(4):
        per_neighbor = []
        for j in neighbors[i]:
            e = np.concatenate([feats[i], feats[j] - feats[i]])
            e = e * expit(e @ gate_w)
            h = e @ lin_w + lin_b
            mu, var = h.mean(), h.var()
            h = gain * (h - mu) / np.sqrt(var + 1e-5) + bias
            per_neighbor.append(np.maximum(h, 0.0))
        expect[i] = np.max(per_neighbor, axis=0)
    assert np.abs(out - expect).max() < 1e-12


def test_feature_layer_ablated_gate_and_norm():
    cfg = desk_config(k_scales=(2, 3, 4), feat_width=5, lpa_enabled=False,
                      embed_norm=False)
    w = init_weights(cfg, seed=6)
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((4, 3))
    neighbors = np.array([[1, 2], [0, 3], [3, 0], [2, 1]])
    with Tape():
        out = feature_layer(Tensor(feats), neighbors, w, "embed.u0.l0").data
    lin_w = w["embed.u0.l0.weight"].data
    lin_b = w["embed.u0.l0.bias"].data
    for i in range(4):
        vals = []
        for j in neighbors[i]:
            e = np.concatenate([feats[i], feats[j] - feats[i]])
            vals.append(np.maximum(e @ lin_w + lin_b, 0.0))
        assert np.abs(out[i] - np.max(vals, axis=0)).max() < 1e-12


def chain_layer(feats, neighbors, weights, prefix):
    """model.feature_layer as the 13-op chain of tests/helpers.py."""
    cfg = weights.config
    gate = weights[f"{prefix}.gate"] if cfg.lpa_enabled else None
    norm = [weights[f"{prefix}.{p}"] for p in ("norm_gain", "norm_bias")] if cfg.embed_norm else []
    return chain_feature_layer(feats, neighbors, gate, weights[f"{prefix}.weight"],
                               weights[f"{prefix}.bias"], *norm)


def generic_weights(cfg, seed):
    """Weights with every norm gain and bias away from its init, so that no
    term of the layer is an identity."""
    w = randomized_weights(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name in w.names():
        if name.endswith(("norm_gain", "norm_bias", ".bias")):
            w[name].data += 0.3 * rng.standard_normal(w[name].shape).astype(w[name].data.dtype)
    return w


def two_layers(layer, coords, neighbors, weights):
    """Two stacked layers of unit 0 and a loss over both outputs, as in
    feature_extraction_unit: the first layer's output already holds the
    concat's gradient when the second layer's backward adds to it."""
    x = Tensor(coords, requires_grad=True)
    rng = np.random.default_rng(3)
    with Tape() as tape:
        f1 = layer(x, neighbors, weights, "embed.u0.l0")
        f2 = layer(f1, neighbors, weights, "embed.u0.l1")
        cat = ad.concat([f1, f2], axis=1)
        w = Tensor(rng.standard_normal(cat.shape))
        tape.backward(ad.reduce_sum(ad.mul(cat, w)))
    grads = {name: weights[name].grad for name in weights.names()
             if name.startswith(("embed.u0.l0.", "embed.u0.l1."))}
    grads["coords"] = x.grad
    weights.zero_grad()
    return cat.data, grads


def untaped_two_layers(layer, coords, neighbors, weights):
    """two_layers' output with no tape: the plain forward of both layers."""
    f1 = layer(Tensor(coords), neighbors, weights, "embed.u0.l0")
    f2 = layer(f1, neighbors, weights, "embed.u0.l1")
    return np.concatenate([f1.data, f2.data], axis=1)


def fused_case_coords(cfg, dtype, seed=31):
    """Three patches with coincident and duplicated points and a duplicated
    patch, stacked, and their graphs."""
    rng = np.random.default_rng(seed)
    n = cfg.min_points + 4
    patches = rng.standard_normal((3, n, 3))
    patches[0, 1] = patches[0, 2] = patches[0, 3]  # coincident points
    patches[1, 5:9] = patches[1, :4]               # duplicated points
    patches[2] = patches[0]                        # a duplicated patch
    return patches.reshape(-1, 3).astype(dtype), build_graphs(patches, cfg)


def assert_fused_equals_chain(coords, neighbors, w, dtype):
    """The fused layer against the chain, two layers deep: the output and
    every gradient under a tape, and the output of the plain forward."""
    out, grads = two_layers(feature_layer, coords, neighbors, w)
    want, want_grads = two_layers(chain_layer, coords, neighbors, w)
    assert out.dtype == dtype and out.tobytes() == want.tobytes()
    assert grads.keys() == want_grads.keys()
    for name, g in grads.items():
        assert g.dtype == dtype and g.tobytes() == want_grads[name].tobytes(), name
    plain = untaped_two_layers(feature_layer, coords, neighbors, w)
    assert plain.dtype == dtype and plain.tobytes() == out.tobytes()
    assert plain.tobytes() == untaped_two_layers(chain_layer, coords, neighbors, w).tobytes()


FUSED_CASES = [(profile, lpa, norm) for profile in ("desk", "full")
               for lpa in (True, False) for norm in (True, False)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("profile,lpa,norm", FUSED_CASES)
def test_fused_feature_layer_equals_chain_bitwise(profile, lpa, norm, dtype):
    ad.set_default_dtype(dtype)
    make = desk_config if profile == "desk" else full_config
    cfg = make(lpa_enabled=lpa, embed_norm=norm)
    w = generic_weights(cfg, seed=30)
    coords, graphs = fused_case_coords(cfg, dtype)
    for k in cfg.k_scales:
        assert_fused_equals_chain(coords, graphs.idx[:, :k], w, dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("width", [5, 12, 33, 130])
def test_fused_feature_layer_widths_equal_chain_bitwise(width, dtype):
    """Layer widths that reach every branch of the channel-first layer
    norm's pairwise sum (fewer than 8 channels; 8 partial sums with a
    remainder, with one block or several; two recursive halves), with k
    = 1 and with the desk scales."""
    ad.set_default_dtype(dtype)
    cfg = desk_config(feat_width=width)
    w = generic_weights(cfg, seed=34)
    coords, graphs = fused_case_coords(cfg, dtype, seed=35)
    nearest = graphs.idx[:, 1:2]  # the nearest other point, for k = 1
    for neighbors in [graphs.idx[:, :1], nearest] + [graphs.idx[:, :k] for k in cfg.k_scales]:
        assert_fused_equals_chain(coords, neighbors, w, dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fused_feature_layer_non_finite_feats_equal_chain_bitwise(dtype):
    """NaN and infinite features make whole edges NaN. The chain's ReLU
    sends them to 0 before its max; the fused layer's fmax skips them and
    its ReLU clears a NaN maximum. The plain forwards agree bit for bit."""
    ad.set_default_dtype(dtype)
    cfg = desk_config()
    w = generic_weights(cfg, seed=36)
    coords, graphs = fused_case_coords(cfg, dtype, seed=37)
    coords[4, 1] = np.nan
    coords[7] = np.inf
    coords[9, 2] = -np.inf
    for k in (1,) + cfg.k_scales:
        neighbors = graphs.idx[:, :k]
        with np.errstate(invalid="ignore", over="ignore"):
            got = untaped_two_layers(feature_layer, coords, neighbors, w)
            want = untaped_two_layers(chain_layer, coords, neighbors, w)
        assert got.dtype == dtype and got.tobytes() == want.tobytes(), k


def test_fused_feature_layer_equals_chain_in_a_training_step(monkeypatch):
    """The whole desk model's output and every weight gradient, with and
    without the fused op, on a stack of two patches."""
    cfg = desk_config()
    w = generic_weights(cfg, seed=32)
    rng = np.random.default_rng(33)
    patches = rng.standard_normal((2, 32, 3))
    x = patches.reshape(-1, 3)
    gt = x + 0.05 * rng.standard_normal(x.shape)
    graphs = build_graphs(patches, cfg)

    def step():
        w.zero_grad()
        with Tape() as tape:
            y = forward(x, w, graphs=graphs)
            tape.backward(loss_total(y, gt, x))
        return y.data, {name: w[name].grad for name in w.names()}

    y, grads = step()
    monkeypatch.setattr(model, "feature_layer", chain_layer)
    want_y, want_grads = step()
    assert y.tobytes() == want_y.tobytes()
    for name in w.names():
        assert grads[name].tobytes() == want_grads[name].tobytes(), name


def cast_weights(w, dtype):
    for name in w.names():
        w[name].data = w[name].data.astype(dtype)
    return w


PATH_CASES = [(profile, mode, lpa, attention) for profile in ("desk", "full")
              for mode in ENCODING_MODES for lpa in (True, False)
              for attention in (True, False)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("profile,mode,lpa,attention", PATH_CASES)
def test_forward_is_one_path_with_and_without_a_tape(profile, mode, lpa, attention, dtype):
    """A tape changes only what the ops keep for the backward: the output
    of a recorded forward equals that of a plain one bitwise."""
    ad.set_default_dtype(dtype)
    make = desk_config if profile == "desk" else full_config
    cfg = make(encoding_mode=mode, lpa_enabled=lpa, attention_enabled=attention)
    w = cast_weights(generic_weights(cfg, seed=40), dtype)
    patches = np.random.default_rng(41).standard_normal((2, cfg.min_points + 7, 3))
    graphs = build_graphs(patches, cfg)
    x = patches.reshape(-1, 3)
    plain = forward(x, w, graphs=graphs).data
    with Tape() as tape:
        recorded = forward(x, w, graphs=graphs).data
    assert len(tape) > 0
    assert plain.dtype == dtype and plain.tobytes() == recorded.tobytes()


def input_arrays(args, kwargs):
    """The arrays among an op's arguments, inside lists too."""
    out = []
    for a in [*args, *kwargs.values()]:
        for item in a if isinstance(a, (list, tuple)) else [a]:
            if isinstance(item, Tensor):
                out.append(item.data)
            elif isinstance(item, np.ndarray):
                out.append(item)
    return out


@pytest.mark.parametrize("profile", ["desk", "full"])
def test_forward_writes_into_no_input(profile, monkeypatch):
    """No op call of a plain forward or of a recorded training step writes
    into an input, intermediates included: the residual stream feeds
    layer_norm and then add. Coords and every weight keep their bytes."""

    def checked(name, fn):
        def op(*args, **kwargs):
            arrays = input_arrays(args, kwargs)
            before = [a.tobytes() for a in arrays]
            out = fn(*args, **kwargs)
            assert [a.tobytes() for a in arrays] == before, name
            return out
        return op

    for name in {*traced_autodiff_ops(), "edge_feature_layer"}:
        monkeypatch.setattr(ad, name, checked(name, getattr(ad, name)))
    cfg = desk_config() if profile == "desk" else full_config()
    w = generic_weights(cfg, seed=42)
    rng = np.random.default_rng(43)
    coords = rng.standard_normal((cfg.min_points + 7, 3))
    gt = coords + 0.05 * rng.standard_normal(coords.shape)
    before = {name: w[name].data.tobytes() for name in w.names()}
    saved = coords.tobytes()
    forward(coords, w)
    with Tape() as tape:
        tape.backward(loss_total(forward(coords, w), gt, coords))
    assert coords.tobytes() == saved
    for name in w.names():
        assert w[name].data.tobytes() == before[name], name


def test_feature_layer_rejects_bad_neighbours():
    cfg = desk_config(k_scales=(2, 3, 4), feat_width=5)
    w = init_weights(cfg, seed=4)
    feats = Tensor(np.random.default_rng(5).standard_normal((4, 3)))
    with pytest.raises(ArgumentError, match="at least one neighbour"):
        feature_layer(feats, np.zeros((4, 0), dtype=np.int64), w, "embed.u0.l0")
    for bad in (4, -1):
        neighbors = np.array([[1, 2], [0, 3], [3, bad], [2, 1]])
        with pytest.raises(IndexRangeError):
            feature_layer(feats, neighbors, w, "embed.u0.l0")


def test_weights_copy_keeps_dtype():
    ad.set_default_dtype(np.float32)
    w = init_weights(desk_config(), seed=34)
    ad.set_default_dtype(np.float64)
    c = w.copy()
    for name in w.names():
        assert c[name].data.dtype == np.float32, name
        assert c[name].data.tobytes() == w[name].data.tobytes()
        assert not np.shares_memory(c[name].data, w[name].data)


def test_sparse_encoding_against_loop_oracle():
    """N=5 scripted evaluation; also checks sum aggregation order freedom."""
    cfg = desk_config(k_scales=(2, 3, 4), sparse_k=2)
    w = init_weights(cfg, seed=8)
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((5, 3))
    graphs = build_graphs(pts, cfg)
    with Tape():
        out = sparse_encoding(pts, graphs, w).data
    idx, d2 = graphs.idx[:, :2], graphs.d2[:, :2]
    w0, b0 = w["enc.l0.weight"].data, w["enc.l0.bias"].data
    w1, b1 = w["enc.l1.weight"].data, w["enc.l1.bias"].data
    for i in range(5):
        acc = np.zeros(cfg.d_model)
        for slot in range(2):
            j = idx[i, slot]
            u = np.concatenate([pts[i] - pts[j], [1.0 / max(d2[i, slot], 1e-8)]])
            acc += np.maximum(u @ w0 + b0, 0.0) @ w1 + b1
        assert np.abs(out[i] - acc).max() < 1e-12


def test_encoder_layer_against_scripted_single_head():
    """N=3, d=4, one head: attention written out with explicit softmax."""
    cfg = desk_config(d_model=4, n_heads=1, ffn_hidden=6)
    w = init_weights(cfg, seed=10)
    rng = np.random.default_rng(11)
    f0 = rng.standard_normal((3, 4))
    with Tape():
        out = encoder_layer(Tensor(f0), w, 0).data

    def ln(x, g, b):
        mu = x.mean(axis=-1, keepdims=True)
        v = x.var(axis=-1, keepdims=True)
        return g * (x - mu) / np.sqrt(v + 1e-5) + b

    p = "encoder.l0"
    g = lambda s: w[f"{p}.{s}"].data
    h = ln(f0, g("ln1_gain"), g("ln1_bias"))
    q = h @ g("q.weight") + g("q.bias")
    k = h @ g("k.weight") + g("k.bias")
    v = h @ g("v.weight") + g("v.bias")
    scores = q @ k.T / 2.0  # sqrt(d_head) = sqrt(4)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    att = e / e.sum(axis=1, keepdims=True)
    f1 = f0 + (att @ v) @ g("o.weight") + g("o.bias")
    h2 = ln(f1, g("ln2_gain"), g("ln2_bias"))
    z = h2 @ g("ffn0.weight") + g("ffn0.bias")
    z = z * 0.5 * (1.0 + erf(z / np.sqrt(2.0)))
    f2 = f1 + z @ g("ffn1.weight") + g("ffn1.bias")
    assert np.abs(out - f2).max() < 1e-12


def test_attention_ablation_is_pointwise():
    # with attention off, each row of the block output depends only on its
    # own input row (plus the residual), so changing one point leaves the
    # others untouched
    cfg = desk_config(attention_enabled=False)
    w = init_weights(cfg, seed=12)
    rng = np.random.default_rng(13)
    f0 = rng.standard_normal((6, cfg.d_model))
    f1 = f0.copy()
    f1[2] += 1.0
    with Tape():
        a = encoder_layer(Tensor(f0), w, 0).data
        b = encoder_layer(Tensor(f1), w, 0).data
    mask = np.ones(6, dtype=bool)
    mask[2] = False
    assert np.array_equal(a[mask], b[mask])
    assert not np.array_equal(a[2], b[2])


def test_encoding_mode_variants_forward():
    pts = np.random.default_rng(14).standard_normal((16, 3))
    for mode in ("sparse", "coordinate", "none"):
        cfg = desk_config(encoding_mode=mode)
        w = randomized_weights(cfg, seed=15)
        with Tape():
            y = forward(pts, w).data
        assert y.shape == (16, 3)
        assert np.all(np.isfinite(y))


def test_graphs_exclude_self():
    cfg = desk_config()
    pts = np.random.default_rng(16).standard_normal((20, 3))
    graphs = build_graphs(pts, cfg)
    assert graphs.idx.shape == graphs.d2.shape == (20, cfg.min_points - 1)
    for k in cfg.k_scales:
        idx = graphs.idx[:, :k]
        assert idx.shape == (20, k)
        assert not np.any(idx == np.arange(20)[:, None])


def test_stacked_graphs_are_offset_per_patch_graphs():
    cfg = desk_config()
    patches = np.random.default_rng(17).standard_normal((3, 12, 3))
    stacked = build_graphs(patches, cfg)
    assert stacked.patch_size == 12
    sk = cfg.sparse_k
    for b, p in enumerate(patches):
        own = build_graphs(p, cfg)
        rows = slice(12 * b, 12 * (b + 1))
        for k in cfg.k_scales:
            assert np.array_equal(stacked.idx[rows, :k], own.idx[:, :k] + 12 * b)
            ib, _ = knn_brute_force(p, p, k, exclude_self=True)
            assert np.array_equal(own.idx[:, :k], ib)
        assert np.array_equal(stacked.idx[rows, :sk], own.idx[:, :sk] + 12 * b)
        assert np.array_equal(stacked.d2[rows, :sk], own.d2[:, :sk])
        _, db = knn_brute_force(p, p, sk, exclude_self=True)
        assert np.array_equal(own.d2[:, :sk], db)


STACK_CONFIGS = {
    "desk": {},
    "two-head": dict(k_scales=(3, 5, 7), d_model=16, n_heads=2, ffn_hidden=24,
                     head_hidden=16, sparse_k=4),
}


@pytest.mark.parametrize("mode", ENCODING_MODES)
@pytest.mark.parametrize("profile", sorted(STACK_CONFIGS))
def test_stacked_forward_matches_per_patch(profile, mode):
    cfg = desk_config(encoding_mode=mode, **STACK_CONFIGS[profile])
    w = randomized_weights(cfg, seed=18)
    patches = np.random.default_rng(19).standard_normal((4, 14, 3))
    with Tape():
        stacked = forward(patches.reshape(-1, 3), w, graphs=build_graphs(patches, cfg)).data
        per_patch = np.concatenate([forward(p, w).data for p in patches])
    assert np.abs(stacked - per_patch).max() <= 1e-12


def test_repeated_graphs_serve_rotated_copies():
    cfg = desk_config()
    w = randomized_weights(cfg, seed=20)
    patches = np.random.default_rng(21).standard_normal((3, 16, 3))
    q, _ = np.linalg.qr(np.random.default_rng(22).standard_normal((3, 3)))
    rots = [np.eye(3), q]
    base = build_graphs(patches, cfg)
    graphs = repeat_graphs(base, len(rots))
    assert graphs.patch_size == base.patch_size == 16
    for r in range(len(rots)):
        copy = slice(48 * r, 48 * (r + 1))
        assert np.array_equal(graphs.idx[copy], base.idx + 48 * r)
        assert np.array_equal(graphs.d2[copy], base.d2)
    rows = np.concatenate([patches @ rot.T for rot in rots]).reshape(-1, 3)
    ys = forward(rows, w, graphs=graphs).data.reshape(len(rots), *patches.shape)
    for y, rot in zip(ys, rots):
        for got, p in zip(y, patches):
            assert np.abs(got - forward(p @ rot.T, w).data).max() <= 1e-12
    with pytest.raises(ArgumentError, match="rows"):
        forward(rows[:16], w, graphs=graphs)


def test_weights_round_trip(tmp_path):
    cfg = desk_config()
    w = randomized_weights(cfg, seed=17)
    p = tmp_path / "w.ntw"
    save_weights(w, p)
    back = load_weights(p)
    assert back.config == cfg
    for name in w.names():
        assert np.allclose(back[name].data, w[name].data, atol=1e-6)  # f32 storage


def test_weights_corruption_detected(tmp_path):
    cfg = desk_config()
    w = init_weights(cfg, seed=18)
    p = tmp_path / "w.ntw"
    save_weights(w, p)
    blob = bytearray(p.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "bad.ntw"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="checksum"):
        load_weights(bad)
    trunc = tmp_path / "trunc.ntw"
    trunc.write_bytes(p.read_bytes()[:100])
    with pytest.raises(FormatError):
        load_weights(trunc)
    with pytest.raises(FormatError, match="magic"):
        notw = tmp_path / "x.ntw"
        notw.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        load_weights(notw)


def test_weights_config_mismatch_names_field(tmp_path):
    cfg = desk_config()
    w = init_weights(cfg, seed=19)
    p = tmp_path / "w.ntw"
    save_weights(w, p)
    with pytest.raises(ContractError, match="d_model"):
        load_weights(p, expect_config=desk_config(d_model=64, head_hidden=32))


def test_parameter_count_desk():
    w = init_weights(desk_config())
    # derivable by summing the published layer shapes; asserted as a guard
    # against silent layout drift
    assert w.n_params() == sum(
        int(np.prod(s)) for _, s, _ in param_specs(desk_config()))
