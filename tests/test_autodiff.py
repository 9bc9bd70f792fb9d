"""Finite-difference checks for every differentiable op, plus engine
contracts (tape replay order, gradient accumulation, error conditions)."""
import numpy as np
import pytest

import noisetrans.autodiff as ad
from noisetrans.autodiff import Tape, Tensor
from noisetrans.errors import ArgumentError, ContractError, NumericError
from helpers import central_diff, chain_linear, rel_err, traced_autodiff_ops


def grad_of(build, x0, h=1e-6, seed=0):
    """Analytic grad of sum(w * build(x)) at x0 vs central differences."""
    rng = np.random.default_rng(seed)
    t = Tensor(x0, requires_grad=True)
    with Tape() as tape:
        out = build(t)
        w = rng.standard_normal(out.shape)
        loss = ad.reduce_sum(ad.mul(out, Tensor(w)))
        tape.backward(loss)
    analytic = t.grad.copy()

    def scalar(x):
        with Tape():
            return float(ad.reduce_sum(ad.mul(build(Tensor(x)), Tensor(w))).data)

    fd = central_diff(scalar, np.asarray(x0, dtype=np.float64), h=h)
    return analytic, fd


def check(build, x0, tol=1e-6, h=1e-6, seed=0):
    analytic, fd = grad_of(build, x0, h=h, seed=seed)
    assert rel_err(analytic, fd).max() <= tol


def test_add_broadcast_grad():
    rng = np.random.default_rng(1)
    b = rng.standard_normal(4)
    a = rng.standard_normal((3, 4))
    check(lambda t: ad.add(t, Tensor(b)), a)
    # gradient w.r.t. the broadcast side must be summed over the batch axis
    check(lambda t: ad.add(Tensor(a), t), rng.standard_normal(4))


def test_sub_mul_grad():
    rng = np.random.default_rng(2)
    c0 = rng.standard_normal((2, 3))
    check(lambda t: ad.sub(t, Tensor(c0)), rng.standard_normal((2, 3)))
    c = rng.standard_normal((2, 3))
    check(lambda t: ad.mul(t, Tensor(c)), rng.standard_normal((2, 3)))
    check(lambda t: ad.mul(t, t), rng.standard_normal((2, 3)))


def test_matmul_grad_both_sides():
    rng = np.random.default_rng(3)
    # a 1-D left operand is one row, with a plain and with a batched right one
    for a0, b0 in [(rng.standard_normal((3, 4)), rng.standard_normal((4, 5))),
                   (rng.standard_normal(4), rng.standard_normal((4, 5))),
                   (rng.standard_normal(4), rng.standard_normal((3, 4, 5)))]:
        check(lambda t: ad.matmul(t, Tensor(b0)), a0)
        check(lambda t: ad.matmul(Tensor(a0), t), b0)


def test_matmul_batched_with_shared_weight():
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((2, 3, 4))
    w0 = rng.standard_normal((4, 5))
    check(lambda t: ad.matmul(t, Tensor(w0)), x0)
    check(lambda t: ad.matmul(Tensor(x0), t), w0)


def test_matmul_shape_mismatch():
    with pytest.raises(ArgumentError):
        with Tape():
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


def test_relu_grad_away_from_kink():
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal((5, 3))
    x0[np.abs(x0) < 0.1] = 0.5
    check(lambda t: ad.relu(t), x0)


def test_sigmoid_gelu_grad():
    rng = np.random.default_rng(6)
    x0 = rng.standard_normal((4, 4))
    check(lambda t: ad.sigmoid(t), x0)
    check(lambda t: ad.gelu(t), x0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_against_expit_at_the_edges(dtype):
    """_sigmoid against scipy's expit on a dense grid over [-750, 750] and
    at +-709, +-710 and +-1000, where exp(-x) over- or underflows."""
    from scipy.special import expit

    ad.set_default_dtype(dtype)
    x = np.concatenate([np.linspace(-750.0, 750.0, 1_500_001),
                        [-1000.0, -710.0, -709.0, 709.0, 710.0, 1000.0]]).astype(dtype)
    want = expit(x)
    with np.errstate(all="raise"):
        got = ad._sigmoid(x, np.empty_like(x))
        y = x.copy()
        in_place = ad._sigmoid(y, out=y)
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.reduce_sum(ad.sigmoid(t)))
    assert got.dtype == dtype and in_place.tobytes() == got.tobytes()
    diff = np.abs(got.astype(np.float64) - want.astype(np.float64))
    # numpy's vectorized exp and the C library's exp, which expit calls,
    # round differently: up to 4 ulp of the value where 1 + exp(-x) rounds
    # away a last bit (x near -37 in float64), and at most 2 ulp of 1
    assert (diff <= 4 * np.spacing(np.abs(want)).astype(np.float64)).all()
    assert diff.max() <= np.finfo(dtype).eps
    assert np.array_equal(got[x <= -710], np.zeros((x <= -710).sum(), dtype))
    assert np.isfinite(t.grad).all()
    special = np.array([-np.inf, np.inf, np.nan], dtype=dtype)
    assert np.array_equal(ad._sigmoid(special, np.empty_like(special)),
                          np.array([0.0, 1.0, np.nan], dtype=dtype), equal_nan=True)


def test_gelu_value_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for v in (-2.0, -0.5, 0.3, 1.0, 2.7):
        expect = float(mp.mpf(v) * 0.5 * (1 + mp.erf(mp.mpf(v) / mp.sqrt(2))))
        with Tape():
            got = float(ad.gelu(Tensor([v])).data[0])
        assert abs(got - expect) < 1e-15


def test_softmax_grad_and_rows_sum_to_one():
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((3, 6))
    with Tape():
        s = ad.softmax(Tensor(x0))
    assert np.allclose(s.data.sum(axis=-1), 1.0)
    check(lambda t: ad.softmax(t), x0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(8)
    x0 = rng.standard_normal((2, 5))
    with Tape():
        a = ad.softmax(Tensor(x0)).data
        b = ad.softmax(Tensor(x0 + 1000.0)).data
    assert np.allclose(a, b, atol=1e-12)


def test_layer_norm_grad_all_inputs():
    rng = np.random.default_rng(9)
    x0 = rng.standard_normal((4, 6))
    g0 = rng.standard_normal(6)
    b0 = rng.standard_normal(6)
    check(lambda t: ad.layer_norm(t, Tensor(g0), Tensor(b0)), x0)
    check(lambda t: ad.layer_norm(Tensor(x0), t, Tensor(b0)), g0)
    check(lambda t: ad.layer_norm(Tensor(x0), Tensor(g0), t), b0)


def test_layer_norm_output_statistics():
    rng = np.random.default_rng(10)
    x0 = rng.standard_normal((8, 16)) * 3 + 5
    with Tape():
        y = ad.layer_norm(Tensor(x0), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(y.std(axis=-1), 1.0, atol=1e-3)


def sum_rows_columns(n, dtype, rng):
    """An (n, 10) array whose columns are the runs that _sum_rows adds up:
    normal values, magnitudes over the dtype's whole range, all -0.0, mixed
    signed zeros, +inf, +inf with -inf, NaN, and integers that sum
    exactly."""
    top = 300 if dtype == np.float64 else 37
    x = np.empty((n, 10))
    x[:, 0] = rng.standard_normal(n)
    x[:, 1] = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-top, top, n)
    x[:, 2] = 10.0 ** rng.uniform(-top, top, n)
    x[:, 3] = -0.0
    x[:, 4] = rng.choice([-0.0, 0.0], n)
    x[:, 5:8] = rng.standard_normal((n, 3))
    x[rng.integers(n), 5] = np.inf
    x[0, 6], x[-1, 6] = np.inf, -np.inf
    x[rng.integers(n), 7] = np.nan
    x[:, 8] = rng.integers(-50, 50, n)
    x[:, 9] = rng.standard_normal(n) * 1e-3 + 1e3
    return x.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sum_rows_equals_add_reduce_bitwise(dtype):
    """_sum_rows(x) against np.add.reduce along the contiguous last axis of
    x.T, bit for bit, for every row count from 1 to 300: the short runs,
    the eight partial sums with and without a remainder, and the
    recursive halves. The input is C-ordered, F-ordered, or a strided view
    along either axis; the result is a fresh array."""
    rng = np.random.default_rng(24)
    for n in range(1, 301):
        x = sum_rows_columns(n, dtype, rng)
        wide = np.empty((2 * n, 2 * x.shape[1]), dtype)
        wide[::2, ::2] = x
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.add.reduce(np.ascontiguousarray(x.T), axis=-1)
            for view in (x, np.asfortranarray(x), wide[::2, ::2],
                         np.asfortranarray(wide)[::2, ::2]):
                got = ad._sum_rows(view)
                assert got.dtype == dtype and got.shape == (x.shape[1],)
                assert got.tobytes() == want.tobytes(), (
                    f"{n} rows, strides {view.strides}: numpy's pairwise sum order "
                    "changed, so the channel-first layer norm of the LPA layer "
                    "(edge_feature_layer) no longer rounds as layer_norm does")
                assert not np.shares_memory(got, view)
    assert ad._sum_rows(np.full((9, 1), -0.0, dtype)).tobytes() == np.zeros(1, dtype).tobytes()


def test_gather_rows_grad_with_repeats():
    rng = np.random.default_rng(11)
    idx = np.array([[0, 2], [2, 2], [1, 0]])
    check(lambda t: ad.gather_rows(t, idx), rng.standard_normal((3, 4)))


def test_gather_rows_out_of_range():
    with pytest.raises(IndexError):
        with Tape():
            ad.gather_rows(Tensor(np.ones((3, 2))), np.array([[0, 3]]))


def test_reduce_max_min_grad():
    rng = np.random.default_rng(12)
    x0 = rng.standard_normal((4, 5))
    check(lambda t: ad.reduce_max(t, axis=1), x0)
    check(lambda t: ad.reduce_min(t, axis=0), x0)


def test_reduce_max_tie_routes_to_first():
    x0 = np.array([[1.0, 3.0, 3.0]])
    t = Tensor(x0, requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.reduce_sum(ad.reduce_max(t, axis=1)))
    assert t.grad.tolist() == [[0.0, 1.0, 0.0]]


def test_ops_match_their_numpy_formulas_bitwise():
    """The reductions and products of the ops equal the plain numpy
    formulas (np.mean, np.tensordot, put_along_axis) bit for bit."""
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal((4, 5, 6))
    x0[1, 2:4, 3] = 7.0  # a tie: the first index takes the gradient
    g0 = rng.standard_normal((4, 5, 6))
    for axis in range(3):
        for op, arg in ((ad.reduce_max, np.argmax), (ad.reduce_min, np.argmin)):
            t = Tensor(x0, requires_grad=True)
            w = np.take(g0, 0, axis=axis)
            with Tape() as tape:
                tape.backward(ad.reduce_sum(ad.mul(op(t, axis), Tensor(w))))
            expect = np.zeros_like(x0)
            np.put_along_axis(expect, np.expand_dims(arg(x0, axis=axis), axis),
                              np.expand_dims(w, axis), axis)
            assert np.array_equal(t.grad, expect)
    a = Tensor(x0, requires_grad=True)
    b = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    gain = Tensor(rng.standard_normal(6), requires_grad=True)
    bias = Tensor(rng.standard_normal(6), requires_grad=True)
    wy = rng.standard_normal((4, 5, 3))
    with Tape() as tape:
        y = ad.matmul(ad.layer_norm(a, gain, bias), b)
        tape.backward(ad.reduce_sum(ad.mul(y, Tensor(wy))))
    mu = x0.mean(axis=-1, keepdims=True)
    xc = x0 - mu
    xhat = xc * (1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5))
    h = gain.data * xhat + bias.data
    assert np.array_equal(y.data, np.matmul(h, b.data))
    assert np.array_equal(b.grad, np.tensordot(h, wy, axes=((0, 1), (0, 1))))
    gh = np.matmul(wy, b.data.T)
    assert np.array_equal(gain.grad, (gh * xhat).sum(axis=(0, 1)))
    assert np.array_equal(bias.grad, gh.sum(axis=(0, 1)))


def edge_layer_inputs(d=3, width=4, n=7, k=3, seed=0):
    rng = np.random.default_rng(seed)
    neighbors = np.array([rng.choice(np.delete(np.arange(n), i), k, replace=False)
                          for i in range(n)])
    return dict(
        feats=rng.standard_normal((n, d)), gate=0.5 * rng.standard_normal((2 * d, 2 * d)),
        weight=rng.standard_normal((2 * d, width)), bias=rng.standard_normal(width),
        gain=1.0 + 0.2 * rng.standard_normal(width),
        norm_bias=0.3 + 0.2 * rng.standard_normal(width)), neighbors


@pytest.mark.parametrize("gated,normed", [(True, True), (False, False)])
def test_edge_feature_layer_grad_every_input(gated, normed):
    arrays, neighbors = edge_layer_inputs()
    if not gated:
        arrays["gate"] = None
    if not normed:
        arrays["gain"] = arrays["norm_bias"] = None
    for name, value in arrays.items():
        if value is None:
            continue

        def build(t, name=name):
            args = {n: (t if n == name else None if a is None else Tensor(a))
                    for n, a in arrays.items()}
            return ad.edge_feature_layer(args["feats"], neighbors, args["gate"],
                                         args["weight"], args["bias"],
                                         args["gain"], args["norm_bias"])

        check(build, value, tol=1e-5)


def test_reduce_sum_mean_grad():
    rng = np.random.default_rng(14)
    x0 = rng.standard_normal((3, 4))
    check(lambda t: ad.reduce_sum(t, axis=1), x0)
    check(lambda t: ad.mean(t, axis=0), x0)
    check(lambda t: ad.mean(t), x0)


def test_concat_reshape_transpose_broadcast_grad():
    rng = np.random.default_rng(15)
    x0 = rng.standard_normal((2, 3))
    other = rng.standard_normal((2, 2))
    check(lambda t: ad.concat([t, Tensor(other)], axis=1), x0)
    check(lambda t: ad.reshape(t, (3, 2)), x0)
    check(lambda t: ad.transpose(t, (1, 0)), x0)
    check(lambda t: ad.broadcast_to(t, (4, 2, 3)), x0)


def test_pairwise_sqdist_values_and_grad():
    rng = np.random.default_rng(16)
    a0 = rng.standard_normal((5, 3))
    b0 = rng.standard_normal((7, 3))
    with Tape():
        d = ad.pairwise_sqdist(Tensor(a0), Tensor(b0)).data
    brute = ((a0[:, None, :] - b0[None, :, :]) ** 2).sum(axis=-1)
    assert np.allclose(d, brute, atol=1e-12)
    check(lambda t: ad.pairwise_sqdist(t, Tensor(b0)), a0)
    check(lambda t: ad.pairwise_sqdist(Tensor(a0), t), b0)


def test_linear_grad():
    rng = np.random.default_rng(17)
    x0 = rng.standard_normal((4, 3))
    w0 = rng.standard_normal((3, 2))
    b0 = rng.standard_normal(2)
    check(lambda t: ad.linear(t, Tensor(w0), Tensor(b0)), x0)
    check(lambda t: ad.linear(Tensor(x0), t, Tensor(b0)), w0)
    check(lambda t: ad.linear(Tensor(x0), Tensor(w0), t), b0)


LINEAR_CASES = [(grad, shape) for grad in ("all", "x", "weight", "bias")
                for shape in ((6, 4), (3, 6, 4))] + [
                    (grad, (4,)) for grad in ("x", "bias", "all", "weight")]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("needs_grad,shape", LINEAR_CASES)
def test_linear_equals_matmul_add_chain_bitwise(needs_grad, shape, dtype):
    """One-op linear against the matmul + add chain it replaced: output and
    every gradient bit for bit, with x's gradient also taking a term from
    a second consumer. A 1-D x gives the bias the upstream gradient itself
    and the weight the outer product of x with it, which must also match
    central differences."""
    ad.set_default_dtype(dtype)
    rng = np.random.default_rng(50)
    arrays = {"x": rng.standard_normal(shape), "weight": rng.standard_normal((4, 5)),
              "bias": rng.standard_normal(5)}
    wy = rng.standard_normal(shape[:-1] + (5,))

    def run(layer):
        t = {n: Tensor(a, requires_grad=needs_grad in ("all", n)) for n, a in arrays.items()}
        with Tape() as tape:
            y = layer(t["x"], t["weight"], t["bias"])
            loss = ad.add(ad.reduce_sum(ad.mul(y, Tensor(wy))),
                          ad.reduce_sum(ad.mul(t["x"], t["x"])))
            tape.backward(loss)
        return y.data, {n: v.grad for n, v in t.items()}

    y, grads = run(ad.linear)
    want, want_grads = run(chain_linear)
    assert y.dtype == dtype and y.tobytes() == want.tobytes()
    for name, g in grads.items():
        if g is None:
            assert want_grads[name] is None, name
        else:
            assert g.dtype == dtype and g.tobytes() == want_grads[name].tobytes(), name
    if len(shape) == 1 and grads["weight"] is not None:
        def loss(weight):
            y = arrays["x"] @ weight + arrays["bias"]
            return float((y * wy).sum() + (arrays["x"] * arrays["x"]).sum())

        fd = central_diff(loss, arrays["weight"])
        tol = 1e-4 if dtype == np.float32 else 1e-8
        assert np.abs(grads["weight"] - fd).max() <= tol * max(1.0, np.abs(fd).max())


def op_cases():
    """(input arrays, forward) for every op the benchmark traces, plus the
    fused layer; forward takes the input tensors."""
    rng = np.random.default_rng(51)
    x = rng.standard_normal((3, 4, 5))
    x[0, 0, :3] = (0.0, -0.0, 710.0)
    m = rng.standard_normal((4, 5))
    gain, bias = 1.0 + rng.standard_normal(5), rng.standard_normal(5)
    arrays, neighbors = edge_layer_inputs()
    rows = np.array([[0, 3], [3, 3], [2, 1]])
    return {
        "matmul": ([x, m.T], lambda t: ad.matmul(*t)),
        "add": ([x, m], lambda t: ad.add(*t)),
        "sub": ([x, m], lambda t: ad.sub(*t)),
        "mul": ([x, m], lambda t: ad.mul(*t)),
        "linear": ([x, m.T, gain[:4]], lambda t: ad.linear(*t)),
        "gather_rows": ([m], lambda t: ad.gather_rows(t[0], rows)),
        "broadcast_to": ([m[0]], lambda t: ad.broadcast_to(t[0], (3, 5))),
        "concat": ([m, x[0, :2]], lambda t: ad.concat(t, axis=0)),
        "reshape": ([x], lambda t: ad.reshape(t[0], (12, 5))),
        "transpose": ([x], lambda t: ad.transpose(t[0], (2, 0, 1))),
        "sigmoid": ([x], lambda t: ad.sigmoid(t[0])),
        "relu": ([x], lambda t: ad.relu(t[0])),
        "gelu": ([x], lambda t: ad.gelu(t[0])),
        "layer_norm": ([x, gain, bias], lambda t: ad.layer_norm(*t)),
        "softmax": ([x], lambda t: ad.softmax(t[0], axis=1)),
        "reduce_max": ([x], lambda t: ad.reduce_max(t[0], axis=1)),
        "reduce_min": ([x], lambda t: ad.reduce_min(t[0], axis=2)),
        "reduce_sum": ([x], lambda t: ad.reduce_sum(t[0], axis=0)),
        "pairwise_sqdist": ([m[:, :3], x[0, :, 2:]], lambda t: ad.pairwise_sqdist(*t)),
        "edge_feature_layer": (list(arrays.values()),
                               lambda t: ad.edge_feature_layer(t[0], neighbors, *t[1:])),
    }


@pytest.mark.parametrize("op", sorted({*traced_autodiff_ops(), "edge_feature_layer"}))
def test_every_op_writes_no_input_and_has_one_forward(op):
    rng = np.random.default_rng(18)
    # ops compute in place in the array they return: it must never be an
    # input, with or without a tape, and no backward may write into an
    # input either; a tape changes what the op keeps, not its output
    arrays, build = op_cases()[op]
    plain_inputs = [Tensor(a.copy()) for a in arrays]
    plain = build(plain_inputs)
    if op not in ("reshape", "transpose"):
        assert not any(np.shares_memory(plain.data, t.data) for t in plain_inputs)
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = build(inputs)
        assert out.data.tobytes() == plain.data.tobytes()
        tape.backward(ad.reduce_sum(ad.mul(out, Tensor(rng.standard_normal(out.shape)))))
    for group in (plain_inputs, inputs):
        assert [t.data.tobytes() for t in group] == [a.tobytes() for a in arrays]


def test_gradient_accumulates_over_reuse():
    t = Tensor(np.array([2.0]), requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.reduce_sum(ad.add(t, t)))
    assert t.grad.tolist() == [2.0]


@pytest.mark.parametrize("op", [ad.add, ad.sub])
def test_a_gradient_passed_to_two_inputs_is_not_shared(op):
    rng = np.random.default_rng(19)
    # add and sub hand the same gradient to both inputs; when `a` later
    # gains a second term, `b`'s gradient must not change with it
    w, c = rng.standard_normal(3), rng.standard_normal(3)
    a = Tensor(rng.standard_normal(3), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    with Tape() as tape:
        z = ad.mul(a, Tensor(c))
        y = op(a, b)
        tape.backward(ad.add(ad.reduce_sum(ad.mul(y, Tensor(w))), ad.reduce_sum(z)))
    assert np.array_equal(a.grad, w + c)
    assert np.array_equal(b.grad, w if op is ad.add else -w)


def aliasing_cases():
    rng = np.random.default_rng(20)
    arrays, neighbors = edge_layer_inputs()
    x = rng.standard_normal((3, 4))
    return {
        "softmax": ([x], lambda t: [ad.softmax(t[0])]),
        "pairwise_sqdist": ([x[:, :3], x[:2, 1:]],
                            lambda t: [ad.pairwise_sqdist(t[0], t[1])]),
        "layer_norm": ([x, x[0], x[1]], lambda t: [ad.layer_norm(*t)]),
        "layer_norm_1d": ([x[0], x[1], x[2]], lambda t: [ad.layer_norm(*t)]),
        "edge_feature_layer": (list(arrays.values()), lambda t: [
            ad.edge_feature_layer(t[0], neighbors, *t[1:])]),
        "add_and_sub": ([x, x[0]], lambda t: [ad.add(t[0], t[1]), ad.sub(t[0], t[1])]),
        "linear": ([x, x.T, x[0, :3]], lambda t: [ad.linear(*t)]),
    }


@pytest.mark.parametrize("case", sorted(aliasing_cases()))
def test_no_gradient_aliases_another(case):
    rng = np.random.default_rng(21)
    # ops hand a freshly made gradient to a leaf without a copy; none may
    # be a view of another leaf's gradient, of the upstream gradient or of
    # any data, or a later accumulation would leak into it
    arrays, build = aliasing_cases()[case]
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape() as tape:
        outs = build(leaves)
        loss = ad.reduce_sum(ad.concat(
            [ad.reshape(ad.mul(o, Tensor(rng.standard_normal(o.shape))), (-1,))
             for o in outs], axis=0))
        tape.backward(loss)
    arrays_seen = [t.data for t in leaves] + [o.data for o in outs]
    for i, t in enumerate(leaves):
        assert t.grad is not None and t.grad.shape == t.shape
        for other in [u.grad for u in leaves[i + 1:]] + arrays_seen:
            assert not np.shares_memory(t.grad, other), (case, i)


def test_backward_keeps_only_leaf_grads():
    rng = np.random.default_rng(22)
    # the same training step replayed by the loop that keeps every
    # intermediate gradient gives bitwise the same leaf gradients
    from noisetrans.model import desk_config, forward, init_weights
    from noisetrans.objective import loss_total

    w = init_weights(desk_config(), seed=1)
    w["head.final.weight"].data = 0.05 * rng.standard_normal(w["head.final.weight"].shape)
    x = rng.standard_normal((24, 3))
    gt = x + 0.05 * rng.standard_normal(x.shape)

    def step():
        w.zero_grad()
        tape = Tape()
        with tape:
            loss = loss_total(forward(x, w), gt, x)
        return tape, loss

    tape, loss = step()
    tape.backward(loss)
    grads = {n: w[n].grad for n in w.names()}
    assert all(out.grad is None for _, out, _, _ in tape._records)

    tape, loss = step()
    loss.grad = np.ones_like(loss.data)
    for _, out, _, bw in reversed(tape._records):
        if out.grad is not None:
            bw(out.grad)
    assert all(out.grad is not None for _, out, _, _ in tape._records)
    for n in w.names():
        assert grads[n].tobytes() == w[n].grad.tobytes(), n


def test_backward_rejects_non_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        out = ad.mul(t, t)
        with pytest.raises(ContractError):
            tape.backward(out)


def test_non_finite_gradient_raises():
    t = Tensor(np.array([0.0]), requires_grad=True)
    with Tape() as tape:
        # 1/x style blow-up: mul by an inf constant propagates to the pull
        out = ad.reduce_sum(ad.mul(t, Tensor(np.array([np.inf]))))
        with pytest.raises(NumericError):
            tape.backward(out)


def test_backward_checks_every_leaf_once_after_the_replay():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([0.5, np.inf]), requires_grad=True)
    with Tape() as tape:
        loss = ad.reduce_sum(ad.sigmoid(ad.mul(a, b)))
        with pytest.raises(NumericError, match="op 'mul'"):
            tape.backward(loss)
    # the replay ran to the end: both leaves hold their gradients
    assert a.grad is not None and not np.isfinite(a.grad[1])
    assert b.grad is not None and np.isfinite(b.grad).all()


def test_dtype_switch():
    ad.set_default_dtype(np.float32)
    assert Tensor(np.zeros(2)).data.dtype == np.float32
    ad.set_default_dtype(np.float64)
    assert Tensor(np.zeros(2)).data.dtype == np.float64
