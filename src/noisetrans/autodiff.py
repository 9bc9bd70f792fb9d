"""Dense tensors with tape-based reverse-mode differentiation.

All storage is numpy. Gradients are only recorded while a Tape is active
(``with Tape() as tape: ...``); outside a tape every operation is plain
forward arithmetic.

Every op has one forward. It computes in place in the array it returns,
with a temporary only where a reduction needs one (layer norm's variance,
the squared differences of pairwise_sqdist), and it never writes into its
inputs. A float32 buffer never takes a rounded float64 result (see _out).
A recording tape changes only what the op's record keeps, its inputs or
its own output; the backward recomputes any other intermediate. So a
forward gives the same bits with or without a tape. `linear` (the matmul,
then the bias added in place) and the Local Point Attention layer,
edge_feature_layer, are one op each. Sigmoids go through one helper,
_sigmoid, with numpy's vectorized exp.

Determinism: every sum is numpy's np.add.reduce, whose order depends only
on the array's shape and memory layout. Along a contiguous axis numpy sums
pairwise: fewer than 8 terms left to right; up to 128 terms as eight
interleaved partial sums, combined as a tree, then the remainder left to
right; longer runs in two halves, recursively. Along a strided axis it
adds element by element in index order. _sum_rows takes the same pairwise
sum over axis 0 of a 2-D array, one vector add per row or per block of
eight rows, and adds the result to +0.0 as numpy's sum does, so it equals
np.add.reduce along the contiguous last axis of the transpose bit for bit;
the channel-first layer norm of edge_feature_layer uses it. max/min route
their gradient to the first attaining index, and the tape replays ops in
exact reverse execution order, so identical inputs give bitwise-identical
outputs and gradients.
"""
from __future__ import annotations

import numpy as np
from scipy.special import erf

from .errors import ArgumentError, ContractError, IndexRangeError, NumericError

_DTYPE = np.dtype(np.float64)

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def set_default_dtype(dtype) -> None:
    """Set the dtype newly created tensors use (float64 or float32)."""
    global _DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ArgumentError(f"unsupported tensor dtype {dt}; use float32 or float64")
    _DTYPE = dt


def default_dtype() -> np.dtype:
    return _DTYPE


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of executed ops; backward replays it in reverse."""

    def __init__(self):
        # entries are (op_name, output_tensor, input_tensors, backward_fn)
        self._records = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.pop()
        return False

    def __len__(self):
        return len(self._records)

    def backward(self, loss: "Tensor") -> None:
        """Populate .grad on every requires_grad leaf reachable from loss.

        Repeated calls without zeroing leaf grads accumulate. An intermediate
        tensor's grad is dropped as soon as its record's backward has run,
        since every op that consumed it was recorded later and has already
        been replayed; after backward only leaves hold a .grad. After the
        replay the leaves' gradients are checked once: a NaN or infinity in
        any of them raises NumericError naming the op that consumed that
        leaf.
        """
        if loss.data.size != 1:
            raise ContractError(
                f"backward expects a scalar loss, got shape {loss.shape}"
            )
        if not self._records:
            raise ContractError("backward called on an empty tape")
        for _, out, _, _ in self._records:
            out.grad = None
        loss.grad = np.ones_like(loss.data)
        for _, out, _, bw in reversed(self._records):
            if out.grad is not None:
                bw(out.grad)
                out.grad = None
        produced = {id(out) for _, out, _, _ in self._records}
        leaves = {id(t): (name, t) for name, _, inputs, _ in self._records
                  for t in inputs if t.requires_grad and id(t) not in produced}
        bad = first_non_finite_grad(leaves.values())
        if bad is not None:
            raise NumericError(f"non-finite gradient on a leaf input of op '{bad}'")


class Tensor:
    """A dense n-d array that may participate in gradient recording."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, scalar):
        return mul(self, 1.0 / float(scalar))

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def first_non_finite_grad(named):
    """The name of the first (name, tensor) pair whose .grad holds a NaN or
    an infinity, or None when every gradient is finite or absent."""
    for name, t in named:
        if t.grad is not None and not np.isfinite(t.grad).all():
            return name
    return None


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add g to t.grad, if t requires one; a backward with several inputs
    tests that before it computes g. `fresh` says g is a new array that
    nothing else holds, so it can become t.grad without a copy."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if fresh and g.dtype == t.data.dtype:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += np.asarray(g, dtype=t.data.dtype)


def _recording(inputs) -> bool:
    """Whether an op on these inputs adds a record to the active tape."""
    return bool(_TAPE_STACK) and any(t.requires_grad for t in inputs)


def _record(name: str, out: Tensor, inputs, backward) -> Tensor:
    if _recording(inputs):
        out.requires_grad = True
        _TAPE_STACK[-1]._records.append((name, out, inputs, backward))
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _out(a: np.ndarray, b) -> np.ndarray | None:
    """`a` as the `out` of a binary ufunc on (a, b) when the result keeps
    a's dtype, else None; writing a wider result into `a` would round it."""
    return a if np.result_type(a, b) == a.dtype else None


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _record("add", out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.shape))

    return _record("sub", out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape), fresh=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape), fresh=True)

    return _record("mul", out, (a, b), bw)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_matmul("matmul", a, b)
    out = Tensor(np.matmul(a.data, b.data))

    def bw(g):
        _matmul_backward(g, a, b)

    return _record("matmul", out, (a, b), bw)


def _check_matmul(name: str, a: Tensor, b: Tensor) -> None:
    if a.ndim < 1 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ArgumentError(
            f"{name}: inner dimensions disagree for shapes {a.shape} and {b.shape}"
        )


def _matmul_backward(g: np.ndarray, a: Tensor, b: Tensor) -> None:
    """Accumulate the gradients of a @ b into a, then b. A 1-D a is one
    row, as np.matmul treats it."""
    x = a.data
    if x.ndim == 1:
        x, g = x[None], g[..., None, :]
    if a.requires_grad:
        _accum(a, _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape), fresh=True)
    if not b.requires_grad:
        return
    if b.ndim == 2 and x.ndim > 2:
        _accum(b, _shared_weight_grad(x, g), fresh=True)
    else:
        _accum(b, _unbroadcast(np.matmul(x.swapaxes(-1, -2), g), b.shape), fresh=True)


def _affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x @ weight, then bias added in place: the arithmetic of matmul then
    add."""
    h = np.matmul(x, weight)
    return np.add(h, bias, out=_out(h, bias))


def _shared_weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of a 2-D weight w in a @ w for an a with leading axes: one
    matrix product over all of them, laid out as np.tensordot(a, g,
    (lead, lead)) lays it out."""
    lead = tuple(range(a.ndim - 1))
    at = a.transpose((a.ndim - 1,) + lead).reshape(a.shape[-1], -1)
    return np.dot(at, g.reshape(-1, g.shape[-1]))


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def _relu(x: np.ndarray, out=None) -> np.ndarray:
    """np.where(x > 0, x, 0.0) bit for bit, at a tenth of its cost: fmax
    sends NaN to 0, and adding +0.0 turns -0.0 into +0.0. `out` may be x."""
    out = np.fmax(x, 0.0, out=out)
    out += 0.0
    return out


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(_relu(x.data))

    def bw(g):
        _accum(x, np.where(x.data > 0, g, 0.0), fresh=True)

    return _record("relu", out, (x,), bw)


def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) into `out`, which may be x itself.

    scipy's expit uses the same formula, one element at a time; numpy's
    vectorized exp makes this about 3x faster, and the two differ by at
    most 2 ulp of 1 (4 ulp of the value). Where exp(-x) overflows, below
    about -709.8 (float64) or -88.7 (float32), the result is 0, as from
    expit; the overflow and the underflow of large x stay silent."""
    with np.errstate(over="ignore", under="ignore"):
        np.negative(x, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    s = _sigmoid(x.data, np.empty_like(x.data))
    out = Tensor(s)

    def bw(g):
        _accum(x, g * s * (1.0 - s), fresh=True)

    return _record("sigmoid", out, (x,), bw)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt(2))), in one fresh array."""
    c = np.divide(x, _SQRT2)
    erf(c, out=c)
    c += 1.0
    c *= 0.5
    return c


def gelu(x) -> Tensor:
    """Exact GELU x * Phi(x) with Phi the standard normal CDF (erf form)."""
    x = as_tensor(x)
    y = _normal_cdf(x.data)
    y *= x.data
    out = Tensor(y)

    def bw(g):
        # g * (Phi(x) + x * pdf(x)), pdf(x) = exp(-0.5 * x * x) / sqrt(2 pi)
        xd = x.data
        p = np.multiply(xd, -0.5)
        p *= xd
        np.exp(p, out=p)
        p *= _INV_SQRT_2PI
        p *= xd
        p += _normal_cdf(xd)
        _accum(x, np.multiply(p, g, out=_out(p, g)), fresh=True)

    return _record("gelu", out, (x,), bw)


def softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    _check_axis(x, axis, "softmax")
    s = np.subtract(x.data, x.data.max(axis=axis, keepdims=True))
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)
    out = Tensor(s)

    def bw(g):
        # s * (g - sum(g * s)), in the buffer of g * s
        t = g * s
        t = np.subtract(g, t.sum(axis=axis, keepdims=True), out=t)
        t *= s
        _accum(x, t, fresh=True)

    return _record("softmax", out, (x,), bw)


def _mean_last(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True) without the wrapper's overhead: the
    same np.add.reduce sum (see the module docstring for its order),
    divided by the count."""
    return np.true_divide(np.add.reduce(a, axis=-1, keepdims=True), a.shape[-1])


def _pairwise_rows(x: np.ndarray) -> np.ndarray:
    """The rows of a 2-D x summed in the order of numpy's pairwise sum of a
    contiguous run, into a fresh array (see _sum_rows)."""
    n = len(x)
    if n < 8:
        res = np.zeros(x.shape[1:], x.dtype)   # short runs start from +0.0
        for row in x:
            res += row
        return res
    if n <= 128:
        m = n - n % 8
        r = x[:8] if m == 8 else np.add(x[:8], x[8:16])
        for i in range(16, m, 8):
            r += x[i:i + 8]
        q = np.add(r[0::2], r[1::2])          # r0+r1, r2+r3, r4+r5, r6+r7
        q = np.add(q[0::2], q[1::2])
        res = np.add(q[0], q[1], out=q[0])
        for i in range(m, n):
            res += x[i]
        return res
    half = n // 2
    half -= half % 8
    res = _pairwise_rows(x[:half])
    res += _pairwise_rows(x[half:])
    return res


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """np.add.reduce over axis 0 of a 2-D x, bit for bit what np.add.reduce
    gives along the contiguous last axis of x.T: one vector add per row or
    per block of eight rows instead of one short reduction per column."""
    res = _pairwise_rows(x)
    res += 0.0   # numpy's sum starts from +0.0, so -0.0 terms sum to +0.0
    return res


def _mean_first(a: np.ndarray) -> np.ndarray:
    """The mean over axis 0 of a 2-D a, as _mean_last takes it over the
    last axis of a.T."""
    return np.true_divide(_sum_rows(a), len(a))


_LN_EPS = 1e-5   # layer norm's variance floor, for layer_norm and edge_feature_layer


def _ln_normalize(x: np.ndarray, out=None, mean=_mean_last):
    """Layer norm's normalization of the last axis: returns xhat = (x -
    mean) / sqrt(var + eps) and inv = 1 / sqrt(var + eps), eps = _LN_EPS.
    xhat is written into `out` when given; `out` may be x itself. With
    mean=_mean_first it normalizes the columns of a 2-D x instead."""
    mu = mean(x)
    xhat = np.subtract(x, mu, out=out)
    var = mean(xhat * xhat)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    return xhat, inv


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, out=None,
                mean=_mean_last) -> np.ndarray:
    """gain * xhat + bias, computed in xhat's buffer (`out`, which may be x,
    or a fresh array) unless a wider gain or bias would round there. `mean`
    picks the normalized axis, as in _ln_normalize; gain and bias broadcast
    along it."""
    h, _ = _ln_normalize(x, out=out, mean=mean)
    h = np.multiply(h, gain, out=_out(h, gain))
    return np.add(h, bias, out=_out(h, bias))


def _ln_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                 gain: Tensor, bias: Tensor) -> np.ndarray:
    """Accumulate the gradients of gain * xhat + bias into gain and bias and
    return the gradient of the normalized input,
    inv * (gg - mean(gg) - xhat * mean(gg * xhat)) with gg = g * gain."""
    lead = tuple(range(g.ndim - 1))
    if gain.requires_grad:
        _accum(gain, np.add.reduce(g * xhat, axis=lead), fresh=True)
    if bias.requires_grad:
        _accum(bias, np.add.reduce(g, axis=lead), fresh=True)
    gg = g * gain.data
    m2 = _mean_last(gg * xhat)
    r = np.subtract(gg, _mean_last(gg), out=gg)
    t = xhat * m2
    r = np.subtract(r, t, out=_out(r, t))
    return np.multiply(r, inv, out=_out(r, inv))


def _check_norm_params(name: str, gain: Tensor, bias: Tensor, d: int) -> None:
    if gain.shape != (d,) or bias.shape != (d,):
        raise ArgumentError(
            f"{name}: gain/bias shapes {gain.shape}/{bias.shape} do not match last axis {d}"
        )


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    _check_norm_params("layer_norm", gain, bias, x.shape[-1])
    out = Tensor(_layer_norm(x.data, gain.data, bias.data))

    def bw(g):
        xhat, inv = _ln_normalize(x.data)
        _accum(x, _ln_backward(g, xhat, inv, gain, bias), fresh=True)

    return _record("layer_norm", out, (x, gain, bias), bw)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def gather_rows(x, idx) -> Tensor:
    """out[..., :] = x[idx[...], :] for a 2-D x; backward scatter-adds."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ArgumentError(f"gather_rows expects a 2-D tensor, got shape {x.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    _check_rows("gather_rows", idx, x.shape[0])
    out = Tensor(x.data[idx])

    def bw(g):
        _accum(x, _scatter_rows(g, idx, x.shape), fresh=True)

    return _record("gather_rows", out, (x,), bw)


def _check_rows(name: str, idx: np.ndarray, n: int) -> None:
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexRangeError(
            f"{name}: index out of range for {n} rows (min {idx.min()}, max {idx.max()})"
        )


def _scatter_rows(g: np.ndarray, idx: np.ndarray, shape) -> np.ndarray:
    """The gradient of x[idx] for a 2-D x of `shape`: g's rows summed into
    the rows they were gathered from. One bincount over (row, column) bins,
    much faster than np.add.at; each bin sums its terms in the order they
    come."""
    n, d = shape
    bins = (idx.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
    return np.bincount(bins, weights=g.reshape(-1), minlength=n * d).reshape(n, d)


def _check_axis(x: Tensor, axis: int, name: str) -> int:
    if not -x.ndim <= axis < x.ndim:
        raise ArgumentError(f"{name}: axis {axis} invalid for shape {x.shape}")
    return axis % x.ndim


def reduce_max(x, axis: int) -> Tensor:
    """Max along axis; gradient routed to the first attaining index."""
    return _reduce_extreme(x, axis, np.maximum.reduce, np.argmax, "reduce_max")


def reduce_min(x, axis: int) -> Tensor:
    """Min along axis; gradient routed to the first attaining index."""
    return _reduce_extreme(x, axis, np.minimum.reduce, np.argmin, "reduce_min")


def _reduce_extreme(x, axis, reducer, arg_reducer, name) -> Tensor:
    x = as_tensor(x)
    axis = _check_axis(x, axis, name)
    if x.shape[axis] < 1:
        raise ArgumentError(f"{name}: axis {axis} is empty in shape {x.shape}")
    out = Tensor(reducer(x.data, axis=axis))

    def bw(g):
        # the argument is only needed when a tape replays this op
        _accum(x, _route_to_arg(g, arg_reducer(x.data, axis=axis), x.shape, axis),
               fresh=True)

    return _record(name, out, (x,), bw)


def _route_to_arg(g: np.ndarray, arg: np.ndarray, shape, axis: int) -> np.ndarray:
    """The gradient of a max or min over `axis` of an array of `shape`: g
    where the position along `axis` is the argument `arg`, 0 elsewhere."""
    keep = shape[:axis] + (1,) + shape[axis + 1:]
    along = np.arange(shape[axis]).reshape((-1,) + (1,) * (len(shape) - axis - 1))
    return np.where(arg.reshape(keep) == along, g.reshape(keep), 0.0)


def reduce_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def bw(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.shape))
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            _accum(x, np.broadcast_to(ge, x.shape))

    return _record("reduce_sum", out, (x,), bw)


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    if axis is None:
        count = x.size
    else:
        count = x.shape[axis]
    return mul(reduce_sum(x, axis=axis, keepdims=keepdims), 1.0 / count)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ArgumentError("concat of an empty list")
    ref = tensors[0]
    axis = _check_axis(ref, axis, "concat")
    rest = ref.shape[:axis] + ref.shape[axis + 1:]
    for t in tensors[1:]:
        if t.ndim != ref.ndim or t.shape[:axis] + t.shape[axis + 1:] != rest:
            raise ArgumentError(
                f"concat: shape {t.shape} incompatible with {ref.shape} on axis {axis}"
            )
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    ends = np.cumsum([t.shape[axis] for t in tensors]).tolist()
    lead = (slice(None),) * axis

    def bw(g):
        for t, end in zip(tensors, ends):
            _accum(t, g[lead + (slice(end - t.shape[axis], end),)])

    return _record("concat", out, tuple(tensors), bw)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.reshape(shape))

    def bw(g):
        _accum(x, g.reshape(x.shape))

    return _record("reshape", out, (x,), bw)


def transpose(x, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(x.data.transpose(axes))

    def bw(g):
        _accum(x, g.transpose(inv))

    return _record("transpose", out, (x,), bw)


def broadcast_to(x, shape) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.broadcast_to(x.data, shape).copy())

    def bw(g):
        _accum(x, _unbroadcast(g, x.shape))

    return _record("broadcast_to", out, (x,), bw)


def pairwise_sqdist(a, b) -> Tensor:
    """D[i, j] = ||a_i - b_j||^2 for a (N, 3) and b (M, 3)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ArgumentError(
            f"pairwise_sqdist: incompatible shapes {a.shape} and {b.shape}"
        )

    def diff():
        return a.data[:, None, :] - b.data[None, :, :]

    sq = diff()
    np.multiply(sq, sq, out=sq)
    out = Tensor(np.add.reduce(sq, axis=-1))

    def bw(g):
        d = diff()
        if a.requires_grad:
            _accum(a, 2.0 * np.einsum("ij,ijk->ik", g, d), fresh=True)
        if b.requires_grad:
            _accum(b, -2.0 * np.einsum("ij,ijk->jk", g, d), fresh=True)

    return _record("pairwise_sqdist", out, (a, b), bw)


def linear(x, weight, bias) -> Tensor:
    """x @ weight + bias, the shared-weight dense layer used everywhere.

    One op: the matmul, then the bias added in place. Its backward runs the
    arithmetic of matmul followed by add in the same order, so with every
    input in the default dtype its output and gradients equal those of the
    two ops bitwise."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    _check_matmul("linear", x, weight)
    out = Tensor(_affine(x.data, weight.data, bias.data))

    def bw(g):
        if bias.requires_grad:
            # fresh only when _unbroadcast summed g into a new array
            _accum(bias, _unbroadcast(g, bias.shape), fresh=g.shape != bias.shape)
        _matmul_backward(g, x, weight)

    return _record("linear", out, (x, weight, bias), bw)


# ---------------------------------------------------------------------------
# fused layers
# ---------------------------------------------------------------------------

def edge_feature_layer(feats, neighbors, gate, weight, bias, gain=None,
                       norm_bias=None) -> Tensor:
    """One Local Point Attention embedding layer as a single op.

    For each point i and neighbour j = neighbors[i, s], the edge feature
    e = [f_i || f_j - f_i] is gated, e * sigmoid(e @ gate), sent through the
    shared linear layer, layer-normalized (gain * xhat + norm_bias), passed
    through a ReLU, and maxed over the k neighbours: (N, d) feats and (N, k)
    neighbors give (N, out). `gate` may be None (no gating); `gain` and
    `norm_bias` are both given or both None (no norm).

    The forward works in place in a few buffers, with the arithmetic of the
    op chain gather_rows, reshape, broadcast_to, sub, concat, matmul,
    sigmoid, mul, linear, layer_norm, relu and reduce_max, so with every
    input in the default dtype its output equals the chain's bitwise. The
    (N, k, 2d) edges, the gate and the dense product are laid out as in the
    chain. Everything after them is channel-first: the bias add writes h as
    (width, N * k), the layer norm's mean and variance are _sum_rows over
    its `width` rows, the max over the k neighbours and then the ReLU run on
    whole rows, and the (N, width) output is one transpose copy of the
    (width, N) maxima. A recording tape gets one record, which keeps the
    inputs, `neighbors` and the max's argmax, found on the same
    channel-first h. Its backward recomputes the gate and the pre-norm
    activations and then runs the chain's backward arithmetic in the chain's
    order and layout, so the gradients are bitwise equal to the chain's too.
    """
    feats, weight, bias = as_tensor(feats), as_tensor(weight), as_tensor(bias)
    if feats.ndim != 2:
        raise ArgumentError(f"edge_feature_layer expects 2-D feats, got shape {feats.shape}")
    n, d = feats.shape
    idx = np.asarray(neighbors, dtype=np.int64)
    if idx.ndim != 2 or len(idx) != n:
        raise ArgumentError(
            f"edge_feature_layer: neighbors of shape {idx.shape} do not fit {n} rows")
    k = idx.shape[1]
    if k == 0:
        raise ArgumentError("edge_feature_layer needs at least one neighbour")
    _check_rows("edge_feature_layer", idx, n)
    inputs = [feats, weight, bias]
    if gate is not None:
        gate = as_tensor(gate)
        if gate.shape != (2 * d, 2 * d):
            raise ArgumentError(
                f"edge_feature_layer: gate shape {gate.shape} is not {(2 * d, 2 * d)}")
        inputs.append(gate)
    if weight.ndim != 2 or weight.shape[0] != 2 * d:
        raise ArgumentError(
            f"edge_feature_layer: weight shape {weight.shape} does not take {2 * d} inputs")
    width = weight.shape[1]
    if bias.shape != (width,):
        raise ArgumentError(
            f"edge_feature_layer: bias shape {bias.shape} does not match width {width}")
    if (gain is None) != (norm_bias is None):
        raise ArgumentError("edge_feature_layer: give both gain and norm_bias, or neither")
    if gain is not None:
        gain, norm_bias = as_tensor(gain), as_tensor(norm_bias)
        _check_norm_params("edge_feature_layer", gain, norm_bias, width)
        inputs += [gain, norm_bias]

    def edges():
        # [f_i || f_j - f_i] written once into one buffer
        x = feats.data
        e = np.empty((n, k, 2 * d), dtype=x.dtype)
        xi = x[:, None, :]
        e[..., :d] = xi
        # np.take copies the same rows as x[idx], several times faster
        np.subtract(np.take(x, idx, axis=0), xi, out=e[..., d:])
        return e

    e = edges()
    a = e
    if gate is not None:
        a = np.matmul(e, gate.data)
        a = _sigmoid(a, out=a)
        a *= e
    # the chain's own product; the bias add then writes h channel-first,
    # h[c, i * k + s] being channel c of edge (i, s). The transposed
    # product weight.T @ a.T would round differently at some shapes.
    h = np.matmul(a, weight.data)
    del a, e
    h = np.add(h.reshape(n * k, width).T, bias.data[:, None],
               out=np.empty((width, n * k), np.result_type(h, bias.data)))
    if gain is not None:
        h = _layer_norm(h, gain.data[:, None], norm_bias.data[:, None], out=h,
                        mean=_mean_first)
    # max over the k neighbours, then the ReLU on the maxima: the ReLU is
    # monotone and sends NaN to 0, and fmax skips NaN, so this equals the
    # max of the ReLU'd values bit for bit (the ReLU's +0.0 also clears the
    # sign of a zero maximum); k slot-wise maxima beat a reduce over the
    # short last axis
    h = h.reshape(width, n, k)
    top = h[..., 0].copy()
    for j in range(1, k):
        np.fmax(top, h[..., j], out=top)
    top = _relu(top, out=top)
    out = Tensor(top.T.copy())
    if not _recording(inputs):
        return out
    # the ReLU passes no gradient where the max is 0, so there -1, which
    # matches no slot, stands in for the argmax; elsewhere the argmax is
    # the first slot holding the maximum; the copy keeps the backward's
    # arrays, and so its sums, in the layout they always had
    first = np.argmax(h == top[..., None], axis=2)
    arg = np.where(top > 0, first, -1).T.copy()

    def bw(g):
        e = edges()
        if gate is not None:
            s = np.matmul(e, gate.data)
            s = _sigmoid(s, out=s)
            a = e * s
        else:
            a = e
        g = _route_to_arg(g, arg, (n, k, width), 1)
        if gain is not None:
            h = _affine(a, weight.data, bias.data)
            xhat, inv = _ln_normalize(h, out=h)
            g = _ln_backward(g, xhat, inv, gain, norm_bias)
        if bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.shape), fresh=True)
        if weight.requires_grad:
            _accum(weight, _shared_weight_grad(a, g), fresh=True)
        if not (feats.requires_grad or gate is not None and gate.requires_grad):
            return
        ga = np.matmul(g, weight.data.swapaxes(-1, -2))
        if gate is not None:
            ge = ga * s if feats.requires_grad else None
            gz = ga * e * s * (1.0 - s)
            if feats.requires_grad:
                ge += np.matmul(gz, gate.data.swapaxes(-1, -2))
            if gate.requires_grad:
                _accum(gate, _shared_weight_grad(e, gz), fresh=True)
        else:
            ge = ga
        if not feats.requires_grad:
            return
        # the f_i path first, then the f_j scatter, as the chain replays
        # them; a - b is a + (-b) bitwise
        gfi = ge[..., :d] - ge[..., d:]
        _accum(feats, _unbroadcast(gfi, (n, 1, d)).reshape(n, d), fresh=True)
        _accum(feats, _scatter_rows(ge[..., d:], idx, (n, d)), fresh=True)

    return _record("edge_feature_layer", out, tuple(inputs), bw)
