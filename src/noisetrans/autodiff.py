"""Dense tensors with tape-based reverse-mode differentiation.

All storage is numpy. Gradients are only recorded while a Tape is active
(``with Tape() as tape: ...``); outside a tape every operation is plain
forward arithmetic, which keeps inference cheap.

Determinism: every reduction uses numpy's fixed left-to-right order, max/min
route their gradient to the first attaining index, and the tape replays ops
in exact reverse execution order, so identical inputs give bitwise-identical
outputs and gradients.
"""
from __future__ import annotations

import numpy as np
from scipy.special import erf, expit

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

        Repeated calls without zeroing leaf grads accumulate; intermediate
        grads are cleared before each replay. After the replay the leaves'
        gradients are checked once: a NaN or infinity in any of them raises
        NumericError naming the op that consumed that leaf.
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


def _record(name: str, out: Tensor, inputs, backward) -> Tensor:
    if not _TAPE_STACK:
        return out
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            _TAPE_STACK[-1]._records.append((name, out, inputs, backward))
            break
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
    if a.ndim < 1 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ArgumentError(
            f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}"
        )
    out = Tensor(np.matmul(a.data, b.data))

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape), fresh=True)
        if not b.requires_grad:
            return
        if b.ndim == 2 and a.ndim > 2:
            # shared-weight case: one matrix product over all leading axes,
            # laid out as np.tensordot(a, g, (lead, lead)) lays it out
            lead = tuple(range(a.ndim - 1))
            at = a.data.transpose((a.ndim - 1,) + lead).reshape(a.shape[-1], -1)
            _accum(b, np.dot(at, g.reshape(-1, g.shape[-1])), fresh=True)
        else:
            _accum(b, _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape), fresh=True)

    return _record("matmul", out, (a, b), bw)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, 0.0))

    def bw(g):
        _accum(x, np.where(mask, g, 0.0), fresh=True)

    return _record("relu", out, (x,), bw)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    s = expit(x.data)
    out = Tensor(s)

    def bw(g):
        _accum(x, g * s * (1.0 - s), fresh=True)

    return _record("sigmoid", out, (x,), bw)


def gelu(x) -> Tensor:
    """Exact GELU x * Phi(x) with Phi the standard normal CDF (erf form)."""
    x = as_tensor(x)
    cdf = 0.5 * (1.0 + erf(x.data / _SQRT2))
    out = Tensor(x.data * cdf)

    def bw(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data)
        _accum(x, g * (cdf + x.data * pdf), fresh=True)

    return _record("gelu", out, (x,), bw)


def softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    _check_axis(x, axis, "softmax")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(s)

    def bw(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        _accum(x, s * (g - dot))

    return _record("softmax", out, (x,), bw)


def _mean_last(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True) without the wrapper's overhead: the
    same left-to-right sum divided by the count."""
    return np.true_divide(np.add.reduce(a, axis=-1, keepdims=True), a.shape[-1])


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ArgumentError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} do not match last axis {d}"
        )
    mu = _mean_last(x.data)
    xc = x.data - mu
    var = _mean_last(xc * xc)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(gain.data * xhat + bias.data)

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        _accum(gain, np.add.reduce(g * xhat, axis=lead))
        _accum(bias, np.add.reduce(g, axis=lead))
        gg = g * gain.data
        m1 = _mean_last(gg)
        m2 = _mean_last(gg * xhat)
        _accum(x, inv * (gg - m1 - xhat * m2), fresh=True)

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
    n = x.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexRangeError(
            f"gather_rows: index out of range for {n} rows (min {idx.min()}, max {idx.max()})"
        )
    out = Tensor(x.data[idx])

    def bw(g):
        # one bincount over (row, column) bins, much faster than np.add.at;
        # each bin sums its terms in the order they come
        d = x.shape[1]
        bins = (idx.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
        gx = np.bincount(bins, weights=g.reshape(-1), minlength=n * d).reshape(n, d)
        _accum(x, gx, fresh=True)

    return _record("gather_rows", out, (x,), bw)


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
        # the argument is only needed when a tape replays this op; g lands
        # where the position along `axis` is the argument, 0 elsewhere
        keep = x.shape[:axis] + (1,) + x.shape[axis + 1:]
        along = np.arange(x.shape[axis]).reshape((-1,) + (1,) * (x.ndim - axis - 1))
        hit = arg_reducer(x.data, axis=axis).reshape(keep) == along
        _accum(x, np.where(hit, g.reshape(keep), 0.0), fresh=True)

    return _record(name, out, (x,), bw)


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
    diff = a.data[:, None, :] - b.data[None, :, :]
    out = Tensor((diff * diff).sum(axis=-1))

    def bw(g):
        if a.requires_grad:
            _accum(a, 2.0 * np.einsum("ij,ijk->ik", g, diff))
        if b.requires_grad:
            _accum(b, -2.0 * np.einsum("ij,ijk->jk", g, diff))

    return _record("pairwise_sqdist", out, (a, b), bw)


def linear(x, weight, bias=None) -> Tensor:
    """x @ weight (+ bias), the shared-weight dense layer used everywhere."""
    y = matmul(x, weight)
    if bias is not None:
        y = add(y, bias)
    return y
