"""Training losses, evaluation metrics (Chamfer and point-to-mesh), and the
Adam optimizer with a halving learning-rate schedule."""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ArgumentError, ContractError, NumericError
from .geometry import Cube, Sphere, Torus, TriMesh, as_points
from .model import ModelWeights
from .spatial import KdTree


# ---------------------------------------------------------------------------
# metrics (pure numpy)
# ---------------------------------------------------------------------------

def chamfer_distance(s1, s2) -> float:
    """Symmetric mean of nearest-neighbour squared distances."""
    a = as_points(s1, "s1", nonempty=True)
    b = as_points(s2, "s2", nonempty=True)
    _, d_ab = KdTree(b).query(a, 1)
    _, d_ba = KdTree(a).query(b, 1)
    return float(d_ab[:, 0].mean() + d_ba[:, 0].mean())


def point_triangle_sqdist(p, tri) -> float:
    """Exact squared distance from a point to a closed triangle."""
    p = np.asarray(p, dtype=np.float64).reshape(1, 3)
    tri = np.asarray(tri, dtype=np.float64).reshape(3, 3)
    cross = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    if (cross * cross).sum() == 0.0:
        raise ArgumentError("degenerate triangle (zero area)")
    return float(_pair_sqdist(p, tri[None, 0], tri[None, 1], tri[None, 2])[0])


def _dot(u, v):
    return (u * v).sum(axis=1)


def _segment_sqdist(p, a, b):
    e = b - a
    t = np.clip(_dot(p - a, e) / _dot(e, e), 0.0, 1.0)
    d = p - (a + t[:, None] * e)
    return _dot(d, d)


def _pair_sqdist(p, a, b, c):
    """Squared distance from each point p[i] to the triangle (a[i], b[i], c[i]).

    Projects onto the triangle plane; if the projection's barycentric
    coordinates are inside, the plane distance is the answer, otherwise the
    closest point lies on one of the three edges. All arguments are (M, 3)
    and the triangles must have nonzero area.
    """
    e0 = b - a
    e1 = c - a
    n = np.cross(e0, e1)
    norm = np.sqrt(_dot(n, n))
    dist_plane = _dot(p - a, n) / norm
    # barycentric coordinates of the projection
    v = p - dist_plane[:, None] * (n / norm[:, None]) - a
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
        _segment_sqdist(p, a, b),
        np.minimum(_segment_sqdist(p, b, c), _segment_sqdist(p, c, a)),
    )
    return np.where(inside, dist_plane * dist_plane, edge)


# (point, triangle) pairs per candidate list and per kernel call: bounds the
# temporaries when every triangle is a candidate, as for points far from a
# small mesh
_PAIR_BLOCK = 1 << 18
# widening of each point's search radius, as a share of the lengths in play
# (its bound, its coordinates' magnitude, the largest triangle): far above the
# rounding of the bound, of the sphere test and of the kernel, which grows
# with those lengths, so that no rounding can drop the scan's minimiser
_SLACK = 1e-6


def _mesh_sqdist(pts, mesh: TriMesh) -> np.ndarray:
    """Per-point minimum of `_pair_sqdist` over the triangles that can hold it.

    The distance to the nearest vertex or triangle centroid bounds each
    point's distance from above (`reach`). A triangle whose bounding sphere
    (centroid, farthest corner) lies farther than `reach` cannot hold the
    minimum, so only the remaining pairs are evaluated. Cost: two KD-trees
    over the mesh plus the candidate pairs, not points x triangles.
    """
    corners = mesh.triangle_corners()
    centres = corners.mean(axis=1)
    radii = np.sqrt(((corners - centres[:, None]) ** 2).sum(axis=2)).max(axis=1)
    on_mesh = np.concatenate([mesh.vertices[np.unique(mesh.triangles)], centres])
    ub = cKDTree(on_mesh).query(pts)[0]
    scale = np.abs(pts).max(axis=1) + np.abs(on_mesh).max() + radii.max()
    reach = ub + _SLACK * (ub + scale)
    # every centre the sphere test below can keep, whatever the tree's rounding
    radius = (reach + radii.max()) * (1.0 + _SLACK)
    tree = cKDTree(centres)
    bounds = np.concatenate([[0], np.cumsum(tree.query_ball_point(pts, radius,
                                                                  return_length=True))])
    best = np.full(len(pts), np.inf)
    start = 0
    while start < len(pts):
        # consecutive points whose candidate lists hold at most _PAIR_BLOCK
        # pairs together, and at least one point
        stop = max(start + 1, int(np.searchsorted(bounds, bounds[start] + _PAIR_BLOCK,
                                                  side="right")) - 1)
        lists = tree.query_ball_point(pts[start:stop], radius[start:stop])
        lengths = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
        pi = np.repeat(np.arange(start, stop), lengths)
        ti = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp,
                         count=int(lengths.sum()))
        gap = pts[pi] - centres[ti]
        keep = np.sqrt(_dot(gap, gap)) - radii[ti] <= reach[pi]
        pi, ti = pi[keep], ti[keep]
        for lo in range(0, len(pi), _PAIR_BLOCK):
            p, t = pi[lo:lo + _PAIR_BLOCK], ti[lo:lo + _PAIR_BLOCK]
            tri = corners[t]
            np.minimum.at(best, p, _pair_sqdist(pts[p], tri[:, 0], tri[:, 1], tri[:, 2]))
        start = stop
    return best


def surface_sqdist(cloud, surface) -> np.ndarray:
    """(N,) squared distance from each point to a surface.

    The surface may be a TriMesh (minimum over triangles, searched among the
    triangles near each point) or an analytic sphere / torus / cube
    (closed-form distance). Caller guarantees both live in the same frame.
    """
    pts = as_points(getattr(cloud, "coords", cloud), "cloud", nonempty=True)
    if isinstance(surface, (Sphere, Torus, Cube)):
        return surface.sqdist(pts)
    if isinstance(surface, TriMesh):
        if len(surface.triangles) == 0:
            raise ArgumentError("mesh has no triangles")
        return _mesh_sqdist(pts, surface)
    raise ArgumentError(f"unsupported surface type {type(surface).__name__}")


def point_to_mesh(cloud, surface) -> float:
    """One-sided mean squared distance from points to a surface (P2M)."""
    return float(surface_sqdist(cloud, surface).mean())


# ---------------------------------------------------------------------------
# differentiable losses
# ---------------------------------------------------------------------------

def loss_cd(y: Tensor, gt) -> Tensor:
    """Differentiable symmetric Chamfer distance; gradients flow to y only."""
    gt = np.asarray(getattr(gt, "coords", gt), dtype=np.float64)
    if y.shape[0] == 0 or len(gt) == 0:
        raise ArgumentError("loss_cd over an empty point set")
    d = ad.pairwise_sqdist(y, Tensor(gt))
    return ad.add(ad.mean(ad.reduce_min(d, axis=1)), ad.mean(ad.reduce_min(d, axis=0)))


def loss_ad(y: Tensor, x) -> Tensor:
    """Mean squared index-matched displacement (anchors outputs to inputs)."""
    x = np.asarray(getattr(x, "coords", x), dtype=np.float64)
    if y.shape != x.shape:
        raise ContractError(f"loss_ad needs matching shapes, got {y.shape} vs {x.shape}")
    diff = ad.sub(y, Tensor(x))
    return ad.mean(ad.reduce_sum(ad.mul(diff, diff), axis=1))


def loss_total(y: Tensor, gt, x, alpha: float = 0.9, beta: float = 0.1,
               anchor: str = "input") -> Tensor:
    """alpha * Chamfer + beta * displacement. anchor='matched_gt' swaps the
    displacement target from the noisy input to index-matched ground truth."""
    if anchor == "input":
        target = x
    elif anchor == "matched_gt":
        target = gt
    else:
        raise ArgumentError(f"unknown loss anchor '{anchor}'")
    return ad.add(ad.mul(loss_cd(y, gt), alpha), ad.mul(loss_ad(y, target), beta))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Bias-corrected adaptive updates with lr halved every `halve_every`
    epochs, betas (0.9, 0.999) and eps 1e-8.

    The moments of all parameters live in one flat vector each, so a step
    is a few whole-vector operations into reused buffers; `m[name]` and
    `v[name]` are views into them. Every operation is elementwise, so the
    result is that of a per-parameter update."""

    def __init__(self, weights: ModelWeights, base_lr: float = 5e-4,
                 halve_every: int = 50):
        self.weights = weights
        self.base_lr = float(base_lr)
        self.halve_every = int(halve_every)
        self.step_count = 0
        dtype = np.result_type(*{t.data.dtype for t in weights.params.values()})
        self._set_moments(np.zeros(2 * weights.n_params(), dtype=dtype))
        self._buffers: dict[str, np.ndarray] = {}

    def _set_moments(self, flat: np.ndarray) -> None:
        """Point m and v at the halves of `flat`, parameters in order."""
        half = len(flat) // 2
        self._m, self._v = flat[:half], flat[half:]
        self._spans = {}
        self.m, self.v = {}, {}
        start = 0
        for name, t in self.weights.params.items():
            span = slice(start, start + t.size)
            self._spans[name] = span
            self.m[name] = self._m[span].reshape(t.shape)
            self.v[name] = self._v[span].reshape(t.shape)
            start = span.stop

    def _buffer(self, key: str, like: np.ndarray) -> np.ndarray:
        """A scratch array shaped and typed like `like`, kept between steps
        (fresh arrays of this size cost a page fault per page)."""
        buf = self._buffers.get(key)
        if buf is None or buf.dtype != like.dtype:
            buf = self._buffers[key] = np.empty_like(like)
        return buf

    def lr_at(self, epoch: int) -> float:
        return self.base_lr * 0.5 ** (epoch // self.halve_every)

    def step(self, epoch: int = 0) -> None:
        """Apply one update from the grads currently on the weights."""
        params = self.weights.params
        g = np.concatenate([t.grad.ravel() if t.grad is not None
                            else np.zeros(t.size, dtype=t.data.dtype)
                            for t in params.values()])
        if not np.isfinite(g).all():
            bad = ad.first_non_finite_grad(params.items())
            raise NumericError(f"non-finite gradient for parameter '{bad}'; step refused")
        b1, b2 = 0.9, 0.999
        self.step_count += 1
        t = self.step_count
        lr = self.lr_at(epoch)
        corr1 = 1.0 - b1 ** t
        corr2 = 1.0 - b2 ** t
        m, v = self._m, self._v
        g_tmp = self._buffer("g", g)
        update, denom = self._buffer("update", m), self._buffer("denom", m)
        # update = lr * (m / corr1) / (sqrt(v / corr2) + eps), op by op
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=g_tmp)
        v *= b2
        np.multiply(g, 1.0 - b2, out=g_tmp)
        v += np.multiply(g_tmp, g, out=g_tmp)
        np.multiply(np.divide(m, corr1, out=update), lr, out=update)
        np.sqrt(np.divide(v, corr2, out=denom), out=denom)
        denom += 1e-8
        update /= denom
        for name, span in self._spans.items():
            params[name].data -= update[span].reshape(params[name].shape)

    # checkpoint support -----------------------------------------------------
    def state_bytes(self) -> bytes:
        parts = [self.step_count.to_bytes(8, "little")]
        for name in self.weights.names():
            parts.append(self.m[name].astype("<f8").tobytes())
            parts.append(self.v[name].astype("<f8").tobytes())
        return b"".join(parts)

    def load_state_bytes(self, blob: bytes) -> None:
        """Restore step count and moments (float64 from here on) from the
        state_bytes layout: per parameter, m then v."""
        size = 8 + 16 * self.weights.n_params()
        if len(blob) < size:
            raise ContractError("optimizer state truncated")
        if len(blob) > size:
            raise ContractError("optimizer state has trailing bytes")
        data = np.frombuffer(blob, dtype="<f8", offset=8)
        ms, vs = [], []
        for span in self._spans.values():
            ms.append(data[2 * span.start:span.start + span.stop])
            vs.append(data[span.start + span.stop:2 * span.stop])
        self._set_moments(np.concatenate(ms + vs).astype(np.float64))
        self.step_count = int.from_bytes(blob[:8], "little")


# ---------------------------------------------------------------------------
# evaluation reports
# ---------------------------------------------------------------------------

@dataclass
class EvalRow:
    name: str
    noise: str
    cd: float
    p2m: float
    iterations: int


@dataclass
class EvalReport:
    rows: list[EvalRow] = field(default_factory=list)
    config_hash: str = ""

    def aggregate(self) -> tuple[float, float]:
        if not self.rows:
            raise ContractError("empty evaluation report")
        return (
            float(np.mean([r.cd for r in self.rows])),
            float(np.mean([r.p2m for r in self.rows])),
        )

    def to_text(self) -> str:
        lines = [
            f"{'shape':<24} {'noise':<20} {'CD':>14} {'CDx1e4':>12} "
            f"{'P2M':>14} {'P2Mx1e4':>12} {'iters':>6}"
        ]
        for r in self.rows:
            lines.append(
                f"{r.name:<24} {r.noise:<20} {r.cd:>14.6e} {r.cd * 1e4:>12.4f} "
                f"{r.p2m:>14.6e} {r.p2m * 1e4:>12.4f} {r.iterations:>6d}"
            )
        cd, p2m = self.aggregate()
        lines.append(
            f"{'MEAN':<24} {'':<20} {cd:>14.6e} {cd * 1e4:>12.4f} "
            f"{p2m:>14.6e} {p2m * 1e4:>12.4f} {'':>6}"
        )
        if self.config_hash:
            lines.append(f"config: {self.config_hash}")
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        out = []
        for r in self.rows:
            out.append(json.dumps({
                "name": r.name, "noise": r.noise, "cd": r.cd,
                "cd_x1e4": r.cd * 1e4, "p2m": r.p2m, "p2m_x1e4": r.p2m * 1e4,
                "iterations": r.iterations,
            }, sort_keys=True))
        cd, p2m = self.aggregate()
        out.append(json.dumps({
            "name": "__aggregate__", "cd": cd, "cd_x1e4": cd * 1e4,
            "p2m": p2m, "p2m_x1e4": p2m * 1e4, "config": self.config_hash,
        }, sort_keys=True))
        return "\n".join(out) + "\n"
