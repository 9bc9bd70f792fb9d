"""Deterministic k-nearest-neighbour search, farthest point sampling, and
patch extraction / stitching over 3-D coordinates.

Ties are always broken by lexicographic (x, y, z) comparison of the
candidate coordinates, never by storage index; this is what makes the whole
pipeline permutation-equivariant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ArgumentError, ContractError, DegenerateError
from .geometry import as_points, centroid_radius


def _nearest_k(d2, cand, idx, k: int, far):
    """The k first of each row's candidates in (distance, x, y, z, index)
    order, as (indices, sqdists); the index key only orders coincident
    points. `d2`, `cand` (..., 3) and `idx` are the candidates' squared
    distances, coordinates and indices. Returns None when some row's kth
    distance is not below `far`, that row's farthest retrieved distance,
    since an unretrieved point could then tie it; `far` is None when every
    point is a candidate."""
    order = np.lexsort((idx, cand[..., 2], cand[..., 1], cand[..., 0], d2), axis=-1)
    d2s = np.take_along_axis(d2, order, axis=-1)
    if far is not None and not np.all(d2s[..., k - 1] < far):
        return None
    return np.take_along_axis(idx, order[..., :k], axis=-1), d2s[..., :k]


def _check_knn_request(pts, q, k: int, exclude_self: bool) -> None:
    if exclude_self and q.shape != pts.shape:
        raise ArgumentError(
            "exclude_self queries must be the indexed cloud itself "
            f"(got {q.shape} vs {pts.shape})"
        )
    limit = len(pts) - 1 if exclude_self else len(pts)
    if not 1 <= k <= limit:
        raise ArgumentError(
            f"k={k} out of range for {len(pts)} points"
            + (" (exclude-self)" if exclude_self else "")
        )


class KdTree:
    """Exact KNN index over an (N, 3) point set, backed by a spatial tree.

    Candidate retrieval uses scipy's cKDTree; squared distances are then
    recomputed with the same arithmetic as the brute-force oracle and ties
    resolved lexicographically, so both paths return identical index sets.
    """

    def __init__(self, points):
        self.points = as_points(points, "points")
        self._tree = cKDTree(self.points)

    def __len__(self):
        return len(self.points)

    def query(self, queries, k: int):
        """Return (indices (M, k), sqdists (M, k)) of each query's k nearest
        indexed points, sorted ascending."""
        pts = self.points
        n = len(pts)
        q = as_points(queries, "queries")
        m = len(q)
        _check_knn_request(pts, q, k, exclude_self=False)
        if m == 0:
            return (np.empty((0, k), dtype=np.int64), np.empty((0, k)))

        k_ext = min(n, k + 4)
        while True:
            _, idx = self._tree.query(q, k=k_ext)
            idx = np.atleast_2d(idx).reshape(m, k_ext).astype(np.int64)
            cand = pts[idx]
            diff = q[:, None, :] - cand
            d2 = (diff * diff).sum(axis=-1)
            far = d2.max(axis=1) if k_ext < n else None
            found = _nearest_k(d2, cand, idx, k, far)
            if found is not None:
                return found
            k_ext = min(n, 2 * k_ext)


def knn_brute_force(cloud, queries, k: int, exclude_self: bool = False):
    """Exhaustive-scan oracle with the same tie-break as KdTree.query.

    With exclude_self=True the queries must be the indexed points
    themselves (row i is point i) and point i is dropped for query i; in
    that form it is the oracle of patch_knn."""
    pts = as_points(cloud, "cloud")
    q = as_points(queries, "queries")
    n, m = len(pts), len(q)
    _check_knn_request(pts, q, k, exclude_self)
    if m == 0:
        return (np.empty((0, k), dtype=np.int64), np.empty((0, k)))
    diff = q[:, None, :] - pts[None, :, :]
    d2 = (diff * diff).sum(axis=-1)
    if exclude_self:
        d2[np.arange(m), np.arange(m)] = np.inf
    c = np.broadcast_to(pts, (m, n, 3))
    idx = np.broadcast_to(np.arange(n), (m, n))
    # its own (distance, x, y, z, index) order: the oracle shares no code with _nearest_k
    order = np.lexsort((idx, c[..., 2], c[..., 1], c[..., 0], d2), axis=-1)[:, :k]
    return (order.astype(np.int64), np.take_along_axis(d2, order, axis=1))


def patch_knn(patches, k: int):
    """Exclude-self KNN inside each patch of a (B, N, 3) stack, by brute force.

    Returns (B, N, k) indices into each patch's own rows and the matching
    squared distances; patch b's result equals
    knn_brute_force(p, p, k, exclude_self=True) for p = patches[b], with
    the same difference arithmetic and (distance, x, y, z, index) order.
    Only the k + 4 nearest by distance are ordered, unless a tie at the kth
    distance reaches past them, in which case whole rows are.
    """
    pts = as_points(patches, "patches", stacked=True)
    b, n, _ = pts.shape
    if not 1 <= k <= n - 1:
        raise ArgumentError(f"k={k} out of range for {n} points (exclude-self)")
    diff = pts[:, :, None, :] - pts[:, None, :, :]
    d2 = (diff * diff).sum(axis=-1)
    rows = np.arange(n)
    d2[:, rows, rows] = np.inf
    batch = np.arange(b)[:, None, None]
    k_ext = min(n, k + 4)
    while True:
        cand = np.argpartition(d2, k_ext - 1, axis=-1)[..., :k_ext]
        cd2 = np.take_along_axis(d2, cand, axis=-1)
        far = cd2.max(axis=-1) if k_ext < n else None
        found = _nearest_k(cd2, pts[batch, cand], cand, k, far)
        if found is not None:
            return found
        k_ext = n


def _lex_smallest(cand: np.ndarray, pts: np.ndarray) -> int:
    """The candidate with the smallest (x, y, z); the lowest index among
    coincident ones, since `cand` is ascending and lexsort is stable."""
    if len(cand) > 1:
        sub = pts[cand]
        cand = cand[np.lexsort((sub[:, 2], sub[:, 1], sub[:, 0]))]
    return int(cand[0])


def _sqdist_to(cols: np.ndarray, i: int) -> np.ndarray:
    """Every point's squared distance to point i, from the (3, N) coordinate
    columns: dx² + dy² + dz² added left to right, which is bit for bit
    ((pts - pts[i]) ** 2).sum(axis=1), in long contiguous rows."""
    d = cols[0] - cols[0, i]
    d *= d
    for c in cols[1:]:
        t = c - c[i]
        t *= t
        d += t
    return d


def _farthest_points(pts: np.ndarray, count: int):
    """The first `count` picks of the greedy max-min order, and every point's
    squared distance to its nearest pick. The first pick is the point
    farthest from the centroid, each later one maximizes the minimum
    distance to the picks so far; ties go to the smallest (x, y, z)."""
    cols = np.ascontiguousarray(pts.T)
    picked = np.zeros(len(pts), dtype=bool)
    order = np.empty(count, dtype=np.int64)
    mind = np.full(len(pts), np.inf)
    score = ((pts - pts.mean(axis=0)) ** 2).sum(axis=1)
    for i in range(count):
        # a pick scores 0, the least any point can, so the maximum over all
        # points is the maximum over the unpicked ones
        cand = np.flatnonzero(score == score.max())
        order[i] = pick = _lex_smallest(cand[~picked[cand]], pts)
        picked[pick] = True
        score = np.minimum(mind, _sqdist_to(cols, pick), out=mind)
    return order, mind


def farthest_point_sample(cloud, count: int) -> np.ndarray:
    """The first `count` indices of the greedy max-min (farthest-point)
    order, whose prefix seeds extract_patches' cover."""
    pts = as_points(cloud, "cloud")
    n = len(pts)
    if not 1 <= count <= n:
        raise ArgumentError(f"count={count} out of range for {n} points")
    return _farthest_points(pts, count)[0]


@dataclass(frozen=True)
class Patches:
    """P fixed-size neighbourhoods of one cloud as stacked arrays, each in
    its local unit-sphere frame: local[p] = (cloud[members[p]] - centers[p])
    / scales[p]. len() is P."""

    seeds: np.ndarray    # (P,) the cloud index each patch was seeded at
    members: np.ndarray  # (P, S) cloud indices, the seed's S nearest
    local: np.ndarray    # (P, S, 3), max norm <= 1 per patch
    centers: np.ndarray  # (P, 3)
    scales: np.ndarray   # (P,)

    def __len__(self):
        return len(self.seeds)


def extract_patches(cloud, patch_size: int, coverage: int = 1) -> Patches:
    """Cover the cloud with unit-sphere patches of S = min(patch_size, N)
    points, each the S nearest neighbours of its seed (include-self).

    The first T = min(N, ceil(coverage * N / S)) seeds are the prefix that
    farthest_point_sample returns, and one KdTree query fetches all their
    patches. Then, while some point lies in no patch, a residual patch is
    seeded at the uncovered point farthest from every seed so far, ties to
    the smallest (x, y, z). So each point lies in `coverage` patches on
    average and in at least one, and T <= P <= T + the number of points
    the prefix leaves uncovered. The frames are computed for the whole
    (P, S, 3) stack at once: each patch is centred on its centroid and
    scaled to max norm 1, or by 1 when all its members coincide. More than
    S coincident points cannot all be covered, because every neighbour
    query orders coincident points by index: DegenerateError.
    """
    pts = as_points(cloud, "cloud", nonempty=True)
    n = len(pts)
    if patch_size < 1:
        raise ArgumentError(f"patch_size must be positive, got {patch_size}")
    if coverage < 1:
        raise ArgumentError(f"coverage must be positive, got {coverage}")
    size = min(patch_size, n)
    tree = KdTree(pts)
    seeds, mind = _farthest_points(pts, min(n, -(-coverage * n // size)))
    members = tree.query(pts[seeds], size)[0]
    uncovered = np.ones(n, dtype=bool)
    uncovered[members] = False
    cols = np.ascontiguousarray(pts.T)
    extra_seeds, extra_members = [], []
    while uncovered.any():
        far = np.where(uncovered, mind, -np.inf)
        seed = _lex_smallest(np.flatnonzero(far == far.max()), pts)
        idx = tree.query(pts[seed][None], size)[0][0]
        if seed not in idx:
            raise DegenerateError(
                f"point {seed} coincides with {size} or more points of lower "
                f"index, so no patch of {size} points holds it")
        uncovered[idx] = False
        np.minimum(mind, _sqdist_to(cols, seed), out=mind)
        extra_seeds.append(seed)
        extra_members.append(idx)
    if extra_seeds:
        seeds = np.concatenate([seeds, extra_seeds])
        members = np.concatenate([members, extra_members])
    coords = pts[members]
    centers, scales = centroid_radius(coords)
    scales[scales == 0.0] = 1.0  # all members coincide; any scale keeps the frame exact
    return Patches(seeds, members, (coords - centers[:, None]) / scales[:, None, None],
                   centers, scales)


def stitch_patches(patches: Patches, local, n: int) -> np.ndarray:
    """Average each point's world positions over the patches holding it:
    `local` is (P, S, 3) like patches.local, in the same frames, and each
    coordinate of the (n, 3) result is one np.bincount in patch order."""
    local = np.asarray(local, dtype=np.float64)
    if local.shape != patches.local.shape:
        raise ArgumentError(f"denoised shape {local.shape} is not the patches' {patches.local.shape}")
    top = int(patches.members.max(initial=-1))
    if n <= top:
        raise ArgumentError(f"n={n} but the patches hold point index {top}")
    world = (local * patches.scales[:, None, None] + patches.centers[:, None]).reshape(-1, 3)
    members = patches.members.reshape(-1)
    cnt = np.bincount(members, minlength=n)
    if np.any(cnt == 0):
        missing = np.flatnonzero(cnt == 0)[:8]
        raise ContractError(f"points not covered by any patch: {missing.tolist()}...")
    acc = np.stack([np.bincount(members, weights=world[:, c], minlength=n)
                    for c in range(3)], axis=1)
    return acc / cnt[:, None]
