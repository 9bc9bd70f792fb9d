"""Deterministic k-nearest-neighbour search, farthest point sampling, and
patch extraction / stitching over 3-D coordinates.

Ties are always broken by lexicographic (x, y, z) comparison of the
candidate coordinates, never by storage index; this is what makes the whole
pipeline permutation-equivariant.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.spatial import cKDTree

from .errors import ArgumentError, ContractError
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


def _argmax_lex(values: np.ndarray, pts: np.ndarray, allowed: np.ndarray) -> int:
    """Index of the max value among allowed rows; ties by smallest (x, y, z)."""
    vals = np.where(allowed, values, -np.inf)
    best = vals.max()
    cand = np.flatnonzero(vals == best)
    sub = pts[cand]
    return int(cand[np.lexsort((sub[:, 2], sub[:, 1], sub[:, 0]))[0]])


def _farthest_point_order(pts: np.ndarray):
    """Yield every index of `pts` once, in greedy max-min order: the first
    pick is the point farthest from the centroid, each later one maximizes
    the minimum distance to the chosen set; ties go to the smallest (x, y, z).
    """
    allowed = np.ones(len(pts), dtype=bool)
    score = ((pts - pts.mean(axis=0)) ** 2).sum(axis=1)
    mind = np.inf
    for _ in range(len(pts)):
        pick = _argmax_lex(score, pts, allowed)
        allowed[pick] = False
        yield pick
        score = mind = np.minimum(mind, ((pts - pts[pick]) ** 2).sum(axis=1))


def farthest_point_sample(cloud, count: int) -> np.ndarray:
    """The first `count` indices of the greedy max-min (farthest-point)
    order that extract_patches seeds its patches in."""
    pts = as_points(cloud, "cloud")
    n = len(pts)
    if not 1 <= count <= n:
        raise ArgumentError(f"count={count} out of range for {n} points")
    return np.fromiter(islice(_farthest_point_order(pts), count), np.int64, count)


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


def extract_patches(cloud, patch_size: int, min_coverage: int = 1) -> Patches:
    """Cover the cloud with unit-sphere patches seeded by FPS order.

    Seeds are taken in farthest-point order, the order whose prefixes
    farthest_point_sample returns, until every point belongs to at least
    min_coverage patches; each patch is the patch_size nearest neighbours
    of its seed (include-self), one KdTree query per seed. The frames are
    then computed for the whole (P, S, 3) stack at once: each patch is
    centred on its centroid and scaled to max norm 1, or by 1 when all its
    members coincide. min_coverage > 1 gives every point several
    independent patch estimates to average at stitch time.
    """
    pts = as_points(cloud, "cloud", nonempty=True)
    n = len(pts)
    if patch_size < 1:
        raise ArgumentError(f"patch_size must be positive, got {patch_size}")
    if min_coverage < 1:
        raise ArgumentError(f"min_coverage must be positive, got {min_coverage}")
    size = min(patch_size, n)
    tree = KdTree(pts)

    coverage = np.zeros(n, dtype=np.int64)
    seeds, members = [], []
    for seed in _farthest_point_order(pts):
        idx, _ = tree.query(pts[seed][None, :], size)
        seeds.append(seed)
        members.append(idx[0])
        coverage[idx[0]] += 1
        if coverage.min() >= min_coverage:
            break
    members = np.stack(members)
    coords = pts[members]
    centers, scales = centroid_radius(coords)
    scales[scales == 0.0] = 1.0  # all members coincide; any scale keeps the frame exact
    return Patches(np.array(seeds, dtype=np.int64), members,
                   (coords - centers[:, None]) / scales[:, None, None], centers, scales)


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
