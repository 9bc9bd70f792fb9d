"""Neighbour search, farthest point sampling, and patch logic.

The tree-backed KNN is held to exact index agreement with the exhaustive
scan, including under duplicated points and axis-aligned ties.
"""
import numpy as np
import pytest

from noisetrans.errors import ArgumentError, ContractError
from noisetrans.spatial import (
    KdTree,
    extract_patches,
    farthest_point_sample,
    knn_brute_force,
    patch_knn,
    stitch_patches,
)


def test_knn_matches_brute_force_random():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(5, 200))
        m = int(rng.integers(1, 50))
        k = int(rng.integers(1, n + 1))
        pts = rng.standard_normal((n, 3))
        q = rng.standard_normal((m, 3))
        ia, da = KdTree(pts).query(q, k)
        ib, db = knn_brute_force(pts, q, k)
        assert np.array_equal(ia, ib), f"trial {trial}"
        assert np.allclose(da, db, atol=1e-12)


def test_knn_matches_brute_force_on_grid_ties():
    # integer grid: many exactly tied distances
    g = np.arange(4)
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3).astype(float)
    rng = np.random.default_rng(0)
    pts = pts[rng.permutation(len(pts))]
    q = pts[:10] + 0.5
    for k in (1, 5, 27):
        ia, da = KdTree(pts).query(q, k)
        ib, db = knn_brute_force(pts, q, k)
        assert np.array_equal(ia, ib)
        assert np.array_equal(da, db)


def test_knn_ties_break_on_coordinates_not_storage_order():
    pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0]])
    q = np.zeros((1, 3))
    idx, _ = KdTree(pts).query(q, 2)
    # three equidistant points: lexicographically smallest coordinates win
    assert pts[idx[0, 0]].tolist() == [-1.0, 0.0, 0.0]
    assert pts[idx[0, 1]].tolist() == [0.0, 1.0, 0.0]
    # and the result is invariant to how the points are stored
    perm = [2, 0, 1]
    idx2, _ = KdTree(pts[perm]).query(q, 2)
    assert np.array_equal(pts[perm][idx2[0]], pts[idx[0]])


def test_knn_argument_errors():
    pts = np.zeros((5, 3))
    with pytest.raises(ArgumentError):
        KdTree(pts).query(pts, 6)
    with pytest.raises(ArgumentError):
        knn_brute_force(pts, pts, 5, exclude_self=True)
    with pytest.raises(ArgumentError):
        KdTree(pts).query(pts[:, :2], 2)
    with pytest.raises(ArgumentError):
        KdTree(pts).query(np.full((2, 3), np.nan), 1)


def test_kdtree_reusable_and_len():
    pts = np.random.default_rng(1).standard_normal((30, 3))
    tree = KdTree(pts)
    assert len(tree) == 30
    i1, _ = tree.query(pts[:5], 3)
    i2, _ = knn_brute_force(pts, pts[:5], 3)
    assert np.array_equal(i1, i2)


def test_fps_first_pick_and_tiebreak():
    # symmetric cross: all four arms equidistant from the centroid; the
    # lexicographically smallest point must be picked first
    pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0], [0, 0, 0]])
    sel = farthest_point_sample(pts, 3)
    assert pts[sel[0]].tolist() == [-1.0, 0.0, 0.0]
    assert pts[sel[1]].tolist() == [1.0, 0.0, 0.0]  # farthest from the first


def test_fps_greedy_maxmin_oracle():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((60, 3))
    sel = farthest_point_sample(pts, 12)
    assert len(set(sel.tolist())) == 12
    # re-derive each greedy pick with an independent quadratic scan
    chosen = [sel[0]]
    for step in range(1, 12):
        d = np.min(
            ((pts[:, None, :] - pts[chosen][None, :, :]) ** 2).sum(axis=-1), axis=1
        )
        d[chosen] = -np.inf
        best = d.max()
        cands = np.flatnonzero(d == best)
        assert sel[step] in cands
        chosen.append(sel[step])


def test_fps_count_bounds():
    pts = np.zeros((4, 3))
    with pytest.raises(ArgumentError):
        farthest_point_sample(pts, 0)
    with pytest.raises(ArgumentError):
        farthest_point_sample(pts, 5)


def test_extract_patches_cover_and_local_frame():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((100, 3))
    patches = extract_patches(pts, 16)
    p = len(patches)
    assert patches.seeds.shape == (p,) and patches.members.shape == (p, 16)
    assert patches.local.shape == (p, 16, 3) and patches.centers.shape == (p, 3)
    assert patches.scales.shape == (p,)
    covered = np.zeros(100, dtype=bool)
    covered[patches.members] = True
    assert covered.all()
    norms = np.sqrt((patches.local ** 2).sum(axis=2))
    assert norms.max() <= 1.0 + 1e-12
    # the local frame must reconstruct the original coordinates exactly
    world = patches.local * patches.scales[:, None, None] + patches.centers[:, None]
    assert np.allclose(world, pts[patches.members], atol=1e-12)
    # members are the patch-size nearest neighbours of the seed
    ib, _ = knn_brute_force(pts, pts[patches.seeds], 16)
    assert np.array_equal(patches.members, ib)


def test_extract_patches_small_cloud_caps_size():
    pts = np.random.default_rng(2).standard_normal((5, 3))
    patches = extract_patches(pts, 16)
    assert len(patches) == 1 and patches.members.shape == (1, 5)


def test_stitch_averages_overlapping_patches():
    pts = np.random.default_rng(8).standard_normal((30, 3))
    patches = extract_patches(pts, 12)
    # identity round trip: stitching the untouched locals returns the cloud
    out = stitch_patches(patches, patches.local, 30)
    assert np.allclose(out, pts, atol=1e-12)
    # shifting every patch by delta in world units shifts every point by delta
    delta = np.array([0.5, -1.0, 2.0])
    shifted = patches.local + delta / patches.scales[:, None, None]
    out2 = stitch_patches(patches, shifted, 30)
    assert np.allclose(out2, pts + delta, atol=1e-10)


def test_stitch_three_patch_hand_oracle():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]])
    patches = extract_patches(pts, 3)
    locals_ = patches.local + 0.1  # constant offset in each patch's own frame
    out = stitch_patches(patches, locals_, 4)
    # every point's stitched position is the mean of its per-patch estimates,
    # summed in patch order, so equal bit for bit
    acc = {i: [] for i in range(4)}
    for members, loc, center, scale in zip(patches.members, locals_,
                                           patches.centers, patches.scales):
        world = loc * scale + center
        for j, i in enumerate(members):
            acc[int(i)].append(world[j])
    for i in range(4):
        assert acc[i], "uncovered point in fixture"
        assert np.array_equal(out[i], np.mean(acc[i], axis=0))


def test_stitch_contract_errors():
    pts = np.random.default_rng(9).standard_normal((10, 3))
    patches = extract_patches(pts, 4)
    with pytest.raises(ArgumentError):
        stitch_patches(patches, patches.local[:-1], 10)
    with pytest.raises(ArgumentError):
        stitch_patches(patches, patches.local[:, :-1], 10)
    with pytest.raises(ContractError):
        stitch_patches(patches, patches.local, 11)
    # n must exceed every member index: point 9 has no row in 9 or fewer
    for n in (9, 0, -1):
        with pytest.raises(ArgumentError, match="point index 9"):
            stitch_patches(patches, patches.local, n)


def test_extract_patches_min_coverage():
    rng = np.random.default_rng(21)
    pts = rng.standard_normal((120, 3))
    patches = extract_patches(pts, patch_size=16, min_coverage=3)
    counts = np.bincount(patches.members.ravel(), minlength=120)
    assert counts.min() >= 3
    assert len(patches) > len(extract_patches(pts, patch_size=16))
    with pytest.raises(ArgumentError):
        extract_patches(pts, patch_size=16, min_coverage=0)


def _assert_patch_knn_matches_oracle(patches):
    """Every k, and every column prefix of it, against the per-patch scan."""
    n = patches.shape[1]
    for k in range(1, n):
        idx, d2 = patch_knn(patches, k)
        assert idx.shape == d2.shape == (len(patches), n, k)
        for p, ip, dp in zip(patches, idx, d2):
            for j in range(1, k + 1):
                ib, db = knn_brute_force(p, p, j, exclude_self=True)
                assert np.array_equal(ip[:, :j], ib), f"k={k} prefix {j}"
                assert np.array_equal(dp[:, :j], db), f"k={k} prefix {j}"


def test_patch_knn_matches_brute_force_random():
    rng = np.random.default_rng(30)
    _assert_patch_knn_matches_oracle(rng.standard_normal((3, 14, 3)))


def test_patch_knn_duplicates_and_coincident_points():
    rng = np.random.default_rng(31)
    dup = rng.standard_normal((12, 3))
    dup[6:] = dup[:6]                        # every point twice
    lattice = np.array([[x, y, z] for x in range(2) for y in range(2)
                        for z in range(3)], dtype=float)  # axis-aligned ties
    coincident = np.zeros((12, 3))           # all points at one place
    _assert_patch_knn_matches_oracle(np.stack([dup, lattice, coincident]))


def test_exclude_self_keeps_a_duplicate_of_the_query():
    # duplicated coordinates: only the query's own row is excluded
    pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    want = np.array([[1, 2], [0, 2], [0, 1], [2, 0]])
    ib, db = knn_brute_force(pts, pts, 2, exclude_self=True)
    ip, dp = patch_knn(pts[None], 2)
    assert np.array_equal(ib, want) and np.array_equal(ip[0], want)
    assert db[0, 0] == dp[0, 0, 0] == 0.0


def test_patch_knn_planar_patch():
    rng = np.random.default_rng(32)
    planar = np.zeros((2, 15, 3))
    planar[..., :2] = rng.standard_normal((2, 15, 2))
    _assert_patch_knn_matches_oracle(planar)


def test_patch_knn_at_the_model_minimum():
    from noisetrans.model import desk_config
    n = desk_config().min_points
    _assert_patch_knn_matches_oracle(np.random.default_rng(33).standard_normal((4, n, 3)))


def test_patch_knn_rejects_bad_input():
    pts = np.zeros((2, 5, 3))
    with pytest.raises(ArgumentError):
        patch_knn(pts, 5)                    # only 4 others per point
    with pytest.raises(ArgumentError):
        patch_knn(pts[0], 2)                 # not a stack
    bad = pts.copy()
    bad[1, 2, 0] = np.nan
    with pytest.raises(ArgumentError):
        patch_knn(bad, 2)


def _fps_fixture_clouds():
    rng = np.random.default_rng(40)
    dup = rng.standard_normal((60, 3))
    dup[30:] = dup[:30]                      # every point twice
    g = np.arange(4.0)
    lattice = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    lattice = lattice[rng.permutation(len(lattice))]  # equidistant ties everywhere
    sphere = rng.standard_normal((200, 3))
    sphere /= np.sqrt((sphere * sphere).sum(axis=1, keepdims=True))
    return {"random": rng.standard_normal((150, 3)), "duplicates": dup,
            "lattice": lattice, "sphere": sphere}


@pytest.mark.parametrize("min_coverage", [1, 3])
@pytest.mark.parametrize("name", ["random", "duplicates", "lattice", "sphere"])
def test_extract_patches_seeds_are_a_farthest_point_prefix(name, min_coverage):
    pts = _fps_fixture_clouds()[name]
    patches = extract_patches(pts, 12, min_coverage)
    seeds = patches.seeds.tolist()
    assert len(set(seeds)) == len(seeds)
    assert seeds == farthest_point_sample(pts, len(seeds)).tolist()
    # and the cover stopped at the first seed that met the coverage target
    counts = np.bincount(patches.members[:-1].ravel(), minlength=len(pts))
    assert counts.min() < min_coverage
