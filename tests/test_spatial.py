"""Neighbour search, farthest point sampling, and patch logic.

The tree-backed KNN is held to exact index agreement with the exhaustive
scan, including under duplicated points and axis-aligned ties.
"""
import numpy as np
import pytest

from helpers import loop_patch_cover
from noisetrans.corruption import NoiseSpec, perturb
from noisetrans.errors import ArgumentError, ContractError, DegenerateError
from noisetrans.geometry import Sphere, sample_surface
from noisetrans.model import desk_config
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
    patches = extract_patches(pts, patch_size=16, coverage=3)
    # ceil(3 * 120 / 16) = 23 farthest-point seeds first, so at least 3
    # patches per point on average, and every point in one or more
    assert patches.seeds[:23].tolist() == farthest_point_sample(pts, 23).tolist()
    counts = np.bincount(patches.members.ravel(), minlength=120)
    assert counts.min() >= 1 and counts.sum() >= 3 * 120
    assert len(patches) > len(extract_patches(pts, patch_size=16))
    with pytest.raises(ArgumentError):
        extract_patches(pts, patch_size=16, coverage=0)


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


def _prefix_size(n: int, patch_size: int, coverage: int) -> int:
    """T = min(N, ceil(coverage N / S)) with S = min(patch_size, N)."""
    return min(n, -(-coverage * n // min(patch_size, n)))


@pytest.mark.parametrize("coverage", [1, 3])
@pytest.mark.parametrize("name", ["random", "duplicates", "lattice", "sphere"])
def test_extract_patches_seeds_are_a_farthest_point_prefix(name, coverage):
    pts = _fps_fixture_clouds()[name]
    patches = extract_patches(pts, 12, coverage)
    seeds = patches.seeds.tolist()
    assert len(set(seeds)) == len(seeds)
    t = _prefix_size(len(pts), 12, coverage)
    assert seeds[:t] == farthest_point_sample(pts, t).tolist()
    counts = np.bincount(patches.members.ravel(), minlength=len(pts))
    assert counts.min() >= 1 and counts.sum() >= coverage * len(pts)
    # every residual patch is seeded at a point no earlier patch holds
    for p in range(t, len(patches)):
        assert seeds[p] not in patches.members[:p]


@pytest.mark.parametrize("coverage", [1, 3])
@pytest.mark.parametrize("name", ["random", "duplicates", "lattice", "sphere"])
def test_extract_patches_equals_the_loop_oracle(name, coverage):
    pts = _fps_fixture_clouds()[name]
    for size in (12, 40):
        patches = extract_patches(pts, size, coverage)
        seeds, members = loop_patch_cover(pts, size, coverage)
        assert np.array_equal(patches.seeds, seeds), (size, coverage)
        assert np.array_equal(patches.members, members), (size, coverage)


def _noisy_sphere(n: int) -> np.ndarray:
    clean = sample_surface(Sphere(1.0), n, seed=0)
    return perturb(clean, NoiseSpec("gaussian", 0.02, seed=1)).coords


def _hostile_clouds():
    rng = np.random.default_rng(50)
    outliers = _noisy_sphere(1024)
    outliers[:10] *= 3.0                     # 10 points at 3x the radius
    cluster = np.concatenate([_noisy_sphere(1000),
                              [20.0, 0, 0] + 0.01 * rng.standard_normal((40, 3))])
    coincident = _noisy_sphere(500)
    coincident[:20] = coincident[0]          # 20 points at one place
    plane = np.zeros((300, 3))
    plane[:, :2] = rng.standard_normal((300, 2))
    line = np.zeros((300, 3))
    line[:, 0] = rng.standard_normal(300)
    return {"outliers": (outliers, 32), "far cluster": (cluster, 32),
            "coincident": (coincident, 32), "plane": (plane, 16), "line": (line, 16),
            "min_points": (rng.standard_normal((desk_config().min_points, 3)), 32),
            "below patch size": (rng.standard_normal((20, 3)), 32)}


@pytest.mark.parametrize("coverage", [1, 3])
@pytest.mark.parametrize("name", list(_hostile_clouds()))
def test_extract_patches_count_is_bounded(name, coverage):
    pts, size = _hostile_clouds()[name]
    n = len(pts)
    patches = extract_patches(pts, size, coverage)
    t = _prefix_size(n, size, coverage)
    prefix = farthest_point_sample(pts, t)
    held = np.zeros(n, dtype=bool)
    held[knn_brute_force(pts, pts[prefix], min(size, n))[0]] = True
    # P <= ceil(c N / S) + the points the farthest-point prefix leaves uncovered
    assert t <= len(patches) <= t + (~held).sum(), (len(patches), t, (~held).sum())
    counts = np.bincount(patches.members.ravel(), minlength=n)
    assert counts.min() >= 1 and counts.sum() >= coverage * n


def test_extract_patches_outliers_add_no_patches():
    # the parent's walk made one patch per point here (1,024)
    pts, _ = _hostile_clouds()["outliers"]
    assert len(extract_patches(pts, 32, 3)) == 96


def test_extract_patches_refuses_uncoverable_coincident_points():
    # 40 points at one place: every neighbour query orders them by index,
    # so the 8 of highest index are in no patch of 32
    pts = np.random.default_rng(51).standard_normal((200, 3))
    pts[:40] = pts[0]
    with pytest.raises(DegenerateError, match="no patch of 32 points"):
        extract_patches(pts, 32)
    assert len(extract_patches(pts, 40)) >= 1


@pytest.mark.parametrize("name", ["random", "lattice", "sphere"])
def test_extract_patches_is_permutation_equivariant(name):
    pts = _fps_fixture_clouds()[name]
    perm = np.random.default_rng(52).permutation(len(pts))
    for coverage in (1, 3):
        base = extract_patches(pts, 12, coverage)
        moved = extract_patches(pts[perm], 12, coverage)
        assert np.array_equal(perm[moved.seeds], base.seeds)
        assert np.array_equal(perm[moved.members], base.members)
        assert np.array_equal(moved.local, base.local)


def test_extract_patches_at_paper_scale():
    # the noisy spheres of ROADMAP's cover table: 10k needs no residual
    # patch; at 50k the parent's walk made one patch per point (50,000)
    pts = _noisy_sphere(10_000)
    patches = extract_patches(pts, 32, 3)
    assert len(patches) == 938
    assert np.bincount(patches.members.ravel(), minlength=len(pts)).min() >= 1
    pts = _noisy_sphere(50_000)
    patches = extract_patches(pts, 32, 3)
    assert 4688 <= len(patches) <= 4704
    assert np.bincount(patches.members.ravel(), minlength=len(pts)).min() >= 1
