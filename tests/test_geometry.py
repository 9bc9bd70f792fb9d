"""File I/O round trips, unit-sphere normalization, and analytic surfaces.

Surface distance fields are checked against dense independent sampling so
no expected value is hand-invented.
"""
import numpy as np
import pytest

from noisetrans.corruption import reference_length
from noisetrans.errors import ArgumentError, DegenerateError, FormatError, ParseError
from noisetrans.geometry import (
    Cube,
    PointCloud,
    Sphere,
    Torus,
    TriMesh,
    as_points,
    centroid_radius,
    denormalize,
    load_mesh,
    make_shape,
    normalize_unit_sphere,
    read_colored_cloud,
    read_pointcloud,
    sample_surface,
    shape_from_dict,
    shape_to_dict,
    write_colored_cloud,
    write_pointcloud,
)
from noisetrans.model import build_graphs, desk_config, forward, init_weights
from noisetrans.objective import chamfer_distance, surface_sqdist
from noisetrans.pipeline import denoise
from noisetrans.spatial import (
    KdTree,
    extract_patches,
    farthest_point_sample,
    knn_brute_force,
    patch_knn,
)


def test_pointcloud_validation():
    with pytest.raises(ArgumentError):
        PointCloud(np.zeros((3, 2)))
    with pytest.raises(ArgumentError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(ArgumentError):
        PointCloud(np.array([[0.0, np.nan, 0.0]]))


def test_as_points_contract():
    pts = as_points([[0, 1, 2]], "p")
    assert pts.dtype == np.float64 and pts.shape == (1, 3)
    assert as_points(np.zeros((2, 4, 3)), stacked=True).shape == (2, 4, 3)
    assert as_points(np.zeros((0, 3))).shape == (0, 3)
    refused = [
        (np.zeros(3), {}, "shape"),
        (np.zeros((2, 2)), {}, "shape"),
        (np.zeros((1, 2, 3)), {}, "shape"),
        (np.zeros((2, 3)), {"stacked": True}, "shape"),
        (np.zeros((0, 3)), {"nonempty": True}, "no points"),
        (np.zeros((2, 0, 3)), {"stacked": True, "nonempty": True}, "no points"),
        ([[0.0, np.nan, 0.0]], {}, "non-finite"),
        ([[[np.inf, 0.0, 0.0]]], {"stacked": True}, "non-finite"),
    ]
    for bad, kwargs, reason in refused:
        with pytest.raises(ArgumentError, match=f"^p .*{reason}"):
            as_points(bad, "p", **kwargs)


def test_every_coordinate_entry_point_refuses_non_finite_points():
    cfg = desk_config()
    pts = np.random.default_rng(0).standard_normal((40, 3))
    pts[7, 1] = np.nan
    good = np.zeros((40, 3))
    calls = [
        lambda: PointCloud(pts),
        lambda: TriMesh(pts, np.array([[0, 1, 2]])),
        lambda: KdTree(pts),
        lambda: KdTree(good).query(pts, 1),
        lambda: knn_brute_force(good, pts, 1),
        lambda: patch_knn(pts[None], 3),
        lambda: extract_patches(pts, 16),
        lambda: farthest_point_sample(pts, 4),
        lambda: build_graphs(pts, cfg),
        lambda: build_graphs(pts.reshape(2, 20, 3), cfg),
        lambda: forward(pts, init_weights(cfg)),
        lambda: chamfer_distance(pts, good),
        lambda: chamfer_distance(good, pts),
        lambda: surface_sqdist(pts, Sphere()),
        lambda: denoise(pts, init_weights(cfg), patch_size=16),
    ]
    for call in calls:
        with pytest.raises(ArgumentError, match="non-finite"):
            call()


def test_normalize_round_trip():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((50, 3)) * 4 + np.array([10.0, -3.0, 7.0])
    norm = normalize_unit_sphere(PointCloud(pts))
    assert np.allclose(norm.coords.mean(axis=0), 0.0, atol=1e-12)
    assert abs(np.sqrt((norm.coords ** 2).sum(axis=1)).max() - 1.0) < 1e-12
    back = denormalize(norm)
    assert np.allclose(back.coords, pts, atol=1e-9)


def test_normalize_degenerate_cloud():
    with pytest.raises(DegenerateError):
        normalize_unit_sphere(PointCloud(np.ones((5, 3))))


def test_denormalize_needs_frame():
    with pytest.raises(ArgumentError):
        denormalize(PointCloud(np.zeros((2, 3)) + [1, 2, 3]))


def test_xyz_round_trip(tmp_path):
    pts = np.random.default_rng(2).standard_normal((20, 3))
    p = tmp_path / "c.xyz"
    write_pointcloud(PointCloud(pts), p)
    back = read_pointcloud(p)
    assert np.array_equal(back.coords, pts)  # 17 digits round-trip exactly


def test_xyz_parse_errors(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("1.0 2.0\n")
    with pytest.raises(ParseError):
        read_pointcloud(p)
    p.write_text("1.0 2.0 zebra\n")
    with pytest.raises(ParseError):
        read_pointcloud(p)
    p.write_text("# only a comment\n")
    with pytest.raises(FormatError):
        read_pointcloud(p)


def test_ply_binary_round_trip(tmp_path):
    pts = np.random.default_rng(3).standard_normal((15, 3))
    p = tmp_path / "c.ply"
    write_pointcloud(PointCloud(pts), p)
    back = read_pointcloud(p)
    assert np.allclose(back.coords, pts, atol=1e-6)  # f32 storage
    assert b"binary_little_endian" in p.read_bytes()[:128]


def test_ply_ascii_read(tmp_path):
    p = tmp_path / "a.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n1 2 3\n4 5 6\n"
    )
    back = read_pointcloud(p)
    assert back.coords.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def test_ply_extra_properties_and_double(tmp_path):
    p = tmp_path / "a.ply"
    p.write_text(
        "ply\nformat ascii 1.0\ncomment hello\nelement vertex 1\n"
        "property double x\nproperty double y\nproperty double z\n"
        "property uchar red\nend_header\n0.5 0.25 -1 255\n"
    )
    back = read_pointcloud(p)
    assert back.coords.tolist() == [[0.5, 0.25, -1.0]]


def test_ply_big_endian_rejected(tmp_path):
    p = tmp_path / "b.ply"
    p.write_bytes(
        b"ply\nformat binary_big_endian 1.0\nelement vertex 1\n"
        b"property float x\nproperty float y\nproperty float z\nend_header\n"
        + b"\x00" * 12
    )
    with pytest.raises(FormatError, match="encoding"):
        read_pointcloud(p)


def test_ply_truncated_binary(tmp_path):
    p = tmp_path / "t.ply"
    p.write_bytes(
        b"ply\nformat binary_little_endian 1.0\nelement vertex 4\n"
        b"property float x\nproperty float y\nproperty float z\nend_header\n"
        + b"\x00" * 12
    )
    with pytest.raises(ParseError, match="truncated"):
        read_pointcloud(p)


def test_colored_cloud_round_trip(tmp_path):
    pts = np.random.default_rng(4).standard_normal((8, 3))
    d = np.abs(np.random.default_rng(5).standard_normal(8))
    p = tmp_path / "colored.ply"
    write_colored_cloud(pts, d, p)
    cloud, q = read_colored_cloud(p)
    assert np.allclose(cloud.coords, pts, atol=1e-6)
    assert np.allclose(q, d, atol=1e-6)
    # a plain ply has no quality channel
    plain = tmp_path / "plain.ply"
    write_pointcloud(PointCloud(pts), plain)
    with pytest.raises(FormatError):
        read_colored_cloud(plain)


OFF_CUBE = """OFF
8 6 12
-1 -1 -1
 1 -1 -1
 1  1 -1
-1  1 -1
-1 -1  1
 1 -1  1
 1  1  1
-1  1  1
4 0 1 2 3
4 4 7 6 5
4 0 4 5 1
4 1 5 6 2
4 2 6 7 3
4 3 7 4 0
"""


def test_off_quads_fan_triangulated(tmp_path):
    p = tmp_path / "cube.off"
    p.write_text(OFF_CUBE)
    mesh = load_mesh(p)
    assert len(mesh.vertices) == 8
    assert len(mesh.triangles) == 12  # 6 quads -> 12 triangles
    assert abs(mesh.areas().sum() - 24.0) < 1e-12  # surface of a side-2 cube


def test_off_degenerate_faces_dropped(tmp_path):
    p = tmp_path / "d.off"
    p.write_text("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 0 1\n")
    mesh = load_mesh(p)
    assert len(mesh.triangles) == 1
    assert mesh.dropped_degenerate == 1


def test_zero_area_faces_are_dropped_by_the_mesh_itself():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0.5, 0.5, 1.0], [2.0, 0, 0]])
    # a repeated corner, and three distinct but collinear corners
    mesh = TriMesh(verts, np.array([[0, 1, 2], [3, 3, 3], [0, 1, 4]]))
    assert mesh.triangles.tolist() == [[0, 1, 2]]
    assert mesh.dropped_degenerate == 2
    # vertex 3 now lies on no face, so it bounds no distance
    d = surface_sqdist(np.array([[0.5, 0.5, 1.0], [3.0, 0.0, 0.0]]), mesh)
    assert d.tolist() == [1.0, 4.0]


def test_off_truncated(tmp_path):
    p = tmp_path / "t.off"
    p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n")
    with pytest.raises(ParseError):
        load_mesh(p)


def test_obj_with_slashes_and_negative_indices(tmp_path):
    p = tmp_path / "m.obj"
    p.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\n"
        "f 1/1/1 2/2/2 3/3/3\nf -3 -1 -2\n"
    )
    mesh = load_mesh(p)
    assert len(mesh.triangles) == 2
    assert mesh.triangles[1].tolist() == [1, 3, 2]


def test_obj_face_index_out_of_range(tmp_path):
    p = tmp_path / "m.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
    with pytest.raises(ParseError):
        load_mesh(p)


def test_make_shape_parsing():
    assert make_shape("sphere") == Sphere(1.0)
    assert make_shape("torus:2:0.5") == Torus(2.0, 0.5)
    assert make_shape("cube:0.8") == Cube(0.8)
    with pytest.raises(ArgumentError):
        make_shape("cylinder")
    with pytest.raises(ArgumentError):
        make_shape("torus:a:b")


def test_shape_dict_round_trip():
    for s in (Sphere(2.0), Torus(1.5, 0.3), Cube(0.7)):
        assert shape_from_dict(shape_to_dict(s)) == s


def test_sphere_samples_on_surface():
    s = Sphere(2.0)
    pts = sample_surface(s, 5000, seed=0).coords
    r = np.sqrt((pts ** 2).sum(axis=1))
    assert np.abs(r - 2.0).max() < 1e-12
    assert s.sqdist(pts).max() < 1e-24
    # area-uniformity: each coordinate of a uniform sphere sample has mean 0
    assert np.abs(pts.mean(axis=0)).max() < 0.1


def test_torus_samples_on_surface_and_area_uniform():
    t = Torus(1.0, 0.4)
    pts = sample_surface(t, 20000, seed=1).coords
    assert t.sqdist(pts).max() < 1e-24
    # under area-uniform sampling E[distance from z-axis] = R (the cos-v
    # weighting exactly cancels the tube curvature term)
    rho = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
    expected = 1.0 + 0.4 ** 2 / 2.0  # E[rho] = R + r^2/2R for area-uniform
    assert abs(rho.mean() - expected) < 0.01


def test_cube_samples_on_surface():
    c = Cube(1.0)
    pts = sample_surface(c, 5000, seed=2).coords
    assert c.sqdist(pts).max() < 1e-24
    assert np.abs(pts).max() <= 1.0 + 1e-12
    # roughly a sixth of the points per face
    on_top = np.sum(pts[:, 2] == 1.0)
    assert 500 < on_top < 1200


def test_sqdist_against_dense_sampling():
    rng = np.random.default_rng(6)
    for surf in (Sphere(1.3), Torus(1.0, 0.4), Cube(0.9)):
        dense = sample_surface(surf, 200000, seed=7).coords
        queries = rng.standard_normal((40, 3))
        d2 = surf.sqdist(queries)
        brute = ((queries[:, None, :] - dense[None, :, :]) ** 2).sum(axis=-1).min(axis=1)
        # dense sampling overestimates true distance; allow sampling gap
        assert np.all(d2 <= brute + 1e-12)
        assert np.abs(np.sqrt(d2) - np.sqrt(brute)).max() < 0.05


def test_cube_sqdist_inside_outside():
    c = Cube(1.0)
    # independent interior oracle: distance to nearest face plane
    rng = np.random.default_rng(8)
    inside = rng.uniform(-0.99, 0.99, (100, 3))
    expect = (1.0 - np.abs(inside).max(axis=1)) ** 2
    assert np.allclose(c.sqdist(inside), expect, atol=1e-12)
    # outside a corner: distance to the corner point
    p = np.array([[2.0, 2.0, 2.0]])
    assert abs(c.sqdist(p)[0] - 3.0) < 1e-12


def test_mesh_sampling_lies_on_mesh(tmp_path):
    p = tmp_path / "cube.off"
    p.write_text(OFF_CUBE)
    mesh = load_mesh(p)
    pts = sample_surface(mesh, 2000, seed=3).coords
    assert np.abs(pts).max() <= 1.0 + 1e-12
    on_face = np.isclose(np.abs(pts).max(axis=1), 1.0)
    assert on_face.all()


def test_sample_surface_argument_checks():
    with pytest.raises(ArgumentError):
        sample_surface(Sphere(), 0, seed=0)
    with pytest.raises(ArgumentError):
        sample_surface(object(), 5, seed=0)


def test_trimesh_index_validation():
    with pytest.raises(FormatError):
        TriMesh(np.zeros((2, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(FormatError):  # numpy would wrap it to the last vertex
        TriMesh(np.eye(3), np.array([[0, 1, -1]]))


def test_one_unit_sphere_frame_for_cloud_patch_and_noise_scale():
    pts = np.random.default_rng(12).standard_normal((40, 3)) * 3.0 + 1.0
    center, radius = centroid_radius(pts)
    assert np.array_equal(center, pts.mean(axis=0))
    assert radius == np.sqrt(((pts - pts.mean(axis=0)) ** 2).sum(axis=1)).max()
    norm = normalize_unit_sphere(PointCloud(pts))
    assert norm.scale == radius and np.array_equal(norm.center, center)
    assert reference_length(PointCloud(pts), "bounding_sphere_radius") == radius
    # a patch's frame is that of its members, in their neighbour order, and
    # the frames of a (P, S, 3) stack equal each patch's own bitwise
    patches = extract_patches(pts, 10)
    centers, radii = centroid_radius(pts[patches.members])
    assert centers.shape == (len(patches), 3) and radii.shape == (len(patches),)
    deeper = centroid_radius(pts[patches.members][None])
    assert np.array_equal(deeper[0][0], centers) and np.array_equal(deeper[1][0], radii)
    for p, members in enumerate(patches.members):
        p_center, p_radius = centroid_radius(pts[members])
        assert patches.scales[p] == radii[p] == p_radius
        assert np.array_equal(patches.centers[p], p_center)
        assert np.array_equal(centers[p], p_center)
    # a zero radius: normalization refuses, a patch keeps scale 1, also
    # inside a stack, and the noise reference length is 0
    same = np.ones((5, 3))
    assert centroid_radius(same)[1] == 0.0
    with pytest.raises(DegenerateError):
        normalize_unit_sphere(PointCloud(same))
    assert extract_patches(same, 5).scales.tolist() == [1.0]
    cloud = np.concatenate([pts, same * 50.0])  # a far cluster of coincident points
    patches = extract_patches(cloud, 5)
    radii = centroid_radius(cloud[patches.members])[1]
    flat = radii == 0.0
    assert flat.sum() == 1 and patches.scales[flat].tolist() == [1.0]
    assert np.array_equal(patches.scales[~flat], radii[~flat])
    assert not patches.local[flat].any()
    assert reference_length(PointCloud(same), "bounding_sphere_radius") == 0.0
