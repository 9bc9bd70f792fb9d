"""Point-cloud / mesh I/O, unit-sphere normalization, and synthetic surface
sampling.

File formats: xyz (ASCII, one "x y z" per line), ply (ascii or
binary_little_endian, float vertex properties), off and obj meshes.
Analytic surfaces (sphere / torus / cube) are first-class so tests need no
external datasets.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, DegenerateError, FormatError, ParseError

log = logging.getLogger(__name__)


def as_points(a, name: str = "points", stacked: bool = False,
              nonempty: bool = False) -> np.ndarray:
    """`a` as float64 coordinates of shape (N, 3), or (B, N, 3) patches
    with `stacked`; raises ArgumentError on any other shape, on a NaN or
    infinite coordinate, and with `nonempty` on N = 0. Every module
    validates coordinates through this."""
    pts = np.asarray(a, dtype=np.float64)
    if pts.ndim != (3 if stacked else 2) or pts.shape[-1] != 3:
        want = "(B, N, 3)" if stacked else "(N, 3)"
        raise ArgumentError(f"{name} must have shape {want}, got {pts.shape}")
    if nonempty and pts.shape[-2] == 0:
        raise ArgumentError(f"{name} holds no points")
    if not np.isfinite(pts).all():
        raise ArgumentError(f"{name} contains non-finite coordinates")
    return pts


def read_text(path) -> str:
    """The contents of a UTF-8 text file; other bytes raise ParseError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not UTF-8 text") from None


@dataclass
class PointCloud:
    """N x 3 coordinates plus an optional normalization record."""

    coords: np.ndarray
    center: np.ndarray | None = None  # set by normalize_unit_sphere
    scale: float | None = None

    def __post_init__(self):
        self.coords = as_points(self.coords, "coords", nonempty=True)

    def __len__(self):
        return len(self.coords)


@dataclass
class TriMesh:
    """Validated triangle mesh. Zero-area faces are dropped on construction
    and counted in `dropped_degenerate`."""

    vertices: np.ndarray   # (V, 3)
    triangles: np.ndarray  # (T, 3) int
    dropped_degenerate: int = field(default=0, init=False)

    def __post_init__(self):
        self.vertices = as_points(self.vertices, "vertices")
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ArgumentError(f"triangles must be (T, 3), got {self.triangles.shape}")
        if self.triangles.size and not (
                0 <= self.triangles.min() <= self.triangles.max() < len(self.vertices)):
            raise FormatError(f"triangle index outside 0..{len(self.vertices) - 1}")
        c = self.triangle_corners()
        cross = np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
        keep = (cross * cross).sum(axis=1) > 0.0
        self.dropped_degenerate = int((~keep).sum())
        if self.dropped_degenerate:
            log.warning("dropped %d degenerate triangle(s)", self.dropped_degenerate)
            self.triangles = self.triangles[keep]

    def triangle_corners(self) -> np.ndarray:
        return self.vertices[self.triangles]  # (T, 3, 3)

    def areas(self) -> np.ndarray:
        c = self.triangle_corners()
        cross = np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
        return 0.5 * np.sqrt((cross * cross).sum(axis=1))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def centroid_radius(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """The centroid of (..., N, 3) coordinates and their largest distance
    from it, the unit-sphere frame, per cloud of a stack and bitwise equal
    to that cloud's own; each caller decides what a zero radius means."""
    center = coords.mean(axis=-2)
    centered = coords - center[..., None, :]
    return center, np.sqrt((centered * centered).sum(axis=-1).max(axis=-1))


def normalize_unit_sphere(cloud: PointCloud) -> PointCloud:
    """Center at the centroid and scale so max ||p|| = 1; records the frame."""
    center, scale = centroid_radius(cloud.coords)
    if scale == 0.0:
        raise DegenerateError("all points coincide; unit-sphere scale is zero")
    return PointCloud((cloud.coords - center) / scale, center=center, scale=scale)


def denormalize(cloud: PointCloud) -> PointCloud:
    if cloud.center is None or cloud.scale is None:
        raise ArgumentError("cloud carries no normalization record")
    return PointCloud(cloud.coords * cloud.scale + cloud.center)


# ---------------------------------------------------------------------------
# xyz / ply point cloud I/O
# ---------------------------------------------------------------------------

_FORMATS = ("xyz", "ply")


def _file_format(path, kind: str, formats: tuple[str, ...]) -> str:
    """The format the file's extension names, which must be one of `formats`."""
    fmt = str(path).rsplit(".", 1)[-1].lower()
    if fmt not in formats:
        raise ArgumentError(f"unknown {kind} format '{fmt}' (use {' or '.join(formats)})")
    return fmt


def read_pointcloud(path) -> PointCloud:
    if _file_format(path, "point cloud", _FORMATS) == "xyz":
        return _read_xyz(path)
    return _read_ply(path)


def write_pointcloud(cloud: PointCloud, path) -> None:
    if _file_format(path, "point cloud", _FORMATS) == "xyz":
        _write_xyz(cloud.coords, path)
    else:
        _write_ply(cloud.coords, path)


def _read_xyz(path) -> PointCloud:
    pts = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise ParseError(f"{path}:{lineno}: expected 3 coordinates, got {len(parts)}")
        try:
            pts.append([float(parts[0]), float(parts[1]), float(parts[2])])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    if not pts:
        raise FormatError(f"{path}: no points")
    return PointCloud(np.asarray(pts))


def _write_xyz(coords: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for x, y, z in coords:
            # 17 significant digits round-trip float64 exactly
            fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")


_PLY_SIZES = {
    "char": "b", "int8": "b", "uchar": "B", "uint8": "B",
    "short": "h", "int16": "h", "ushort": "H", "uint16": "H",
    "int": "i", "int32": "i", "uint": "I", "uint32": "I",
    "float": "f", "float32": "f", "double": "d", "float64": "d",
}


def _read_ply(path, with_quality: bool = False):
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = []
    pos = 0
    while True:
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise ParseError(f"{path}: unterminated ply header")
        lines.append(raw[pos:nl].decode("ascii", errors="replace").strip())
        pos = nl + 1
        if lines[-1] == "end_header":
            break
    if not lines or lines[0] != "ply":
        raise ParseError(f"{path}:1: not a ply file")
    encoding = None
    elements = []  # (name, count, [(prop_name, type_char)])
    for lineno, line in enumerate(lines[1:], 2):
        parts = line.split()
        if not parts or parts[0] == "comment":
            continue
        fields = {"format": 2, "element": 3,
                  "property": 5 if parts[1:2] == ["list"] else 3}.get(parts[0], 1)
        if len(parts) < fields:
            raise ParseError(f"{path}:{lineno}: too few fields in '{parts[0]}' line")
        if parts[0] == "format":
            if parts[1] == "ascii":
                encoding = "ascii"
            elif parts[1] == "binary_little_endian":
                encoding = "binary"
            else:
                raise FormatError(f"{path}:{lineno}: unsupported ply encoding '{parts[1]}'")
        elif parts[0] == "element":
            try:
                count = int(parts[2])
            except ValueError:
                count = -1
            if count < 0:
                raise ParseError(f"{path}:{lineno}: expected 'element NAME COUNT'")
            elements.append((parts[1], count, []))
        elif parts[0] == "property":
            if not elements:
                raise ParseError(f"{path}:{lineno}: property before element")
            if parts[1] == "list":
                elements[-1][2].append((parts[-1], None))
            else:
                if parts[1] not in _PLY_SIZES:
                    raise ParseError(f"{path}:{lineno}: unknown property type '{parts[1]}'")
                elements[-1][2].append((parts[-1], _PLY_SIZES[parts[1]]))
    if encoding is None:
        raise ParseError(f"{path}: ply header has no format line")
    if not elements or elements[0][0] != "vertex":
        raise FormatError(f"{path}: first ply element must be 'vertex'")
    name, count, props = elements[0]
    if count == 0:
        raise FormatError(f"{path}: zero points")
    prop_names = [p for p, _ in props]
    for needed in ("x", "y", "z"):
        if needed not in prop_names:
            raise FormatError(f"{path}: vertex element lacks property '{needed}'")
    if any(code is None for _, code in props):
        raise FormatError(f"{path}: list properties in vertex element are unsupported")
    if encoding == "ascii":
        body = raw[pos:].decode("ascii", errors="replace").splitlines()
        rows = []
        for i in range(count):
            if i >= len(body):
                raise ParseError(f"{path}: truncated ascii ply body at vertex {i}")
            parts = body[i].split()
            if len(parts) < len(props):
                raise ParseError(f"{path}: vertex {i}: expected {len(props)} values")
            try:
                rows.append([float(v) for v in parts[: len(props)]])
            except ValueError as exc:
                raise ParseError(f"{path}:{len(lines) + 1 + i}: vertex {i}: {exc}") from None
        table = np.asarray(rows)
        cols = {p: table[:, j] for j, (p, _) in enumerate(props)}
    else:
        dtype = np.dtype([(p, "<" + c) for p, c in props])
        end = pos + dtype.itemsize * count
        if len(raw) < end:
            raise ParseError(f"{path}: truncated binary ply body")
        rec = np.frombuffer(raw[pos:end], dtype=dtype)
        cols = {p: rec[p].astype(np.float64) for p, _ in props}
    coords = np.stack([cols["x"], cols["y"], cols["z"]], axis=1)
    cloud = PointCloud(coords)
    if with_quality:
        if "quality" not in cols:
            raise FormatError(f"{path}: no per-vertex 'quality' property")
        return cloud, cols["quality"]
    return cloud


def read_colored_cloud(path):
    """Read back a colored-distance ply: (PointCloud, distances)."""
    return _read_ply(path, with_quality=True)


def _write_ply(coords: np.ndarray, path, quality: np.ndarray | None = None) -> None:
    n = len(coords)
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}",
              "property float x", "property float y", "property float z"]
    if quality is not None:
        header.append("property float quality")
    header.append("end_header")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if quality is None:
            fh.write(coords.astype("<f4").tobytes())
        else:
            block = np.empty((n, 4), dtype="<f4")
            block[:, :3] = coords
            block[:, 3] = quality
            fh.write(block.tobytes())


def write_colored_cloud(coords: np.ndarray, distances: np.ndarray, path) -> None:
    """Export a ply with per-vertex scalar 'quality' = distance to surface."""
    coords = np.asarray(coords, dtype=np.float64)
    distances = np.asarray(distances, dtype=np.float64)
    if len(coords) != len(distances):
        raise ArgumentError("coords and distances lengths differ")
    _write_ply(coords, path, quality=distances)


# ---------------------------------------------------------------------------
# off / obj mesh loading
# ---------------------------------------------------------------------------

def load_mesh(path) -> TriMesh:
    if _file_format(path, "mesh", ("off", "obj")) == "off":
        verts, faces = _read_off(path)
    else:
        verts, faces = _read_obj(path)
    tris = []
    for face in faces:
        # fan triangulation for polygons
        for i in range(1, len(face) - 1):
            tris.append((face[0], face[i], face[i + 1]))
    verts = np.asarray(verts, dtype=np.float64)
    tris = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
    if tris.size and tris.max() >= len(verts):
        raise ParseError(f"{path}: face references vertex {tris.max()} of {len(verts)}")
    return TriMesh(verts, tris)


def _read_off(path):
    tokens = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend((lineno, t) for t in line.split())
    if not tokens:
        raise ParseError(f"{path}: empty off file")
    it = iter(tokens)
    lineno, first = next(it)
    if first.upper().startswith("OFF"):
        first = first[3:] if len(first) > 3 else None
        if not first:
            lineno, first = next(it)
    try:
        nv = int(first)
        nf = int(next(it)[1])
        next(it)  # edge count, unused
        verts = [[float(next(it)[1]) for _ in range(3)] for _ in range(nv)]
        faces = []
        for _ in range(nf):
            cnt = int(next(it)[1])
            if cnt < 3:
                raise ParseError(f"{path}: face with {cnt} vertices")
            faces.append([int(next(it)[1]) for _ in range(cnt)])
    except StopIteration:
        raise ParseError(f"{path}: truncated off file") from None
    except ValueError as exc:
        raise ParseError(f"{path}: near line {lineno}: {exc}") from None
    return verts, faces


def _read_obj(path):
    verts, faces = [], []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise ParseError(f"{path}:{lineno}: vertex needs 3 coordinates")
            try:
                verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
        elif parts[0] == "f":
            face = []
            for tok in parts[1:]:
                try:
                    i = int(tok.split("/", 1)[0])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from None
                face.append(i - 1 if i > 0 else len(verts) + i)
            if len(face) < 3:
                raise ParseError(f"{path}:{lineno}: face with {len(face)} vertices")
            faces.append(face)
    if not verts:
        raise FormatError(f"{path}: no vertices")
    return verts, faces


# ---------------------------------------------------------------------------
# analytic surfaces and area-uniform sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sphere:
    radius: float = 1.0

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        g = rng.standard_normal((n, 3))
        norms = np.sqrt((g * g).sum(axis=1, keepdims=True))
        norms[norms == 0.0] = 1.0
        return self.radius * g / norms

    def sqdist(self, points: np.ndarray) -> np.ndarray:
        r = np.sqrt((points * points).sum(axis=1))
        return (r - self.radius) ** 2


@dataclass(frozen=True)
class Torus:
    major_radius: float = 1.0
    minor_radius: float = 0.4

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        R, r = self.major_radius, self.minor_radius
        u = rng.uniform(0.0, 2.0 * np.pi, n)
        # rejection sampling makes the area element (R + r cos v) uniform
        v = np.empty(n)
        need = np.arange(n)
        while need.size:
            cand = rng.uniform(0.0, 2.0 * np.pi, need.size)
            accept = rng.uniform(0.0, 1.0, need.size) <= (R + r * np.cos(cand)) / (R + r)
            v[need[accept]] = cand[accept]
            need = need[~accept]
        ring = R + r * np.cos(v)
        return np.stack([ring * np.cos(u), ring * np.sin(u), r * np.sin(v)], axis=1)

    def sqdist(self, points: np.ndarray) -> np.ndarray:
        rho = np.sqrt(points[:, 0] ** 2 + points[:, 1] ** 2)
        ring = np.sqrt((rho - self.major_radius) ** 2 + points[:, 2] ** 2)
        return (ring - self.minor_radius) ** 2


@dataclass(frozen=True)
class Cube:
    half_extent: float = 1.0

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        a = self.half_extent
        face = rng.integers(0, 6, n)
        uv = rng.uniform(-a, a, (n, 2))
        out = np.empty((n, 3))
        axis = face // 2
        sign = np.where(face % 2 == 0, a, -a)
        for ax in range(3):
            m = axis == ax
            others = [i for i in range(3) if i != ax]
            out[m, ax] = sign[m]
            out[m, others[0]] = uv[m, 0]
            out[m, others[1]] = uv[m, 1]
        return out

    def sqdist(self, points: np.ndarray) -> np.ndarray:
        # distance to the box boundary via the standard box SDF
        q = np.abs(points) - self.half_extent
        outside = np.sqrt((np.maximum(q, 0.0) ** 2).sum(axis=1))
        inside = np.minimum(q.max(axis=1), 0.0)
        return (outside + inside) ** 2


AnalyticSurface = Sphere | Torus | Cube

_SHAPE_NAMES = {"sphere": Sphere, "torus": Torus, "cube": Cube}


def make_shape(spec: str) -> AnalyticSurface:
    """Parse 'sphere', 'torus', 'torus:1.0:0.4', 'cube:0.8', ..."""
    parts = str(spec).split(":")
    name = parts[0].lower()
    if name not in _SHAPE_NAMES:
        raise ArgumentError(f"unknown shape '{name}' (sphere, torus, cube)")
    try:
        args = [float(p) for p in parts[1:]]
    except ValueError as exc:
        raise ArgumentError(f"bad shape parameters in '{spec}': {exc}") from None
    return _SHAPE_NAMES[name](*args)


def shape_to_dict(surface: AnalyticSurface) -> dict:
    if isinstance(surface, Sphere):
        return {"kind": "sphere", "radius": surface.radius}
    if isinstance(surface, Torus):
        return {"kind": "torus", "major_radius": surface.major_radius,
                "minor_radius": surface.minor_radius}
    if isinstance(surface, Cube):
        return {"kind": "cube", "half_extent": surface.half_extent}
    raise ArgumentError(f"not an analytic surface: {surface!r}")


def shape_from_dict(d: dict) -> AnalyticSurface:
    kind = d.get("kind")
    if kind == "sphere":
        return Sphere(d["radius"])
    if kind == "torus":
        return Torus(d["major_radius"], d["minor_radius"])
    if kind == "cube":
        return Cube(d["half_extent"])
    raise ArgumentError(f"unknown surface kind '{kind}'")


def sample_surface(surface, n: int, seed: int) -> PointCloud:
    """Draw n i.i.d. area-uniform samples from an analytic surface or TriMesh."""
    if n < 1:
        raise ArgumentError(f"sample count must be positive, got {n}")
    rng = np.random.default_rng(seed)
    if isinstance(surface, TriMesh):
        areas = surface.areas()
        total = areas.sum()
        if total == 0.0:
            raise DegenerateError("mesh has zero total area")
        tri = rng.choice(len(areas), size=n, p=areas / total)
        corners = surface.triangle_corners()[tri]
        r1 = rng.uniform(0.0, 1.0, (n, 1))
        r2 = rng.uniform(0.0, 1.0, (n, 1))
        s = np.sqrt(r1)
        pts = (1 - s) * corners[:, 0] + s * (1 - r2) * corners[:, 1] + s * r2 * corners[:, 2]
        return PointCloud(pts)
    if isinstance(surface, (Sphere, Torus, Cube)):
        return PointCloud(surface.sample(n, rng))
    raise ArgumentError(f"cannot sample from {type(surface).__name__}")
