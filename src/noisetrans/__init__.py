"""Transformer-based point cloud denoising on a self-contained numpy stack."""

from .autodiff import Tape, Tensor, default_dtype, set_default_dtype
from .corruption import NoiseSpec, perturb, reference_length
from .errors import (
    ArgumentError,
    ContractError,
    DegenerateError,
    FormatError,
    NoiseTransError,
    NumericError,
    ParseError,
)
from .geometry import (
    Cube,
    PointCloud,
    Sphere,
    Torus,
    TriMesh,
    denormalize,
    load_mesh,
    make_shape,
    normalize_unit_sphere,
    read_pointcloud,
    sample_surface,
    write_pointcloud,
)
from .model import (
    ModelConfig,
    ModelWeights,
    desk_config,
    forward,
    full_config,
    init_weights,
    load_weights,
    save_weights,
)
from .objective import (
    Adam,
    EvalReport,
    chamfer_distance,
    loss_ad,
    loss_cd,
    loss_total,
    point_to_mesh,
    point_triangle_sqdist,
)
from .pipeline import denoise, make_dataset, train
from .spatial import (
    KdTree,
    Patches,
    extract_patches,
    farthest_point_sample,
    knn_brute_force,
    stitch_patches,
)

__version__ = "0.1.0"
