"""Noise models for synthesizing corrupted point clouds.

Each distribution is parameterized so its per-coordinate standard deviation
equals level x reference length: laplace uses scale sigma/sqrt(2), uniform a
half-width of sigma*sqrt(3).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateError
from .geometry import PointCloud, centroid_radius

DISTRIBUTIONS = ("gaussian", "laplace", "uniform")
SCALE_REFERENCES = ("bounding_sphere_radius", "bounding_box_diagonal")


@dataclass(frozen=True)
class NoiseSpec:
    distribution: str = "gaussian"
    level: float = 0.02
    scale_reference: str = "bounding_sphere_radius"
    seed: int = 0

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ArgumentError(
                f"unknown noise distribution '{self.distribution}' "
                f"(one of {', '.join(DISTRIBUTIONS)})"
            )
        if self.scale_reference not in SCALE_REFERENCES:
            raise ArgumentError(
                f"unknown scale reference '{self.scale_reference}' "
                f"(one of {', '.join(SCALE_REFERENCES)})"
            )
        if not self.level > 0:
            raise ArgumentError(f"noise level must be positive, got {self.level}")


def reference_length(cloud: PointCloud, scale_reference: str) -> float:
    """Max centroid distance (bounding sphere) or bounding-box diagonal."""
    coords = cloud.coords
    if scale_reference == "bounding_sphere_radius":
        return centroid_radius(coords)[1]
    if scale_reference == "bounding_box_diagonal":
        span = coords.max(axis=0) - coords.min(axis=0)
        return float(np.sqrt((span * span).sum()))
    raise ArgumentError(f"unknown scale reference '{scale_reference}'")


def perturb(cloud: PointCloud, spec: NoiseSpec) -> PointCloud:
    """Add i.i.d. per-coordinate noise with std = level x reference length."""
    ref = reference_length(cloud, spec.scale_reference)
    if ref == 0.0:
        raise DegenerateError("cloud has zero reference length; cannot calibrate noise")
    sigma = spec.level * ref
    rng = np.random.default_rng(spec.seed)
    shape = cloud.coords.shape
    if spec.distribution == "gaussian":
        noise = rng.normal(0.0, sigma, shape)
    elif spec.distribution == "laplace":
        noise = rng.laplace(0.0, sigma / np.sqrt(2.0), shape)
    else:  # uniform with matching std
        half = sigma * np.sqrt(3.0)
        noise = rng.uniform(-half, half, shape)
    return PointCloud(cloud.coords + noise)
