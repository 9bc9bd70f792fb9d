"""
Farthest point sampling, patch extraction, and stitching
========================================================

A cloud is covered with fixed-size local patches seeded in farthest-point
order, plus one for each point the farthest-point seeds leave out, returned as one record of stacked arrays (seeds, members, local
coordinates, centers, scales). Each patch lives in its own unit-sphere
frame; stitching averages the per-patch world coordinates back into one
cloud. With the identity applied to every patch, stitching reproduces the
input exactly.
"""
import numpy as np

from noisetrans import Sphere, sample_surface
from noisetrans.spatial import extract_patches, farthest_point_sample, stitch_patches

cloud = sample_surface(Sphere(1.0), 500, seed=0).coords

picks = farthest_point_sample(cloud, 8)
print("farthest-point seeds:", picks.tolist())

patches = extract_patches(cloud, patch_size=64)
print(f"{len(patches)} patches of 64 points cover all {len(cloud)} points")
radii = np.sqrt((patches.local ** 2).sum(axis=2)).max(axis=1)
for seed, scale, radius in zip(patches.seeds[:3], patches.scales, radii):
    print(f"  seed {seed:4d}  scale {scale:.4f}  local max norm {radius:.4f}")

# identity round trip: stitch the untouched local coordinates
restored = stitch_patches(patches, patches.local, len(cloud))
print("stitch identity max error:", np.abs(restored - cloud).max())

# coverage=3 takes ceil(3 N / 64) farthest-point seeds, so each point gets
# 3 estimates to average on the mean, plus a patch for any point left over
dense = extract_patches(cloud, patch_size=64, coverage=3)
counts = np.bincount(dense.members.ravel(), minlength=len(cloud))
print(f"coverage=3 takes {len(dense)} patches: "
      f"{counts.mean():.2f} per point on average, {counts.min()} at least")
