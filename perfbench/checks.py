"""Pass/fail checks of program outputs against the reference computations.

Each check takes the program's output and an independently computed
expectation and returns a Check; selftest.py feeds each one a wrong output
(shifted points, swapped rows, a perturbed weight) to show it rejects it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import oracles


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def cloud_shape(name: str, out: np.ndarray, n: int) -> Check:
    ok = out.shape == (n, 3) and bool(np.all(np.isfinite(out)))
    return Check(name, ok, f"shape {out.shape}, expected ({n}, 3), all finite: {ok}")


def identical(name: str, first: np.ndarray, again: np.ndarray) -> Check:
    """Repeated operations on the same input must give bitwise equal output."""
    ok = first.shape == again.shape and bool(np.array_equal(first, again))
    return Check(name, ok, "bitwise equal" if ok else "outputs differ between rounds")


def surface_ratio(name: str, noisy: np.ndarray, out: np.ndarray, sqdist,
                  bound: float) -> tuple[Check, float]:
    """Mean squared distance to the true surface, output over input."""
    ratio = float(sqdist(out).mean() / sqdist(noisy).mean())
    ok = bool(np.isfinite(ratio)) and ratio <= bound
    return Check(name, ok, f"ratio {ratio:.6g}, bound {bound}"), ratio


def close(name: str, got, want, rtol: float = 1e-9, atol: float = 0.0) -> Check:
    """Elementwise |got - want| <= atol + rtol * |want|."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return Check(name, False, f"shape {got.shape} vs {want.shape}")
    err = np.abs(got - want)
    ok = bool(np.all(err <= atol + rtol * np.abs(want)))
    return Check(name, ok, f"max abs error {err.max():.3e} (atol {atol}, rtol {rtol})")


def permutation_equivariant(name: str, out: np.ndarray, out_of_permuted: np.ndarray,
                            perm: np.ndarray, tol: float = 1e-9) -> Check:
    """denoise(x[perm]) must equal denoise(x)[perm]."""
    return close(name, out_of_permuted, out[perm], rtol=0.0, atol=tol)


def normal_displacement(name: str, noisy: np.ndarray, out: np.ndarray,
                        tol: float = 1e-9) -> Check:
    """One projected denoise pass moves each point along its PCA normal only."""
    n = oracles.pca_normals(noisy)
    d = out - noisy
    tangential = d - (d * n).sum(axis=1, keepdims=True) * n
    worst = float(np.linalg.norm(tangential, axis=1).max())
    moved = float(np.linalg.norm(d, axis=1).max())
    ok = worst <= tol and moved > 0.0
    return Check(name, ok, f"max tangential displacement {worst:.3e}, max move {moved:.3e}")


def finite_losses(name: str, losses) -> Check:
    ok = len(losses) > 0 and bool(np.all(np.isfinite(losses)))
    return Check(name, ok, f"epoch losses {list(losses)}")


def beats_identity(name: str, trained: float, identity: float) -> Check:
    ok = trained < identity
    return Check(name, ok, f"trained loss {trained:.6g}, identity loss {identity:.6g}")


def gradients_match(name: str, analytic, numeric, rtol: float = 1e-4,
                    floor: float = 1e-6) -> Check:
    """Relative error against central differences, floored for tiny gradients."""
    a = np.asarray(analytic, dtype=np.float64)
    f = np.asarray(numeric, dtype=np.float64)
    rel = np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
    ok = bool(np.all(rel <= rtol))
    return Check(name, ok, f"max relative error {rel.max():.3e} over {a.size} parameters")


def forward_points(name: str, points: int, patches: int, patch_size: int,
                   rotations: int) -> Check:
    """Rows through forward must equal patches x patch size x rotations."""
    want = patches * patch_size * rotations
    return Check(name, points == want,
                 f"forward rows {points}, patches {patches} x {patch_size} x {rotations} = {want}")
