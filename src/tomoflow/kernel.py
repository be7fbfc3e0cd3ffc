"""Gaussian reproducing-kernel smoothing of vector fields.

The kernel is diagonal: it acts on each component of a (2, ny, nx)
field independently. ``smooth`` realizes u(x) -> int k(x - y) u(y) dy
by the midpoint rule over the pixel centres, with the untruncated
Gaussian k(d) = exp(-|d|^2 / (2 sigma^2)). That kernel is separable, so
the double sum is ``Gy @ u @ Gx`` per component, with one Gram matrix
per axis, G[i, j] = exp(-((i - j) h)^2 / (2 sigma^2)) * h. Each factor
is exactly symmetric and is the Gram matrix of a positive-definite
function at distinct points, so it is positive semidefinite, and so is
the smoothing operator, their Kronecker product. Pixels outside the
grid contribute nothing (zero extension). Factor entries below tiny/eps
(about 1e-292) are flushed to 0, so the Gaussian's far tail adds no
subnormal products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid2D, GridMismatchError


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Gaussian kernel of width sigma as its two per-axis Gram factors."""

    sigma: float
    grid: Grid2D
    gram_x: np.ndarray   # (nx, nx)
    gram_y: np.ndarray   # (ny, ny)


def _gram(n: int, h: float, sigma: float) -> np.ndarray:
    k = np.arange(n)
    profile = np.exp(-(k * h) ** 2 / (2.0 * sigma * sigma)) * h
    # subnormal products make OpenBLAS's dgemm several times slower
    profile[profile < np.finfo(float).tiny / np.finfo(float).eps] = 0.0
    return profile[np.abs(k[:, None] - k[None, :])]


def make_kernel(grid: Grid2D, sigma: float) -> KernelSpec:
    if not sigma > 0:
        raise ValueError(f"kernel width sigma must be > 0, got {sigma}")
    return KernelSpec(float(sigma), grid, _gram(grid.nx, grid.hx, sigma), _gram(grid.ny, grid.hy, sigma))


def smooth(spec: KernelSpec, u: np.ndarray) -> np.ndarray:
    """Componentwise kernel integral of a (2, ny, nx) field, into a fresh array."""
    if u.shape != (2,) + spec.grid.shape:
        raise GridMismatchError(f"field shape {u.shape} does not match kernel grid {spec.grid.shape}")
    return np.matmul(np.matmul(spec.gram_y, u), spec.gram_x)
