"""Gaussian reproducing-kernel smoothing of vector fields.

The kernel is diagonal: it acts on each component of a (2, ny, nx)
field independently. ``smooth`` realizes u(x) -> int k(x - y) u(y) dy
by the midpoint rule over the pixel centres, with the untruncated
Gaussian k(d) = exp(-|d|^2 / (2 sigma^2)). That kernel is separable, so
the double sum is ``Gy @ u @ Gx`` per component, with one Gram matrix
per axis, G[i, j] = exp(-((i - j) h)^2 / (2 sigma^2)) * h. Each factor
is the Gram matrix of a positive-definite function at distinct points,
so it is positive semidefinite. Pixels outside the grid contribute
nothing (zero extension). Factor entries below tiny/eps (about 1e-292)
are flushed to 0, so the Gaussian's far tail adds no subnormal products.

``make_kernel`` diagonalizes each distinct factor once, G = U diag(lam) U^T
(a grid with ny = nx and hy = hx has one factor for both axes), and
keeps the eigenpairs whose eigenvalue is above ``RANK_CUT`` times the
largest: 49 of each factor at sigma 2 on the default 32 x 32 domain,
whatever the pixel count. ``smooth`` then computes, per component,
``Uy (lam_y lam_x^T * (Uy^T u Ux)) Ux^T``: four thin products in place
of two dense n x n ones. The dropped eigenpairs and the rounding of the
basis make an absolute error against the dense sum: about 1e-15 of the
peak for an impulse, and 4e-15 to 8e-15 of the largest entry for random
fields on the suite kernels. So far-tail entries are not correct to
relative precision. Every kept eigenvalue is positive, so the smoothing
operator is exactly positive semidefinite in the kept basis; it is
symmetric only to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid2D, GridMismatchError, check_real

# Eigenpairs of a Gram factor whose eigenvalue is at or below this
# fraction of the largest one are dropped.
RANK_CUT = 1e-15


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Gaussian kernel of width sigma in the kept eigenbasis of its two
    per-axis Gram factors."""

    sigma: float
    grid: Grid2D
    basis_x: np.ndarray   # (nx, rx), orthonormal columns
    basis_y: np.ndarray   # (ny, ry)
    eig_xy: np.ndarray    # (ry, rx), lam_y[j] * lam_x[i]


def _gram(n: int, h: float, sigma: float) -> np.ndarray:
    k = np.arange(n)
    profile = np.exp(-(k * h) ** 2 / (2.0 * sigma * sigma)) * h
    # subnormal products make OpenBLAS's dgemm several times slower
    profile[profile < np.finfo(float).tiny / np.finfo(float).eps] = 0.0
    return profile[np.abs(k[:, None] - k[None, :])]


def _eigenpairs(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kept eigenvalues of a Gram factor and their eigenvectors as columns."""
    lam, vec = np.linalg.eigh(gram)   # ascending
    keep = lam > RANK_CUT * lam[-1]
    return lam[keep], vec[:, keep]


def make_kernel(grid: Grid2D, sigma: float) -> KernelSpec:
    check_real("kernel width sigma", sigma)
    lam_x, basis_x = _eigenpairs(_gram(grid.nx, grid.hx, sigma))
    if (grid.ny, grid.hy) == (grid.nx, grid.hx):   # the same factor
        lam_y, basis_y = lam_x, basis_x
    else:
        lam_y, basis_y = _eigenpairs(_gram(grid.ny, grid.hy, sigma))
    return KernelSpec(float(sigma), grid, basis_x, basis_y, np.outer(lam_y, lam_x))


def smooth(spec: KernelSpec, u: np.ndarray) -> np.ndarray:
    """Componentwise kernel integral of a (2, ny, nx) field, into a fresh array."""
    if u.shape != (2,) + spec.grid.shape:
        raise GridMismatchError(f"field shape {u.shape} does not match kernel grid {spec.grid.shape}")
    coef = np.matmul(np.matmul(spec.basis_y.T, u), spec.basis_x)
    coef *= spec.eig_xy
    return np.matmul(np.matmul(spec.basis_y, coef), spec.basis_x.T)
