"""Total-variation reconstruction baseline, solved with a primal-dual method.

Minimizes  mu * TV(f) + |T f - g|^2_Y  over images f, with isotropic TV
discretized by forward differences and Neumann boundary. Both operators
of the primal-dual iteration are sparse matrices: the ray transform's
system matrix and one difference matrix holding the x and y forward
differences. Their adjoints are their plain (unweighted) transposes, so
no adjoint is written by hand; the quadrature weights of the data norm
live in the proximal step instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .grid import Grid2D, ScalarImage, check_count, check_real
from .tomo import Sinogram, _system_matrix


@dataclass(frozen=True)
class TVConfig:
    mu: float
    n_iters: int = 1000

    def __post_init__(self):
        check_real("mu", self.mu)
        check_count("n_iters", self.n_iters, 1)


def _difference_operator(grid: Grid2D) -> scipy.sparse.csr_matrix:
    """Forward differences of the row-major flattened image as one
    (2 * ny * nx, ny * nx) matrix: the x differences stacked on the y
    differences, each divided by its spacing. The last difference along
    each axis is zero (Neumann boundary)."""

    def forward(n: int, h: float):
        steps = scipy.sparse.diags([-1.0 / h, 1.0 / h], [0, 1], shape=(n - 1, n))
        return scipy.sparse.vstack([steps, scipy.sparse.csr_matrix((1, n))])

    d_x = scipy.sparse.kron(scipy.sparse.identity(grid.ny), forward(grid.nx, grid.hx))
    d_y = scipy.sparse.kron(forward(grid.ny, grid.hy), scipy.sparse.identity(grid.nx))
    return scipy.sparse.vstack([d_x, d_y], format="csr")


def operator_norm_estimate(
    mat: scipy.sparse.csr_matrix, diff: scipy.sparse.csr_matrix, seed: int = 0
) -> float:
    """Estimate of the stacked operator norm |(T, grad)| of the ray
    transform's system matrix ``mat`` and the difference matrix ``diff``
    from 100 power iterations, started from a Gaussian draw of ``seed``.
    That start is no constant image, the only kind that grad maps to 0,
    and each later iterate lies in the range of T^T T + grad^T grad, so
    none maps to 0."""
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(100):
        w = mat.T @ (mat @ v) + diff.T @ (diff @ v)
        lam = np.linalg.norm(w)
        v = w / lam
    return float(np.sqrt(lam))


def tv_reconstruct(data: Sinogram, grid: Grid2D, cfg: TVConfig) -> ScalarImage:
    """Primal-dual iterations from a zero start; deterministic.

    Both step sizes are 0.99 / |K|, so tau * sigma * |K|^2 < 1, and the
    over-relaxation parameter is 1.
    """
    geom = data.geometry
    mat = _system_matrix(grid, geom)
    diff = _difference_operator(grid)
    mat_t, diff_t = mat.T, diff.T  # built once: each .T makes a new view
    norm_k = operator_norm_estimate(mat, diff)
    tau = sigma = 0.99 / norm_k

    w_y = geom.y_weight()
    ball = cfg.mu * grid.cell_area
    g = data.values.ravel()

    x = np.zeros(grid.ny * grid.nx)
    x_bar = x.copy()
    p = np.zeros(g.shape)
    q = np.zeros((2, x.size))  # the x and y components of the TV dual

    for _ in range(cfg.n_iters):
        # dual ascent: data term (weighted quadratic) and TV ball projection
        p = (p + sigma * (mat @ x_bar) - sigma * g) / (1.0 + sigma / (2.0 * w_y))
        q += sigma * (diff @ x_bar).reshape(q.shape)
        mag = np.sqrt(q[0] * q[0] + q[1] * q[1])
        q *= np.where(mag > ball, ball / np.maximum(mag, 1e-300), 1.0)

        x_old = x
        x = x - tau * (mat_t @ p + diff_t @ q.ravel())
        x_bar = x + (x - x_old)

    return ScalarImage(grid, x.reshape(grid.shape))
