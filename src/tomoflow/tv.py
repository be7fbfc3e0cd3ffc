"""Total-variation reconstruction baseline, solved with a primal-dual method.

Minimizes  mu * TV(f) + |T f - g|^2_Y  over images f, with isotropic TV
discretized by forward differences and Neumann boundary. The primal-dual
iteration needs the plain (unweighted) transposes of the stacked
operator (ray transform, discrete gradient); the quadrature weights of
the data norm live in the proximal step instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid2D, ScalarImage
from .tomo import Sinogram, SinogramGeometry, _system_matrix


@dataclass(frozen=True)
class TVConfig:
    mu: float
    n_iters: int = 1000

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be > 0")
        if self.n_iters < 1:
            raise ValueError("n_iters must be >= 1")


def _forward_grad(f: np.ndarray, hx: float, hy: float) -> tuple[np.ndarray, np.ndarray]:
    gx = np.zeros_like(f)
    gy = np.zeros_like(f)
    gx[:, :-1] = (f[:, 1:] - f[:, :-1]) / hx
    gy[:-1, :] = (f[1:, :] - f[:-1, :]) / hy
    return gx, gy


def _grad_transpose(gx: np.ndarray, gy: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """Exact transpose of _forward_grad (a negative divergence)."""
    out = np.zeros_like(gx)
    out[:, 0] -= gx[:, 0] / hx
    out[:, 1:-1] -= (gx[:, 1:-1] - gx[:, :-2]) / hx
    out[:, -1] += gx[:, -2] / hx
    out[0, :] -= gy[0, :] / hy
    out[1:-1, :] -= (gy[1:-1, :] - gy[:-2, :]) / hy
    out[-1, :] += gy[-2, :] / hy
    return out


def operator_norm_estimate(
    geom: SinogramGeometry, grid: Grid2D, n_iters: int = 100, seed: int = 0
) -> float:
    """Power-iteration estimate of the stacked operator norm |(T, grad)|."""
    mat = _system_matrix(grid, geom)
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.standard_normal(grid.shape)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(n_iters):
        av = (mat @ v.ravel())
        gx, gy = _forward_grad(v, grid.hx, grid.hy)
        w = (mat.T @ av).reshape(grid.shape) + _grad_transpose(gx, gy, grid.hx, grid.hy)
        lam = np.linalg.norm(w)
        if lam == 0.0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


def tv_reconstruct(data: Sinogram, grid: Grid2D, cfg: TVConfig) -> ScalarImage:
    """Primal-dual iterations from a zero start; deterministic.

    Both step sizes are 0.99 / |K|, so tau * sigma * |K|^2 < 1, and the
    over-relaxation parameter is 1.
    """
    geom = data.geometry
    mat = _system_matrix(grid, geom)
    norm_k = operator_norm_estimate(geom, grid)
    tau = sigma = 0.99 / norm_k

    w_y = geom.y_weight()
    ball = cfg.mu * grid.cell_area
    g = data.values.ravel()

    x = np.zeros(grid.shape)
    x_bar = x.copy()
    p = np.zeros(g.shape)
    qx = np.zeros(grid.shape)
    qy = np.zeros(grid.shape)

    for _ in range(cfg.n_iters):
        # dual ascent: data term (weighted quadratic) and TV ball projection
        p = (p + sigma * (mat @ x_bar.ravel()) - sigma * g) / (1.0 + sigma / (2.0 * w_y))
        gx, gy = _forward_grad(x_bar, grid.hx, grid.hy)
        qx += sigma * gx
        qy += sigma * gy
        mag = np.sqrt(qx * qx + qy * qy)
        shrink = np.where(mag > ball, ball / np.maximum(mag, 1e-300), 1.0)
        qx *= shrink
        qy *= shrink

        x_old = x
        descent = (mat.T @ p).reshape(grid.shape) + _grad_transpose(qx, qy, grid.hx, grid.hy)
        x = x - tau * descent
        x_bar = x + (x - x_old)

    return ScalarImage(grid, x)

