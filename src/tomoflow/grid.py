"""Rectangular pixel grids, scalar images and the discrete calculus on them.

Conventions shared by the whole package:

* pixel centers at ``x_i = x_min + (i + 0.5) * hx`` (same in y),
* a scalar field is a ``(ny, nx)`` float64 array, row-major with y as
  the outer index; ``ScalarImage`` pairs one with its grid at the API
  boundary (phantoms, projections, files, metrics),
* a vector field is a ``(2, ny, nx)`` float64 array, component 0 along
  x and 1 along y, and a time-sampled velocity is ``(N+1, 2, ny, nx)``;
  these are plain arrays, and the grid is passed alongside them,
* sampling outside the grid extent evaluates to 0 (zero extension),
* gradient/divergence use second-order central differences in the
  interior and first-order one-sided differences on the boundary.

``sample_bilinear``, ``gradient`` and ``divergence`` each return a
freshly allocated array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GridMismatchError(ValueError):
    """Raised when a field is not on the grid it is used with."""


@dataclass(frozen=True)
class Grid2D:
    """Uniform pixel grid on the rectangle [x_min, x_max] x [y_min, y_max]."""

    nx: int
    ny: int
    x_min: float = -16.0
    x_max: float = 16.0
    y_min: float = -16.0
    y_max: float = 16.0

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid needs at least 2x2 pixels, got {self.nx}x{self.ny}")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid extents must satisfy x_max > x_min and y_max > y_min")

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def hy(self) -> float:
        return (self.y_max - self.y_min) / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    def x_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.hx

    def y_centers(self) -> np.ndarray:
        return self.y_min + (np.arange(self.ny) + 0.5) * self.hy

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Pixel-center coordinates as two fresh (ny, nx) arrays (X, Y)."""
        return np.meshgrid(self.x_centers(), self.y_centers())

    @cached_property
    def _centers(self) -> tuple[np.ndarray, np.ndarray]:
        # read-only, so a caller can never change what later pulls see
        X, Y = self.meshgrid()
        X.flags.writeable = False
        Y.flags.writeable = False
        return X, Y


@dataclass
class ScalarImage:
    """A scalar function sampled at pixel centers."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"field shape {self.values.shape} does not match grid {self.grid.shape}")

    @classmethod
    def zeros(cls, grid: Grid2D) -> "ScalarImage":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid: Grid2D, value: float) -> "ScalarImage":
        return cls(grid, np.full(grid.shape, float(value)))


def _fractional_index(q, lo: float, h: float, n: int, shape) -> np.ndarray:
    """(q - lo) / h - 0.5 clamped to [-2, n]; NaN maps to -2."""
    f = np.subtract(q, lo, out=np.empty(shape))
    f /= h
    f -= 0.5
    np.fmax(f, -2.0, out=f)
    np.fmin(f, n, out=f)
    return f


def interp_values(grid: Grid2D, values: np.ndarray, xq: np.ndarray, yq: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of pixel-center samples at physical points.

    Points outside the extent see zeros: the four corners are gathered
    from a copy of ``values`` zero-padded by two pixels on each side,
    after the fractional pixel index is clamped to [-2, n]. A clamped
    point (anything a pixel or more outside the extent, and every NaN or
    infinite coordinate) has all four corners on the padding, so it
    samples 0 whatever the image holds.
    """
    nx, ny = grid.nx, grid.ny
    shape = np.broadcast_shapes(np.shape(xq), np.shape(yq))
    fx = _fractional_index(xq, grid.x_min, grid.hx, nx, shape)
    fy = _fractional_index(yq, grid.y_min, grid.hy, ny, shape)
    x0 = np.floor(fx)
    y0 = np.floor(fy)
    tx = fx - x0
    ty = fy - y0
    sx = np.subtract(1.0, tx, out=fx)
    sy = np.subtract(1.0, ty, out=fy)

    w = nx + 4
    padded = np.zeros((ny + 4, w))
    padded[2:ny + 2, 2:nx + 2] = values
    flat = padded.ravel()
    # flat index of corner (0, 0) in the padded copy; y0, x0 >= -2
    y0 *= w
    y0 += x0
    idx = y0.astype(np.intp)
    idx += 2 * w + 2

    # corners (0,0), (0,1), (1,0), (1,1) as (dy, dx), each term (wx*wy)*f:
    # the masked per-corner form's products and summation order, so the
    # result is bit-identical to it
    out = sx * sy
    out *= flat.take(idx)
    for wx, wy, step in ((tx, sy, 1), (sx, ty, w - 1), (tx, ty, 1)):
        idx += step
        term = np.multiply(wx, wy, out=x0)
        term *= flat.take(idx)
        out += term
    return out


def sample_bilinear(grid: Grid2D, f: np.ndarray, disp: np.ndarray) -> np.ndarray:
    """Sample the image ``f`` at x + disp(x) for every pixel center x.

    ``disp`` is a (2, ny, nx) displacement, component 0 along x.
    """
    if f.shape != grid.shape or disp.shape != (2,) + grid.shape:
        raise GridMismatchError(f"image {f.shape} or displacement {disp.shape} is not on grid {grid.shape}")
    X, Y = grid._centers
    return interp_values(grid, f, X + disp[0], Y + disp[1])


def gradient(grid: Grid2D, f: np.ndarray) -> np.ndarray:
    """Finite-difference spatial gradient (central interior, one-sided edges),
    as a (2, ny, nx) array with component 0 along x."""
    ddy, ddx = np.gradient(f, grid.hy, grid.hx, edge_order=1)
    return np.stack((ddx, ddy))


def divergence(grid: Grid2D, v: np.ndarray) -> np.ndarray:
    """div v = dv0/dx + dv1/dy of a (2, ny, nx) field, with the difference
    scheme of ``gradient``."""
    ddx = np.gradient(v[0], grid.hx, axis=1, edge_order=1)
    ddy = np.gradient(v[1], grid.hy, axis=0, edge_order=1)
    return ddx + ddy
