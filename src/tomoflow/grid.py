"""Rectangular pixel grids, scalar/vector fields and the discrete calculus on them.

Conventions shared by the whole package:

* pixel centers at ``x_i = x_min + (i + 0.5) * hx`` (same in y),
* arrays are stored as ``(ny, nx)`` float64, row-major with y as the
  outer index,
* sampling outside the grid extent evaluates to 0 (zero extension),
* gradient/divergence use second-order central differences in the
  interior and first-order one-sided differences on the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class GridMismatchError(ValueError):
    """Raised when two fields that must share a grid do not."""


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


def _as_field(grid: Grid2D, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != grid.shape:
        raise ValueError(f"field shape {arr.shape} does not match grid {grid.shape}")
    return arr


@dataclass
class ScalarImage:
    """A scalar function sampled at pixel centers."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_field(self.grid, self.values)

    @classmethod
    def zeros(cls, grid: Grid2D) -> "ScalarImage":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid: Grid2D, value: float) -> "ScalarImage":
        return cls(grid, np.full(grid.shape, float(value)))

    def copy(self) -> "ScalarImage":
        return ScalarImage(self.grid, self.values.copy())


@dataclass
class VectorField2D:
    """A 2D vector field sampled at pixel centers (components vx, vy)."""

    grid: Grid2D
    vx: np.ndarray
    vy: np.ndarray

    def __post_init__(self):
        self.vx = _as_field(self.grid, self.vx)
        self.vy = _as_field(self.grid, self.vy)

    @classmethod
    def zeros(cls, grid: Grid2D) -> "VectorField2D":
        return cls(grid, np.zeros(grid.shape), np.zeros(grid.shape))

    def copy(self) -> "VectorField2D":
        return VectorField2D(self.grid, self.vx.copy(), self.vy.copy())


@dataclass
class DisplacementMap:
    """The map x -> x + (dx, dy)(x); dx = dy = 0 is the identity."""

    grid: Grid2D
    dx: np.ndarray
    dy: np.ndarray

    def __post_init__(self):
        self.dx = _as_field(self.grid, self.dx)
        self.dy = _as_field(self.grid, self.dy)

    @classmethod
    def identity(cls, grid: Grid2D) -> "DisplacementMap":
        return cls(grid, np.zeros(grid.shape), np.zeros(grid.shape))


@dataclass
class TimeVelocityField:
    """N+1 time samples of a velocity field, sample i at time t_i = i/N."""

    fields: list[VectorField2D] = field(default_factory=list)

    def __post_init__(self):
        if len(self.fields) < 2:
            raise ValueError("need at least 2 time samples (n_steps >= 1)")
        g = self.fields[0].grid
        for f in self.fields[1:]:
            if f.grid != g:
                raise GridMismatchError("all time samples must share one grid")

    @property
    def n_steps(self) -> int:
        return len(self.fields) - 1

    @property
    def grid(self) -> Grid2D:
        return self.fields[0].grid

    @classmethod
    def zeros(cls, grid: Grid2D, n_steps: int) -> "TimeVelocityField":
        return cls([VectorField2D.zeros(grid) for _ in range(n_steps + 1)])

    def copy(self) -> "TimeVelocityField":
        return TimeVelocityField([f.copy() for f in self.fields])


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


def sample_bilinear(img: ScalarImage, points: DisplacementMap) -> ScalarImage:
    """Sample ``img`` at x + (dx, dy)(x) for every pixel center x."""
    if img.grid != points.grid:
        raise GridMismatchError("image and displacement map live on different grids")
    X, Y = img.grid._centers
    vals = interp_values(img.grid, img.values, X + points.dx, Y + points.dy)
    return ScalarImage(img.grid, vals)


def gradient(img: ScalarImage) -> VectorField2D:
    """Finite-difference spatial gradient (central interior, one-sided edges)."""
    ddy, ddx = np.gradient(img.values, img.grid.hy, img.grid.hx, edge_order=1)
    return VectorField2D(img.grid, ddx, ddy)


def divergence(vf: VectorField2D) -> ScalarImage:
    """div v = dvx/dx + dvy/dy with the same difference scheme as gradient."""
    ddx = np.gradient(vf.vx, vf.grid.hx, axis=1, edge_order=1)
    ddy = np.gradient(vf.vy, vf.grid.hy, axis=0, edge_order=1)
    return ScalarImage(vf.grid, ddx + ddy)


def integrate(img: ScalarImage) -> float:
    """Midpoint-rule integral: sum of values times the pixel area."""
    return float(np.sum(img.values) * img.grid.cell_area)
