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
  interior and first-order one-sided differences on the boundary,
  written out directly with numpy's own ``np.gradient(edge_order=1)``
  formula ((f[2:] - f[:-2]) / (2h) inside, (f[1] - f[0]) / h and
  (f[-1] - f[-2]) / h on the edges), so they are bit-identical to it.

This module alone holds the bilinear rule: the pixel-centre convention,
the clamp of a fractional pixel index to [-2, n], the corner order and
weights, and the two-pixel zero padding. ``characteristics`` applies it
to the feet x + disp(x) of the pixel centres, in index coordinates
(``i + disp / h``), and ``sample_bilinear`` gathers images through the
result, so several images pulled along one displacement share that
work. ``bilinear_stencil`` applies it to points in physical coordinates
for the ray transform's system matrix. These, ``gradient`` and
``divergence`` each return freshly allocated arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class GridMismatchError(ValueError):
    """Raised when a field is not on the grid it is used with."""


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is an integer (numpy's included)
    of at least ``least``."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_real(name: str, value: float, positive: bool = True) -> None:
    """Raise ValueError unless ``value`` is finite and > 0 (``positive``)
    or >= 0. Every comparison with NaN is false, so NaN fails too."""
    if not (0 < value < math.inf if positive else 0 <= value < math.inf):
        raise ValueError(f"{name} must be {'>' if positive else '>='} 0 and finite, got {value}")


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
        check_count("nx", self.nx, 2)
        check_count("ny", self.ny, 2)
        # a difference is finite only if both ends are
        check_real("x_max - x_min", self.x_max - self.x_min)
        check_real("y_max - y_min", self.y_max - self.y_min)

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


class Characteristic(NamedTuple):
    """Corner indices and bilinear weights of a set of points, such as the
    feet x + disp(x) of every pixel centre.

    ``corner`` holds the flat index of each point's (0, 0) corner in an
    image zero-padded by two pixels on each side (width nx + 4); corners
    (0, 1), (1, 0) and (1, 1) lie 1, nx + 4 and nx + 5 entries further
    on. ``weights`` holds the four bilinear weights in that corner order,
    (sx*sy, tx*sy, sx*ty, tx*ty), as a (4,) + corner.shape array.
    """

    corner: np.ndarray
    weights: np.ndarray


def _corner_steps(nx: int) -> tuple[int, int, int, int]:
    """Offsets of the four corners from corner (0, 0) in the padded layout."""
    return (0, 1, nx + 4, nx + 5)


def _bilinear_rule(tx: np.ndarray, ty: np.ndarray, nx: int, ny: int) -> Characteristic:
    """The characteristic of points at fractional pixel indices (tx, ty),
    which are overwritten. A point clamped to [-2, n] (a pixel or more
    outside the extent, or NaN or infinite) has all corners on the padding.
    """
    np.fmax(tx, -2.0, out=tx)  # fmax maps NaN to -2
    np.fmin(tx, nx, out=tx)
    np.fmax(ty, -2.0, out=ty)
    np.fmin(ty, ny, out=ty)
    x0 = np.floor(tx)
    y0 = np.floor(ty)
    tx -= x0
    ty -= y0

    # flat index of corner (0, 0) in the padded copy; y0, x0 >= -2
    w = nx + 4
    y0 *= w
    y0 += x0
    del x0  # the floors are freed before the weights are allocated
    corner = y0.astype(np.intp)
    del y0
    corner += 2 * w + 2

    # sy = 1 - ty and sx = 1 - tx are built in the slots they end up scaling
    weights = np.empty((4,) + tx.shape)
    sy, sx = weights[0], weights[2]
    np.subtract(1.0, ty, out=sy)
    np.multiply(tx, sy, out=weights[1])
    np.subtract(1.0, tx, out=sx)
    np.multiply(sx, sy, out=weights[0])
    np.multiply(sx, ty, out=weights[2])
    np.multiply(tx, ty, out=weights[3])
    return Characteristic(corner, weights)


def characteristics(grid: Grid2D, disp: np.ndarray) -> Characteristic:
    """Corner indices and bilinear weights of the feet x + disp(x).

    ``disp`` is a (2, ny, nx) displacement, component 0 along x. The foot
    of pixel (j, i) sits at fractional index (i + disp[0] / hx,
    j + disp[1] / hy).
    """
    if disp.shape != (2,) + grid.shape:
        raise GridMismatchError(f"displacement {disp.shape} is not on grid {grid.shape}")
    tx = disp[0] / grid.hx
    tx += np.arange(grid.nx)
    ty = disp[1] / grid.hy
    ty += np.arange(grid.ny)[:, None]
    return _bilinear_rule(tx, ty, grid.nx, grid.ny)


def bilinear_stencil(grid: Grid2D, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corner pixels and weights of the bilinear rule at the points (x, y).

    ``x`` and ``y`` are physical coordinates, float64 arrays of one
    shape; they are overwritten. Returns ``(pixels, weights)``, both
    (4,) + x.shape in the corner order of ``Characteristic``. ``pixels``
    holds int32 flat indices ``iy * nx + ix``, and -1 for a corner off
    the grid.
    """
    for q, lo, h in ((x, grid.x_min, grid.hx), (y, grid.y_min, grid.hy)):
        q -= lo
        q /= h
        q -= 0.5
    nx, ny = grid.nx, grid.ny
    corner, weights = _bilinear_rule(x, y, nx, ny)
    pixel = np.full((ny + 4, nx + 4), -1, dtype=np.int32)  # the padded layout, -1 on the padding
    pixel[2:ny + 2, 2:nx + 2] = np.arange(nx * ny, dtype=np.int32).reshape(grid.shape)
    pixels = np.empty((4,) + corner.shape, dtype=np.int32)
    for k, step in enumerate(_corner_steps(nx)):
        pixel.ravel()[step:].take(corner, out=pixels[k])
    return pixels, weights


def sample_bilinear(grid: Grid2D, f: np.ndarray, feet: Characteristic) -> np.ndarray:
    """Bilinear samples of the image ``f`` at the feet of a characteristic.

    The corners are gathered from a copy of ``f`` zero-padded by two
    pixels on each side, so feet outside the extent see zeros. Each term
    is (wx*wy)*f and the corners are summed in the order (0,0), (0,1),
    (1,0), (1,1): the masked per-corner form's products and summation
    order, so the result is bit-identical to it.
    """
    corner, weights = feet
    if f.shape != grid.shape or corner.shape != grid.shape:
        raise GridMismatchError(f"image {f.shape} or feet {corner.shape} are not on grid {grid.shape}")
    nx, ny = grid.nx, grid.ny
    padded = np.zeros((ny + 4, nx + 4))
    padded[2:ny + 2, 2:nx + 2] = f
    flat = padded.ravel()
    out = flat.take(corner)
    out *= weights[0]
    term = np.empty(grid.shape)
    for k, step in enumerate(_corner_steps(nx)[1:], start=1):
        # "clip" lets take write into term unbuffered; every index is in range
        flat[step:].take(corner, out=term, mode="clip")
        term *= weights[k]
        out += term
    return out


def _central_difference(f: np.ndarray, h: float, out: np.ndarray) -> None:
    """numpy.gradient's edge_order=1 formula along axis 0, into ``out``."""
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * h
    np.subtract(f[1], f[0], out=out[0])
    out[0] /= h
    np.subtract(f[-1], f[-2], out=out[-1])
    out[-1] /= h


def gradient(grid: Grid2D, f: np.ndarray) -> np.ndarray:
    """Finite-difference spatial gradient (central interior, one-sided edges),
    as a (2, ny, nx) array with component 0 along x."""
    out = np.empty((2,) + f.shape)
    _central_difference(f.T, grid.hx, out[0].T)
    _central_difference(f, grid.hy, out[1])
    return out


def divergence(grid: Grid2D, v: np.ndarray) -> np.ndarray:
    """div v = dv0/dx + dv1/dy of a (2, ny, nx) field, with the difference
    scheme of ``gradient``."""
    out = np.empty(v.shape[1:])
    ddy = np.empty(v.shape[1:])
    _central_difference(v[0].T, grid.hx, out.T)
    _central_difference(v[1], grid.hy, ddy)
    out += ddy
    return out
