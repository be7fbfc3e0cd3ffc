"""Gaussian reproducing-kernel smoothing of vector fields.

The kernel is diagonal: it acts on each component independently. The
``smooth`` operation realizes the integral  u(x) -> int k(x - y) u(y) dy
by discrete convolution with the sampled, truncated kernel times the
pixel area, computed as a linear (zero-padded) FFT convolution so image
borders see zeros rather than wrap-around.

The zero-padded 2-D transform is taken in its separable stages, which
skip the work on padding: the row transforms run on the ``ny`` data rows
only, and after the column transforms only the ``ny`` output rows that
are kept are transformed back. The 1/(H*W) scale is applied once at the
end, where the 2-D inverse transform applies it, so the result is
bit-identical to ``irfft2(rfft2(u, s) * freq_kernel, s)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .grid import Grid2D, GridMismatchError, VectorField2D

TRUNCATION_SIGMAS = 4.0


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Gaussian kernel of width sigma with its precomputed frequency form."""

    sigma: float
    grid: Grid2D
    truncation_radius: float
    support_x: int            # kernel half-support in pixels
    support_y: int
    fft_shape: tuple[int, int]
    freq_kernel: np.ndarray   # rfft2 of sampled kernel * cell area


def make_kernel(grid: Grid2D, sigma: float) -> KernelSpec:
    if sigma <= 0:
        raise ValueError(f"kernel width sigma must be > 0, got {sigma}")
    radius = TRUNCATION_SIGMAS * sigma
    rx = int(np.ceil(radius / grid.hx))
    ry = int(np.ceil(radius / grid.hy))
    ox = np.arange(-rx, rx + 1) * grid.hx
    oy = np.arange(-ry, ry + 1) * grid.hy
    d2 = oy[:, None] ** 2 + ox[None, :] ** 2
    kern = np.exp(-d2 / (2.0 * sigma * sigma))
    kern[d2 > radius * radius] = 0.0
    kern *= grid.cell_area

    full = (grid.ny + 2 * ry, grid.nx + 2 * rx)
    fft_shape = (scipy.fft.next_fast_len(full[0]), scipy.fft.next_fast_len(full[1]))
    freq = scipy.fft.rfft2(kern, s=fft_shape)
    return KernelSpec(
        sigma=float(sigma),
        grid=grid,
        truncation_radius=radius,
        support_x=rx,
        support_y=ry,
        fft_shape=fft_shape,
        freq_kernel=freq,
    )


def kernel_value(spec: KernelSpec, x, y) -> np.ndarray | float:
    """Scalar kernel factor k(x, y) = exp(-|x-y|^2 / (2 sigma^2)), truncated."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d2 = np.sum((x - y) ** 2, axis=-1)
    val = np.exp(-d2 / (2.0 * spec.sigma**2))
    val = np.where(d2 > spec.truncation_radius**2, 0.0, val)
    return float(val) if val.ndim == 0 else val


def _convolve(spec: KernelSpec, comp: np.ndarray) -> np.ndarray:
    H, W = spec.fft_shape
    ny, nx = spec.grid.shape
    ry, rx = spec.support_y, spec.support_x
    fld = scipy.fft.rfft(comp, n=W, axis=1)
    fld = scipy.fft.fft(fld, n=H, axis=0, overwrite_x=True)
    fld *= spec.freq_kernel
    fld = scipy.fft.ifft(fld, axis=0, norm="forward", overwrite_x=True)[ry:ry + ny]
    out = scipy.fft.irfft(fld, n=W, axis=1, norm="forward")[:, rx:rx + nx]
    # pocketfft rounds 1/(H*W) from long double; for every product of
    # two next_fast_len lengths up to 8192 that equals this double reciprocal
    out *= 1.0 / (H * W)
    return out


def smooth(spec: KernelSpec, vf: VectorField2D) -> VectorField2D:
    """Componentwise kernel convolution with the pixel-area quadrature weight."""
    if vf.grid != spec.grid:
        raise GridMismatchError("vector field grid does not match kernel grid")
    return VectorField2D(vf.grid, _convolve(spec, vf.vx), _convolve(spec, vf.vy))
