"""Gaussian reproducing-kernel smoothing of vector fields.

The kernel is diagonal: it acts on each component of a (2, ny, nx)
field independently. The ``smooth`` operation realizes the integral
u(x) -> int k(x - y) u(y) dy by discrete convolution with the sampled,
truncated kernel times the pixel area, computed as a linear
(zero-padded) FFT convolution so image borders see zeros rather than
wrap-around. Each component is transformed as its own contiguous 2-D
slice and written straight into the output array.

FFT size. Along an axis of n pixels the kernel's half-support is
r = min(ceil(4 sigma / h), n - 1): a tap further out than n - 1 pixels
never joins a kept output pixel to an input pixel. The transform length
is L = next_fast_len(n + r), not the n + 2r of the full linear
convolution, because only the window of kept outputs must be free of
aliasing. The linear convolution has entries at indices 0..n+2r-1 and
keeps r..r+n-1. A circular transform of length L folds entry j >= L
onto j - L <= n + 2r - 1 - L <= r - 1, below the kept window, so with
L >= n + r the kept pixels equal the linear convolution's up to
rounding (and r <= n - 1 keeps the 2r + 1 taps within L).

The zero-padded 2-D transform is taken in its separable stages, which
skip the work on padding: the row transforms run on the ``ny`` data rows
only, and after the column transforms only the ``ny`` output rows that
are kept are transformed back. The 1/(H*W) scale is applied once at the
end, where the 2-D inverse transform applies it, so the result is
bit-identical to ``irfft2(rfft2(u, s) * freq_kernel, s)`` at
``s = fft_shape``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .grid import Grid2D, GridMismatchError

TRUNCATION_SIGMAS = 4.0


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Gaussian kernel of width sigma with its precomputed frequency form."""

    sigma: float
    grid: Grid2D
    truncation_radius: float
    support_x: int            # kernel half-support in pixels, at most n - 1
    support_y: int
    fft_shape: tuple[int, int]
    freq_kernel: np.ndarray   # rfft2 of sampled kernel * cell area


def make_kernel(grid: Grid2D, sigma: float) -> KernelSpec:
    if sigma <= 0:
        raise ValueError(f"kernel width sigma must be > 0, got {sigma}")
    radius = TRUNCATION_SIGMAS * sigma
    # taps more than n - 1 pixels out never reach a kept output
    rx = min(int(np.ceil(radius / grid.hx)), grid.nx - 1)
    ry = min(int(np.ceil(radius / grid.hy)), grid.ny - 1)
    ox = np.arange(-rx, rx + 1) * grid.hx
    oy = np.arange(-ry, ry + 1) * grid.hy
    d2 = oy[:, None] ** 2 + ox[None, :] ** 2
    kern = np.exp(-d2 / (2.0 * sigma * sigma))
    kern[d2 > radius * radius] = 0.0
    kern *= grid.cell_area

    fft_shape = (scipy.fft.next_fast_len(grid.ny + ry), scipy.fft.next_fast_len(grid.nx + rx))
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


def _convolve(spec: KernelSpec, comp: np.ndarray, out: np.ndarray) -> None:
    H, W = spec.fft_shape
    ny, nx = spec.grid.shape
    ry, rx = spec.support_y, spec.support_x
    fld = scipy.fft.rfft(comp, n=W, axis=1)
    fld = scipy.fft.fft(fld, n=H, axis=0, overwrite_x=True)
    fld *= spec.freq_kernel
    fld = scipy.fft.ifft(fld, axis=0, norm="forward", overwrite_x=True)[ry:ry + ny]
    full = scipy.fft.irfft(fld, n=W, axis=1, norm="forward")
    # pocketfft rounds 1/(H*W) from long double; for every product of
    # two next_fast_len lengths up to 8192 that equals this double reciprocal
    np.multiply(full[:, rx:rx + nx], 1.0 / (H * W), out=out)


def smooth(spec: KernelSpec, u: np.ndarray) -> np.ndarray:
    """Componentwise kernel convolution of a (2, ny, nx) field with the
    pixel-area quadrature weight, into a fresh array."""
    if u.shape != (2,) + spec.grid.shape:
        raise GridMismatchError(f"field shape {u.shape} does not match kernel grid {spec.grid.shape}")
    out = np.empty(u.shape)
    for comp, dest in zip(u, out):
        _convolve(spec, comp, dest)
    return out
