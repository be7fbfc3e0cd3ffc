"""Figures of merit: SSIM, PSNR and sinogram SNR.

SSIM's local means are sums over every 11x11 window that fits in the
image, weighted by a normalised Gaussian. That window is the outer
product of one 11-tap profile, so each mean is two direct passes of it,
one along each axis.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import GridMismatchError, ScalarImage
from .tomo import Sinogram

_WINDOW_SIZE = 11
_WINDOW_SIGMA = 1.5
_K1 = 0.01
_K2 = 0.03


def _window() -> np.ndarray:
    r = np.arange(_WINDOW_SIZE) - (_WINDOW_SIZE - 1) / 2.0
    g = np.exp(-(r**2) / (2.0 * _WINDOW_SIGMA**2))
    return g / g.sum()


def check_ssim_size(size: int) -> int:
    """Return ``size``, an image's smaller side in pixels, or raise
    ValueError unless SSIM's window fits in it."""
    if size < _WINDOW_SIZE:
        raise ValueError(f"size must be at least {_WINDOW_SIZE} pixels (the SSIM window), got {size}")
    return size


def ssim(a: ScalarImage, b: ScalarImage) -> float:
    """Mean local structural similarity (11x11 Gaussian window, sigma 1.5,
    dynamic range 1)."""
    if a.grid != b.grid:
        raise GridMismatchError("ssim needs both images on one grid")
    check_ssim_size(min(a.grid.nx, a.grid.ny))
    x = a.values
    y = b.values
    g = _window()

    def local_mean(f: np.ndarray) -> np.ndarray:
        along_y = sliding_window_view(f, _WINDOW_SIZE, axis=0) @ g
        return sliding_window_view(along_y, _WINDOW_SIZE, axis=1) @ g

    mu_x = local_mean(x)
    mu_y = local_mean(y)
    var_x = local_mean(x * x) - mu_x * mu_x
    var_y = local_mean(y * y) - mu_y * mu_y
    cov = local_mean(x * y) - mu_x * mu_y
    c1 = _K1**2
    c2 = _K2**2
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


def psnr(a: ScalarImage, ref: ScalarImage) -> float:
    """Peak signal-to-noise ratio in dB at peak 1; +inf for identical images."""
    if a.grid != ref.grid:
        raise GridMismatchError("psnr needs both images on one grid")
    mse = float(np.mean((a.values - ref.values) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def measure_snr(ideal: Sinogram, noisy: Sinogram) -> float:
    """SNR in dB of noisy = ideal + noise, with mean-subtracted energies."""
    if ideal.geometry != noisy.geometry:
        raise ValueError("sinogram geometries differ")
    delta = noisy.values - ideal.values
    sig = ideal.values - ideal.values.mean()
    noise = delta - delta.mean()
    noise_energy = float(np.sum(noise * noise))
    if noise_energy == 0.0:
        raise ValueError("noise component has zero variance; SNR is undefined")
    return 10.0 * math.log10(float(np.sum(sig * sig)) / noise_energy)
