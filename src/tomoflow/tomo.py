"""2D parallel-beam ray transform, its exact discrete adjoint, and FBP.

The forward projector samples each line at uniform steps of half the
smaller pixel spacing with the bilinear rule of ``grid`` and sums times
the step length. Forward and adjoint are realized through one sparse
system matrix per (grid, geometry) pair, so the back projection is the
exact matrix transpose of the forward map: the adjoint identity holds to
rounding by construction.
The matrix is assembled one angle at a time: each angle's rays form a
CSR block of their own, and the blocks are stacked, so only one angle's
line samples are held at once.

Inner products carry quadrature weights: hx*hy on images and
hs*(pi/n_angles) on sinograms, approximating the continuum pairing over
lines with directions in [0, 180) degrees.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse

from .grid import Grid2D, ScalarImage, bilinear_stencil


@dataclass(frozen=True)
class SinogramGeometry:
    """Parallel-beam sampling: angles k*180/M degrees, detector centers
    s_min + (p + 0.5) * hs. These are exactly the fields of an ISIN header;
    the step along each ray is the projector's, derived from the grid."""

    n_angles: int
    n_detectors: int
    s_min: float
    s_max: float

    def __post_init__(self):
        if self.n_angles < 1 or self.n_detectors < 2:
            raise ValueError("need n_angles >= 1 and n_detectors >= 2")
        if not self.s_max > self.s_min:
            raise ValueError("detector extent must be positive")

    @property
    def hs(self) -> float:
        return (self.s_max - self.s_min) / self.n_detectors

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_angles, self.n_detectors)

    def angles_rad(self) -> np.ndarray:
        return np.arange(self.n_angles) * (np.pi / self.n_angles)

    def detector_centers(self) -> np.ndarray:
        return self.s_min + (np.arange(self.n_detectors) + 0.5) * self.hs

    def y_weight(self) -> float:
        """Sinogram-space quadrature weight hs * (pi / n_angles)."""
        return self.hs * math.pi / self.n_angles


@dataclass
class Sinogram:
    geometry: SinogramGeometry
    values: np.ndarray  # (n_angles, n_detectors), angle-major

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != self.geometry.shape:
            raise ValueError(f"sinogram shape {arr.shape} != geometry {self.geometry.shape}")
        self.values = arr

    @classmethod
    def zeros(cls, geometry: SinogramGeometry) -> "Sinogram":
        return cls(geometry, np.zeros(geometry.shape))

    def copy(self) -> "Sinogram":
        return Sinogram(self.geometry, self.values.copy())


def make_parallel_geometry(grid: Grid2D, n_angles: int, n_detectors: int) -> SinogramGeometry:
    """Geometry whose detector extent covers the grid diagonal plus one cell."""
    diag = math.hypot(grid.x_max - grid.x_min, grid.y_max - grid.y_min)
    hs = diag / (n_detectors - 1)
    return SinogramGeometry(
        n_angles=n_angles,
        n_detectors=n_detectors,
        s_min=-0.5 * (diag + hs),
        s_max=0.5 * (diag + hs),
    )


@functools.cache
def _system_matrix(grid: Grid2D, geom: SinogramGeometry) -> scipy.sparse.csr_matrix:
    ds = 0.5 * min(grid.hx, grid.hy)
    half = 0.5 * math.hypot(grid.x_max - grid.x_min, grid.y_max - grid.y_min)
    t_half = half + max(grid.hx, grid.hy)  # one pixel past the grid's half diagonal
    n_t = int(math.ceil(2.0 * t_half / ds))
    t = -t_half + (np.arange(n_t) + 0.5) * ds
    s = geom.detector_centers()

    blocks = []
    for theta in geom.angles_rad():
        c, sn = math.cos(theta), math.sin(theta)
        # line points s*omega + t*omega_perp, omega = (cos, sin)
        x = s[:, None] * c - t[None, :] * sn
        y = s[:, None] * sn + t[None, :] * c
        pixels, weights = bilinear_stencil(grid, x, y)
        weights *= ds
        keep = (pixels >= 0) & (weights != 0.0)
        rays = np.broadcast_to(np.arange(geom.n_detectors, dtype=np.int32)[:, None], keep.shape)
        blocks.append(scipy.sparse.csr_matrix(
            (weights[keep], (rays[keep], pixels[keep])), shape=(geom.n_detectors, grid.ny * grid.nx)
        ))
    return scipy.sparse.vstack(blocks, format="csr")


def ray_transform(img: ScalarImage, geom: SinogramGeometry) -> Sinogram:
    """Line integrals of the image over every (angle, detector offset) pair."""
    mat = _system_matrix(img.grid, geom)
    vals = mat @ img.values.ravel()
    return Sinogram(geom, vals.reshape(geom.shape))


def back_projection(sino: Sinogram, grid: Grid2D) -> ScalarImage:
    """Exact transpose of ray_transform under the weighted inner products."""
    geom = sino.geometry
    mat = _system_matrix(grid, geom)
    scale = geom.y_weight() / grid.cell_area
    vals = (mat.T @ sino.values.ravel()) * scale
    return ScalarImage(grid, vals.reshape(grid.shape))


def fbp(sino: Sinogram, grid: Grid2D, freq_scaling: float) -> ScalarImage:
    """Filtered back projection: each projection is filtered with a ramp
    times a Hamming window cut off at freq_scaling times the detector
    Nyquist frequency, then back-projected with back_projection, whose
    scale hs * (pi / n_angles) / (hx * hy) approximates the continuum back
    projection over [0, 180) degrees."""
    if not 0.0 < freq_scaling <= 1.0:
        raise ValueError(f"freq_scaling must be in (0, 1], got {freq_scaling}")
    geom = sino.geometry
    n_pad = scipy.fft.next_fast_len(2 * geom.n_detectors)
    freqs = scipy.fft.rfftfreq(n_pad, d=geom.hs)
    f_cut = freq_scaling * 0.5 / geom.hs
    window = np.where(
        freqs <= f_cut,
        0.54 + 0.46 * np.cos(np.pi * freqs / f_cut),
        0.0,
    )
    response = np.abs(freqs) * window

    spectra = scipy.fft.rfft(sino.values, n=n_pad, axis=1)
    filtered = scipy.fft.irfft(spectra * response[None, :], n=n_pad, axis=1)[:, :geom.n_detectors]
    return back_projection(Sinogram(geom, filtered), grid)
