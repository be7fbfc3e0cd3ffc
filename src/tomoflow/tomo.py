"""2D parallel-beam ray transform, its exact discrete adjoint, and FBP.

The forward projector samples each line at uniform steps of half the
smaller pixel spacing with the bilinear rule of ``grid`` and sums times
the step length. Forward and adjoint are realized through one sparse
system matrix per (grid, geometry) pair, so the back projection is the
exact matrix transpose of the forward map: the adjoint identity holds to
rounding by construction.
The matrix is assembled in blocks of at most ``BLOCK_SAMPLES`` line
samples, several rays of one angle each, so only one block's line
samples are held at once; the blocks are then copied into the final CSR
arrays.

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

from .grid import Grid2D, ScalarImage, bilinear_stencil, check_count, check_real


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
        check_count("n_angles", self.n_angles, 1)
        check_count("n_detectors", self.n_detectors, 2)
        check_real("s_max - s_min", self.s_max - self.s_min)

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


def make_parallel_geometry(grid: Grid2D, n_angles: int, n_detectors: int) -> SinogramGeometry:
    """Geometry whose detector extent covers the grid diagonal plus one cell."""
    check_count("n_detectors", n_detectors, 2)  # before the spacing divides by n_detectors - 1
    diag = math.hypot(grid.x_max - grid.x_min, grid.y_max - grid.y_min)
    hs = diag / (n_detectors - 1)
    return SinogramGeometry(
        n_angles=n_angles,
        n_detectors=n_detectors,
        s_min=-0.5 * (diag + hs),
        s_max=0.5 * (diag + hs),
    )


# Line samples per block of the system matrix's assembly: a block is the
# rays of one angle that fit in this budget (at least one ray).
BLOCK_SAMPLES = 2**15


@functools.cache
def _system_matrix(grid: Grid2D, geom: SinogramGeometry) -> scipy.sparse.csr_matrix:
    ds = 0.5 * min(grid.hx, grid.hy)
    half = 0.5 * math.hypot(grid.x_max - grid.x_min, grid.y_max - grid.y_min)
    t_half = half + max(grid.hx, grid.hy)  # one pixel past the grid's half diagonal
    n_t = int(math.ceil(2.0 * t_half / ds))
    t = -t_half + (np.arange(n_t) + 0.5) * ds
    s = geom.detector_centers()
    n_pixels = grid.ny * grid.nx
    block_rays = max(1, BLOCK_SAMPLES // n_t)

    blocks = []
    for theta in geom.angles_rad():
        c, sn = math.cos(theta), math.sin(theta)
        for first in range(0, geom.n_detectors, block_rays):
            s_block = s[first:first + block_rays]
            # line points s*omega + t*omega_perp, omega = (cos, sin)
            x = s_block[:, None] * c - t[None, :] * sn
            y = s_block[:, None] * sn + t[None, :] * c
            pixels, weights = bilinear_stencil(grid, x, y)
            del x, y
            weights *= ds
            keep = (pixels >= 0) & (weights != 0.0)
            rays = np.broadcast_to(np.arange(len(s_block), dtype=np.int32)[:, None], keep.shape)
            # a row's entries arrive corner by corner, each along the ray,
            # whatever the block size, so scipy's per-row sort and its
            # duplicate sums do not depend on the blocks
            blocks.append(scipy.sparse.csr_matrix(
                (weights[keep], (rays[keep], pixels[keep])), shape=(len(s_block), n_pixels)
            ))
            del pixels, weights, keep

    # the blocks are copied into the final arrays, each freed once copied
    nnz = sum(block.nnz for block in blocks)
    index = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
    indptr = np.empty(geom.n_angles * geom.n_detectors + 1, dtype=index)
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz)
    indptr[0] = row = end = 0
    blocks.reverse()
    while blocks:
        block = blocks.pop()
        start, end = end, end + block.nnz
        indices[start:end] = block.indices
        data[start:end] = block.data
        np.add(block.indptr[1:], index(start), out=indptr[row + 1:row + 1 + block.shape[0]])
        row += block.shape[0]
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, n_pixels))


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


def check_freq_scaling(freq_scaling: float) -> float:
    """Return ``freq_scaling``, the FBP cut-off as a fraction of the
    detector Nyquist frequency, or raise ValueError unless it is in (0, 1]."""
    if not 0.0 < freq_scaling <= 1.0:
        raise ValueError(f"freq_scaling must be in (0, 1], got {freq_scaling}")
    return freq_scaling


def fbp(sino: Sinogram, grid: Grid2D, freq_scaling: float) -> ScalarImage:
    """Filtered back projection: each projection is filtered with a ramp
    times a Hamming window cut off at freq_scaling times the detector
    Nyquist frequency, then back-projected with back_projection, whose
    scale hs * (pi / n_angles) / (hx * hy) approximates the continuum back
    projection over [0, 180) degrees."""
    geom = sino.geometry
    f_cut = check_freq_scaling(freq_scaling) * 0.5 / geom.hs
    n_pad = scipy.fft.next_fast_len(2 * geom.n_detectors)
    freqs = scipy.fft.rfftfreq(n_pad, d=geom.hs)
    window = np.where(
        freqs <= f_cut,
        0.54 + 0.46 * np.cos(np.pi * freqs / f_cut),
        0.0,
    )
    response = np.abs(freqs) * window

    spectra = scipy.fft.rfft(sino.values, n=n_pad, axis=1)
    filtered = scipy.fft.irfft(spectra * response[None, :], n=n_pad, axis=1)[:, :geom.n_detectors]
    return back_projection(Sinogram(geom, filtered), grid)
