"""2D parallel-beam ray transform, its exact discrete adjoint, and FBP.

The forward projector samples each line at uniform steps of half the
smaller pixel spacing with the bilinear rule of ``grid`` and sums times
the step length. Forward and adjoint are realized through one sparse
system matrix per (grid, geometry) pair, so the back projection is the
exact matrix transpose of the forward map: the adjoint identity holds to
rounding by construction.
The matrix is assembled in blocks of at most ``BLOCK_SAMPLES`` line
samples, several rays of one angle each, so only one block's line
samples are held at once. A block computes only the samples between the
least and the greatest t at which one of its rays comes within a cell of
the grid's extent: about 60% of them at 256x256. numpy sums each entry
in one stated order, whatever the block size: along a ray the samples
visit the cells of the bilinear rule in a monotone staircase, so the
samples whose corner (0, 0) lies in one cell are consecutive, a *run*.
Each corner's weights are summed over a run in order along the ray; a
pixel that is corner (0,0), (0,1), (1,0) or (1,1) of up to four runs
adds those run sums in that corner order; the total is multiplied by the
step. Entries that sum to zero are not stored. scipy only wraps the
finished CSR arrays, and the build peaks near 1.7 times the finished
matrix (the block arrays and their concatenation).

Inner products carry quadrature weights: hx*hy on images and
hs*(pi/n_angles) on sinograms, approximating the continuum pairing over
lines with directions in [0, 180) degrees.

FBP filters the projections with one ``numpy.fft`` rfft/irfft pair
along the sinogram's rows, zero-padded to ``_fast_length(2 *
n_detectors)``. numpy's transforms are used rather than ``scipy.fft``,
whose import also loads ``scipy.special``: about 7 MB of resident memory
in every process.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .grid import Grid2D, ScalarImage, bilinear_stencil, check_count, check_real, corner_pixels


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


def _merged_entries(corner: np.ndarray, weights: np.ndarray, pixels_of: np.ndarray,
                    n_pixels: int) -> tuple[np.ndarray, np.ndarray]:
    """One block's entries in the order of the module docstring: their keys
    ray * n_pixels + pixel, sorted and distinct, and their weight sums.

    ``corner`` and ``weights`` are the characteristic of the block's line
    samples, (rays, n_t) and (4, rays, n_t); ``pixels_of`` is
    ``corner_pixels(grid)``.
    """
    n_t = corner.shape[1]
    corner = corner.ravel()
    weights = weights.reshape(4, -1)
    # a run starts at each ray's first sample and at each change of cell
    starts = np.ones(corner.size, dtype=bool)
    np.not_equal(corner[1:], corner[:-1], out=starts[1:])
    starts[::n_t] = True
    run = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    sums = np.zeros((4, first.size))
    for k in range(4):
        np.add.at(sums[k], run, weights[k])  # in index order: along the ray
    pixels = pixels_of.take(corner[first], axis=1)
    keys = (first // n_t) * n_pixels + pixels
    keep = (pixels >= 0) & (sums != 0.0)
    keys, sums = keys[keep], sums[keep]  # corner by corner
    order = np.argsort(keys, kind="stable")  # equal keys stay in corner order
    keys, sums = keys[order], sums[order]
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    group = np.cumsum(new) - 1
    keys = keys[new]
    merged = np.zeros(keys.size)
    np.add.at(merged, group, sums)
    return keys, merged


def _slab(p: np.ndarray, q: float, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Per entry of ``p``, the first and last t with lo <= p + q * t <= hi;
    the first exceeds the last where there is none."""
    if q == 0.0:
        inside = (lo <= p) & (p <= hi)
        return np.where(inside, -np.inf, np.inf), np.where(inside, np.inf, -np.inf)
    a, b = (lo - p) / q, (hi - p) / q
    return np.minimum(a, b), np.maximum(a, b)


def _reach(grid: Grid2D, s_block: np.ndarray, c: float, sn: float) -> tuple[float, float]:
    """The least and the greatest t at which a line s*omega + t*omega_perp
    of the block, omega = (c, sn), lies within one cell of the grid's
    extent; (inf, -inf) if none does. A line sample reaches a pixel only
    within half a cell of the extent."""
    x_first, x_last = _slab(s_block * c, -sn, grid.x_min - grid.hx, grid.x_max + grid.hx)
    y_first, y_last = _slab(s_block * sn, c, grid.y_min - grid.hy, grid.y_max + grid.hy)
    t_first = np.maximum(x_first, y_first)
    t_last = np.minimum(x_last, y_last)
    hit = t_first <= t_last
    return t_first.min(where=hit, initial=np.inf), t_last.max(where=hit, initial=-np.inf)


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
    pixels_of = corner_pixels(grid)

    data, indices, row_counts = [], [], []
    for theta in geom.angles_rad():
        c, sn = math.cos(theta), math.sin(theta)
        angle_data, angle_indices = [], []
        for first in range(0, geom.n_detectors, block_rays):
            s_block = s[first:first + block_rays]
            t_lo, t_hi = _reach(grid, s_block, c, sn)
            # sample i sits at t = (i + 0.5) * ds - t_half; a block whose rays
            # all miss the grid keeps one sample
            i0 = int(np.clip(np.floor((t_lo + t_half) / ds), 0, n_t - 1))
            i1 = int(np.clip(np.ceil((t_hi + t_half) / ds), i0 + 1, n_t))
            t_block = t[i0:i1]
            # line points s*omega + t*omega_perp, omega = (cos, sin)
            x = s_block[:, None] * c - t_block[None, :] * sn
            y = s_block[:, None] * sn + t_block[None, :] * c
            corner, weights = bilinear_stencil(grid, x, y)
            del x, y
            keys, sums = _merged_entries(corner, weights, pixels_of, n_pixels)
            del corner, weights
            rays = keys // n_pixels
            sums *= ds
            angle_data.append(sums)
            angle_indices.append((keys - rays * n_pixels).astype(np.int32))
            row_counts.append(np.bincount(rays, minlength=len(s_block)))
        # joined per angle: with every block's arrays kept to the end among
        # the freed temporaries, the heap held 14 MB more free space after a
        # head128_mass set-up and that workload's peak RSS read 5-8% higher
        data.append(np.concatenate(angle_data))
        indices.append(np.concatenate(angle_indices))
        del angle_data, angle_indices

    indptr = np.zeros(geom.n_angles * geom.n_detectors + 1, dtype=np.int64)
    np.cumsum(np.concatenate(row_counts), out=indptr[1:])
    data = np.concatenate(data)
    indices = np.concatenate(indices)
    # scipy stores indptr and indices as int32 where their values fit
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


def _fast_length(n: int) -> int:
    """The smallest integer >= n (n >= 1) whose prime factors are all at
    most 11, the length ``scipy.fft.next_fast_len`` picks for complex
    transforms."""
    m = n
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def fbp(sino: Sinogram, grid: Grid2D, freq_scaling: float) -> ScalarImage:
    """Filtered back projection: each projection is filtered with a ramp
    times a Hamming window cut off at freq_scaling times the detector
    Nyquist frequency, then back-projected with back_projection, whose
    scale hs * (pi / n_angles) / (hx * hy) approximates the continuum back
    projection over [0, 180) degrees."""
    geom = sino.geometry
    f_cut = check_freq_scaling(freq_scaling) * 0.5 / geom.hs
    n_pad = _fast_length(2 * geom.n_detectors)
    freqs = np.fft.rfftfreq(n_pad, d=geom.hs)
    window = np.where(
        freqs <= f_cut,
        0.54 + 0.46 * np.cos(np.pi * freqs / f_cut),
        0.0,
    )
    response = np.abs(freqs) * window

    spectra = np.fft.rfft(sino.values, n=n_pad, axis=1)
    filtered = np.fft.irfft(spectra * response[None, :], n=n_pad, axis=1)[:, :geom.n_detectors]
    return back_projection(Sinogram(geom, filtered), grid)
