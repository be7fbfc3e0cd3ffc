"""Analytic phantoms for the experiment suites, plus calibrated noise.

All phantoms are rasterized deterministically from fixed parameter
tables (ellipses for the head phantoms, polygon vertex lists for the
star scenes) in normalized coordinates, where the unit disk maps to the
largest circle inscribed in the grid extent. Grey values stay in [0, 1].

Head phantoms average 4x4 subsamples per pixel. Each ellipse is tested
only on the subsamples inside its axis-aligned bounding box, widened by
a relative 1e-9 so that no subsample passing the test can lie outside
it. A skipped subsample would only have added 0.0, so the image is
bit-identical to testing every ellipse on the whole fine grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid2D, ScalarImage, check_count
from .tomo import Sinogram


class PhantomKind(enum.Enum):
    SHEPP_LOGAN = "shepp-logan"
    SHEPP_LOGAN_MISSING = "shepp-logan-missing"
    SHEPP_LOGAN_EXTRA = "shepp-logan-extra"
    SHEPP_LOGAN_WARPED = "shepp-logan-warped"
    SINGLE_STAR_TEMPLATE = "single-star-template"
    SINGLE_STAR_TARGET = "single-star-target"
    SIX_STARS_TEMPLATE = "six-stars-template"
    SIX_STARS_TARGET = "six-stars-target"

    @classmethod
    def _missing_(cls, name):
        valid = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown phantom kind {name!r}; valid kinds: {valid}")


@dataclass(frozen=True)
class PhantomSpec:
    kind: PhantomKind
    grid: Grid2D

    def __post_init__(self):
        # a value such as "shepp-logan" becomes its member; unknown values raise ValueError
        object.__setattr__(self, "kind", PhantomKind(self.kind))


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian noise scaled to hit an exact SNR in dB.

    snr_db may be math.inf to request no noise; any other value must be
    in [-3000, 3000] dB, a power ratio of 1e-300 to 1e300, which float64
    holds. The draw comes from numpy's PCG64 generator, so a fixed seed
    reproduces the same bit stream on every platform.
    """

    snr_db: float
    seed: int = 0

    def __post_init__(self):
        if not (-3000.0 <= self.snr_db <= 3000.0 or self.snr_db == math.inf):
            raise ValueError(f"snr_db must be an SNR in [-3000, 3000] dB or inf, got {self.snr_db}")
        check_count("seed", self.seed, 0)


# (value, a, b, x0, y0, angle_deg), normalized coordinates.
# Composite grey levels: skull ring 1.0, brain tissue 0.2, the two dark
# ventricles 0.0, small features 0.3.
SHEPP_LOGAN_ELLIPSES: tuple[tuple[float, float, float, float, float, float], ...] = (
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.80, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.20, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.20, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.10, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.10, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.10, 0.0230, 0.0230, 0.00, -0.6050, 0.0),
    (0.10, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
)

# Index of the ellipse removed by the missing-object variant.
MISSING_OBJECT_INDEX = 4

# Bright blob added by the extra-object variant; its composite level is
# 1.0, so it changes the connected-component count at threshold 0.5.
EXTRA_OBJECT_ELLIPSE = (0.80, 0.1000, 0.1000, -0.30, -0.30, 0.0)

# Per-ellipse perturbations in the columns of SHEPP_LOGAN_ELLIPSES, grey
# value 0.0: the warped variant draws each ellipse plus WARP_AMPLITUDE
# times its row. Used as the registration template against the
# unperturbed phantom; the amplitude is calibrated so the
# sensitivity-sweep runs land in the reference score range.
WARP_AMPLITUDE = 0.25
SHEPP_LOGAN_WARP: tuple[tuple[float, float, float, float, float, float], ...] = (
    (0.0, 0.035, -0.045, 0.015, -0.020, 2.0),
    (0.0, 0.030, -0.040, 0.015, -0.020, 2.0),
    (0.0, 0.015, -0.030, 0.030, 0.040, 8.0),
    (0.0, -0.020, 0.030, -0.030, 0.030, -8.0),
    (0.0, 0.030, -0.030, 0.025, -0.040, 6.0),
    (0.0, 0.008, 0.008, 0.020, 0.025, 0.0),
    (0.0, 0.008, 0.008, -0.020, -0.025, 0.0),
    (0.0, 0.008, 0.004, -0.020, 0.015, 0.0),
    (0.0, 0.004, 0.004, 0.015, 0.020, 0.0),
    (0.0, 0.004, 0.008, 0.020, -0.015, 0.0),
)


def _normalized_axes(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center coordinates along x and along y, normalized."""
    cx = 0.5 * (grid.x_min + grid.x_max)
    cy = 0.5 * (grid.y_min + grid.y_max)
    scale = 0.5 * min(grid.x_max - grid.x_min, grid.y_max - grid.y_min)
    return (grid.x_centers() - cx) / scale, (grid.y_centers() - cy) / scale


ELLIPSE_SUPERSAMPLE = 4


def _rasterize_ellipses(grid: Grid2D, ellipses) -> ScalarImage:
    """Ellipse-membership rasterization with subpixel coverage averaging."""
    ss = ELLIPSE_SUPERSAMPLE
    fine = Grid2D(grid.nx * ss, grid.ny * ss, grid.x_min, grid.x_max, grid.y_min, grid.y_max)
    u, v = _normalized_axes(fine)
    img = np.zeros(fine.shape)
    for value, a, b, x0, y0, ang in ellipses:
        phi = math.radians(ang)
        c, s = math.cos(phi), math.sin(phi)
        half_u = (1.0 + 1e-9) * math.hypot(a * c, b * s)
        half_v = (1.0 + 1e-9) * math.hypot(a * s, b * c)
        cols = slice(*np.searchsorted(u, (x0 - half_u, x0 + half_u)))
        rows = slice(*np.searchsorted(v, (y0 - half_v, y0 + half_v)))
        du = u[cols] - x0
        dv = v[rows, None] - y0
        img[rows, cols] += value * (((du * c + dv * s) / a) ** 2 + ((dv * c - du * s) / b) ** 2 <= 1.0)
    img = np.clip(img, 0.0, 1.0)
    pooled = img.reshape(grid.ny, ss, grid.nx, ss).mean(axis=(1, 3))
    return ScalarImage(grid, pooled)


def _point_in_polygon(U: np.ndarray, V: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Even-odd rule membership test, vectorized over query points."""
    inside = np.zeros(U.shape, dtype=bool)
    n = len(verts)
    for k in range(n):
        x0, y0 = verts[k]
        x1, y1 = verts[(k + 1) % n]
        crosses = (y0 > V) != (y1 > V)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = x0 + (V - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (U < x_at)
    return inside


def star_vertices(
    center: tuple[float, float],
    r_outer: float,
    r_inner: float,
    n_points: int,
    rotation_deg: float,
) -> np.ndarray:
    """Vertex list of a star polygon, alternating outer and inner radii."""
    ang = np.radians(rotation_deg) + np.arange(2 * n_points) * (np.pi / n_points)
    rad = np.where(np.arange(2 * n_points) % 2 == 0, r_outer, r_inner)
    return np.stack([center[0] + rad * np.cos(ang), center[1] + rad * np.sin(ang)], axis=1)


# Star scenes in normalized coordinates:
# (center, r_outer, r_inner, n_points, rotation_deg)
# The single-star pair differs by a large smooth change (shift, shrink,
# rotation) so the initial data misfit sits well above the noise floor.
SINGLE_STAR_TEMPLATE_PARAMS = ((-0.16, -0.12), 0.55, 0.38, 6, 0.0)
SINGLE_STAR_TARGET_PARAMS = ((0.20, 0.16), 0.30, 0.17, 6, 30.0)

SIX_STARS_TEMPLATE_PARAMS = (
    ((-0.58, -0.34), 0.190, 0.125, 5, 0.0),
    ((0.02, -0.38), 0.165, 0.110, 6, 10.0),
    ((0.60, -0.30), 0.190, 0.120, 5, 25.0),
    ((-0.60, 0.32), 0.170, 0.115, 6, 5.0),
    ((-0.02, 0.38), 0.190, 0.120, 5, 15.0),
    ((0.58, 0.34), 0.165, 0.110, 6, 20.0),
)
SIX_STARS_TARGET_PARAMS = (
    ((-0.50, -0.28), 0.215, 0.115, 5, 20.0),
    ((0.08, -0.46), 0.185, 0.100, 6, 30.0),
    ((0.64, -0.38), 0.170, 0.125, 5, 5.0),
    ((-0.64, 0.40), 0.190, 0.105, 6, 25.0),
    ((0.06, 0.30), 0.170, 0.130, 5, 35.0),
    ((0.50, 0.42), 0.185, 0.100, 6, 0.0),
)


def rasterize_stars(grid: Grid2D, params) -> ScalarImage:
    U, V = np.meshgrid(*_normalized_axes(grid))
    img = np.zeros(grid.shape)
    for center, r_out, r_in, n_pts, rot in params:
        verts = star_vertices(center, r_out, r_in, n_pts, rot)
        img = np.maximum(img, _point_in_polygon(U, V, verts))
    return ScalarImage(grid, img)


# Each kind's rasterizer and the parameter table it draws.
_PHANTOMS = {
    PhantomKind.SHEPP_LOGAN: (_rasterize_ellipses, SHEPP_LOGAN_ELLIPSES),
    PhantomKind.SHEPP_LOGAN_MISSING: (
        _rasterize_ellipses,
        tuple(e for i, e in enumerate(SHEPP_LOGAN_ELLIPSES) if i != MISSING_OBJECT_INDEX),
    ),
    PhantomKind.SHEPP_LOGAN_EXTRA: (_rasterize_ellipses, SHEPP_LOGAN_ELLIPSES + (EXTRA_OBJECT_ELLIPSE,)),
    PhantomKind.SHEPP_LOGAN_WARPED: (_rasterize_ellipses, tuple(
        tuple(x + WARP_AMPLITUDE * d for x, d in zip(ellipse, warp))
        for ellipse, warp in zip(SHEPP_LOGAN_ELLIPSES, SHEPP_LOGAN_WARP))),
    PhantomKind.SINGLE_STAR_TEMPLATE: (rasterize_stars, (SINGLE_STAR_TEMPLATE_PARAMS,)),
    PhantomKind.SINGLE_STAR_TARGET: (rasterize_stars, (SINGLE_STAR_TARGET_PARAMS,)),
    PhantomKind.SIX_STARS_TEMPLATE: (rasterize_stars, SIX_STARS_TEMPLATE_PARAMS),
    PhantomKind.SIX_STARS_TARGET: (rasterize_stars, SIX_STARS_TARGET_PARAMS),
}


def make_phantom(spec: PhantomSpec) -> ScalarImage:
    rasterize, table = _PHANTOMS[spec.kind]
    return rasterize(spec.grid, table)


def add_noise(sino: Sinogram, spec: NoiseSpec) -> Sinogram:
    """Add white Gaussian noise scaled so the realized SNR equals the target.

    The SNR convention compares mean-subtracted energies of the clean
    sinogram and of the noise realization, so the scale is exact for the
    drawn sample rather than in expectation.
    """
    if spec.snr_db == math.inf:
        return Sinogram(sino.geometry, sino.values.copy())
    g = sino.values
    signal = float(np.sum((g - g.mean()) ** 2))
    if signal <= 0.0:
        raise ValueError("sinogram has zero variance; SNR is undefined")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    z = rng.standard_normal(g.shape)
    noise_energy = float(np.sum((z - z.mean()) ** 2))
    scale = math.sqrt(signal / (noise_energy * 10.0 ** (spec.snr_db / 10.0)))
    return Sinogram(sino.geometry, g + scale * z)
