import math

import numpy as np
import pytest
import scipy.signal

import tomoflow.metrics as metrics
from tomoflow import (
    Grid2D,
    GridMismatchError,
    PhantomKind,
    PhantomSpec,
    ScalarImage,
    Sinogram,
    make_parallel_geometry,
    make_phantom,
    measure_snr,
    psnr,
    ssim,
)


def checkerboard(grid):
    iy, ix = np.indices(grid.shape)
    return ScalarImage(grid, ((ix + iy) % 2).astype(float))


def window_2d():
    """The normalised 11x11 Gaussian window of sigma 1.5, built as a whole."""
    r = np.arange(11) - 5.0
    w = np.exp(-(r[:, None] ** 2 + r[None, :] ** 2) / (2.0 * 1.5**2))
    return w / w.sum()


def reference_ssim(a, b):
    """SSIM with the local means taken by ``scipy.signal.fftconvolve``."""
    x = a.values
    y = b.values
    w = window_2d()
    mu_x = scipy.signal.fftconvolve(x, w, mode="valid")
    mu_y = scipy.signal.fftconvolve(y, w, mode="valid")
    var_x = scipy.signal.fftconvolve(x * x, w, mode="valid") - mu_x * mu_x
    var_y = scipy.signal.fftconvolve(y * y, w, mode="valid") - mu_y * mu_y
    cov = scipy.signal.fftconvolve(x * y, w, mode="valid") - mu_x * mu_y
    return combine(mu_x, mu_y, var_x, var_y, cov)


def definition_ssim(a, b):
    """SSIM by its definition: every local statistic is the window-weighted
    sum over one 11x11 window that fits in the image."""
    x = a.values
    y = b.values
    w = window_2d()
    ny, nx = x.shape
    stats = np.empty((5, ny - 10, nx - 10))
    for i in range(ny - 10):
        for j in range(nx - 10):
            px = x[i:i + 11, j:j + 11]
            py = y[i:i + 11, j:j + 11]
            mu_x = np.sum(w * px)
            mu_y = np.sum(w * py)
            stats[:, i, j] = (mu_x, mu_y, np.sum(w * px * px) - mu_x * mu_x,
                              np.sum(w * py * py) - mu_y * mu_y, np.sum(w * px * py) - mu_x * mu_y)
    return combine(*stats)


def combine(mu_x, mu_y, var_x, var_y, cov):
    """The mean SSIM of the local statistics."""
    c1 = metrics._K1**2
    c2 = metrics._K2**2
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


@pytest.mark.parametrize("nx, ny", [(11, 11), (12, 17), (64, 64), (256, 256), (40, 27)])
def test_ssim_is_bit_identical_to_fftconvolve(nx, ny):
    """The direct filter agrees with the FFT convolution to rounding (at most
    4.4e-16 measured); the name predates the direct filter."""
    grid = Grid2D(nx, ny)
    rng = np.random.default_rng(nx * ny)
    a = ScalarImage(grid, rng.uniform(0, 1, grid.shape))
    b = ScalarImage(grid, a.values + 0.2 * rng.standard_normal(grid.shape))
    assert ssim(a, b) == pytest.approx(reference_ssim(a, b), rel=0, abs=1e-15)


@pytest.mark.parametrize("nx, ny", [(11, 11), (12, 17), (40, 27)])
@pytest.mark.parametrize("swap", [False, True], ids=["a_b", "b_a"])
def test_ssim_sums_the_window_over_every_valid_position(nx, ny, swap):
    grid = Grid2D(nx, ny)
    rng = np.random.default_rng(nx + ny)
    a = ScalarImage(grid, rng.uniform(0, 1, grid.shape))
    b = ScalarImage(grid, a.values + 0.2 * rng.standard_normal(grid.shape))
    if swap:
        a, b = b, a
    # at most 3.3e-16 measured
    assert ssim(a, b) == pytest.approx(definition_ssim(a, b), rel=0, abs=1e-15)


@pytest.mark.parametrize(
    "kinds, n",
    [
        ((PhantomKind.SINGLE_STAR_TEMPLATE, PhantomKind.SINGLE_STAR_TARGET), 64),
        ((PhantomKind.SHEPP_LOGAN, PhantomKind.SHEPP_LOGAN_WARPED), 256),
    ],
    ids=["star", "head"],
)
def test_ssim_of_phantoms_is_bit_identical_to_fftconvolve(kinds, n):
    grid = Grid2D(n, n)
    a, b = (make_phantom(PhantomSpec(kind, grid)) for kind in kinds)
    # the FFT's rounding, not the direct filter's, sets this bound: on the
    # star's zero background its local (co)variances are ~1e-17 instead of
    # 0, and SSIM divides them by C2 = 9e-4. Measured: star 2.0e-14 (the
    # direct filter is within 1e-16 of a long-double sum), head 3.1e-15
    assert ssim(a, b) == pytest.approx(reference_ssim(a, b), rel=0, abs=4e-14)


def test_ssim_self_is_one(grid32):
    rng = np.random.default_rng(0)
    f = ScalarImage(grid32, rng.uniform(0, 1, grid32.shape))
    assert ssim(f, f) == pytest.approx(1.0, abs=1e-12)


def test_ssim_anticorrelated_checkerboard(grid32):
    f = checkerboard(grid32)
    g = ScalarImage(grid32, 1.0 - f.values)
    assert ssim(f, g) < 0.2


def test_ssim_symmetry(grid32):
    rng = np.random.default_rng(1)
    a = ScalarImage(grid32, rng.uniform(0, 1, grid32.shape))
    b = ScalarImage(grid32, rng.uniform(0, 1, grid32.shape))
    assert abs(ssim(a, b) - ssim(b, a)) <= 1e-12


def test_ssim_affine_rescale_invariance(grid32, monkeypatch):
    rng = np.random.default_rng(2)
    a = ScalarImage(grid32, rng.uniform(0, 1, grid32.shape))
    b = ScalarImage(grid32, rng.uniform(0, 1, grid32.shape))
    base = ssim(a, b)
    a2 = ScalarImage(grid32, 3.0 * a.values)
    b2 = ScalarImage(grid32, 3.0 * b.values)
    # pure scaling with matching dynamic range: C1 = (K1 L)^2 and
    # C2 = (K2 L)^2 at L = 3 scale along, so the score is unchanged
    monkeypatch.setattr(metrics, "_K1", metrics._K1 * 3.0)
    monkeypatch.setattr(metrics, "_K2", metrics._K2 * 3.0)
    assert ssim(a2, b2) == pytest.approx(base, abs=1e-10)


def test_ssim_grid_mismatch(grid16, grid32):
    with pytest.raises(GridMismatchError):
        ssim(ScalarImage.zeros(grid16), ScalarImage.zeros(grid32))


def test_ssim_needs_window_sized_images():
    g = Grid2D(8, 8)
    with pytest.raises(ValueError):
        ssim(ScalarImage.zeros(g), ScalarImage.zeros(g))


def test_psnr_grid_mismatch(grid16, grid32):
    with pytest.raises(GridMismatchError, match="^psnr needs both images on one grid$"):
        psnr(ScalarImage.zeros(grid16), ScalarImage.zeros(grid32))


def test_psnr_uniform_difference(grid16):
    a = ScalarImage.full(grid16, 0.6)
    b = ScalarImage.full(grid16, 0.5)
    assert psnr(a, b) == pytest.approx(20.0, abs=1e-12)


def test_psnr_identical_is_infinite(grid16):
    a = ScalarImage.full(grid16, 0.3)
    assert psnr(a, a) == math.inf


def test_psnr_halving_error_gains_six_db(grid16):
    ref = ScalarImage.zeros(grid16)
    a = ScalarImage.full(grid16, 0.2)
    b = ScalarImage.full(grid16, 0.1)
    assert psnr(b, ref) - psnr(a, ref) == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)


def test_psnr_decreases_with_noise(grid32):
    rng = np.random.default_rng(3)
    ref = ScalarImage(grid32, rng.uniform(0, 1, grid32.shape))
    noise = rng.standard_normal(grid32.shape)
    values = [
        psnr(ScalarImage(grid32, ref.values + amp * noise), ref)
        for amp in (0.01, 0.05, 0.2)
    ]
    assert values[0] > values[1] > values[2]


@pytest.fixture
def geom16():
    return make_parallel_geometry(Grid2D(16, 16), 4, 16)


def test_measure_snr_ratio_one_is_zero_db(geom16):
    rng = np.random.default_rng(4)
    ideal = Sinogram(geom16, rng.standard_normal(geom16.shape))
    sig = ideal.values - ideal.values.mean()
    noise = rng.standard_normal(geom16.shape)
    noise -= noise.mean()
    noise *= np.sqrt(np.sum(sig**2) / np.sum(noise**2))
    noisy = Sinogram(geom16, ideal.values + noise)
    assert measure_snr(ideal, noisy) == pytest.approx(0.0, abs=1e-9)


def test_measure_snr_ten_db(geom16):
    rng = np.random.default_rng(5)
    ideal = Sinogram(geom16, rng.standard_normal(geom16.shape))
    sig = ideal.values - ideal.values.mean()
    noise = rng.standard_normal(geom16.shape)
    noise -= noise.mean()
    noise *= np.sqrt(np.sum(sig**2) / (10.0 * np.sum(noise**2)))
    noisy = Sinogram(geom16, ideal.values + noise)
    assert measure_snr(ideal, noisy) == pytest.approx(10.0, abs=1e-9)


def test_measure_snr_offset_invariance(geom16):
    rng = np.random.default_rng(6)
    ideal = Sinogram(geom16, rng.standard_normal(geom16.shape))
    noise = 0.3 * rng.standard_normal(geom16.shape)
    a = measure_snr(ideal, Sinogram(geom16, ideal.values + noise))
    b = measure_snr(ideal, Sinogram(geom16, ideal.values + noise + 5.0))
    assert a == pytest.approx(b, abs=1e-9)


def test_measure_snr_rejects_zero_noise(geom16):
    rng = np.random.default_rng(7)
    ideal = Sinogram(geom16, rng.standard_normal(geom16.shape))
    with pytest.raises(ValueError):
        measure_snr(ideal, ideal)


def test_measure_snr_rejects_two_geometries(geom16):
    other = make_parallel_geometry(Grid2D(16, 16), 5, 16)
    with pytest.raises(ValueError, match="^sinogram geometries differ$") as exc:
        measure_snr(Sinogram.zeros(geom16), Sinogram.zeros(other))
    assert exc.type is ValueError
