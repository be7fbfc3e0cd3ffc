import math

import numpy as np
import pytest
import scipy.fft

from tomoflow import Grid2D, GridMismatchError, make_kernel, smooth


def kernel_value(spec, x, y):
    """Scalar kernel factor k(x, y) = exp(-|x-y|^2 / (2 sigma^2)), truncated."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d2 = np.sum((x - y) ** 2, axis=-1)
    val = np.exp(-d2 / (2.0 * spec.sigma**2))
    val = np.where(d2 > spec.truncation_radius**2, 0.0, val)
    return float(val) if val.ndim == 0 else val


def random_field(rng, grid):
    return np.stack((rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)))


def brute_force_smooth(grid, sigma, spec, vf):
    """O(n^4) double-loop reference for the kernel convolution."""
    X, Y = grid.meshgrid()
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    K = np.exp(-d2 / (2.0 * sigma**2))
    K[d2 > spec.truncation_radius**2] = 0.0
    return (
        (K @ vf[0].ravel()).reshape(grid.shape) * grid.cell_area,
        (K @ vf[1].ravel()).reshape(grid.shape) * grid.cell_area,
    )


def test_kernel_value_basics(grid16):
    spec = make_kernel(grid16, 2.0)
    assert kernel_value(spec, (0.0, 0.0), (0.0, 0.0)) == pytest.approx(1.0)
    d = 2.0 * math.sqrt(2.0 * math.log(2.0))
    assert kernel_value(spec, (0.0, 0.0), (d, 0.0)) == pytest.approx(0.5)
    assert kernel_value(spec, (0.0, 0.0), (10.0, 0.0)) == 0.0  # 5 sigma, beyond truncation


def test_kernel_rejects_bad_sigma(grid16):
    with pytest.raises(ValueError):
        make_kernel(grid16, 0.0)


def test_smooth_zero_field(grid16):
    spec = make_kernel(grid16, 3.0)
    out = smooth(spec, np.zeros((2,) + grid16.shape))
    np.testing.assert_array_equal(out, 0.0)


def test_smooth_impulse_gives_kernel_profile(grid16):
    sigma = 2.0
    spec = make_kernel(grid16, sigma)
    u = np.zeros((2,) + grid16.shape)
    u[0, 8, 8] = 1.0
    out = smooth(spec, u)
    X, Y = grid16.meshgrid()
    cx, cy = X[8, 8], Y[8, 8]
    d2 = (X - cx) ** 2 + (Y - cy) ** 2
    expected = np.exp(-d2 / (2 * sigma**2)) * grid16.cell_area
    expected[d2 > spec.truncation_radius**2] = 0.0
    np.testing.assert_allclose(out[0], expected, atol=1e-12)
    np.testing.assert_array_equal(out[1], 0.0)


@pytest.mark.parametrize("sigma", [1.0, 3.0])
def test_smooth_matches_brute_force(sigma):
    grid = Grid2D(24, 24)
    spec = make_kernel(grid, sigma)
    rng = np.random.default_rng(11)
    vf = random_field(rng, grid)
    ref_x, ref_y = brute_force_smooth(grid, sigma, spec, vf)
    out = smooth(spec, vf)
    assert np.linalg.norm(out[0] - ref_x) / np.linalg.norm(ref_x) <= 1e-10
    assert np.linalg.norm(out[1] - ref_y) / np.linalg.norm(ref_y) <= 1e-10


def test_smooth_linearity(grid16):
    spec = make_kernel(grid16, 2.5)
    rng = np.random.default_rng(5)
    u = random_field(rng, grid16)
    v = random_field(rng, grid16)
    lhs = smooth(spec, 2.0 * u - 0.5 * v)
    su, sv = smooth(spec, u), smooth(spec, v)
    np.testing.assert_allclose(lhs, 2.0 * su - 0.5 * sv, atol=1e-12)


def test_smooth_symmetry(grid16):
    spec = make_kernel(grid16, 2.0)
    rng = np.random.default_rng(6)
    area = grid16.cell_area
    for _ in range(5):
        u = random_field(rng, grid16)
        v = random_field(rng, grid16)
        su, sv = smooth(spec, u), smooth(spec, v)
        lhs = area * np.sum(su * v)
        rhs = area * np.sum(u * sv)
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) <= 1e-10


def test_smooth_positive_semidefinite(grid16):
    spec = make_kernel(grid16, 2.0)
    rng = np.random.default_rng(7)
    area = grid16.cell_area
    for _ in range(10):
        u = random_field(rng, grid16)
        su = smooth(spec, u)
        quad = area * np.sum(su * u)
        norm_sq = area * np.sum(u**2)
        assert quad >= -1e-12 * norm_sq


def rfft2_reference(spec, comp):
    """The zero-padded convolution as one 2-D real transform pair."""
    fld = scipy.fft.rfft2(comp, s=spec.fft_shape)
    full = scipy.fft.irfft2(fld * spec.freq_kernel, s=spec.fft_shape)
    return full[spec.support_y:spec.support_y + spec.grid.ny,
                spec.support_x:spec.support_x + spec.grid.nx]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "grid,sigma,support",
    [
        (Grid2D(64, 64), 6.0, (48, 48)),  # the star64 kernel: support wider than the image half
        (Grid2D(128, 128), 2.0, (32, 32)),
        (Grid2D(40, 27, -10.0, 10.0, -5.0, 8.0), 1.5, (12, 13)),  # hx = 0.5, hy = 13/27
    ],
    ids=["64_sigma6", "128_sigma2", "non_square"],
)
def test_smooth_matches_rfft2_reference(grid, sigma, support, workers):
    spec = make_kernel(grid, sigma)
    assert (spec.support_x, spec.support_y) == support
    rng = np.random.default_rng(12)
    vf = random_field(rng, grid)
    with scipy.fft.set_workers(workers):
        out = smooth(spec, vf)
        np.testing.assert_array_equal(out[0], rfft2_reference(spec, vf[0]))
        np.testing.assert_array_equal(out[1], rfft2_reference(spec, vf[1]))


def full_linear_reference(grid, sigma, comp):
    """The full n + 2r linear convolution with the unclipped kernel, as one
    rfft2/irfft2 pair (the transform size before the n + r rule)."""
    radius = 4.0 * sigma
    rx, ry = int(np.ceil(radius / grid.hx)), int(np.ceil(radius / grid.hy))
    ox = np.arange(-rx, rx + 1) * grid.hx
    oy = np.arange(-ry, ry + 1) * grid.hy
    d2 = oy[:, None] ** 2 + ox[None, :] ** 2
    kern = np.exp(-d2 / (2.0 * sigma * sigma))
    kern[d2 > radius * radius] = 0.0
    kern *= grid.cell_area
    s = (scipy.fft.next_fast_len(grid.ny + 2 * ry), scipy.fft.next_fast_len(grid.nx + 2 * rx))
    full = scipy.fft.irfft2(scipy.fft.rfft2(comp, s=s) * scipy.fft.rfft2(kern, s=s), s=s)
    return full[ry:ry + grid.ny, rx:rx + grid.nx]


@pytest.mark.parametrize(
    "grid,sigma",
    [
        (Grid2D(64, 64), 6.0),
        (Grid2D(128, 128), 2.0),
        (Grid2D(40, 27, -10.0, 10.0, -5.0, 8.0), 1.5),
    ],
    ids=["64_sigma6", "128_sigma2", "non_square"],
)
def test_smooth_matches_full_linear_convolution(grid, sigma):
    spec = make_kernel(grid, sigma)
    vf = random_field(np.random.default_rng(13), grid)
    out = smooth(spec, vf)
    for got, comp in zip(out, vf):
        ref = full_linear_reference(grid, sigma, comp)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_kernel_wider_than_grid_matches_brute_force():
    grid = Grid2D(16, 16)
    sigma = 10.0  # half-support 20 px > n - 1 = 15: clipped, and must not alias
    spec = make_kernel(grid, sigma)
    assert (spec.support_x, spec.support_y) == (15, 15)
    vf = random_field(np.random.default_rng(14), grid)
    ref_x, ref_y = brute_force_smooth(grid, sigma, spec, vf)
    out = smooth(spec, vf)
    assert np.linalg.norm(out[0] - ref_x) / np.linalg.norm(ref_x) <= 1e-10
    assert np.linalg.norm(out[1] - ref_y) / np.linalg.norm(ref_y) <= 1e-10


@pytest.mark.parametrize("n,sigma,size", [(64, 6.0, 112), (128, 2.0, 160), (256, 2.0, 320)])
def test_fft_size_is_n_plus_half_support(n, sigma, size):
    # 64^2 sigma 6 is the star64 kernel; n + 2r would give 160, 192 and 384
    assert make_kernel(Grid2D(n, n), sigma).fft_shape == (size, size)


def test_smooth_grid_mismatch(grid16, grid32):
    spec = make_kernel(grid16, 2.0)
    with pytest.raises(GridMismatchError):
        smooth(spec, np.zeros((2,) + grid32.shape))
