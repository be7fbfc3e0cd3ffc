import math

import numpy as np
import pytest
import scipy.fft

from tomoflow import Grid2D, GridMismatchError, VectorField2D, kernel_value, make_kernel, smooth


def brute_force_smooth(grid, sigma, spec, vf):
    """O(n^4) double-loop reference for the kernel convolution."""
    X, Y = grid.meshgrid()
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    K = np.exp(-d2 / (2.0 * sigma**2))
    K[d2 > spec.truncation_radius**2] = 0.0
    return (
        (K @ vf.vx.ravel()).reshape(grid.shape) * grid.cell_area,
        (K @ vf.vy.ravel()).reshape(grid.shape) * grid.cell_area,
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
    out = smooth(spec, VectorField2D.zeros(grid16))
    np.testing.assert_array_equal(out.vx, 0.0)
    np.testing.assert_array_equal(out.vy, 0.0)


def test_smooth_impulse_gives_kernel_profile(grid16):
    sigma = 2.0
    spec = make_kernel(grid16, sigma)
    vx = np.zeros(grid16.shape)
    vx[8, 8] = 1.0
    out = smooth(spec, VectorField2D(grid16, vx, np.zeros(grid16.shape)))
    X, Y = grid16.meshgrid()
    cx, cy = X[8, 8], Y[8, 8]
    d2 = (X - cx) ** 2 + (Y - cy) ** 2
    expected = np.exp(-d2 / (2 * sigma**2)) * grid16.cell_area
    expected[d2 > spec.truncation_radius**2] = 0.0
    np.testing.assert_allclose(out.vx, expected, atol=1e-12)
    np.testing.assert_array_equal(out.vy, 0.0)


@pytest.mark.parametrize("sigma", [1.0, 3.0])
def test_smooth_matches_brute_force(sigma):
    grid = Grid2D(24, 24)
    spec = make_kernel(grid, sigma)
    rng = np.random.default_rng(11)
    vf = VectorField2D(grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
    ref_x, ref_y = brute_force_smooth(grid, sigma, spec, vf)
    out = smooth(spec, vf)
    assert np.linalg.norm(out.vx - ref_x) / np.linalg.norm(ref_x) <= 1e-10
    assert np.linalg.norm(out.vy - ref_y) / np.linalg.norm(ref_y) <= 1e-10


def test_smooth_linearity(grid16):
    spec = make_kernel(grid16, 2.5)
    rng = np.random.default_rng(5)
    u = VectorField2D(grid16, rng.standard_normal(grid16.shape), rng.standard_normal(grid16.shape))
    v = VectorField2D(grid16, rng.standard_normal(grid16.shape), rng.standard_normal(grid16.shape))
    combo = VectorField2D(grid16, 2.0 * u.vx - 0.5 * v.vx, 2.0 * u.vy - 0.5 * v.vy)
    lhs = smooth(spec, combo)
    su, sv = smooth(spec, u), smooth(spec, v)
    np.testing.assert_allclose(lhs.vx, 2.0 * su.vx - 0.5 * sv.vx, atol=1e-12)
    np.testing.assert_allclose(lhs.vy, 2.0 * su.vy - 0.5 * sv.vy, atol=1e-12)


def test_smooth_symmetry(grid16):
    spec = make_kernel(grid16, 2.0)
    rng = np.random.default_rng(6)
    area = grid16.cell_area
    for _ in range(5):
        u = VectorField2D(grid16, rng.standard_normal(grid16.shape), rng.standard_normal(grid16.shape))
        v = VectorField2D(grid16, rng.standard_normal(grid16.shape), rng.standard_normal(grid16.shape))
        su, sv = smooth(spec, u), smooth(spec, v)
        lhs = area * np.sum(su.vx * v.vx + su.vy * v.vy)
        rhs = area * np.sum(u.vx * sv.vx + u.vy * sv.vy)
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) <= 1e-10


def test_smooth_positive_semidefinite(grid16):
    spec = make_kernel(grid16, 2.0)
    rng = np.random.default_rng(7)
    area = grid16.cell_area
    for _ in range(10):
        u = VectorField2D(grid16, rng.standard_normal(grid16.shape), rng.standard_normal(grid16.shape))
        su = smooth(spec, u)
        quad = area * np.sum(su.vx * u.vx + su.vy * u.vy)
        norm_sq = area * np.sum(u.vx**2 + u.vy**2)
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
    vf = VectorField2D(grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
    with scipy.fft.set_workers(workers):
        out = smooth(spec, vf)
        np.testing.assert_array_equal(out.vx, rfft2_reference(spec, vf.vx))
        np.testing.assert_array_equal(out.vy, rfft2_reference(spec, vf.vy))


def test_smooth_grid_mismatch(grid16, grid32):
    spec = make_kernel(grid16, 2.0)
    with pytest.raises(GridMismatchError):
        smooth(spec, VectorField2D.zeros(grid32))
