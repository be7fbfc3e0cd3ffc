import math

import numpy as np
import pytest
import scipy.signal

from tomoflow import Grid2D, GridMismatchError
import tomoflow.kernel as kernel
from tomoflow.kernel import _eigenpairs, _gram, make_kernel, smooth


def kernel_value(spec, x, y):
    """Scalar kernel factor k(x, y) = exp(-|x-y|^2 / (2 sigma^2))."""
    d2 = np.sum((np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)) ** 2, axis=-1)
    val = np.exp(-d2 / (2.0 * spec.sigma**2))
    return float(val) if val.ndim == 0 else val


def random_field(rng, grid):
    return np.stack((rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)))


def brute_force_smooth(grid, sigma, vf):
    """O(n^4) double sum of the untruncated kernel over all pixel pairs."""
    X, Y = grid.meshgrid()
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    K = np.exp(-d2 / (2.0 * sigma**2))
    return (
        (K @ vf[0].ravel()).reshape(grid.shape) * grid.cell_area,
        (K @ vf[1].ravel()).reshape(grid.shape) * grid.cell_area,
    )


def assert_matches_brute_force(grid, sigma, seed):
    vf = random_field(np.random.default_rng(seed), grid)
    out = smooth(make_kernel(grid, sigma), vf)
    for got, ref in zip(out, brute_force_smooth(grid, sigma, vf)):
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-12


def test_kernel_value_basics(grid16):
    spec = make_kernel(grid16, 2.0)
    assert kernel_value(spec, (0.0, 0.0), (0.0, 0.0)) == pytest.approx(1.0)
    d = 2.0 * math.sqrt(2.0 * math.log(2.0))
    assert kernel_value(spec, (0.0, 0.0), (d, 0.0)) == pytest.approx(0.5)
    # 5 sigma out: the untruncated Gaussian's tail
    assert kernel_value(spec, (0.0, 0.0), (10.0, 0.0)) == pytest.approx(math.exp(-12.5))


def test_kernel_rejects_bad_sigma(grid16):
    with pytest.raises(ValueError):
        make_kernel(grid16, 0.0)
    with pytest.raises(ValueError, match="sigma must be > 0 and finite, got inf"):
        make_kernel(grid16, math.inf)


def test_kernel_rejects_nan_sigma(grid16):
    with pytest.raises(ValueError, match="sigma must be > 0"):
        make_kernel(grid16, math.nan)


def test_smooth_zero_field(grid16):
    spec = make_kernel(grid16, 3.0)
    out = smooth(spec, np.zeros((2,) + grid16.shape))
    np.testing.assert_array_equal(out, 0.0)


def test_smooth_impulse_gives_kernel_profile(grid16):
    spec = make_kernel(grid16, 2.0)
    u = np.zeros((2,) + grid16.shape)
    u[0, 8, 8] = 1.0
    out = smooth(spec, u)
    X, Y = grid16.meshgrid()
    expected = kernel_value(spec, np.stack((X, Y), axis=-1), (X[8, 8], Y[8, 8])) * grid16.cell_area
    # the eigenbasis error is absolute: 1.3e-15 of the peak (4) measured,
    # while far-tail entries read +-2e-17 against 6e-28
    assert np.abs(out[0] - expected).max() <= 4e-15 * expected.max()
    np.testing.assert_array_equal(out[1], 0.0)


@pytest.mark.parametrize(
    "grid,sigma",
    [
        pytest.param(Grid2D(24, 24), 1.0, id="1.0"),
        pytest.param(Grid2D(24, 24), 3.0, id="3.0"),
        # hx = 0.5, hy = 13/27: swapping the two factors fails
        pytest.param(Grid2D(40, 27, -10.0, 10.0, -5.0, 8.0), 1.5, id="non_square"),
    ],
)
def test_smooth_matches_brute_force(grid, sigma):
    assert_matches_brute_force(grid, sigma, seed=11)


def test_kernel_wider_than_grid_matches_brute_force():
    # sigma 10 = 5 pixels of 2: the kernel reaches across the whole 16^2 grid
    assert_matches_brute_force(Grid2D(16, 16), 10.0, seed=14)


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
    for _ in range(10):
        u = random_field(rng, grid16)
        assert np.sum(smooth(spec, u) * u) >= 0.0


def test_smoothing_operator_is_positive_semidefinite(grid16):
    # the operator on one component, column by column from unit impulses
    spec = make_kernel(grid16, 4.0)
    n = grid16.nx * grid16.ny
    impulses = np.zeros((n, 2) + grid16.shape)
    impulses.reshape(n, 2, n)[np.arange(n), 0, np.arange(n)] = 1.0
    op = np.stack([smooth(spec, u)[0].ravel() for u in impulses], axis=1)
    # symmetric to rounding only: 8.9e-16 against a largest entry of 4 measured
    assert np.abs(op - op.T).max() <= 1e-15 * np.abs(op).max()
    eig = np.linalg.eigvalsh(op)
    assert eig.min() >= -1e-14 * eig.max()


@pytest.mark.parametrize(
    "grid,sigma",
    [
        (Grid2D(16, 16), 2.0),
        (Grid2D(16, 16), 4.0),  # the gradient tests' kernel
        (Grid2D(16, 16), 10.0),
        (Grid2D(64, 64), 6.0),  # the suite-1 kernel
        (Grid2D(40, 27, -10.0, 10.0, -5.0, 8.0), 1.5),
        (Grid2D(256, 256), 2.0),
    ],
    ids=["16_sigma2", "16_sigma4", "16_sigma10", "64_sigma6", "non_square", "256_sigma2"],
)
def test_gram_factors_are_symmetric_positive_semidefinite(grid, sigma):
    for n, h in ((grid.nx, grid.hx), (grid.ny, grid.hy)):
        gram = _gram(n, h, sigma)
        assert gram.shape == (n, n)
        np.testing.assert_array_equal(gram, gram.T)
        eig = np.linalg.eigvalsh(gram)
        assert eig.min() >= -1e-14 * eig.max()


def test_gram_factors_have_no_tiny_entries():
    # sigma 0.3 on 256^2 (h = 0.125): the Gaussian's tail falls past 1e-300
    grid = Grid2D(256, 256)
    limit = np.finfo(float).tiny / np.finfo(float).eps
    for gram in (_gram(grid.nx, grid.hx, 0.3), _gram(grid.ny, grid.hy, 0.3)):
        assert (gram == 0.0).any()
        assert not ((gram > 0.0) & (gram < limit)).any()


EIGENBASIS_KERNELS = [
    (Grid2D(16, 16), 2.0),
    (Grid2D(16, 16), 10.0),
    (Grid2D(64, 64), 6.0),
    (Grid2D(40, 27, -10.0, 10.0, -5.0, 8.0), 1.5),
    (Grid2D(256, 256), 1.0),
    (Grid2D(256, 256), 8.0),
    (Grid2D(256, 256), 0.3),  # full rank
]
EIGENBASIS_IDS = ["16_sigma2", "16_sigma10", "64_sigma6", "non_square", "256_sigma1", "256_sigma8", "256_sigma0.3"]


@pytest.mark.parametrize("grid,sigma", EIGENBASIS_KERNELS, ids=EIGENBASIS_IDS)
def test_kept_eigenpairs_rebuild_the_gram_factors(grid, sigma):
    # measured: at most 2.9e-14 of the largest entry (256^2, sigma 8)
    for n, h in ((grid.nx, grid.hx), (grid.ny, grid.hy)):
        gram = _gram(n, h, sigma)
        lam, basis = _eigenpairs(gram)
        assert basis.shape == (n, len(lam))
        assert np.abs((basis * lam) @ basis.T - gram).max() <= 1e-13 * gram.max()


@pytest.mark.parametrize(
    "size,sigma,rank",
    [(256, 1.0, 91), (256, 2.0, 49), (256, 2.5, 41), (256, 3.0, 35), (256, 4.0, 28), (256, 8.0, 18), (64, 6.0, 21)],
)
def test_suite_kernels_keep_their_measured_rank(size, sigma, rank):
    spec = make_kernel(Grid2D(size, size), sigma)
    assert spec.basis_x.shape == spec.basis_y.shape == (size, rank)
    assert spec.eig_xy.shape == (rank, rank)


@pytest.mark.parametrize(
    "grid,sigma,decompositions",
    [
        (Grid2D(64, 64), 6.0, 1),
        (Grid2D(256, 256), 2.0, 1),
        (Grid2D(32, 32, -8.0, 8.0, 0.0, 16.0), 2.0, 1),  # shifted, same factor
        (Grid2D(32, 32, -8.0, 8.0, -4.0, 4.0), 2.0, 2),  # hx = 0.5, hy = 0.25
        (Grid2D(40, 27, -10.0, 10.0, -5.0, 8.0), 1.5, 2),
    ],
    ids=["64_sigma6", "256_sigma2", "shifted", "hx_ne_hy", "non_square"],
)
def test_make_kernel_decomposes_each_distinct_factor_once(monkeypatch, grid, sigma, decompositions):
    lam_x, basis_x = _eigenpairs(_gram(grid.nx, grid.hx, sigma))
    lam_y, basis_y = _eigenpairs(_gram(grid.ny, grid.hy, sigma))
    calls = []
    monkeypatch.setattr(kernel, "_eigenpairs", lambda gram: calls.append(gram) or _eigenpairs(gram))
    spec = make_kernel(grid, sigma)
    assert len(calls) == decompositions
    np.testing.assert_array_equal(spec.basis_x, basis_x)
    np.testing.assert_array_equal(spec.basis_y, basis_y)
    np.testing.assert_array_equal(spec.eig_xy, np.outer(lam_y, lam_x))


def full_linear_reference(grid, sigma, comp):
    """Zero-extended 2-D linear convolution with the untruncated kernel
    sampled on every offset that joins two pixels, (2ny - 1, 2nx - 1)."""
    ox = np.arange(1 - grid.nx, grid.nx) * grid.hx
    oy = np.arange(1 - grid.ny, grid.ny) * grid.hy
    kern = np.exp(-(oy[:, None] ** 2 + ox[None, :] ** 2) / (2.0 * sigma * sigma)) * grid.cell_area
    return scipy.signal.fftconvolve(comp, kern, mode="same")


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


def test_smooth_grid_mismatch(grid16, grid32):
    spec = make_kernel(grid16, 2.0)
    with pytest.raises(GridMismatchError):
        smooth(spec, np.zeros((2,) + grid32.shape))
