import warnings

import numpy as np
import pytest

from tomoflow import (
    DisplacementMap,
    Grid2D,
    GridMismatchError,
    ScalarImage,
    VectorField2D,
    divergence,
    gradient,
    integrate,
    sample_bilinear,
)
from tomoflow.grid import interp_values


def test_grid_geometry():
    g = Grid2D(64, 32, -16.0, 16.0, -8.0, 8.0)
    assert g.hx == pytest.approx(0.5)
    assert g.hy == pytest.approx(0.5)
    assert g.x_centers()[0] == pytest.approx(-16.0 + 0.25)
    assert g.x_centers()[-1] == pytest.approx(16.0 - 0.25)


@pytest.mark.parametrize("nx,ny", [(1, 4), (4, 1)])
def test_grid_rejects_tiny(nx, ny):
    with pytest.raises(ValueError):
        Grid2D(nx, ny)


def test_grid_rejects_bad_extent():
    with pytest.raises(ValueError):
        Grid2D(4, 4, 1.0, -1.0)


def test_sample_identity_displacement(grid32):
    rng = np.random.default_rng(0)
    img = ScalarImage(grid32, rng.standard_normal(grid32.shape))
    out = sample_bilinear(img, DisplacementMap.identity(grid32))
    np.testing.assert_array_equal(out.values, img.values)


def test_sample_constant_image_interior(grid32):
    img = ScalarImage.full(grid32, 1.0)
    rng = np.random.default_rng(1)
    # stay more than one pixel away from the extent so all four neighbours exist
    dx = rng.uniform(-0.4, 0.4, grid32.shape)
    dy = rng.uniform(-0.4, 0.4, grid32.shape)
    dx[0, :] = dx[-1, :] = dx[:, 0] = dx[:, -1] = 0.0
    dy[0, :] = dy[-1, :] = dy[:, 0] = dy[:, -1] = 0.0
    out = sample_bilinear(img, DisplacementMap(grid32, dx, dy))
    np.testing.assert_allclose(out.values[1:-1, 1:-1], 1.0, atol=1e-14)


def test_sample_ramp_is_exact_at_interior_midpoints(grid32):
    X, _ = grid32.meshgrid()
    img = ScalarImage(grid32, X.copy())
    half = 0.5 * grid32.hx
    disp = DisplacementMap(grid32, np.full(grid32.shape, half), np.zeros(grid32.shape))
    out = sample_bilinear(img, disp)
    # bilinear interpolation reproduces the linear ramp exactly off the last column
    np.testing.assert_allclose(out.values[:, :-1], X[:, :-1] + half, atol=1e-12)


def test_zero_extension_far_outside(grid16):
    img = ScalarImage.full(grid16, 7.0)
    far = np.full(grid16.shape, 40.0)  # way past the extent
    out = sample_bilinear(img, DisplacementMap(grid16, far, far))
    np.testing.assert_array_equal(out.values, 0.0)


def masked_interp_reference(grid, values, xq, yq):
    """Masked bilinear gather: off-grid corners are masked out one by one.

    Undefined (and warns) for non-finite coordinates.
    """
    fx = (xq - grid.x_min) / grid.hx - 0.5
    fy = (yq - grid.y_min) / grid.hy - 0.5
    ix = np.floor(fx).astype(np.intp)
    iy = np.floor(fy).astype(np.intp)
    tx = fx - ix
    ty = fy - iy

    nx, ny = grid.nx, grid.ny
    flat = values.ravel()
    out = np.zeros(np.broadcast(xq, yq).shape, dtype=np.float64)
    for dy_ in (0, 1):
        wy = ty if dy_ else 1.0 - ty
        jy = iy + dy_
        my = (jy >= 0) & (jy < ny)
        for dx_ in (0, 1):
            wx = tx if dx_ else 1.0 - tx
            jx = ix + dx_
            m = my & (jx >= 0) & (jx < nx)
            w = wx * wy
            idx = np.where(m, jy * nx + jx, 0)
            out += np.where(m, w * flat[idx], 0.0)
    return out


# hx = 0.5, hy = 0.25 and dyadic extents: fractional indices are exact
NON_SQUARE = Grid2D(40, 24, -10.0, 10.0, -3.0, 3.0)


def _at_fractional_index(grid, fx, fy):
    return grid.x_min + (fx + 0.5) * grid.hx, grid.y_min + (fy + 0.5) * grid.hy


def _query_points(grid, case, rng):
    nx, ny = grid.nx, grid.ny
    shape = (64, 48)
    if case == "in_range":
        fx, fy = rng.uniform(0, nx - 1, shape), rng.uniform(0, ny - 1, shape)
    elif case == "edges":
        # straddle each edge: one coordinate within a pixel and a half of it
        fx, fy = rng.uniform(0, nx - 1, shape), rng.uniform(0, ny - 1, shape)
        q = shape[0] // 4
        fx[:q] = rng.uniform(-1.5, 0.5, (q, shape[1]))
        fx[q:2 * q] = rng.uniform(nx - 1.5, nx + 0.5, (q, shape[1]))
        fy[2 * q:3 * q] = rng.uniform(-1.5, 0.5, (q, shape[1]))
        fy[3 * q:] = rng.uniform(ny - 1.5, ny + 0.5, (shape[0] - 3 * q, shape[1]))
    elif case == "exact_indices":
        fx, fy = np.meshgrid(
            np.array([-1.5, -1.0, -0.5, 0.0, 0.5, nx - 1.0, nx - 0.5, nx, nx + 0.5]),
            np.array([-1.5, -1.0, -0.5, 0.0, 0.5, ny - 1.0, ny - 0.5, ny, ny + 0.5]),
        )
    elif case == "far_outside":
        fx = rng.uniform(-1e6, 1e6, shape)
        fy = rng.uniform(-1e6, 1e6, shape)
        fx[::2] = rng.uniform(0, nx - 1, (shape[0] // 2, shape[1]))
    else:
        raise ValueError(case)
    return _at_fractional_index(grid, fx, fy)


@pytest.mark.parametrize("border", ["finite", "non_finite"])
@pytest.mark.parametrize("grid", [Grid2D(32, 32), NON_SQUARE], ids=["square", "non_square"])
@pytest.mark.parametrize("case", ["in_range", "edges", "exact_indices", "far_outside"])
def test_interp_matches_masked_reference(grid, case, border):
    rng = np.random.default_rng(21)
    values = rng.standard_normal(grid.shape)
    if border == "non_finite":
        # off-grid points must not pick these up, not even with weight 0
        values[0, :], values[-1, :] = np.nan, np.inf
        values[:, 0], values[:, -1] = -np.inf, np.nan
    xq, yq = _query_points(grid, case, rng)
    with np.errstate(invalid="ignore"):  # 0 * inf next to a non-finite border
        out = interp_values(grid, values, xq, yq)
        ref = masked_interp_reference(grid, values, xq, yq)
    np.testing.assert_array_equal(out, ref)  # NaN == NaN here
    if case == "exact_indices":
        fx = (xq - grid.x_min) / grid.hx - 0.5
        assert set(np.unique(fx)) >= {-1.0, 0.0, grid.nx - 1.0, float(grid.nx)}


@pytest.mark.parametrize("grid", [Grid2D(32, 32), NON_SQUARE], ids=["square", "non_square"])
def test_interp_non_finite_coordinates_sample_zero(grid):
    values = np.random.default_rng(22).standard_normal(grid.shape)
    bad = np.array([np.nan, np.inf, -np.inf])
    xq, yq = np.meshgrid(np.concatenate([bad, [0.0]]), np.concatenate([bad, [0.0]]))
    finite = np.isfinite(xq) & np.isfinite(yq)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = interp_values(grid, values, xq, yq)
    np.testing.assert_array_equal(out[~finite], 0.0)
    np.testing.assert_array_equal(
        out[finite], masked_interp_reference(grid, values, xq[finite], yq[finite])
    )


def test_cached_centers_ignore_meshgrid_mutation(grid16):
    img = ScalarImage(grid16, np.random.default_rng(23).standard_normal(grid16.shape))
    identity = DisplacementMap.identity(grid16)
    X, Y = grid16.meshgrid()  # before the first pull fills the cache
    X0 = X.copy()
    X += 3.0
    np.testing.assert_array_equal(sample_bilinear(img, identity).values, img.values)
    X2, Y2 = grid16.meshgrid()  # after
    assert not np.shares_memory(X, X2)
    X2 += 3.0
    Y2[:] = 0.0
    np.testing.assert_array_equal(sample_bilinear(img, identity).values, img.values)
    X3, Y3 = grid16.meshgrid()
    np.testing.assert_array_equal(X3, X0)
    assert X3.flags.writeable and Y3.flags.writeable


def test_sample_grid_mismatch(grid16, grid32):
    img = ScalarImage.zeros(grid16)
    with pytest.raises(GridMismatchError):
        sample_bilinear(img, DisplacementMap.identity(grid32))


def test_gradient_constant_is_zero(grid16):
    vf = gradient(ScalarImage.full(grid16, 3.0))
    np.testing.assert_array_equal(vf.vx, 0.0)
    np.testing.assert_array_equal(vf.vy, 0.0)


def test_gradient_ramp(grid16):
    X, _ = grid16.meshgrid()
    vf = gradient(ScalarImage(grid16, X.copy()))
    np.testing.assert_allclose(vf.vx, 1.0, atol=1e-12)
    np.testing.assert_allclose(vf.vy, 0.0, atol=1e-12)


def test_gradient_bilinear_product():
    g = Grid2D(8, 8)
    X, Y = g.meshgrid()
    vf = gradient(ScalarImage(g, X * Y))
    np.testing.assert_allclose(vf.vx[1:-1, 1:-1], Y[1:-1, 1:-1], atol=1e-12)
    np.testing.assert_allclose(vf.vy[1:-1, 1:-1], X[1:-1, 1:-1], atol=1e-12)


def test_divergence_constant_field(grid16):
    vf = VectorField2D(grid16, np.full(grid16.shape, 2.0), np.full(grid16.shape, -1.0))
    np.testing.assert_array_equal(divergence(vf).values, 0.0)


def test_divergence_linear_field(grid16):
    X, Y = grid16.meshgrid()
    div = divergence(VectorField2D(grid16, X.copy(), Y.copy()))
    np.testing.assert_allclose(div.values[1:-1, 1:-1], 2.0, atol=1e-12)


def test_divergence_free_field_second_order():
    g = Grid2D(16, 16, -np.pi, np.pi, -np.pi, np.pi)
    X, Y = g.meshgrid()
    div = divergence(VectorField2D(g, np.sin(Y), np.cos(X)))
    # analytic divergence is identically zero; discrete error is O(h^2)
    assert np.abs(div.values[1:-1, 1:-1]).max() <= g.hx**2


def test_integrate_constant():
    g = Grid2D(64, 64, -16.0, 16.0, -16.0, 16.0)
    assert integrate(ScalarImage.full(g, 1.0)) == pytest.approx(1024.0)
    assert integrate(ScalarImage.zeros(g)) == 0.0


def test_integrate_half_plane_indicator():
    g = Grid2D(32, 32, -16.0, 16.0, -16.0, 16.0)
    X, _ = g.meshgrid()
    ind = ScalarImage(g, (X < 0).astype(float))
    expected = np.count_nonzero(X < 0) * g.cell_area
    assert integrate(ind) == pytest.approx(expected)
    assert expected == pytest.approx(512.0)


def test_integrate_linearity(grid16):
    rng = np.random.default_rng(3)
    f = ScalarImage(grid16, rng.standard_normal(grid16.shape))
    h = ScalarImage(grid16, rng.standard_normal(grid16.shape))
    combo = ScalarImage(grid16, 2.0 * f.values + 3.0 * h.values)
    assert integrate(combo) == pytest.approx(2.0 * integrate(f) + 3.0 * integrate(h), rel=1e-12)
