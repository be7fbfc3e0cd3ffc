import math
import warnings

import numpy as np
import pytest

from conftest import integrate
from tomoflow import Grid2D, GridMismatchError, ScalarImage
from tomoflow.grid import _x_difference, characteristics, divergence, gradient, sample_bilinear


def pull(grid, img, disp):
    return sample_bilinear(grid, img, characteristics(grid, disp))


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


@pytest.mark.parametrize("nx,ny,field", [(32.0, 32, "nx"), (32, 32.0, "ny"), ("32", 32, "nx")])
def test_grid_rejects_non_integer_sizes(nx, ny, field):
    with pytest.raises(ValueError, match=f"{field} must be"):
        Grid2D(nx, ny)


def test_grid_accepts_numpy_integer_sizes():
    assert Grid2D(np.int64(8), np.int32(4)).shape == (4, 8)


def test_grid_rejects_bad_extent():
    with pytest.raises(ValueError):
        Grid2D(4, 4, 1.0, -1.0)


@pytest.mark.parametrize("extent", [
    (-math.inf, 1.0, -1.0, 1.0),
    (-1.0, math.inf, -1.0, 1.0),
    (-1.0, 1.0, -math.inf, math.inf),
    (-1.0, 1.0, math.nan, 1.0),
])
def test_grid_rejects_non_finite_extent(extent):
    with pytest.raises(ValueError, match="finite"):
        Grid2D(4, 4, *extent)


def test_scalar_image_rejects_a_wrong_shape(grid16):
    with pytest.raises(ValueError, match=r"^field shape \(16, 15\) does not match grid \(16, 16\)$") as exc:
        ScalarImage(grid16, np.zeros((16, 15)))
    assert exc.type is ValueError


def test_sample_identity_displacement(grid32):
    rng = np.random.default_rng(0)
    img = rng.standard_normal(grid32.shape)
    out = pull(grid32, img, np.zeros((2,) + grid32.shape))
    np.testing.assert_array_equal(out, img)


def test_sample_constant_image_interior(grid32):
    img = np.full(grid32.shape, 1.0)
    rng = np.random.default_rng(1)
    # stay more than one pixel away from the extent so all four neighbours exist
    dx = rng.uniform(-0.4, 0.4, grid32.shape)
    dy = rng.uniform(-0.4, 0.4, grid32.shape)
    dx[0, :] = dx[-1, :] = dx[:, 0] = dx[:, -1] = 0.0
    dy[0, :] = dy[-1, :] = dy[:, 0] = dy[:, -1] = 0.0
    out = pull(grid32, img, np.stack((dx, dy)))
    np.testing.assert_allclose(out[1:-1, 1:-1], 1.0, atol=1e-14)


def test_sample_ramp_is_exact_at_interior_midpoints(grid32):
    X, _ = grid32.meshgrid()
    half = 0.5 * grid32.hx
    disp = np.stack((np.full(grid32.shape, half), np.zeros(grid32.shape)))
    out = pull(grid32, X.copy(), disp)
    # bilinear interpolation reproduces the linear ramp exactly off the last column
    np.testing.assert_allclose(out[:, :-1], X[:, :-1] + half, atol=1e-12)


def test_zero_extension_far_outside(grid16):
    img = np.full(grid16.shape, 7.0)
    far = np.full((2,) + grid16.shape, 40.0)  # way past the extent
    out = pull(grid16, img, far)
    np.testing.assert_array_equal(out, 0.0)


def masked_interp_reference(grid, values, fx, fy):
    """Masked bilinear gather at fractional pixel indices (fx, fy): off-grid
    corners are masked out one by one.

    Undefined (and warns) for non-finite indices.
    """
    ix = np.floor(fx).astype(np.intp)
    iy = np.floor(fy).astype(np.intp)
    tx = fx - ix
    ty = fy - iy

    nx, ny = grid.nx, grid.ny
    flat = values.ravel()
    out = np.zeros(np.broadcast(fx, fy).shape, dtype=np.float64)
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
# hx = 0.2, hy = 4/27: neither spacing is a power of two
NON_DYADIC = Grid2D(40, 27, -3.0, 5.0, -1.7, 2.3)


def _query_points(grid, case, rng):
    """Fractional pixel indices, one pair per pixel, of the given kind."""
    nx, ny = grid.nx, grid.ny
    shape = grid.shape
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
        fx, fy = np.resize(fx, shape), np.resize(fy, shape)  # the 81 pairs, repeated
    elif case == "far_outside":
        fx = rng.uniform(-1e6, 1e6, shape)
        fy = rng.uniform(-1e6, 1e6, shape)
        fx[::2] = rng.uniform(0, nx - 1, (shape[0] // 2, shape[1]))
    else:
        raise ValueError(case)
    return fx, fy


def _computed_index(grid, disp):
    """The fractional pixel indices i + disp / h of the feet, as computed."""
    return disp[0] / grid.hx + np.arange(grid.nx), disp[1] / grid.hy + np.arange(grid.ny)[:, None]


def _displacement_to(grid, fx, fy):
    """A displacement whose feet are at fractional indices (fx, fy), and
    those indices as computed."""
    disp = np.stack(((fx - np.arange(grid.nx)) * grid.hx, (fy - np.arange(grid.ny)[:, None]) * grid.hy))
    return (disp,) + _computed_index(grid, disp)


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
    disp, fx, fy = _displacement_to(grid, *_query_points(grid, case, rng))
    with np.errstate(invalid="ignore"):  # 0 * inf next to a non-finite border
        out = pull(grid, values, disp)
        ref = masked_interp_reference(grid, values, fx, fy)
    np.testing.assert_array_equal(out, ref)  # NaN == NaN here
    if case == "exact_indices":
        assert set(np.unique(fx)) >= {-1.0, 0.0, grid.nx - 1.0, float(grid.nx)}


def test_interp_matches_masked_reference_on_non_dyadic_grid():
    grid = NON_DYADIC
    rng = np.random.default_rng(25)
    values = rng.standard_normal(grid.shape)
    # up to three pixels each way: feet inside, across the edges and outside
    disp = rng.uniform(-3.0, 3.0, (2,) + grid.shape) * np.array([grid.hx, grid.hy])[:, None, None]
    fx, fy = _computed_index(grid, disp)
    assert (fx < -1).any() and (fx > grid.nx).any() and (fy < -1).any() and (fy > grid.ny).any()
    np.testing.assert_array_equal(pull(grid, values, disp), masked_interp_reference(grid, values, fx, fy))


@pytest.mark.parametrize("grid", [Grid2D(32, 32), NON_SQUARE], ids=["square", "non_square"])
def test_interp_non_finite_coordinates_sample_zero(grid):
    values = np.random.default_rng(22).standard_normal(grid.shape)
    bad = np.array([np.nan, np.inf, -np.inf])
    fx, fy = np.meshgrid(np.concatenate([bad, [0.0]]), np.concatenate([bad, [0.0]]))
    fx, fy = np.resize(fx, grid.shape), np.resize(fy, grid.shape)
    disp, fx, fy = _displacement_to(grid, fx, fy)
    finite = np.isfinite(fx) & np.isfinite(fy)
    assert finite.any() and not finite.all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = pull(grid, values, disp)
    np.testing.assert_array_equal(out[~finite], 0.0)
    np.testing.assert_array_equal(
        out[finite], masked_interp_reference(grid, values, fx[finite], fy[finite])
    )


def test_pulls_ignore_meshgrid_mutation(grid16):
    img = np.random.default_rng(23).standard_normal(grid16.shape)
    identity = np.zeros((2,) + grid16.shape)
    X, Y = grid16.meshgrid()  # before the first pull
    X0 = X.copy()
    X += 3.0
    np.testing.assert_array_equal(pull(grid16, img, identity), img)
    X2, Y2 = grid16.meshgrid()  # after
    assert not np.shares_memory(X, X2)
    X2 += 3.0
    Y2[:] = 0.0
    np.testing.assert_array_equal(pull(grid16, img, identity), img)
    X3, Y3 = grid16.meshgrid()
    np.testing.assert_array_equal(X3, X0)
    assert X3.flags.writeable and Y3.flags.writeable


def test_sample_grid_mismatch(grid16, grid32):
    img = np.zeros(grid16.shape)
    with pytest.raises(GridMismatchError):
        pull(grid32, img, np.zeros((2,) + grid32.shape))
    with pytest.raises(GridMismatchError):
        characteristics(grid16, np.zeros((2,) + grid32.shape))
    with pytest.raises(GridMismatchError):  # feet built on another grid
        sample_bilinear(grid16, img, characteristics(grid32, np.zeros((2,) + grid32.shape)))


def test_gradient_constant_is_zero(grid16):
    vf = gradient(grid16, np.full(grid16.shape, 3.0))
    assert vf.shape == (2,) + grid16.shape
    np.testing.assert_array_equal(vf, 0.0)


def test_gradient_ramp(grid16):
    X, _ = grid16.meshgrid()
    vf = gradient(grid16, X.copy())
    np.testing.assert_allclose(vf[0], 1.0, atol=1e-12)
    np.testing.assert_allclose(vf[1], 0.0, atol=1e-12)


def test_gradient_bilinear_product():
    g = Grid2D(8, 8)
    X, Y = g.meshgrid()
    vf = gradient(g, X * Y)
    np.testing.assert_allclose(vf[0, 1:-1, 1:-1], Y[1:-1, 1:-1], atol=1e-12)
    np.testing.assert_allclose(vf[1, 1:-1, 1:-1], X[1:-1, 1:-1], atol=1e-12)


def test_divergence_constant_field(grid16):
    vf = np.stack((np.full(grid16.shape, 2.0), np.full(grid16.shape, -1.0)))
    np.testing.assert_array_equal(divergence(grid16, vf), 0.0)


def test_divergence_linear_field(grid16):
    X, Y = grid16.meshgrid()
    div = divergence(grid16, np.stack((X, Y)))
    np.testing.assert_allclose(div[1:-1, 1:-1], 2.0, atol=1e-12)


def test_divergence_free_field_second_order():
    g = Grid2D(16, 16, -np.pi, np.pi, -np.pi, np.pi)
    X, Y = g.meshgrid()
    div = divergence(g, np.stack((np.sin(Y), np.cos(X))))
    # analytic divergence is identically zero; discrete error is O(h^2)
    assert np.abs(div[1:-1, 1:-1]).max() <= g.hx**2


DIFFERENCE_GRIDS = [
    Grid2D(2, 3),  # 2 pixels along x (no interior), 3 along y (one)
    Grid2D(3, 2, -1.0, 2.0, 0.0, 5.0),
    Grid2D(32, 32),
    Grid2D(40, 27, -10.0, 10.0, -5.0, 8.0),  # hx = 0.5, hy = 13/27
]
DIFFERENCE_IDS = ["2x3", "3x2", "square", "non_square"]
DIFFERENCE_VALUES = ["finite", "non_finite", "finite-transposed", "non_finite-transposed"]


def _difference_input(grid, values):
    f = np.random.default_rng(24).standard_normal(grid.shape)
    if values.startswith("non_finite"):
        f.flat[:: 7] = np.nan
        f.flat[3:: 11] = np.inf
        f.flat[5:: 13] = -np.inf
    return f


def _laid_out(a, values):
    """``a``, or for a "-transposed" input an equal array whose last two
    axes are swapped in memory, so it is not C-contiguous."""
    if not values.endswith("transposed"):
        return a
    t = np.swapaxes(np.ascontiguousarray(np.swapaxes(a, -1, -2)), -1, -2)
    assert not t.flags.c_contiguous
    return t


@pytest.mark.parametrize("values", DIFFERENCE_VALUES)
@pytest.mark.parametrize("grid", DIFFERENCE_GRIDS, ids=DIFFERENCE_IDS)
def test_gradient_matches_numpy_gradient(grid, values):
    f = _laid_out(_difference_input(grid, values), values)
    with np.errstate(invalid="ignore"):  # inf - inf
        ddy, ddx = np.gradient(f, grid.hy, grid.hx, edge_order=1)
        out = gradient(grid, f)
    assert out.shape == (2,) + grid.shape
    assert np.array_equal(out, np.stack((ddx, ddy)), equal_nan=True)


@pytest.mark.parametrize("values", DIFFERENCE_VALUES)
@pytest.mark.parametrize("grid", DIFFERENCE_GRIDS, ids=DIFFERENCE_IDS)
def test_divergence_matches_numpy_gradient(grid, values):
    v = np.stack((_difference_input(grid, values), -2.0 * _difference_input(grid, values)[::-1]))
    v = _laid_out(v, values)
    with np.errstate(invalid="ignore"):  # inf - inf
        ref = (np.gradient(v[0], grid.hx, axis=1, edge_order=1)
               + np.gradient(v[1], grid.hy, axis=0, edge_order=1))
        out = divergence(grid, v)
    assert np.array_equal(out, ref, equal_nan=True)


@pytest.mark.parametrize("before,after", [(1e308, -1e308), (np.inf, np.inf)], ids=["near_max", "inf"])
def test_differences_warn_only_where_numpy_gradient_does(before, after):
    # f[2, -2] and f[3, 0] meet only across the row boundary, where their
    # difference would overflow or be inf - inf; np.gradient never forms it,
    # so with warnings as errors neither may gradient or divergence
    grid = Grid2D(8, 6, 0.0, 8.0, 0.0, 6.0)
    rng = np.random.default_rng(26)
    f = rng.standard_normal(grid.shape)
    f[2, -2], f[3, 0] = before, after
    ddy, ddx = np.gradient(f, grid.hy, grid.hx, edge_order=1)
    assert np.array_equal(gradient(grid, f), np.stack((ddx, ddy)))
    v = np.stack((f, rng.standard_normal(grid.shape)))
    ref = np.gradient(v[0], grid.hx, axis=1, edge_order=1) + np.gradient(v[1], grid.hy, axis=0, edge_order=1)
    assert np.array_equal(divergence(grid, v), ref)


@pytest.mark.parametrize("grid", DIFFERENCE_GRIDS, ids=DIFFERENCE_IDS)
def test_x_difference_fills_a_non_contiguous_output(grid):
    f = _difference_input(grid, "finite")
    out = np.empty(grid.shape[::-1]).T
    assert not out.flags.c_contiguous
    _x_difference(f, grid.hx, out)
    assert np.array_equal(out, np.gradient(f, grid.hx, axis=1, edge_order=1))


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
