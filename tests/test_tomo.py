import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.sparse

from conftest import gaussian_blob
from tomoflow import (
    Grid2D,
    PhantomKind,
    PhantomSpec,
    ScalarImage,
    Sinogram,
    SinogramGeometry,
    back_projection,
    fbp,
    make_parallel_geometry,
    make_phantom,
    ray_transform,
)
import tomoflow.tomo as tomo
from tomoflow.tomo import _system_matrix


def test_geometry_extent_covers_diagonal(grid64):
    geom = make_parallel_geometry(grid64, 10, 92)
    diag = np.hypot(32.0, 32.0)
    centers = geom.detector_centers()
    assert centers[0] == pytest.approx(-diag / 2)
    assert centers[-1] == pytest.approx(diag / 2)


def test_make_parallel_geometry_rejects_one_detector(grid32):
    with pytest.raises(ValueError, match="n_detectors must be an integer >= 2, got 1"):
        make_parallel_geometry(grid32, 4, 1)


@pytest.mark.parametrize("n_angles,n_detectors,field", [(2.5, 48, "n_angles"), (6.0, 48, "n_angles"),
                                                        (6, 48.0, "n_detectors")])
def test_geometry_rejects_non_integer_counts(grid32, n_angles, n_detectors, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        make_parallel_geometry(grid32, n_angles, n_detectors)
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        SinogramGeometry(n_angles, n_detectors, -20.0, 20.0)


@pytest.mark.parametrize("s_min,s_max", [(-math.inf, 1.0), (-1.0, math.inf), (-math.inf, math.inf),
                                         (math.nan, 1.0)])
def test_geometry_rejects_non_finite_extent(s_min, s_max):
    with pytest.raises(ValueError, match="finite"):
        SinogramGeometry(n_angles=4, n_detectors=8, s_min=s_min, s_max=s_max)


def test_sinogram_rejects_a_wrong_shape(grid32):
    geom = make_parallel_geometry(grid32, 6, 48)
    with pytest.raises(ValueError, match=r"^sinogram shape \(6, 47\) != geometry \(6, 48\)$") as exc:
        Sinogram(geom, np.zeros((6, 47)))
    assert exc.type is ValueError


def test_zero_image_zero_sinogram(grid32):
    geom = make_parallel_geometry(grid32, 6, 48)
    sino = ray_transform(ScalarImage.zeros(grid32), geom)
    np.testing.assert_array_equal(sino.values, 0.0)


def test_disk_projection_matches_chord_length():
    grid = Grid2D(128, 128)
    X, Y = grid.meshgrid()
    r = 8.0
    disk = ScalarImage(grid, (X**2 + Y**2 <= r * r).astype(float))
    geom = make_parallel_geometry(grid, 4, 128)
    sino = ray_transform(disk, geom)
    s = geom.detector_centers()
    inside = np.abs(s) < r
    chord = 2.0 * np.sqrt(r * r - s[inside] ** 2)
    err = np.abs(sino.values[:, inside] - chord[None, :]).max()
    assert err <= 2.0 * max(grid.hx, grid.hy)


def test_rotational_symmetry_across_angles():
    grid = Grid2D(64, 64)
    blob = gaussian_blob(grid, width=4.0)
    geom = make_parallel_geometry(grid, 8, 96)
    sino = ray_transform(blob, geom)
    spread = sino.values.max(axis=0) - sino.values.min(axis=0)
    assert spread.max() <= 5e-3 * sino.values.max()


def test_adjoint_identity(grid32):
    geom = make_parallel_geometry(grid32, 6, 48)
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = ScalarImage(grid32, rng.standard_normal(grid32.shape))
        g = Sinogram(geom, rng.standard_normal(geom.shape))
        tf_ = ray_transform(f, geom)
        tg = back_projection(g, grid32)
        lhs = geom.y_weight() * np.sum(tf_.values * g.values)
        rhs = grid32.cell_area * np.sum(f.values * tg.values)
        scale = np.sqrt(geom.y_weight() * np.sum(tf_.values**2)) * np.sqrt(
            geom.y_weight() * np.sum(g.values**2)
        )
        assert abs(lhs - rhs) / scale <= 1e-12


def test_linearity(grid32):
    geom = make_parallel_geometry(grid32, 5, 40)
    rng = np.random.default_rng(23)
    f = ScalarImage(grid32, rng.standard_normal(grid32.shape))
    h = ScalarImage(grid32, rng.standard_normal(grid32.shape))
    combo = ScalarImage(grid32, 1.5 * f.values - 2.0 * h.values)
    sino = ray_transform(combo, geom)
    ref = 1.5 * ray_transform(f, geom).values - 2.0 * ray_transform(h, geom).values
    np.testing.assert_allclose(sino.values, ref, atol=1e-10)


def test_single_ray_impulse_support(grid32):
    geom = make_parallel_geometry(grid32, 6, 48)
    vals = np.zeros(geom.shape)
    k, p = 0, 24  # angle 0 (omega = +x), detector offset near center
    vals[k, p] = 1.0
    img = back_projection(Sinogram(geom, vals), grid32)
    X, Y = grid32.meshgrid()
    s = geom.detector_centers()[p]
    # ray at angle 0 is the vertical line x = s; bilinear splat touches
    # pixels within one cell of it
    touched = img.values != 0.0
    assert touched.any()
    assert np.abs(X[touched] - s).max() <= grid32.hx


def test_back_projection_zero(grid32):
    geom = make_parallel_geometry(grid32, 6, 48)
    img = back_projection(Sinogram.zeros(geom), grid32)
    np.testing.assert_array_equal(img.values, 0.0)


def test_shift_consistency():
    grid = Grid2D(64, 64)
    blob = gaussian_blob(grid, width=3.0)
    shifted = gaussian_blob(grid, cx=grid.hx, width=3.0)
    geom = make_parallel_geometry(grid, 4, 128)
    row = ray_transform(blob, geom).values[0]          # angle 0, omega = (1, 0)
    row_shifted = ray_transform(shifted, geom).values[0]
    s = geom.detector_centers()
    expected = np.interp(s - grid.hx, s, row, left=0.0, right=0.0)
    assert np.abs(row_shifted - expected).max() <= 1e-2 * row.max()


def test_fbp_zero(grid32):
    geom = make_parallel_geometry(grid32, 6, 48)
    img = fbp(Sinogram.zeros(geom), grid32, 0.8)
    np.testing.assert_array_equal(img.values, 0.0)


def test_fbp_rejects_bad_scaling(grid32):
    geom = make_parallel_geometry(grid32, 6, 48)
    with pytest.raises(ValueError):
        fbp(Sinogram.zeros(geom), grid32, 0.0)
    with pytest.raises(ValueError):
        fbp(Sinogram.zeros(geom), grid32, 1.5)


def test_fbp_recovers_shepp_logan_with_dense_angles():
    grid = Grid2D(128, 128)
    phantom = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN, grid))
    geom = make_parallel_geometry(grid, 180, 362)
    rec = fbp(ray_transform(phantom, geom), grid, 0.8)
    rel = np.linalg.norm(rec.values - phantom.values) / np.linalg.norm(phantom.values)
    # the thin skull ring dominates the L2 error of any windowed FBP on
    # this phantom; skimage's iradon with a Hamming filter lands at 0.33
    assert rel <= 0.30


def test_fbp_disk_interior_mean():
    grid = Grid2D(128, 128)
    X, Y = grid.meshgrid()
    r = 8.0
    disk = ScalarImage(grid, (X**2 + Y**2 <= r * r).astype(float))
    geom = make_parallel_geometry(grid, 180, 185)
    rec = fbp(ray_transform(disk, geom), grid, 0.8)
    interior = rec.values[X**2 + Y**2 <= (0.7 * r) ** 2]
    assert abs(interior.mean() - 1.0) <= 0.05


def scipy_fbp_reference(sino, grid, freq_scaling):
    """The FBP filter written on ``scipy.fft``, then ``back_projection``."""
    geom = sino.geometry
    f_cut = freq_scaling * 0.5 / geom.hs
    n_pad = scipy.fft.next_fast_len(2 * geom.n_detectors)
    freqs = scipy.fft.rfftfreq(n_pad, d=geom.hs)
    window = np.where(freqs <= f_cut, 0.54 + 0.46 * np.cos(np.pi * freqs / f_cut), 0.0)
    response = np.abs(freqs) * window
    spectra = scipy.fft.rfft(sino.values, n=n_pad, axis=1)
    filtered = scipy.fft.irfft(spectra * response[None, :], n=n_pad, axis=1)[:, :geom.n_detectors]
    return back_projection(Sinogram(geom, filtered), grid)


@pytest.mark.parametrize("size,n_angles,n_detectors", [(64, 10, 92), (219, 6, 310), (128, 10, 362),
                                                       (256, 10, 362)])
def test_fbp_equals_the_scipy_fft_formula(size, n_angles, n_detectors):
    grid = Grid2D(size, size)
    geom = make_parallel_geometry(grid, n_angles, n_detectors)
    sino = Sinogram(geom, np.random.default_rng(size).standard_normal(geom.shape))
    for freq_scaling in (0.4, 0.8, 1.0):
        np.testing.assert_array_equal(fbp(sino, grid, freq_scaling).values,
                                      scipy_fbp_reference(sino, grid, freq_scaling).values)


def test_fast_length_is_scipy_next_fast_len():
    assert [tomo._fast_length(n) for n in range(1, 20000)] == [
        scipy.fft.next_fast_len(n) for n in range(1, 20000)
    ]


def line_samples(grid):
    """The step and the offsets along every ray: half the smaller pixel
    spacing, over the grid's half diagonal plus one pixel on each side."""
    ds = 0.5 * min(grid.hx, grid.hy)
    half = 0.5 * math.hypot(grid.x_max - grid.x_min, grid.y_max - grid.y_min)
    t_half = half + 1.0 * max(grid.hx, grid.hy)
    n_t = int(math.ceil(2.0 * t_half / ds))
    return ds, -t_half + (np.arange(n_t) + 0.5) * ds


def masked_corner_entries(grid, geom, theta):
    """The rays, pixels and bilinear weights of one angle's line samples,
    corner by corner in the order (0,0), (0,1), (1,0), (1,1), each corner
    masked to the grid: floors, weights and masks written out
    independently of ``grid``. Within a corner the entries run ray by ray,
    each ray's samples in order along it."""
    ds, t = line_samples(grid)
    s = geom.detector_centers()
    nx, ny = grid.nx, grid.ny
    c, sn = math.cos(theta), math.sin(theta)
    x = s[:, None] * c - t[None, :] * sn
    y = s[:, None] * sn + t[None, :] * c
    fx = (x - grid.x_min) / grid.hx - 0.5
    fy = (y - grid.y_min) / grid.hy - 0.5
    ix = np.floor(fx).astype(np.int64)
    iy = np.floor(fy).astype(np.int64)
    tx = fx - ix
    ty = fy - iy
    ray = np.broadcast_to(np.arange(geom.n_detectors)[:, None], x.shape)
    for dy_ in (0, 1):
        wy = ty if dy_ else 1.0 - ty
        jy = iy + dy_
        for dx_ in (0, 1):
            wx = tx if dx_ else 1.0 - tx
            jx = ix + dx_
            m = (jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny)
            yield ray[m], jy[m] * nx + jx[m], (wx * wy)[m]


def scipy_summed_reference(grid, geom):
    """The projector as scipy sums it: each angle's (ray, pixel, weight *
    ds) triplets, zero weights dropped, converted from COO to CSR, which
    sums a row's duplicates in the order of its sort; then the angles
    stacked."""
    ds = line_samples(grid)[0]
    blocks = []
    for theta in geom.angles_rad():
        rows, cols, data = [], [], []
        for ray, pixel, w in masked_corner_entries(grid, geom, theta):
            w = w * ds
            keep = w != 0.0
            rows.append(ray[keep])
            cols.append(pixel[keep])
            data.append(w[keep])
        blocks.append(scipy.sparse.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(geom.n_detectors, grid.ny * grid.nx),
        ).tocsr())
    return scipy.sparse.vstack(blocks, format="csr")


def masked_system_matrix_reference(grid, geom):
    """The projector summed in the order that ``tomo`` states: for each
    corner, a ray's weights on one pixel added along the ray (``np.add.at``
    adds in index order); then a pixel's corner sums added in corner order;
    then the total times the step ds. Rays are sampled at half the smaller
    pixel spacing."""
    ds = line_samples(grid)[0]
    n_pixels = grid.ny * grid.nx
    keys_all, data_all = [], []
    for k, theta in enumerate(geom.angles_rad()):
        corner_keys, corner_sums = [], []
        for ray, pixel, w in masked_corner_entries(grid, geom, theta):
            keys, inverse = np.unique((ray + k * geom.n_detectors) * n_pixels + pixel, return_inverse=True)
            sums = np.zeros(len(keys))
            np.add.at(sums, inverse, w)
            corner_keys.append(keys)
            corner_sums.append(sums)
        keys = np.unique(np.concatenate(corner_keys))
        total = np.zeros(len(keys))
        for ck, cs in zip(corner_keys, corner_sums):  # one entry per key and corner
            total[np.searchsorted(keys, ck)] += cs
        total *= ds
        keep = total != 0.0
        keys_all.append(keys[keep])
        data_all.append(total[keep])
    keys = np.concatenate(keys_all)
    # the keys are distinct, so scipy's conversion sums nothing
    return scipy.sparse.coo_matrix(
        (np.concatenate(data_all), (keys // n_pixels, (keys % n_pixels).astype(np.int32))),
        shape=(geom.n_angles * geom.n_detectors, n_pixels),
    ).tocsr()


MATRIX_CASES = pytest.mark.parametrize(
    "grid,n_angles,n_detectors",
    [
        (Grid2D(64, 64), 10, 92),
        (Grid2D(219, 219), 6, 310),
        (Grid2D(40, 27, -3.0, 5.0, -1.7, 2.3), 7, 50),  # hx = 0.2, hy = 4/27
    ],
    ids=["64", "219", "non_square"],
)


def assert_same_csr(got, ref):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@MATRIX_CASES
def test_system_matrix_matches_masked_reference(grid, n_angles, n_detectors):
    geom = make_parallel_geometry(grid, n_angles, n_detectors)
    assert_same_csr(_system_matrix(grid, geom), masked_system_matrix_reference(grid, geom))


@MATRIX_CASES
@pytest.mark.parametrize("block_rays", [1, 7])
def test_system_matrix_blocks_match_masked_reference(monkeypatch, grid, n_angles, n_detectors, block_rays):
    # a budget below one ray's samples still takes one ray per block; 7 rays
    # per block split every angle here unevenly
    assert block_rays == 1 or n_detectors % block_rays != 0
    n_t = len(line_samples(grid)[1])
    monkeypatch.setattr(tomo, "BLOCK_SAMPLES", 1 if block_rays == 1 else block_rays * n_t)
    geom = make_parallel_geometry(grid, n_angles, n_detectors)
    assert_same_csr(_system_matrix.__wrapped__(grid, geom), masked_system_matrix_reference(grid, geom))


def test_system_matrix_stores_no_zero_weights():
    # at angle 0 with detector centres on pixel centres every line sample
    # lies on a pixel column, so 960 on-grid corners carry weight exactly 0
    grid = Grid2D(16, 16)
    geom = SinogramGeometry(n_angles=1, n_detectors=16, s_min=grid.x_min, s_max=grid.x_max)
    got = _system_matrix(grid, geom)
    assert (got.data != 0).all()
    ref = masked_system_matrix_reference(grid, geom)
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))


def test_system_matrix_of_rays_that_all_miss_the_grid_is_empty():
    grid = Grid2D(16, 16)
    geom = SinogramGeometry(n_angles=3, n_detectors=8, s_min=40.0, s_max=48.0)
    got = _system_matrix(grid, geom)
    assert got.shape == (24, 256)
    assert got.nnz == 0
    np.testing.assert_array_equal(got.indptr, 0)


@pytest.mark.parametrize("size", [128, 256])
def test_system_matrix_matches_scipy_sums_to_rounding(size):
    # scipy's sort sums a row's duplicates in another order than the stated
    # one: the pattern is the same, about a sixth of the entries move, each
    # by at most 4.3e-16 of itself here (the bound is 4.5 float64 epsilons)
    grid = Grid2D(size, size)
    geom = make_parallel_geometry(grid, 10, 362)
    got = _system_matrix(grid, geom)
    ref = scipy_summed_reference(grid, geom)
    for name in ("indptr", "indices"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert got.data.dtype == ref.data.dtype
    assert (np.abs(got.data - ref.data) <= 1e-15 * ref.data).all()


def test_system_matrix_build_memory_is_bounded():
    # one block's line samples are held at a time, not every angle's
    # triplets, and each block is freed once copied into the final arrays,
    # so the build peak stays near twice the CSR's size (2.00 here)
    grid = Grid2D(128, 128)
    geom = make_parallel_geometry(grid, 10, 362)
    tracemalloc.start()
    try:
        mat = _system_matrix.__wrapped__(grid, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert peak <= 2.1 * size
