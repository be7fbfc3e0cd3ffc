import math

import numpy as np
import pytest
import scipy.ndimage

from tomoflow import (
    Grid2D,
    NoiseSpec,
    PhantomKind,
    PhantomSpec,
    Sinogram,
    add_noise,
    make_parallel_geometry,
    make_phantom,
    measure_snr,
    ray_transform,
)
from tomoflow.phantom import (
    ELLIPSE_SUPERSAMPLE,
    EXTRA_OBJECT_ELLIPSE,
    MISSING_OBJECT_INDEX,
    SHEPP_LOGAN_ELLIPSES,
    SHEPP_LOGAN_WARP,
    WARP_AMPLITUDE,
    _rasterize_ellipses,
    rasterize_stars,
    SIX_STARS_TARGET_PARAMS,
)


def grid_of(n):
    return Grid2D(n, n)


def test_shepp_logan_sanity():
    img = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN, grid_of(256)))
    assert img.values.min() >= 0.0
    assert img.values.max() <= 1.0
    frac = np.count_nonzero(img.values) / img.values.size
    assert 0.05 < frac < 0.80


def test_phantom_kind_names():
    assert PhantomKind("shepp-logan") is PhantomKind.SHEPP_LOGAN
    with pytest.raises(ValueError, match="unknown phantom kind 'nonsense'; valid kinds: shepp-logan, "):
        PhantomKind("nonsense")


@pytest.mark.parametrize("kind", list(PhantomKind))
def test_phantom_kind_given_by_name_draws_its_member(kind):
    spec = PhantomSpec(kind.value, grid_of(32))
    assert spec.kind is kind
    by_member = make_phantom(PhantomSpec(kind, grid_of(32)))
    np.testing.assert_array_equal(make_phantom(spec).values, by_member.values)


def test_phantom_spec_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown phantom kind 'nonsense'; valid kinds: shepp-logan, "):
        PhantomSpec("nonsense", grid_of(32))


# Sum and cosine-weighted sum of each phantom on a 48x40 grid, recorded
# before the kinds were drawn from one table; reruns are bit-identical.
PHANTOM_FINGERPRINTS = {
    PhantomKind.SHEPP_LOGAN: [237.46874999999997, 0.3126244041545072],
    PhantomKind.SHEPP_LOGAN_MISSING: [229.54375, 0.41504556532784376],
    PhantomKind.SHEPP_LOGAN_EXTRA: [249.56874999999997, 0.5860091102309992],
    PhantomKind.SHEPP_LOGAN_WARPED: [237.76874999999995, -0.12094383312594115],
    PhantomKind.SINGLE_STAR_TEMPLATE: [302.0, 2.2294586901692126],
    PhantomKind.SINGLE_STAR_TARGET: [74.0, 1.164714794041254],
    PhantomKind.SIX_STARS_TEMPLATE: [171.0, -0.9591790306650024],
    PhantomKind.SIX_STARS_TARGET: [179.0, 0.5713469571137963],
}


@pytest.mark.parametrize("kind", list(PhantomKind))
def test_phantom_matches_recorded_fingerprint(kind):
    img = make_phantom(PhantomSpec(kind, Grid2D(48, 40))).values
    w = np.cos(np.arange(img.size, dtype=np.float64)).reshape(img.shape)
    assert [float(np.sum(img)), float(np.sum(w * img))] == PHANTOM_FINGERPRINTS[kind]


@pytest.mark.parametrize("kind", list(PhantomKind))
def test_phantom_determinism(kind):
    spec = PhantomSpec(kind, grid_of(64))
    a = make_phantom(spec)
    b = make_phantom(spec)
    np.testing.assert_array_equal(a.values, b.values)


def full_grid_ellipses_reference(grid, ellipses):
    """Every ellipse's membership test over the whole supersampled grid."""
    ss = ELLIPSE_SUPERSAMPLE
    fine = Grid2D(grid.nx * ss, grid.ny * ss, grid.x_min, grid.x_max, grid.y_min, grid.y_max)
    X, Y = fine.meshgrid()
    cx = 0.5 * (grid.x_min + grid.x_max)
    cy = 0.5 * (grid.y_min + grid.y_max)
    scale = 0.5 * min(grid.x_max - grid.x_min, grid.y_max - grid.y_min)
    U, V = (X - cx) / scale, (Y - cy) / scale
    img = np.zeros(fine.shape)
    for value, a, b, x0, y0, ang in ellipses:
        phi = math.radians(ang)
        c, s = math.cos(phi), math.sin(phi)
        du = U - x0
        dv = V - y0
        img += value * (((du * c + dv * s) / a) ** 2 + ((dv * c - du * s) / b) ** 2 <= 1.0)
    img = np.clip(img, 0.0, 1.0)
    return img.reshape(grid.ny, ss, grid.nx, ss).mean(axis=(1, 3))


ELLIPSE_TABLES = {
    PhantomKind.SHEPP_LOGAN: SHEPP_LOGAN_ELLIPSES,
    PhantomKind.SHEPP_LOGAN_MISSING: tuple(
        e for i, e in enumerate(SHEPP_LOGAN_ELLIPSES) if i != MISSING_OBJECT_INDEX
    ),
    PhantomKind.SHEPP_LOGAN_EXTRA: SHEPP_LOGAN_ELLIPSES + (EXTRA_OBJECT_ELLIPSE,),
    PhantomKind.SHEPP_LOGAN_WARPED: tuple(tuple(x + WARP_AMPLITUDE * d for x, d in zip(e, w))
                                          for e, w in zip(SHEPP_LOGAN_ELLIPSES, SHEPP_LOGAN_WARP)),
}

REFERENCE_GRIDS = {
    "64": Grid2D(64, 64),
    "256": Grid2D(256, 256),
    "non_square": Grid2D(40, 24, -10.0, 10.0, -3.0, 3.0),
    "non_dyadic": Grid2D(40, 27, -3.0, 5.0, -1.7, 2.3),
}


@pytest.mark.parametrize("grid", REFERENCE_GRIDS.values(), ids=REFERENCE_GRIDS.keys())
@pytest.mark.parametrize("kind", ELLIPSE_TABLES, ids=lambda k: k.value)
def test_ellipse_phantoms_match_full_grid_reference(kind, grid):
    got = make_phantom(PhantomSpec(kind, grid))
    np.testing.assert_array_equal(got.values, full_grid_ellipses_reference(grid, ELLIPSE_TABLES[kind]))


EDGE_CASE_TABLES = {
    # (value, a, b, x0, y0, angle_deg), normalized coordinates
    "straddles_edge": ((1.0, 0.5, 0.3, 0.9, -0.2, 30.0), (-0.5, 0.4, 0.4, -0.1, 0.95, 0.0)),
    "off_grid": ((1.0, 0.3, 0.2, 0.0, 0.0, 0.0), (0.7, 0.2, 0.1, 4.0, -5.0, 45.0)),
    "thin_rotated": ((1.0, 0.8, 0.004, 0.05, -0.1, 37.0), (0.6, 0.002, 0.5, -0.2, 0.1, -71.5)),
}


@pytest.mark.parametrize("grid", REFERENCE_GRIDS.values(), ids=REFERENCE_GRIDS.keys())
@pytest.mark.parametrize("table", EDGE_CASE_TABLES.values(), ids=EDGE_CASE_TABLES.keys())
def test_edge_case_ellipses_match_full_grid_reference(table, grid):
    got = _rasterize_ellipses(grid, table)
    np.testing.assert_array_equal(got.values, full_grid_ellipses_reference(grid, table))


@pytest.mark.parametrize("n", [64, 128, 256])
def test_missing_variant_confined_to_one_ellipse_bbox(n):
    # the rasterizer averages 4x4 subsamples over each pixel's footprint,
    # so a pixel changes only if its footprint meets the removed ellipse: the
    # contract is the ellipse's box dilated by exactly half a pixel
    g = grid_of(n)
    full = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN, g))
    missing = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN_MISSING, g))
    diff = full.values != missing.values
    assert diff.any()
    _, a, b, x0, y0, ang = SHEPP_LOGAN_ELLIPSES[MISSING_OBJECT_INDEX]
    X, Y = g.meshgrid()
    scale = 0.5 * (g.x_max - g.x_min)
    U, V = X / scale, Y / scale
    r = max(a, b) + 0.5 * g.hx / scale
    inside_footprint_box = (np.abs(U - x0) <= r + 1e-9) & (np.abs(V - y0) <= r + 1e-9)
    assert not (diff & ~inside_footprint_box).any()


def test_extra_variant_adds_bright_component_at_half_threshold():
    g = grid_of(128)
    full = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN, g))
    extra = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN_EXTRA, g))
    eight = np.ones((3, 3))
    n_full = scipy.ndimage.label(full.values > 0.5, structure=eight)[1]
    n_extra = scipy.ndimage.label(extra.values > 0.5, structure=eight)[1]
    assert n_extra == n_full + 1


def test_warped_variant_same_topology_different_pixels():
    g = grid_of(128)
    full = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN, g))
    warped = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN_WARPED, g))
    assert (full.values != warped.values).any()
    eight = np.ones((3, 3))
    assert (
        scipy.ndimage.label(full.values > 0.5, structure=eight)[1]
        == scipy.ndimage.label(warped.values > 0.5, structure=eight)[1]
    )


def test_resolution_consistency():
    big = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN, grid_of(512))).values
    small = make_phantom(PhantomSpec(PhantomKind.SHEPP_LOGAN, grid_of(256))).values
    pooled = big.reshape(256, 2, 256, 2).mean(axis=(1, 3))
    assert np.abs(pooled - small).mean() <= 0.02


def test_six_stars_has_six_components():
    img = make_phantom(PhantomSpec(PhantomKind.SIX_STARS_TARGET, grid_of(128)))
    n = scipy.ndimage.label(img.values > 0.5, structure=np.ones((3, 3)))[1]
    assert n == 6


def test_star_subsets_rasterize_independently():
    g = grid_of(128)
    five = rasterize_stars(g, SIX_STARS_TARGET_PARAMS[:5])
    n = scipy.ndimage.label(five.values > 0.5, structure=np.ones((3, 3)))[1]
    assert n == 5


def test_single_star_pair_differs():
    g = grid_of(64)
    tpl = make_phantom(PhantomSpec(PhantomKind.SINGLE_STAR_TEMPLATE, g))
    tgt = make_phantom(PhantomSpec(PhantomKind.SINGLE_STAR_TARGET, g))
    assert (tpl.values != tgt.values).any()
    assert tpl.values.max() == 1.0 and tgt.values.max() == 1.0


@pytest.fixture
def star_sinogram():
    g = grid_of(64)
    geom = make_parallel_geometry(g, 10, 92)
    img = make_phantom(PhantomSpec(PhantomKind.SINGLE_STAR_TARGET, g))
    return ray_transform(img, geom)


@pytest.mark.parametrize("target_db", [4.75, 4.87, 6.46, 7.06])
def test_noise_hits_requested_snr(star_sinogram, target_db):
    noisy = add_noise(star_sinogram, NoiseSpec(target_db, seed=5))
    assert measure_snr(star_sinogram, noisy) == pytest.approx(target_db, abs=0.01)


def test_infinite_snr_means_no_noise(star_sinogram):
    out = add_noise(star_sinogram, NoiseSpec(math.inf, seed=5))
    np.testing.assert_array_equal(out.values, star_sinogram.values)


@pytest.mark.parametrize("target_db", [math.nan, -math.inf, 4000.0, -4000.0])
def test_noise_spec_rejects_undefined_snr(target_db):
    with pytest.raises(ValueError, match="SNR"):
        NoiseSpec(target_db, seed=5)


@pytest.mark.parametrize("target_db", [-3000.0, 3000.0])
def test_noise_at_the_snr_limits_is_finite(star_sinogram, target_db):
    # 10**(snr_db / 10) is 1e-300 or 1e300, still a normal float64
    assert np.isfinite(add_noise(star_sinogram, NoiseSpec(target_db, seed=5)).values).all()


@pytest.mark.parametrize("seed", [1.5, None, "3"])
def test_noise_spec_rejects_non_integer_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        NoiseSpec(5.0, seed=seed)


def test_noise_spec_rejects_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got -1$"):
        NoiseSpec(5.0, seed=-1)


def test_noise_spec_accepts_numpy_integer_seed(star_sinogram):
    a = add_noise(star_sinogram, NoiseSpec(4.87, seed=np.int64(1)))
    np.testing.assert_array_equal(a.values, add_noise(star_sinogram, NoiseSpec(4.87, seed=1)).values)


def test_noise_seed_behaviour(star_sinogram):
    a = add_noise(star_sinogram, NoiseSpec(4.87, seed=1))
    b = add_noise(star_sinogram, NoiseSpec(4.87, seed=1))
    c = add_noise(star_sinogram, NoiseSpec(4.87, seed=2))
    np.testing.assert_array_equal(a.values, b.values)
    assert (a.values != c.values).any()
    assert measure_snr(star_sinogram, c) == pytest.approx(4.87, abs=0.01)


def test_noise_rejects_zero_variance():
    g = grid_of(32)
    geom = make_parallel_geometry(g, 4, 16)
    with pytest.raises(ValueError):
        add_noise(Sinogram.zeros(geom), NoiseSpec(5.0, seed=0))
