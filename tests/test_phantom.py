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
    MISSING_OBJECT_INDEX,
    SHEPP_LOGAN_ELLIPSES,
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


@pytest.mark.parametrize("kind", list(PhantomKind))
def test_phantom_determinism(kind):
    spec = PhantomSpec(kind, grid_of(64))
    a = make_phantom(spec)
    b = make_phantom(spec)
    np.testing.assert_array_equal(a.values, b.values)


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
