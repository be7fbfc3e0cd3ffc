import math

import numpy as np
import pytest

from tomoflow import (
    Grid2D,
    ScalarImage,
    Sinogram,
    TVConfig,
    make_parallel_geometry,
    ray_transform,
    tv_reconstruct,
)
from tomoflow.tv import _difference_operator, operator_norm_estimate


def forward_grad_reference(f, hx, hy):
    """Forward differences by slicing, zero in the last column and row."""
    gx = np.zeros_like(f)
    gy = np.zeros_like(f)
    gx[:, :-1] = (f[:, 1:] - f[:, :-1]) / hx
    gy[:-1, :] = (f[1:, :] - f[:-1, :]) / hy
    return gx, gy


def tv_objective(f, data, mu):
    """Primal objective mu*TV(f) + |Tf - g|^2_Y."""
    gx, gy = forward_grad_reference(f.values, f.grid.hx, f.grid.hy)
    tv = float(np.sum(np.sqrt(gx * gx + gy * gy)) * f.grid.cell_area)
    resid = ray_transform(f, data.geometry).values - data.values
    return mu * tv + float(data.geometry.y_weight() * np.sum(resid * resid))


def test_gradient_adjoint_is_exact():
    # the adjoint is the matrix transpose by construction, so the
    # difference matrix itself is checked against the slicing formula
    g = Grid2D(24, 20, -4.0, 4.0, -3.0, 3.0)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.shape)
    q = rng.standard_normal((2,) + g.shape)
    diff = _difference_operator(g)
    gx, gy = forward_grad_reference(f, g.hx, g.hy)
    got = (diff @ f.ravel()).reshape(q.shape)
    scale = np.abs(f).max() / min(g.hx, g.hy)
    assert np.abs(got - np.stack([gx, gy])).max() <= 1e-14 * scale
    lhs = np.sum(gx * q[0] + gy * q[1])
    rhs = np.sum(f.ravel() * (diff.T @ q.ravel()))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_operator_norm_positive_and_start_invariant():
    grid = Grid2D(24, 24)
    geom = make_parallel_geometry(grid, 5, 36)
    l0 = operator_norm_estimate(geom, grid, seed=0)
    l1 = operator_norm_estimate(geom, grid, seed=99)
    assert l0 > 0 and np.isfinite(l0)
    assert abs(l0 - l1) / l0 <= 0.01


def test_pure_gradient_norm_bound():
    # power iteration on the discrete gradient alone: |grad| <= sqrt(8)/h
    g = Grid2D(32, 32, 0.0, 8.0, 0.0, 8.0)  # hx = hy = 0.25
    rng = np.random.default_rng(1)
    diff = _difference_operator(g)
    v = rng.standard_normal(g.shape).ravel()
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(100):
        w = diff.T @ (diff @ v)
        lam = np.linalg.norm(w)
        v = w / lam
    estimate = np.sqrt(lam)
    assert estimate <= np.sqrt(8.0) / g.hx * 1.01


def test_zero_sinogram_gives_zero_image():
    grid = Grid2D(24, 24)
    geom = make_parallel_geometry(grid, 5, 36)
    out = tv_reconstruct(Sinogram.zeros(geom), grid, TVConfig(mu=1.0, n_iters=50))
    np.testing.assert_array_equal(out.values, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        TVConfig(mu=0.0)
    with pytest.raises(ValueError):
        TVConfig(mu=1.0, n_iters=0)
    with pytest.raises(ValueError, match="mu must be > 0 and finite, got inf"):
        TVConfig(mu=math.inf)


@pytest.mark.parametrize("n_iters", [2.5, "3"])
def test_config_rejects_non_integer_n_iters(n_iters):
    with pytest.raises(ValueError, match="n_iters"):
        TVConfig(mu=1.0, n_iters=n_iters)


def test_config_accepts_numpy_integer_n_iters():
    assert TVConfig(mu=1.0, n_iters=np.int64(3)).n_iters == 3


def test_config_rejects_nan_mu():
    with pytest.raises(ValueError, match="mu must be > 0"):
        TVConfig(mu=float("nan"))


def disk_problem(n=64, r=8.0, n_angles=60):
    grid = Grid2D(n, n)
    X, Y = grid.meshgrid()
    disk = ScalarImage(grid, (X**2 + Y**2 <= r * r).astype(float))
    geom = make_parallel_geometry(grid, n_angles, n + n // 2)
    return grid, geom, disk, ray_transform(disk, geom)


def test_noise_free_disk_reconstruction():
    grid, geom, disk, data = disk_problem()
    rec = tv_reconstruct(data, grid, TVConfig(mu=0.05, n_iters=400))
    rel = np.linalg.norm(rec.values - disk.values) / np.linalg.norm(disk.values)
    assert rel <= 0.1


def test_objective_trends_down_after_burn_in():
    # primal-dual iterates oscillate around the descent path, so the
    # pointwise sequence is not monotone; window means are
    grid, geom, disk, data = disk_problem(n=32, n_angles=12)
    mu = 0.5
    vals = []
    for iters in range(50, 301, 10):
        rec = tv_reconstruct(data, grid, TVConfig(mu=mu, n_iters=iters))
        vals.append(tv_objective(rec, data, mu))
    burn_in_max = max(vals[:3])
    assert max(vals[3:]) <= burn_in_max
    third = len(vals) // 3
    w1, w2, w3 = (np.mean(vals[:third]), np.mean(vals[third:2 * third]), np.mean(vals[2 * third:]))
    assert w1 > w2 > w3


def test_positive_homogeneity():
    grid, geom, disk, data = disk_problem(n=24, n_angles=8)
    rec1 = tv_reconstruct(data, grid, TVConfig(mu=0.3, n_iters=80))
    doubled = Sinogram(geom, 2.0 * data.values)
    rec2 = tv_reconstruct(doubled, grid, TVConfig(mu=0.6, n_iters=80))
    scale = np.linalg.norm(rec1.values)
    assert np.linalg.norm(rec2.values - 2.0 * rec1.values) <= 1e-6 * scale
