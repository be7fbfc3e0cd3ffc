import numpy as np
import pytest

from conftest import gaussian_blob
from tomoflow import (
    Grid2D,
    GroupAction,
    RegistrationConfig,
    StopReason,
    add_noise,
    make_parallel_geometry,
    ray_transform,
    register,
)
from tomoflow.phantom import NoiseSpec


@pytest.fixture
def problem32():
    grid = Grid2D(32, 32)
    geom = make_parallel_geometry(grid, 6, 48)
    template = gaussian_blob(grid, cx=-3.0, cy=-2.0, width=3.5)
    target = gaussian_blob(grid, cx=3.0, cy=2.0, width=3.5)
    data = ray_transform(target, geom)
    return grid, geom, template, target, data


def small_cfg(**kw):
    base = dict(gamma=1e-7, sigma=4.0, alpha=0.05, n_steps=5, max_iters=10)
    base.update(kw)
    return RegistrationConfig(**base)


def test_perfect_data_stops_immediately(problem32):
    grid, geom, template, _, _ = problem32
    data = ray_transform(template, geom)
    res = register(template, data, geom, small_cfg(gamma=0.5))
    assert res.stop_reason is StopReason.GRAD_TOL
    assert res.iterations_run == 0
    assert len(res.objective_history) == 1
    for f in res.final_velocity.fields:
        np.testing.assert_array_equal(f.vx, 0.0)
        np.testing.assert_array_equal(f.vy, 0.0)


def test_single_step_descends(problem32):
    grid, geom, template, _, data = problem32
    res = register(template, data, geom, small_cfg(max_iters=1))
    h = res.objective_history
    assert len(h) == 2
    assert h[1].total < h[0].total


def test_history_and_trajectory_shapes(problem32):
    grid, geom, template, _, data = problem32
    cfg = small_cfg(max_iters=4)
    res = register(template, data, geom, cfg)
    assert res.stop_reason is StopReason.MAX_ITERS
    assert res.iterations_run == 4
    assert len(res.objective_history) == 5
    assert len(res.trajectory) == cfg.n_steps + 1
    np.testing.assert_array_equal(res.trajectory[0].values, template.values)
    for v in res.objective_history:
        assert v.total == pytest.approx(v.penalty + v.discrepancy)


def test_bitwise_determinism(problem32):
    grid, geom, template, _, data = problem32
    noisy = add_noise(data, NoiseSpec(6.0, seed=3))
    cfg = small_cfg(max_iters=5)
    res1 = register(template, noisy, geom, cfg)
    res2 = register(template, noisy, geom, cfg)
    for f1, f2 in zip(res1.final_velocity.fields, res2.final_velocity.fields):
        np.testing.assert_array_equal(f1.vx, f2.vx)
        np.testing.assert_array_equal(f1.vy, f2.vy)
    np.testing.assert_array_equal(res1.trajectory[-1].values, res2.trajectory[-1].values)
    assert [v.total for v in res1.objective_history] == [v.total for v in res2.objective_history]


def test_monotone_descent_with_small_alpha(problem32):
    grid, geom, template, _, data = problem32
    res = register(template, data, geom, small_cfg(alpha=0.01, max_iters=15))
    totals = [v.total for v in res.objective_history]
    assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))


def test_numerical_failure_reports_partial_history(problem32):
    grid, geom, template, _, data = problem32
    res = register(template, data, geom, small_cfg(alpha=1e6, max_iters=10, n_steps=2))
    assert res.stop_reason is StopReason.NUMERICAL_FAILURE
    assert len(res.objective_history) >= 1
    for f in res.final_velocity.fields:  # last finite iterate is returned
        assert np.isfinite(f.vx).all() and np.isfinite(f.vy).all()


def test_progress_callback_sees_every_iteration(problem32):
    grid, geom, template, _, data = problem32
    rows = []
    register(
        template, data, geom, small_cfg(max_iters=3),
        progress=lambda k, val, gn: rows.append((k, val.total, gn)),
    )
    assert [r[0] for r in rows] == [0, 1, 2, 3]
    assert all(gn > 0 for _, _, gn in rows)


def test_mass_preserving_action_runs(problem32):
    grid, geom, template, _, data = problem32
    res = register(
        template, data, geom, small_cfg(action=GroupAction.MASS_PRESERVING, max_iters=5)
    )
    h = res.objective_history
    assert h[-1].total < h[0].total


@pytest.mark.parametrize(
    "field,value",
    [("gamma", -1.0), ("sigma", 0.0), ("alpha", 0.0), ("n_steps", 0), ("max_iters", 0), ("grad_tol", -1e-3)],
)
def test_config_validation(field, value):
    kw = dict(gamma=1e-7, sigma=2.0, alpha=0.02, n_steps=5, max_iters=10, grad_tol=0.0)
    kw[field] = value
    with pytest.raises(ValueError):
        RegistrationConfig(**kw)
