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
    assert res.final_velocity.shape == (6, 2) + grid.shape
    np.testing.assert_array_equal(res.final_velocity, 0.0)


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
    assert res.stop_detail == ""
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
    np.testing.assert_array_equal(res1.final_velocity, res2.final_velocity)
    np.testing.assert_array_equal(res1.trajectory[-1].values, res2.trajectory[-1].values)
    assert [v.total for v in res1.objective_history] == [v.total for v in res2.objective_history]


def fingerprint(a):
    """Sum, sum of squares and a cosine-weighted sum of every element."""
    w = np.cos(np.arange(a.size, dtype=np.float64)).reshape(a.shape)
    return [float(np.sum(a)), float(np.sum(a * a)), float(np.sum(w * a))]


# Recorded with the kernel smoothing done by the two Gram factors of the
# untruncated Gaussian. Reruns are bit-identical, so any drift is a
# changed answer.
ANCHOR = {
    GroupAction.GEOMETRIC: dict(
        final_E=17.08634455406912,
        nu=[17117.41627241949, 64143.84906477495, 0.13307332882869616],
        nu_points=[6.820500769815515, 1.6305721674233151, -0.14134719110994332],
        last=[70.13409126821804, 34.741674317151556, 1.1624007689806455],
        last_points=[0.6411379944715961, 0.2377188975052654],
    ),
    GroupAction.MASS_PRESERVING: dict(
        final_E=35.70571331637101,
        nu=[12710.97649362628, 46452.99188721965, -0.10637354364587698],
        nu_points=[8.69740676048108, 2.109520135069148, 2.2336248262869014],
        last=[96.71451376561942, 43.03548062781703, 0.7560507428272216],
        last_points=[0.7136460520115518, 0.29487539386615275],
    ),
}


@pytest.mark.parametrize("action", list(GroupAction))
def test_answers_match_recorded_anchor(problem32, action):
    grid, geom, template, _, data = problem32
    res = register(template, data, geom, small_cfg(max_iters=5, action=action))
    ref = ANCHOR[action]
    nu, last = res.final_velocity, res.trajectory[-1].values
    exact = dict(rel=1e-12, abs=1e-12)
    assert res.objective_history[-1].total == pytest.approx(ref["final_E"], **exact)
    assert fingerprint(nu) == pytest.approx(ref["nu"], **exact)
    assert [nu[2, 0, 16, 16], nu[5, 1, 10, 20], nu[0, 1, 20, 9]] == pytest.approx(ref["nu_points"], **exact)
    assert fingerprint(last) == pytest.approx(ref["last"], **exact)
    assert [last[16, 16], last[12, 20]] == pytest.approx(ref["last_points"], **exact)


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
    assert np.isfinite(res.final_velocity).all()  # last finite iterate is returned
    assert "time index" in res.stop_detail
    assert res.stop_detail.startswith(f"iteration {res.iterations_run}:")


def test_non_finite_geometric_jacobian_stops_at_that_iteration(problem32, monkeypatch):
    import tomoflow.flow as flow

    grid, geom, template, _, data = problem32
    cfg = small_cfg(max_iters=10)  # n_steps = 5: steps i = 4..0 per evaluation
    clean = register(template, data, geom, small_cfg(max_iters=1))
    real, calls = flow.jacobian_step, [0]

    def failing(*args):
        calls[0] += 1
        out = real(*args)
        if calls[0] == 2 * cfg.n_steps + 3:  # the third evaluation's step i = 2
            out[0, 0] = np.nan
        return out

    monkeypatch.setattr(flow, "jacobian_step", failing)
    res = register(template, data, geom, cfg)
    assert res.stop_reason is StopReason.NUMERICAL_FAILURE
    assert res.stop_detail == "iteration 2: Jacobian determinant became non-finite at time index 2"
    assert res.iterations_run == 2
    assert res.objective_history == clean.objective_history
    np.testing.assert_array_equal(res.final_velocity, clean.final_velocity)
    np.testing.assert_array_equal(np.asarray([f.values for f in res.trajectory]),
                                  np.asarray([f.values for f in clean.trajectory]))


def test_progress_callback_sees_every_iteration(problem32):
    grid, geom, template, _, data = problem32
    res = register(template, data, geom, small_cfg(max_iters=3))
    assert len(res.grad_norms) == len(res.objective_history) == 4
    assert all(gn > 0 for gn in res.grad_norms)


def test_mass_preserving_action_runs(problem32):
    grid, geom, template, _, data = problem32
    res = register(
        template, data, geom, small_cfg(action=GroupAction.MASS_PRESERVING, max_iters=5)
    )
    h = res.objective_history
    assert h[-1].total < h[0].total


@pytest.mark.parametrize(
    "field,value",
    [("gamma", -1.0), ("sigma", 0.0), ("alpha", 0.0), ("n_steps", 0), ("max_iters", 0), ("grad_tol", -1e-3),
     ("gamma", np.nan), ("sigma", np.nan), ("alpha", np.nan), ("grad_tol", np.nan)],
)
def test_config_validation(field, value):
    kw = dict(gamma=1e-7, sigma=2.0, alpha=0.02, n_steps=5, max_iters=10, grad_tol=0.0)
    kw[field] = value
    with pytest.raises(ValueError):
        RegistrationConfig(**kw)
