import math
import tracemalloc

import numpy as np
import pytest

from conftest import gaussian_blob, random_smooth_field
from tomoflow import (
    Grid2D,
    GroupAction,
    RegistrationConfig,
    ScalarImage,
    StopReason,
    add_noise,
    make_parallel_geometry,
    ray_transform,
    register,
)
from tomoflow.action import deform
from tomoflow.flow import build_flow_chain
from tomoflow.kernel import make_kernel
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


def test_register_rejects_data_of_another_geometry(problem32):
    grid, geom, template, _, data = problem32
    other = make_parallel_geometry(grid, 5, 48)
    with pytest.raises(ValueError, match="^sinogram geometry does not match the requested geometry$") as exc:
        register(template, data, other, small_cfg())
    assert exc.type is ValueError


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
# changed answer. The mass-preserving "last" entries were re-recorded when
# the trajectory became the deformed template, Jacobian factor included.
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
        last=[78.08232849732089, 37.15538978450824, 2.235274858040812],
        last_points=[0.47613324164172244, 0.29443322339639927],
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


@pytest.mark.parametrize("action", list(GroupAction))
def test_trajectory_ends_at_the_fitted_image(problem32, action):
    grid, geom, template, _, data = problem32
    res = register(template, data, geom, small_cfg(max_iters=3, action=action))
    fitted = deform(build_flow_chain(template, res.final_velocity, action))
    np.testing.assert_array_equal(res.trajectory[-1].values, fitted.values)


@pytest.mark.parametrize("action", list(GroupAction))
def test_action_given_by_value_runs_as_its_member(problem32, action):
    grid, geom, template, _, data = problem32
    by_value = small_cfg(max_iters=2, action=action.value)
    assert by_value.action is action
    a = register(template, data, geom, by_value)
    b = register(template, data, geom, small_cfg(max_iters=2, action=action))
    np.testing.assert_array_equal(a.final_velocity, b.final_velocity)
    np.testing.assert_array_equal(a.trajectory[-1].values, b.trajectory[-1].values)
    assert a.objective_history == b.objective_history
    assert a.grad_norms == b.grad_norms


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
    # the first step is too large: the step factor fails at iteration 1, and the
    # rebuilt trajectory is the clean run of 0 iterations, which a grad_tol that
    # every gradient meets stops at its first evaluation
    assert res.iterations_run == 1
    clean = register(template, data, geom, small_cfg(alpha=1e6, n_steps=2, grad_tol=1e300))
    assert clean.stop_reason is StopReason.GRAD_TOL and clean.iterations_run == 0
    assert res.objective_history == clean.objective_history
    np.testing.assert_array_equal(res.final_velocity, clean.final_velocity)
    np.testing.assert_array_equal(np.asarray([f.values for f in res.trajectory]),
                                  np.asarray([f.values for f in clean.trajectory]))


def assert_nan_jacobian_stops_at_iteration_2(problem32, monkeypatch, action, failing_call):
    """A NaN written into the failing_call-th Jacobian step stops the run at
    iteration 2, which returns the clean 1-iteration run bit for bit."""
    import tomoflow.flow as flow

    grid, geom, template, _, data = problem32
    cfg = small_cfg(action=action, max_iters=10)
    clean = register(template, data, geom, small_cfg(action=action, max_iters=1))
    real, calls = flow.jacobian_step, [0]

    def failing(*args):
        calls[0] += 1
        out = real(*args)
        if calls[0] == failing_call:
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


def test_non_finite_geometric_jacobian_stops_at_that_iteration(problem32, monkeypatch):
    # n_steps = 5: the backward sweep takes steps i = 4..0 per evaluation,
    # so call 2N + 3 is the third evaluation's step i = 2
    assert_nan_jacobian_stops_at_iteration_2(problem32, monkeypatch, GroupAction.GEOMETRIC, 2 * 5 + 3)


def test_non_finite_mass_preserving_jacobian_stops_at_that_iteration(problem32, monkeypatch):
    # n_steps = 5: the forward sweep takes steps i = 1..5 per evaluation,
    # so call 2N + 2 is the third evaluation's step i = 2, inside build_flow_chain
    assert_nan_jacobian_stops_at_iteration_2(problem32, monkeypatch, GroupAction.MASS_PRESERVING, 2 * 5 + 2)


# A run holds three coefficient arrays (the iterate, the last finite
# iterate and the gradient); an evaluation adds one dense velocity array,
# the forward chain (half of one) and the per-step temporaries of the
# streamed backward sweep. So the peak is A dense velocity arrays plus
# the three coefficient arrays. Measured A (tracemalloc, N = 20,
# geometric / mass-preserving): 32^2 sigma 4 1.910 / 1.883, 128^2
# sigma 2 1.871 / 1.847, 256^2 sigma 2 1.863 / 1.839; A is fitted to the
# largest with 2.6% headroom.
DENSE_ARRAYS_AT_PEAK = 1.96


def register_peak(template, data, geom, cfg):
    """tracemalloc's peak over one run, after a warm-up run that builds
    the projector and its caches; and the run's result."""
    register(template, data, geom, cfg)
    tracemalloc.start()
    try:
        res = register(template, data, geom, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.stop_reason is StopReason.MAX_ITERS
    return peak, res


def layout_bound(res, cfg):
    """DENSE_ARRAYS_AT_PEAK dense velocity arrays plus three coefficient arrays, in bytes."""
    coef_bytes = (cfg.n_steps + 1) * 2 * make_kernel(res.trajectory[0].grid, cfg.sigma).eig_xy.size * 8
    return DENSE_ARRAYS_AT_PEAK * res.final_velocity.nbytes + 3 * coef_bytes


@pytest.mark.parametrize("action", list(GroupAction))
def test_register_memory_is_bounded(problem32, action):
    # sigma 4 keeps 26 of 32 eigenpairs per axis, so the three coefficient
    # arrays weigh 1.98 velocity arrays here: the peak is 3.89 (geometric)
    # and 3.86 (mass-preserving) velocity arrays, against 3.34 when the
    # run held two dense velocity arrays and two chains per evaluation
    grid, geom, template, _, data = problem32
    cfg = small_cfg(action=action, n_steps=20, max_iters=3)
    peak, res = register_peak(template, data, geom, cfg)
    assert peak <= layout_bound(res, cfg)


@pytest.mark.parametrize("action", list(GroupAction))
def test_register_memory_is_bounded_at_low_rank(action):
    # 128^2 at sigma 2 keeps 49 of 128 eigenpairs per axis, so a coefficient
    # array is 0.15 of a velocity array: measured 2.31 (geometric) and 2.29
    # (mass-preserving) velocity arrays, 3.30 with dense iterates
    grid = Grid2D(128, 128)
    geom = make_parallel_geometry(grid, 6, 192)
    template = gaussian_blob(grid, cx=-3.0, cy=-2.0, width=3.5)
    data = ray_transform(gaussian_blob(grid, cx=3.0, cy=2.0, width=3.5), geom)
    cfg = small_cfg(sigma=2.0, action=action, n_steps=20, max_iters=3)
    peak, res = register_peak(template, data, geom, cfg)
    assert peak <= layout_bound(res, cfg)
    assert peak <= 2.4 * res.final_velocity.nbytes


def test_every_iteration_records_objective_and_grad_norm(problem32):
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
     ("gamma", np.nan), ("sigma", np.nan), ("alpha", np.nan), ("grad_tol", np.nan), ("action", "affine"),
     ("gamma", np.inf), ("sigma", np.inf), ("alpha", np.inf), ("grad_tol", np.inf)],
)
def test_config_validation(field, value):
    kw = dict(gamma=1e-7, sigma=2.0, alpha=0.02, n_steps=5, max_iters=10, grad_tol=0.0)
    kw[field] = value
    with pytest.raises(ValueError, match=field):
        RegistrationConfig(**kw)


@pytest.mark.parametrize("field,value", [("n_steps", 2.5), ("max_iters", 1.5), ("n_steps", "5")])
def test_config_rejects_non_integer_counts(field, value):
    kw = dict(gamma=1e-7, sigma=2.0, alpha=0.02, n_steps=5, max_iters=10)
    kw[field] = value
    with pytest.raises(ValueError, match=field):
        RegistrationConfig(**kw)


def test_config_accepts_numpy_integer_counts():
    cfg = RegistrationConfig(gamma=1e-7, sigma=2.0, alpha=0.02, n_steps=np.int64(5), max_iters=np.int64(5))
    assert cfg.n_steps == cfg.max_iters == 5


@pytest.mark.parametrize("action", list(GroupAction))
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_data_stops_at_iteration_0(problem32, action, bad):
    grid, geom, template, _, data = problem32
    data.values[2, 7] = bad
    res = register(template, data, geom, small_cfg(action=action))
    assert res.stop_reason is StopReason.NUMERICAL_FAILURE
    assert res.stop_detail == "iteration 0: objective or deformed template not finite"
    assert res.iterations_run == 0
    assert res.objective_history == res.grad_norms == []
    np.testing.assert_array_equal(res.final_velocity, 0.0)
    for img in res.trajectory:
        np.testing.assert_array_equal(img.values, template.values)


@pytest.mark.parametrize("action", list(GroupAction))
def test_non_finite_gradient_keeps_that_iterate(problem32, monkeypatch, action):
    import tomoflow.objective as objective

    grid, geom, template, _, data = problem32
    k, n = 2, 5
    clean = register(template, data, geom, small_cfg(action=action, max_iters=k))
    real, calls = objective.smooth, [0]

    def failing(*args):
        calls[0] += 1
        out = real(*args)
        if calls[0] == k * (n + 1) + 3:  # evaluation k's time sample 2
            out[0, 4, 4] = np.nan
        return out

    monkeypatch.setattr(objective, "smooth", failing)
    res = register(template, data, geom, small_cfg(action=action, n_steps=n, max_iters=10))
    assert res.stop_reason is StopReason.NUMERICAL_FAILURE
    assert res.stop_detail == f"iteration {k}: gradient norm not finite"
    assert res.iterations_run == k
    assert res.objective_history == clean.objective_history
    assert len(res.grad_norms) == len(res.objective_history) == k + 1
    assert res.grad_norms[:k] == clean.grad_norms[:k]
    assert np.isnan(res.grad_norms[-1])
    np.testing.assert_array_equal(res.final_velocity, clean.final_velocity)
    np.testing.assert_array_equal(res.trajectory[-1].values, clean.trajectory[-1].values)


@pytest.mark.parametrize("action", list(GroupAction))
def test_known_flow_is_recovered_stably_as_the_noise_falls(action):
    # the target is the template under a known time-constant flow nu* = K w
    # (at most 2 px), so it is reachable; measured on this problem
    # (relative error noise-free / 20 dB / 10 dB; template alone 0.248 and
    # 0.243): geometric E 31.4 -> 0.159, error 0.0252 / 0.0280 / 0.0502;
    # mass-preserving E 30.8 -> 0.224, error 0.0288 / 0.0331 / 0.0700
    grid = Grid2D(32, 32)
    geom = make_parallel_geometry(grid, 30, 46)
    template = ScalarImage(grid, gaussian_blob(grid, cx=-4.0, cy=-3.0, width=3.0).values
                           + gaussian_blob(grid, cx=4.0, cy=4.0, width=2.5, peak=0.7).values)
    n = 5
    nu_star = np.repeat(random_smooth_field(grid, seed=0, sigma=3.0, amplitude=2.0)[None], n + 1, axis=0)
    target = deform(build_flow_chain(template, nu_star, action)).values
    clean = ray_transform(ScalarImage(grid, target), geom)
    cfg = RegistrationConfig(gamma=1e-7, sigma=3.0, alpha=0.03, n_steps=n, max_iters=60, action=action)
    errors = []
    for snr_db in (math.inf, 20.0, 10.0):
        res = register(template, add_noise(clean, NoiseSpec(snr_db, seed=7)), geom, cfg)
        totals = [v.total for v in res.objective_history]
        assert res.stop_reason is StopReason.MAX_ITERS
        assert all(b <= a for a, b in zip(totals, totals[1:]))  # no E rise
        if snr_db == math.inf:
            assert totals[-1] <= 1e-2 * totals[0]
        errors.append(np.linalg.norm(res.trajectory[-1].values - target) / np.linalg.norm(target))
    assert errors[0] <= 0.04
    assert errors[0] < errors[1] < errors[2]
