import dataclasses

import numpy as np
import pytest

from conftest import gaussian_blob, random_smooth_field
from tomoflow import Grid2D, GridMismatchError, GroupAction, ScalarImage
from tomoflow.flow import (
    FlowStabilityError,
    _check_step_factor,
    _step_factor,
    attach_backprop_field,
    build_flow_chain,
    jacobian_step,
)
from tomoflow.grid import characteristics, divergence, sample_bilinear


def step_feet(grid, v_i, n_steps, sign):
    """Feet of the small-displacement step Id + sign v_i/N."""
    return characteristics(grid, (sign / n_steps) * v_i)


def advance_transported_template(grid, prev, v_i, n_steps):
    """One forward pull: prev sampled at x - v_i(x)/N."""
    return sample_bilinear(grid, prev, step_feet(grid, v_i, n_steps, -1.0))


def backpropagate_field(grid, nxt, v_i, n_steps):
    """One backward pull: nxt sampled at x + v_i(x)/N."""
    return sample_bilinear(grid, nxt, step_feet(grid, v_i, n_steps, 1.0))


def jacobian_by_steps(grid, jac, v_i, n_steps, sign):
    return jacobian_step(grid, jac, v_i, step_feet(grid, v_i, n_steps, sign), n_steps, sign)


def both_chains(template, nu, action, grad_image):
    """The forward chain and the backward one: both sweeps run."""
    chain = build_flow_chain(template, nu, action)
    return chain.transported_template, attach_backprop_field(chain, grad_image)


def jacobian_carrier(grid, nu, action):
    """The chain that carries the action's Jacobian, built from an image
    of ones: the back-propagated field (geometric) or the transported
    template (mass-preserving). It is the Jacobian times the pulled ones."""
    ones = ScalarImage.full(grid, 1.0)
    transported, back = both_chains(ones, nu, action, ones)
    return back if action is GroupAction.GEOMETRIC else transported


def constant_field(grid, cx, cy):
    return np.stack((np.full(grid.shape, cx), np.full(grid.shape, cy)))


def rotation_field(grid, omega):
    X, Y = grid.meshgrid()
    return np.stack((-omega * Y, omega * X))


def dilation_field(grid):
    X, Y = grid.meshgrid()
    return np.stack((X, Y))  # div = 2


def time_constant(v, n_steps):
    return np.repeat(v[None], n_steps + 1, axis=0)


def zero_field(grid):
    return np.zeros((2,) + grid.shape)


def test_advance_zero_velocity_keeps_image(grid32):
    rng = np.random.default_rng(2)
    img = rng.standard_normal(grid32.shape)
    out = advance_transported_template(grid32, img, zero_field(grid32), 5)
    np.testing.assert_array_equal(out, img)


def test_advance_constant_template_interior(grid32):
    img = np.full(grid32.shape, 0.7)
    out = advance_transported_template(grid32, img, constant_field(grid32, 3.0, -1.0), 10)
    np.testing.assert_allclose(out[2:-2, 2:-2], 0.7, atol=1e-14)


def test_advance_translates_blob():
    grid = Grid2D(64, 64)
    blob = gaussian_blob(grid, width=3.0)
    v = constant_field(grid, 3.0, 2.0)
    n = 20
    img = blob.values
    for _ in range(n):
        img = advance_transported_template(grid, img, v, n)
    ref = gaussian_blob(grid, cx=3.0, cy=2.0, width=3.0)
    l2 = np.sqrt(np.sum((img - ref.values) ** 2) * grid.cell_area)
    assert l2 <= 0.5  # accumulated bilinear interpolation error (measured 0.36)


def test_jacobian_to_one_zero_velocity(grid16):
    ones = np.full(grid16.shape, 1.0)
    out = jacobian_by_steps(grid16, ones, zero_field(grid16), 8, +1.0)
    np.testing.assert_array_equal(out, 1.0)


def test_jacobian_to_one_single_dilation_step(grid16):
    n = 10
    out = jacobian_by_steps(grid16, np.full(grid16.shape, 1.0), dilation_field(grid16), n, +1.0)
    np.testing.assert_allclose(out[1:-1, 1:-1], 1.0 + 2.0 / n, atol=1e-12)


def test_jacobian_to_zero_single_dilation_step(grid16):
    n = 10
    out = jacobian_by_steps(grid16, np.full(grid16.shape, 1.0), dilation_field(grid16), n, -1.0)
    np.testing.assert_allclose(out[1:-1, 1:-1], 1.0 - 2.0 / n, atol=1e-12)


@pytest.mark.parametrize("builder", ["to_one", "to_zero"])
def test_jacobian_rotation_stays_near_one(builder):
    grid = Grid2D(64, 64)
    v = rotation_field(grid, 0.3)
    n = 20
    nu = time_constant(v, n)
    action = GroupAction.GEOMETRIC if builder == "to_one" else GroupAction.MASS_PRESERVING
    jac = jacobian_carrier(grid, nu, action)
    # volume-preserving flow: determinant 1 up to O(1/N); stay away from
    # the boundary band that zero extension contaminates (in the core the
    # pulled ones are 1 up to rounding)
    X, Y = grid.meshgrid()
    core = X**2 + Y**2 <= 8.0**2
    for i in (0, n // 2, n):
        assert np.abs(jac[i][core] - 1.0).max() <= 5.0 / n


def test_backpropagate_zero_and_constant(grid16):
    rng = np.random.default_rng(8)
    img = rng.standard_normal(grid16.shape)
    out = backpropagate_field(grid16, img, zero_field(grid16), 6)
    np.testing.assert_array_equal(out, img)
    const = np.full(grid16.shape, 2.5)
    out = backpropagate_field(grid16, const, constant_field(grid16, 1.0, 1.0), 4)
    np.testing.assert_allclose(out[1:-1, 1:-1], 2.5, atol=1e-14)


def test_backpropagate_shifts_ramp(grid32):
    X, _ = grid32.meshgrid()
    n = 5
    out = backpropagate_field(grid32, X.copy(), constant_field(grid32, 2.0, 0.0), n)
    # sampling at x + 2/n: the ramp value increases by 2/n (interior)
    np.testing.assert_allclose(out[1:-1, 1:-2], X[1:-1, 1:-2] + 2.0 / n, atol=1e-12)


def test_backward_sweep_returns_its_chain_and_leaves_the_flow_chain_as_built(grid16):
    nu = np.zeros((4, 2) + grid16.shape)
    chain = build_flow_chain(ScalarImage.full(grid16, 2.0), nu, GroupAction.GEOMETRIC)
    back = attach_backprop_field(chain, ScalarImage.full(grid16, 3.0))
    np.testing.assert_array_equal(back, np.full((4,) + grid16.shape, 3.0))
    assert [f.name for f in dataclasses.fields(chain)] == ["grid", "action", "nu", "transported_template"]
    assert chain.nu is nu  # held, not copied
    with pytest.raises(dataclasses.FrozenInstanceError):
        chain.transported_template = back


def test_zero_field_gives_identity_chain(grid32):
    rng = np.random.default_rng(9)
    template = ScalarImage(grid32, rng.standard_normal(grid32.shape))
    nu = np.zeros((7, 2) + grid32.shape)
    transported, back = both_chains(template, nu, GroupAction.GEOMETRIC, ScalarImage.full(grid32, 1.0))
    for img in transported:
        np.testing.assert_array_equal(img, template.values)
    np.testing.assert_array_equal(back, 1.0)  # the Jacobian to time 1
    chain_mp = build_flow_chain(template, nu, GroupAction.MASS_PRESERVING)
    np.testing.assert_array_equal(chain_mp.transported_template, transported)


def test_chain_boundary_values():
    grid = Grid2D(32, 32)
    rng = np.random.default_rng(10)
    template = ScalarImage(grid, rng.standard_normal(grid.shape))
    v = rotation_field(grid, 0.3)
    nu = time_constant(v, 8)
    transported, back = both_chains(template, nu, GroupAction.GEOMETRIC, ScalarImage.full(grid, 1.0))
    np.testing.assert_array_equal(transported[0], template.values)
    np.testing.assert_array_equal(back[-1], 1.0)  # the Jacobian to time 1 at N
    chain_mp = build_flow_chain(ScalarImage.full(grid, 1.0), nu, GroupAction.MASS_PRESERVING)
    np.testing.assert_array_equal(chain_mp.transported_template[0], 1.0)  # the Jacobian to time 0 at 0


def test_composition_consistency_improves_with_n():
    grid = Grid2D(64, 64)
    blob = gaussian_blob(grid, cx=4.0, width=2.5)
    v = rotation_field(grid, 0.8)

    def transport(n):
        img = blob.values
        for _ in range(n):
            img = advance_transported_template(grid, img, v, n)
        return img

    # halving the step must shrink the one-pass vs two-half-passes gap
    diffs = []
    for n in (8, 16, 32):
        full = transport(n)
        half = blob.values
        for _ in range(n):  # same flow; 2x the steps of the n-step chain
            half = advance_transported_template(grid, half, v, n)
        d = np.abs(transport(n) - transport(2 * n)).max()
        diffs.append(d)
    assert diffs[0] > diffs[1] > diffs[2]
    # first-order self-convergence: roughly halves per doubling
    assert diffs[0] / diffs[1] >= 1.6
    assert diffs[1] / diffs[2] >= 1.6


def test_inverse_consistency_second_order():
    grid = Grid2D(64, 64)
    v = rotation_field(grid, 1.0)
    X, Y = grid.meshgrid()

    def deviation(n):
        # (Id + v/n) then (Id - v/n), tracked on the smooth analytic field
        x1 = X + v[0] / n
        y1 = Y + v[1] / n
        # v is linear, so its pointwise evaluation at (x1, y1) is exact
        vx1 = -1.0 * y1
        vy1 = 1.0 * x1
        x2 = x1 - vx1 / n
        y2 = y1 - vy1 / n
        return np.hypot(x2 - X, y2 - Y).max()

    d8, d16 = deviation(8), deviation(16)
    assert d16 <= d8 / 3.0  # O(1/N^2): doubling N cuts the defect ~4x


def test_rotation_field_first_order_convergence():
    # time-stepping error of the rotation flow dominates on a fine grid
    grid = Grid2D(128, 128)
    blob = gaussian_blob(grid, cx=5.0, width=4.0)
    omega = 1.2

    def err(n):
        v = rotation_field(grid, omega)
        img = blob.values
        for _ in range(n):
            img = advance_transported_template(grid, img, v, n)
        X, Y = grid.meshgrid()
        ca, sa = np.cos(omega), np.sin(omega)
        ref = gaussian_blob(grid, width=4.0)  # placeholder grid eval below
        Xr = ca * X + sa * Y
        Yr = -sa * X + ca * Y
        ref = np.exp(-((Xr - 5.0) ** 2 + Yr**2) / (2.0 * 16.0))
        return np.sqrt(np.sum((img - ref) ** 2) * grid.cell_area)

    e8, e16, e32 = err(8), err(16), err(32)
    assert np.log2(e8 / e16) >= 0.8
    assert np.log2(e16 / e32) >= 0.8


@pytest.mark.parametrize("action", list(GroupAction))
def test_flow_stability_error_on_violent_field(grid16, action):
    # |div| = 100 >> n, of the sign that drives the factor 1 +- div/N negative
    geometric = action is GroupAction.GEOMETRIC
    v = (-50.0 if geometric else 50.0) * dilation_field(grid16)
    nu = time_constant(v, 3)
    # build_flow_chain checks each action's step factors before any pull,
    # in its Jacobian's sweep order: i = N-1 down to time 1 (geometric),
    # i = 1 up to time 0 (mass-preserving)
    index = 2 if geometric else 1
    with pytest.raises(FlowStabilityError, match=f"at time index {index};"):
        build_flow_chain(ScalarImage.full(grid16, 1.0), nu, action)


def _step_factor_fields(grid, n_steps):
    """Random fields whose least step factor, for either sign, lies well
    inside, well outside and within 1e-6 of the stable range, and
    fields holding NaN, +inf and -inf."""
    rng = np.random.default_rng(31)
    fields = []
    for _ in range(3):
        v = rng.standard_normal((2,) + grid.shape)
        div = np.abs(divergence(grid, v)).max()
        for scale in (0.1, 10.0, *np.linspace(1.0 - 1e-6, 1.0 + 1e-6, 9)):
            fields.append(v * (scale * n_steps / div))
    for bad in (np.nan, np.inf, -np.inf):
        for k in (0, 1):
            v = rng.standard_normal((2,) + grid.shape)
            v[k, 3, 5] = bad
            fields.append(v)
    return fields


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_stability_pre_check_reads_the_least_step_factor(sign):
    grid, n = Grid2D(12, 9, -3.0, 3.0, -2.0, 5.0), 4
    fields = _step_factor_fields(grid, n)
    raised = 0
    for v in fields:
        with np.errstate(invalid="ignore"):  # inf - inf
            lo = float(_step_factor(grid, v, n, sign).min())
            if np.isfinite(lo) and lo > 0.0:
                _check_step_factor(grid, v, n, sign, 7)
                continue
            raised += 1
            text = (f"determinant step factor reached {lo:.3e} at time index 7; "
                    "the velocity is too large for this n_steps")
            with pytest.raises(FlowStabilityError) as err:
                _check_step_factor(grid, v, n, sign, 7)
        assert str(err.value) == text
    assert 6 < raised < len(fields) - 3


@pytest.mark.parametrize("action", list(GroupAction))
def test_chain_rejects_a_velocity_of_another_grid(grid16, action):
    nu = np.zeros((4, 2, 32, 32))
    with pytest.raises(GridMismatchError,
                       match=r"^velocity shape \(4, 2, 32, 32\) does not match template grid \(16, 16\)$"):
        build_flow_chain(ScalarImage.zeros(grid16), nu, action)


@pytest.mark.parametrize("action", list(GroupAction))
def test_unstable_step_fails_before_any_pull(grid16, action, monkeypatch):
    import tomoflow.flow as flow

    # only slice N-1, which both actions' Jacobians step through, is violent
    n = 6
    scale = -50.0 if action is GroupAction.GEOMETRIC else 50.0
    nu = np.zeros((n + 1, 2) + grid16.shape)
    nu[n - 1] = scale * dilation_field(grid16)
    real, calls = flow.sample_bilinear, [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(flow, "sample_bilinear", counted)
    with pytest.raises(FlowStabilityError, match=f"at time index {n - 1};"):
        build_flow_chain(ScalarImage.full(grid16, 1.0), nu, action)
    assert calls[0] == 0


@pytest.mark.parametrize("action", list(GroupAction))
def test_chain_matches_step_by_step_recursions(action):
    grid = Grid2D(32, 24, -16.0, 16.0, -6.0, 6.0)
    rng = np.random.default_rng(25)
    n = 6
    template = ScalarImage(grid, rng.standard_normal(grid.shape))
    grad_image = ScalarImage(grid, rng.standard_normal(grid.shape))
    nu = 0.3 * np.stack([random_smooth_field(grid, seed) for seed in range(n + 1)])
    chain_transported, chain_back = both_chains(template, nu, action, grad_image)
    assert action.jacobian_sign == (1.0 if action is GroupAction.GEOMETRIC else -1.0)

    transported, back = [template.values], [grad_image.values]
    for i in range(1, n + 1):
        transported.append(advance_transported_template(grid, transported[-1], nu[i], n))
    for i in range(n - 1, -1, -1):
        back.insert(0, backpropagate_field(grid, back[0], nu[i], n))
    if action is GroupAction.GEOMETRIC:
        jac = [np.ones(grid.shape)]
        for i in range(n - 1, -1, -1):
            jac.insert(0, jacobian_by_steps(grid, jac[0], nu[i], n, 1.0))
    else:
        jac = [np.ones(grid.shape)]
        for i in range(1, n + 1):
            jac.append(jacobian_by_steps(grid, jac[-1], nu[i], n, -1.0))
    assert np.abs(np.asarray(jac) - 1.0).max() > 0.01  # the flow is not trivial
    # the action's Jacobian is folded into the chain it weights
    if action is GroupAction.GEOMETRIC:
        back = np.multiply(jac, back)
    else:
        transported = np.multiply(jac, transported)
    np.testing.assert_array_equal(chain_transported, transported)
    np.testing.assert_array_equal(chain_back, back)
