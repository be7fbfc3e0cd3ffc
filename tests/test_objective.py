import numpy as np
import pytest

from conftest import gaussian_blob, random_smooth_field
from tomoflow import (
    Grid2D,
    GroupAction,
    ScalarImage,
    Sinogram,
    make_parallel_geometry,
    ray_transform,
)
import tomoflow.flow as flow
from tomoflow.flow import FlowStabilityError, attach_backprop_field
from tomoflow.kernel import expand, make_kernel, smooth
from tomoflow.objective import (
    data_term,
    evaluate_objective,
    objective_gradient,
    time_weights,
    value_and_gradient,
    velocity_norm_sq,
)
from tomoflow.tomo import back_projection


def velocity_inner(grid, a, b):
    """Discrete pairing matching velocity_norm_sq."""
    assert a.shape == b.shape
    area = grid.cell_area
    total = 0.0
    for wi, fa, fb in zip(time_weights(len(a) - 1), a, b):
        total += wi * area * float(np.sum(fa[0] * fb[0] + fa[1] * fb[1]))
    return total


@pytest.fixture
def setup16():
    grid = Grid2D(16, 16)
    geom = make_parallel_geometry(grid, 4, 24)
    template = gaussian_blob(grid, cx=-2.0, cy=-1.0, width=3.0)
    target = gaussian_blob(grid, cx=2.0, cy=1.0, width=3.0)
    data = ray_transform(target, geom)
    return grid, geom, template, data


def constant_time_field(vf, n_steps):
    return np.repeat(vf[None], n_steps + 1, axis=0)


def zero_velocity(grid, n_steps):
    return np.zeros((n_steps + 1, 2) + grid.shape)


def zero_coefficients(kern, n_steps):
    return np.zeros((n_steps + 1, 2) + kern.eig_xy.shape)


def coefficients(kern, nu):
    """The coefficients in the kernel's kept basis of a velocity in its range."""
    return np.matmul(np.matmul(kern.basis_y.T, nu), kern.basis_x)


def assemble_gradient(template, coef, data, action, kern, gamma):
    """The gradient's coefficients and the value of E at the velocity of
    coefficients coef, from the call ``register`` makes."""
    value, grad, _, _ = value_and_gradient(template, coef, data, action, gamma, kern)
    return grad, value


def test_time_weights_sum_to_one():
    for n in (1, 2, 5, 20):
        assert time_weights(n).sum() == pytest.approx(1.0)


def test_data_discrepancy_exact_match(setup16):
    grid, geom, template, data = setup16
    sino = ray_transform(template, geom)
    assert data_term(template, sino)[0] == 0.0


def test_data_discrepancy_zero_data_is_weighted_energy(setup16):
    grid, geom, template, _ = setup16
    sino = ray_transform(template, geom)
    zero = Sinogram.zeros(geom)
    expected = geom.y_weight() * np.sum(sino.values**2)
    assert data_term(template, zero)[0] == pytest.approx(expected, rel=1e-12)


def test_data_discrepancy_scaling_identity(setup16):
    grid, geom, template, _ = setup16
    tf_ = ray_transform(template, geom)
    doubled = Sinogram(geom, 2.0 * tf_.values)
    # |Tf - 2Tf|^2 = |Tf|^2 = |Tf - 0|^2
    assert data_term(template, doubled)[0] == pytest.approx(
        data_term(template, Sinogram.zeros(geom))[0], rel=1e-12
    )


def test_discrepancy_gradient_zero_residual(setup16):
    grid, geom, template, _ = setup16
    g = ray_transform(template, geom)
    _, grad = data_term(template, g)
    np.testing.assert_array_equal(grad.values, 0.0)


def test_discrepancy_gradient_finite_difference():
    grid = Grid2D(32, 32)
    geom = make_parallel_geometry(grid, 6, 48)
    rng = np.random.default_rng(3)
    f = gaussian_blob(grid, width=4.0)
    g = Sinogram(geom, rng.standard_normal(geom.shape))
    _, grad = data_term(f, g)
    for trial in range(5):
        delta = gaussian_blob(
            grid, cx=rng.uniform(-4, 4), cy=rng.uniform(-4, 4), width=rng.uniform(2, 5)
        )
        eps = 1e-6
        fp = ScalarImage(grid, f.values + eps * delta.values)
        fm = ScalarImage(grid, f.values - eps * delta.values)
        fd = (data_term(fp, g)[0] - data_term(fm, g)[0]) / (2 * eps)
        paired = grid.cell_area * np.sum(grad.values * delta.values)
        assert abs(fd - paired) / abs(fd) <= 1e-6


def test_discrepancy_gradient_linear_in_data(setup16):
    grid, geom, template, data = setup16
    rng = np.random.default_rng(5)
    other = Sinogram(geom, rng.standard_normal(geom.shape))
    _, g1 = data_term(template, data)
    _, g2 = data_term(template, other)
    diff_data = Sinogram(geom, data.values - other.values)
    expected = -2.0 * back_projection(diff_data, grid).values
    np.testing.assert_allclose(g1.values - g2.values, expected, atol=1e-10)


def test_velocity_norm_zero(grid16):
    assert velocity_norm_sq(grid16, zero_velocity(grid16, 4)) == 0.0


def test_velocity_norm_time_constant(grid16):
    rng = np.random.default_rng(6)
    v = np.stack((rng.standard_normal(grid16.shape), rng.standard_normal(grid16.shape)))
    nu = constant_time_field(v, 7)
    expected = grid16.cell_area * np.sum(v[0]**2 + v[1]**2)
    assert velocity_norm_sq(grid16, nu) == pytest.approx(expected, rel=1e-12)


def test_velocity_norm_linear_in_time(grid16):
    rng = np.random.default_rng(7)
    w = np.stack((rng.standard_normal(grid16.shape), rng.standard_normal(grid16.shape)))
    n = 8
    nu = np.array([(i / n) * w for i in range(n + 1)])
    norm_w = grid16.cell_area * np.sum(w[0]**2 + w[1]**2)
    got = velocity_norm_sq(grid16, nu)
    # trapezoid of t^2: 1/3 + 1/(6 n^2)
    assert got == pytest.approx(norm_w * (1.0 / 3.0 + 1.0 / (6 * n**2)), rel=1e-12)
    assert abs(got - norm_w / 3.0) <= norm_w / n**2


@pytest.mark.parametrize("action", list(GroupAction))
def test_gradient_zero_at_perfect_match(action, setup16):
    grid, geom, template, _ = setup16
    data = ray_transform(template, geom)
    kern = make_kernel(grid, 4.0)
    grad, value = assemble_gradient(template, zero_coefficients(kern, 5), data, action, kern, gamma=0.3)
    assert value.discrepancy == 0.0
    np.testing.assert_array_equal(grad, 0.0)


@pytest.mark.parametrize("action", list(GroupAction))
def test_gradient_is_penalty_only_for_zero_template(action, setup16):
    grid, geom, _, _ = setup16
    template = ScalarImage.zeros(grid)
    data = Sinogram.zeros(geom)
    gamma = 0.7
    kern = make_kernel(grid, 4.0)
    base = smooth(kern, np.random.default_rng(12).standard_normal((2,) + grid.shape))
    coef = constant_time_field(0.5 * base / np.abs(base).max(), 5)
    grad, _ = assemble_gradient(template, coef, data, action, kern, gamma)
    np.testing.assert_array_equal(grad, 2.0 * gamma * coef)


def fd_relative_errors(action, n_trials, eps=1e-6, gamma=1e-7):
    grid = Grid2D(16, 16)
    geom = make_parallel_geometry(grid, 4, 24)
    template = gaussian_blob(grid, cx=-2.0, cy=-1.0, width=3.0)
    target = gaussian_blob(grid, cx=2.0, cy=1.0, width=3.0)
    data = ray_transform(target, geom)
    kern = make_kernel(grid, 4.0)
    n = 5
    nu = zero_velocity(grid, n)
    coef, _ = assemble_gradient(template, zero_coefficients(kern, n), data, action, kern, gamma)
    grad = expand(kern, coef)

    rels = []
    for trial in range(n_trials):
        w = random_smooth_field(grid, seed=100 + trial, amplitude=1.0)
        eta = expand(kern, smooth(kern, w))  # direction in the kernel space: eta = K w
        claimed = velocity_inner(grid, grad, constant_time_field(w, n))

        def total(sign):
            shifted = nu + sign * eps * eta
            value, *_ = evaluate_objective(template, shifted, data, action, gamma)
            return value.total

        fd = (total(+1) - total(-1)) / (2 * eps)
        rels.append(abs(fd - claimed) / abs(fd))
    return rels


def test_gradient_geometric_finite_difference():
    rels = fd_relative_errors(GroupAction.GEOMETRIC, n_trials=10)
    assert max(rels) <= 1e-3


def test_gradient_mass_preserving_finite_difference():
    # the mass-preserving formula carries a continuum integration by parts
    # that discrete central differences only satisfy to O(h^2); on this
    # grid the measured defect is ~4e-2 median, 0.27 worst case
    rels = fd_relative_errors(GroupAction.MASS_PRESERVING, n_trials=10)
    assert np.median(rels) <= 5e-2
    assert max(rels) <= 0.3


@pytest.mark.parametrize("action", list(GroupAction))
def test_negative_gradient_descends(action):
    grid = Grid2D(16, 16)
    geom = make_parallel_geometry(grid, 4, 24)
    template = gaussian_blob(grid, cx=-2.0, cy=-1.0, width=3.0)
    target = gaussian_blob(grid, cx=2.0, cy=1.0, width=3.0)
    data = ray_transform(target, geom)
    kern = make_kernel(grid, 4.0)
    gamma = 1e-7
    nu = zero_velocity(grid, 5)
    coef, value0 = assemble_gradient(template, zero_coefficients(kern, 5), data, action, kern, gamma)
    grad = expand(kern, coef)

    alpha = 0.1
    for _ in range(12):  # halve until decrease
        stepped = nu - alpha * grad
        value, *_ = evaluate_objective(template, stepped, data, action, gamma)
        if value.total < value0.total:
            break
        alpha *= 0.5
    else:
        pytest.fail("no descent for any step size")


def test_discrepancy_invariant_under_angle_relabeling(setup16):
    grid, geom, template, data = setup16
    d0, _ = data_term(template, data)
    # permuting rows together with their angles leaves the sum unchanged;
    # the weighted sum over bins is order-free
    perm = np.random.default_rng(0).permutation(geom.n_angles)
    permuted = Sinogram(geom, data.values[perm])
    sino_t = ray_transform(template, geom)
    manual = geom.y_weight() * np.sum((sino_t.values[perm] - permuted.values) ** 2)
    assert manual == pytest.approx(d0, rel=1e-12)


@pytest.mark.parametrize("action", list(GroupAction))
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_objective_raises(action, bad, setup16):
    grid, geom, template, data = setup16
    data.values[1, 5] = bad
    with pytest.raises(FlowStabilityError, match="^objective or deformed template not finite$"):
        evaluate_objective(template, zero_velocity(grid, 5), data, action, gamma=1e-7)


@pytest.mark.parametrize("action", list(GroupAction))
def test_only_the_penalty_reads_the_first_velocity_slice(action, setup16):
    """The forward sweep reads nu[1:] only, so a new nu[0] leaves the
    discrepancy bit-identical; the penalty's trapezoid weighs nu[0] by 1/(2N)."""
    grid, _, template, data = setup16
    n, gamma = 5, 0.3
    nu = constant_time_field(random_smooth_field(grid, seed=20, amplitude=0.5), n)
    moved = nu.copy()
    # small, because the geometric action's step-factor check reads nu[0]
    moved[0] = random_smooth_field(grid, seed=21, amplitude=0.3)
    before, *_ = evaluate_objective(template, nu, data, action, gamma)
    after, *_ = evaluate_objective(template, moved, data, action, gamma)
    assert after.discrepancy == before.discrepancy
    expected = gamma * grid.cell_area / (2 * n) * float(np.sum(moved[0] ** 2) - np.sum(nu[0] ** 2))
    assert after.penalty - before.penalty == pytest.approx(expected, rel=1e-12)


def assert_failure_raises(template, nu, data, action, match):
    kern = make_kernel(template.grid, 4.0)
    with pytest.raises(FlowStabilityError, match=match):
        value_and_gradient(template, coefficients(kern, nu), data, action, 1e-7, kern)


@pytest.mark.parametrize("action", list(GroupAction))
def test_value_and_gradient_step_factor_failure_leaves_out(action, setup16):
    grid, _, template, data = setup16
    # |div v| far above N = 5, of both signs, so either action's pre-check fails
    nu = constant_time_field(random_smooth_field(grid, seed=5, amplitude=200.0), 5)
    assert_failure_raises(template, nu, data, action, "the velocity is too large for this n_steps$")


@pytest.mark.parametrize("action,sweep_sign", [(GroupAction.GEOMETRIC, 1.0), (GroupAction.MASS_PRESERVING, -1.0)])
def test_value_and_gradient_nan_jacobian_failure_leaves_out(action, sweep_sign, setup16, monkeypatch):
    """A NaN Jacobian step fails the backward sweep (sign +1) for the
    geometric action and the forward sweep (sign -1) for the
    mass-preserving one."""
    grid, _, template, data = setup16
    signs = []

    def nan_step(grid, jac, v_i, feet, n_steps, sign):
        signs.append(sign)
        return np.full(grid.shape, np.nan)

    monkeypatch.setattr(flow, "jacobian_step", nan_step)
    nu = constant_time_field(random_smooth_field(grid, seed=6, amplitude=0.5), 5)
    assert_failure_raises(template, nu, data, action, "^Jacobian determinant became non-finite")
    assert signs == [sweep_sign]


@pytest.mark.parametrize("action", list(GroupAction))
def test_value_and_gradient_non_finite_objective_leaves_out(action, setup16):
    grid, _, template, data = setup16
    data.values[1, 5] = np.nan
    nu = constant_time_field(random_smooth_field(grid, seed=7, amplitude=0.5), 5)
    assert_failure_raises(template, nu, data, action, "^objective or deformed template not finite$")


@pytest.mark.parametrize("action", list(GroupAction))
def test_value_and_gradient_is_the_three_calls(action, setup16):
    """The gradient is bit for bit that of evaluate_objective at the
    expanded velocity, attach_backprop_field and objective_gradient run
    by hand, and grad_norm is its velocity norm."""
    grid, _, template, data = setup16
    gamma, kern = 0.3, make_kernel(grid, 4.0)
    nu = constant_time_field(random_smooth_field(grid, seed=8, amplitude=0.5), 5)
    nu[2] *= 1.5  # not constant in time
    coef = coefficients(kern, nu)
    value, chain, grad_img = evaluate_objective(template, expand(kern, coef), data, action, gamma)
    expected = objective_gradient(chain, attach_backprop_field(chain, grad_img), kern, gamma, coef)

    got_value, grad, grad_norm, got_chain = value_and_gradient(template, coef, data, action, gamma, kern)
    assert grad.shape == coef.shape
    assert grad.tobytes() == expected.tobytes()
    assert got_value == value
    assert grad_norm == np.sqrt(velocity_norm_sq(grid, grad))
    assert got_chain.nu.tobytes() == expand(kern, coef).tobytes()
    assert got_chain.transported_template.tobytes() == chain.transported_template.tobytes()


@pytest.mark.parametrize("action", list(GroupAction))
def test_gradient_norm_from_coefficients_is_the_dense_norm(action):
    # the kept basis is orthonormal: 32^2 at sigma 2 keeps all 32 eigenpairs
    # per axis, 64^2 at sigma 3 keeps 34 of 64 (measured: 0 to 6.5e-16 relative)
    for grid, sigma in ((Grid2D(32, 32), 2.0), (Grid2D(64, 64), 3.0)):
        geom = make_parallel_geometry(grid, 6, 2 * grid.nx)
        template = gaussian_blob(grid, cx=-3.0, cy=-2.0, width=3.5)
        data = ray_transform(gaussian_blob(grid, cx=3.0, cy=2.0, width=3.5), geom)
        kern = make_kernel(grid, sigma)
        nu = constant_time_field(random_smooth_field(grid, seed=9, amplitude=0.5), 6)
        _, grad, grad_norm, _ = value_and_gradient(template, coefficients(kern, nu), data, action, 0.3, kern)
        dense = np.sqrt(velocity_norm_sq(grid, expand(kern, grad)))
        assert grad_norm == pytest.approx(dense, rel=1e-12, abs=0.0)
