import numpy as np
import pytest

from conftest import gaussian_blob, integrate
from tomoflow import Grid2D, GroupAction, ScalarImage
from tomoflow.action import deform
from tomoflow.flow import build_flow_chain


def time_constant(vx, vy, n_steps):
    return np.repeat(np.stack((vx, vy))[None], n_steps + 1, axis=0)


def test_parse_action_names():
    assert GroupAction("geometric") is GroupAction.GEOMETRIC
    assert GroupAction("mass-preserving") is GroupAction.MASS_PRESERVING
    with pytest.raises(ValueError, match="unknown group action 'affine'; use 'geometric'"):
        GroupAction("affine")


@pytest.mark.parametrize("action", list(GroupAction))
def test_zero_velocity_identity(action, grid32):
    rng = np.random.default_rng(4)
    template = ScalarImage(grid32, rng.standard_normal(grid32.shape))
    nu = np.zeros((6, 2) + grid32.shape)
    chain = build_flow_chain(template, nu, action)
    out = deform(chain)
    np.testing.assert_array_equal(out.values, template.values)


def test_geometric_constant_template_stays_constant():
    grid = Grid2D(64, 64)
    template = ScalarImage.full(grid, 0.6)
    X, Y = grid.meshgrid()
    nu = time_constant(-0.2 * Y, 0.2 * X, 10)
    out = deform(build_flow_chain(template, nu, GroupAction.GEOMETRIC))
    core = X**2 + Y**2 <= 8.0**2  # outside the zero-extension boundary band
    np.testing.assert_allclose(out.values[core], 0.6, atol=1e-10)


def test_geometric_preserves_value_range_interior():
    grid = Grid2D(64, 64)
    template = gaussian_blob(grid, width=4.0)
    X, Y = grid.meshgrid()
    nu = time_constant(0.3 * X, -0.2 * Y, 10)
    out = deform(build_flow_chain(template, nu, GroupAction.GEOMETRIC))
    lo, hi = template.values.min(), template.values.max()
    # restrict to pixels whose pull-back stays inside the domain (the y
    # component expands backwards by e^0.2, so |y| <= 10 is safe)
    X, Y = grid.meshgrid()
    core = (np.abs(X) <= 10.0) & (np.abs(Y) <= 10.0)
    assert out.values[core].min() >= lo - 1e-12
    assert out.values[core].max() <= hi + 1e-12


def test_mass_preserving_conserves_integral_under_dilation():
    grid = Grid2D(64, 64)
    template = gaussian_blob(grid, width=2.0)  # support well inside the domain
    X, Y = grid.meshgrid()
    n = 20
    nu = time_constant(X, Y, n)  # uniform dilation, div = 2
    chain = build_flow_chain(template, nu, GroupAction.MASS_PRESERVING)
    out = deform(chain)
    rel = abs(integrate(out) - integrate(template)) / integrate(template)
    assert rel <= 2.0 / n + 0.01
