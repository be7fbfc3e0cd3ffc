import math

import numpy as np
import pytest

from tomoflow import Grid2D, NoiseSpec, PhantomKind, RegistrationConfig, ScalarImage
from tomoflow.experiments import SuiteCase
from tomoflow.kernel import expand, make_kernel, smooth


@pytest.fixture
def grid16():
    return Grid2D(16, 16)


@pytest.fixture
def grid32():
    return Grid2D(32, 32)


@pytest.fixture
def grid64():
    return Grid2D(64, 64)


def gaussian_blob(grid, cx=0.0, cy=0.0, width=3.0, peak=1.0):
    X, Y = grid.meshgrid()
    return ScalarImage(grid, peak * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * width**2)))


def random_smooth_field(grid, seed, sigma=4.0, amplitude=1.0):
    """White noise pushed through the kernel, normalized to a max amplitude;
    a (2, ny, nx) array."""
    rng = np.random.default_rng(seed)
    raw = np.stack((rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)))
    spec = make_kernel(grid, sigma)
    s = expand(spec, smooth(spec, raw))
    return amplitude * s / np.abs(s).max()


def integrate(img):
    """Midpoint-rule integral: sum of values times the pixel area."""
    return float(np.sum(img.values) * img.grid.cell_area)


def tiny_suite_case(name, **cfg):
    """A noise-free 16^2 one-star suite case of two iterations and five time
    steps; ``cfg`` replaces registration settings."""
    settings = dict(gamma=1e-7, sigma=4.0, alpha=0.02, n_steps=5, max_iters=2)
    return SuiteCase(
        name=name,
        grid=Grid2D(16, 16),
        n_angles=4,
        n_detectors=24,
        template_kind=PhantomKind.SINGLE_STAR_TEMPLATE,
        target_kind=PhantomKind.SINGLE_STAR_TARGET,
        noise=NoiseSpec(math.inf),
        cfg=RegistrationConfig(**dict(settings, **cfg)),
    )
