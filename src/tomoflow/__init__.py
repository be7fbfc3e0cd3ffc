"""tomoflow: indirect diffeomorphic image registration for 2D tomography.

Registers a template image against a target that is observed only
through a sparse, noisy parallel-beam ray transform. The deformation is
the endpoint of a flow generated by a time-dependent velocity field,
optimized by gradient descent in a Gaussian reproducing-kernel space,
with filtered back projection and total-variation baselines.
"""

from .action import GroupAction, deform
from .grid import (
    Grid2D,
    GridMismatchError,
    ScalarImage,
    characteristics,
    divergence,
    gradient,
    sample_bilinear,
)
from .kernel import KernelSpec, make_kernel, smooth
from .objective import ObjectiveValue, velocity_norm_sq
from .optimize import RegistrationConfig, RegistrationResult, StopReason, register
from .phantom import NoiseSpec, PhantomKind, PhantomSpec, add_noise, make_phantom
from .metrics import measure_snr, psnr, ssim
from .tomo import (
    Sinogram,
    SinogramGeometry,
    back_projection,
    fbp,
    make_parallel_geometry,
    ray_transform,
)
from .tv import TVConfig, operator_norm_estimate, tv_reconstruct

__version__ = "0.1.0"

__all__ = [
    "Grid2D",
    "GridMismatchError",
    "GroupAction",
    "KernelSpec",
    "NoiseSpec",
    "ObjectiveValue",
    "PhantomKind",
    "PhantomSpec",
    "RegistrationConfig",
    "RegistrationResult",
    "ScalarImage",
    "Sinogram",
    "SinogramGeometry",
    "StopReason",
    "TVConfig",
    "add_noise",
    "back_projection",
    "characteristics",
    "deform",
    "divergence",
    "fbp",
    "gradient",
    "make_kernel",
    "make_parallel_geometry",
    "make_phantom",
    "measure_snr",
    "psnr",
    "ray_transform",
    "register",
    "sample_bilinear",
    "smooth",
    "ssim",
    "tv_reconstruct",
    "operator_norm_estimate",
    "velocity_norm_sq",
    "__version__",
]
