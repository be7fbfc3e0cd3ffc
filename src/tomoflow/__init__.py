"""tomoflow: indirect diffeomorphic image registration for 2D tomography.

Registers a template image against a target that is observed only
through a sparse, noisy parallel-beam ray transform. The deformation is
the endpoint of a flow generated by a time-dependent velocity field,
optimized by gradient descent in a Gaussian reproducing-kernel space,
with filtered back projection and total-variation baselines.

The package exports the pipeline (phantoms, projection, noise,
registration, baselines, metrics) and the types it takes, returns and
raises. The numerical internals are imported from their own modules
(``tomoflow.grid``, ``.kernel``, ``.flow``, ``.objective``, ...).
"""

from .action import GroupAction
from .grid import Grid2D, GridMismatchError, ScalarImage
from .metrics import measure_snr, psnr, ssim
from .objective import ObjectiveValue
from .optimize import RegistrationConfig, RegistrationResult, StopReason, register
from .phantom import NoiseSpec, PhantomKind, PhantomSpec, add_noise, make_phantom
from .tomo import Sinogram, SinogramGeometry, back_projection, fbp, make_parallel_geometry, ray_transform
from .tv import TVConfig, tv_reconstruct

__version__ = "0.1.0"

__all__ = [
    "Grid2D",
    "GridMismatchError",
    "GroupAction",
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
    "fbp",
    "make_parallel_geometry",
    "make_phantom",
    "measure_snr",
    "psnr",
    "ray_transform",
    "register",
    "ssim",
    "tv_reconstruct",
    "__version__",
]
