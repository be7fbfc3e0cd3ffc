"""Gradient descent over the time-sampled velocity field."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .action import GroupAction
from .flow import FlowStabilityError, attach_backprop_field
from .grid import ScalarImage
from .kernel import make_kernel
from .objective import (
    ObjectiveValue,
    evaluate_objective,
    objective_gradient,
    velocity_norm_sq,
)
from .tomo import Sinogram, SinogramGeometry


class StopReason(enum.Enum):
    GRAD_TOL = "grad_tol"
    MAX_ITERS = "max_iters"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class RegistrationConfig:
    """Hyperparameters of one registration run.

    gamma weights the velocity penalty, sigma is the kernel width, alpha
    the descent step, n_steps the number of time intervals, max_iters the
    update budget and grad_tol the stopping threshold on the velocity
    norm of the gradient.
    """

    gamma: float
    sigma: float
    alpha: float
    n_steps: int = 20
    max_iters: int = 200
    grad_tol: float = 0.0
    action: GroupAction = GroupAction.GEOMETRIC

    def __post_init__(self):
        # written as "not x >= 0" so that NaN fails every check
        if not self.gamma >= 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.n_steps >= 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.grad_tol >= 0:
            raise ValueError(f"grad_tol must be >= 0, got {self.grad_tol}")


@dataclass
class RegistrationResult:
    """Outcome of ``register``.

    ``trajectory[i]`` is the transported template J_i of the last
    finite iterate at time t_i = i/N (see ``flow``). For the geometric
    action ``trajectory[-1]`` is the deformed template. For the
    mass-preserving action it is not: it lacks the Jacobian factor that
    ``action.deform`` multiplies in, so it is not the image whose
    projection the data term compares with the data. The images are
    views into that iterate's transported-template array.

    ``final_velocity`` is the last finite iterate as an
    ``(N+1, 2, ny, nx)`` array. ``grad_norms[k]`` is the velocity norm of
    the gradient at the iterate of ``objective_history[k]``; the last one
    is not finite when that stopped the run. ``stop_detail`` is empty
    unless the stop reason is ``NUMERICAL_FAILURE``; then it says at
    which iteration what failed.
    """

    final_velocity: np.ndarray
    trajectory: list[ScalarImage]
    objective_history: list[ObjectiveValue] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    iterations_run: int = 0
    stop_reason: StopReason = StopReason.MAX_ITERS
    stop_detail: str = ""


def register(
    template: ScalarImage,
    data: Sinogram,
    geom: SinogramGeometry,
    cfg: RegistrationConfig,
) -> RegistrationResult:
    """Minimize E by fixed-step gradient descent from a zero velocity field.

    Each iteration rebuilds the transported-template, Jacobian and
    back-propagation chains, assembles the kernel-smoothed gradient and
    takes one step. Stops on the gradient-norm tolerance, the iteration
    budget, or a numerical failure (non-positive Jacobian or non-finite
    field), in which case the last finite iterate is returned.
    """
    if data.geometry != geom:
        raise ValueError("sinogram geometry does not match the requested geometry")
    grid = template.grid
    kern = make_kernel(grid, cfg.sigma)
    nu = np.zeros((cfg.n_steps + 1, 2) + grid.shape)

    history: list[ObjectiveValue] = []
    grad_norms: list[float] = []
    last_nu = nu
    # until an evaluation succeeds, the identity flow: every sample is the template
    last_transported = np.broadcast_to(template.values, (cfg.n_steps + 1,) + grid.shape)
    iterations = 0

    def stop(reason: StopReason, detail: str = "") -> RegistrationResult:
        trajectory = [ScalarImage(grid, f) for f in last_transported]
        return RegistrationResult(last_nu, trajectory, history, grad_norms, iterations, reason, detail)

    for k in range(cfg.max_iters + 1):
        try:
            value, chain, deformed, grad_img = evaluate_objective(
                template, nu, data, cfg.action, cfg.gamma
            )
            # the backward sweep builds the geometric Jacobian, so its
            # finiteness check fails here, before this iterate is kept
            attach_backprop_field(chain, grad_img, nu)
        except FlowStabilityError as exc:
            return stop(StopReason.NUMERICAL_FAILURE, f"iteration {k}: {exc}")
        if not (math.isfinite(value.total) and np.isfinite(deformed.values).all()):
            return stop(
                StopReason.NUMERICAL_FAILURE, f"iteration {k}: objective or deformed template not finite"
            )

        history.append(value)
        last_nu = nu
        last_transported = chain.transported_template

        grad = objective_gradient(nu, chain, kern, cfg.gamma)
        grad_norm = math.sqrt(velocity_norm_sq(grid, grad))
        grad_norms.append(grad_norm)

        if not math.isfinite(grad_norm):
            return stop(StopReason.NUMERICAL_FAILURE, f"iteration {k}: gradient norm not finite")
        if grad_norm <= cfg.grad_tol:
            return stop(StopReason.GRAD_TOL)
        if k == cfg.max_iters:
            return stop(StopReason.MAX_ITERS)

        grad *= cfg.alpha  # the step, scaled in place: no third velocity-sized array
        nu = nu - grad
        iterations = k + 1

    raise AssertionError("unreachable")
