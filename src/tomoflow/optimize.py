"""Gradient descent over the time-sampled velocity field."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .action import GroupAction
from .flow import FlowStabilityError, attach_backprop_field
from .grid import ScalarImage, TimeVelocityField, VectorField2D
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
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be >= 0")


@dataclass
class RegistrationResult:
    """Outcome of ``register``.

    ``trajectory[i]`` is the transported template J_i of the last
    finite iterate at time t_i = i/N (see ``flow``). For the geometric
    action ``trajectory[-1]`` is the deformed template. For the
    mass-preserving action it is not: it lacks the Jacobian factor that
    ``action.deform`` multiplies in, so it is not the image whose
    projection the data term compares with the data.
    """

    final_velocity: TimeVelocityField
    trajectory: list[ScalarImage]
    objective_history: list[ObjectiveValue] = field(default_factory=list)
    iterations_run: int = 0
    stop_reason: StopReason = StopReason.MAX_ITERS


ProgressFn = Callable[[int, ObjectiveValue, float], None]


def register(
    template: ScalarImage,
    data: Sinogram,
    geom: SinogramGeometry,
    cfg: RegistrationConfig,
    progress: ProgressFn | None = None,
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
    nu = TimeVelocityField.zeros(grid, cfg.n_steps)

    history: list[ObjectiveValue] = []
    last_nu = nu
    last_traj = [template] + [template.copy() for _ in range(cfg.n_steps)]
    iterations = 0

    for k in range(cfg.max_iters + 1):
        try:
            value, chain, deformed, grad_img = evaluate_objective(
                template, nu, data, cfg.action, cfg.gamma
            )
        except FlowStabilityError:
            return RegistrationResult(last_nu, last_traj, history, iterations, StopReason.NUMERICAL_FAILURE)
        if not (math.isfinite(value.total) and np.isfinite(deformed.values).all()):
            return RegistrationResult(last_nu, last_traj, history, iterations, StopReason.NUMERICAL_FAILURE)

        history.append(value)
        last_nu = nu
        last_traj = chain.transported_template

        attach_backprop_field(chain, grad_img, nu)
        grad = objective_gradient(nu, chain, kern, cfg.gamma, cfg.action)
        grad_norm = math.sqrt(velocity_norm_sq(grad))
        if progress is not None:
            progress(k, value, grad_norm)

        if not math.isfinite(grad_norm):
            return RegistrationResult(last_nu, last_traj, history, iterations, StopReason.NUMERICAL_FAILURE)
        if grad_norm <= cfg.grad_tol:
            return RegistrationResult(last_nu, last_traj, history, iterations, StopReason.GRAD_TOL)
        if k == cfg.max_iters:
            return RegistrationResult(last_nu, last_traj, history, iterations, StopReason.MAX_ITERS)

        nu = TimeVelocityField(
            [
                VectorField2D(grid, v.vx - cfg.alpha * g.vx, v.vy - cfg.alpha * g.vy)
                for v, g in zip(nu.fields, grad.fields)
            ]
        )
        iterations = k + 1

    raise AssertionError("unreachable")
