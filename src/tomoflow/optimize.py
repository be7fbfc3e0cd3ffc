"""Gradient descent over the time-sampled velocity field."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .action import GroupAction
from .flow import FlowChain, FlowStabilityError, build_flow_chain
from .grid import ScalarImage, check_count, check_real
from .kernel import make_kernel
from .objective import ObjectiveValue, value_and_gradient
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
    norm of the gradient. gamma and grad_tol must be finite and >= 0,
    sigma and alpha finite and > 0, and the two counts integers >= 1;
    any other value raises ValueError here, before a run starts.
    """

    gamma: float
    sigma: float
    alpha: float
    n_steps: int = 20
    max_iters: int = 200
    grad_tol: float = 0.0
    action: GroupAction = GroupAction.GEOMETRIC

    def __post_init__(self):
        # a value such as "geometric" becomes its member; unknown values raise ValueError
        object.__setattr__(self, "action", GroupAction(self.action))
        check_real("gamma", self.gamma, positive=False)
        check_real("sigma", self.sigma)
        check_real("alpha", self.alpha)
        check_count("n_steps", self.n_steps, 1)
        check_count("max_iters", self.max_iters, 1)
        check_real("grad_tol", self.grad_tol, positive=False)


@dataclass
class RegistrationResult:
    """Outcome of ``register``.

    ``trajectory[i]`` is the template under the action at time t_i = i/N
    for the last finite iterate: slice i of the forward chain (see
    ``flow``), which holds the action's Jacobian when
    ``GroupAction.jacobian_sign`` names the forward sweep.
    For either action ``trajectory[-1]`` is the deformed template, the
    image whose projection the data term compares with the data. The
    images are views into that iterate's transported-template array.
    When an evaluation failed, that array was rebuilt from the last
    finite iterate with ``build_flow_chain``; at iteration 0 that is the
    zero field, whose flow leaves a finite template unchanged and pulls
    a non-finite one through the identity flow rather than copying it.

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

    Each iteration gets E and its velocity gradient from one
    ``value_and_gradient`` call and takes one step. Stops on the
    gradient-norm tolerance, the iteration budget, or a numerical
    failure (a FlowStabilityError from either sweep or the objective, or
    a non-finite gradient norm), in which case the last finite iterate
    is returned.

    A run holds two velocity arrays, the iterate and a spare, and
    alternates them. Until both sweeps of the iterate have passed, the
    spare holds the last finite iterate; then it receives the iterate's
    gradient, is scaled into the step and becomes the next iterate,
    while the iterate becomes the spare. So an evaluation holds two
    velocity arrays and its own two chains, and no chain outlives its
    evaluation. On a numerical failure in an evaluation, the returned
    trajectory is rebuilt from the last finite iterate with
    ``build_flow_chain``; at iteration 0 that is the zero field.
    """
    if data.geometry != geom:
        raise ValueError("sinogram geometry does not match the requested geometry")
    grid = template.grid
    kern = make_kernel(grid, cfg.sigma)
    shape = (cfg.n_steps + 1, 2) + grid.shape
    nu, spare = np.zeros(shape), np.zeros(shape)

    history: list[ObjectiveValue] = []
    grad_norms: list[float] = []

    def stop(k: int, reason: StopReason, detail: str = "", chain: FlowChain | None = None):
        if chain is None:  # this evaluation failed: the spare is the last finite iterate
            chain = build_flow_chain(template, spare, cfg.action)
        trajectory = [ScalarImage(grid, f) for f in chain.transported_template]
        return RegistrationResult(chain.nu, trajectory, history, grad_norms, k, reason, detail)

    def evaluate(k: int) -> RegistrationResult | None:
        """Iteration k's evaluation at nu: the run's result if it ends the run."""
        try:
            value, grad_norm, chain = value_and_gradient(
                template, nu, data, cfg.action, cfg.gamma, kern, spare)
        except FlowStabilityError as exc:
            return stop(k, StopReason.NUMERICAL_FAILURE, f"iteration {k}: {exc}")
        history.append(value)
        grad_norms.append(grad_norm)
        if not math.isfinite(grad_norm):
            return stop(k, StopReason.NUMERICAL_FAILURE, f"iteration {k}: gradient norm not finite", chain)
        if grad_norm <= cfg.grad_tol:
            return stop(k, StopReason.GRAD_TOL, chain=chain)
        if k == cfg.max_iters:
            return stop(k, StopReason.MAX_ITERS, chain=chain)
        return None

    for k in range(cfg.max_iters + 1):
        if (result := evaluate(k)) is not None:
            return result
        spare *= cfg.alpha  # the step
        nu, spare = np.subtract(nu, spare, out=spare), nu

    raise AssertionError("unreachable")
