"""Gradient descent over the time-sampled velocity field."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .action import GroupAction
from .flow import FlowChain, FlowStabilityError, attach_backprop_field, build_flow_chain
from .grid import ScalarImage, check_count, check_real
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
    for the last finite iterate: the transported template J_i, times the
    Jacobian to time 0 for the mass-preserving action (see ``flow``).
    For either action ``trajectory[-1]`` is the deformed template, the
    image whose projection the data term compares with the data. The
    images are views into that iterate's transported-template array.
    When an evaluation failed, that array was rebuilt from the last
    finite iterate with ``build_flow_chain``; if the first evaluation
    failed, that iterate is the zero field and every image the template
    (a read-only view of it).

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

    Each iteration rebuilds the transported-template and
    back-propagation chains, assembles the kernel-smoothed gradient and
    takes one step. Stops on the gradient-norm tolerance, the iteration
    budget, or a numerical failure (a FlowStabilityError from either
    sweep or the objective, or a non-finite gradient norm), in which
    case the last finite iterate is returned.

    Between evaluations only the iterate, the last finite iterate and
    the histories stay alive; no flow chain is kept. The last finite
    iterate is freed once both sweeps of the next evaluation have
    succeeded, before the gradient is allocated, and the back-propagated
    chain and the transported template are freed after the gradient. The
    next iterate is written into the gradient's buffer, never into the
    last finite iterate. On a numerical failure after the first
    evaluation, the returned trajectory is rebuilt from the last finite
    iterate with ``build_flow_chain``.
    """
    if data.geometry != geom:
        raise ValueError("sinogram geometry does not match the requested geometry")
    grid = template.grid
    kern = make_kernel(grid, cfg.sigma)
    nu = np.zeros((cfg.n_steps + 1, 2) + grid.shape)

    history: list[ObjectiveValue] = []
    grad_norms: list[float] = []
    last = nu  # the last finite iterate: the zero field until an evaluation succeeds

    def stop(k: int, reason: StopReason, detail: str = "", chain: FlowChain | None = None):
        if chain is not None:
            states = chain.transported_template
        elif k:  # this evaluation failed: rebuild the last finite iterate's chain
            states = build_flow_chain(template, last, cfg.action).transported_template
        else:  # the first evaluation failed: the identity flow, every sample the template
            states = np.broadcast_to(template.values, (cfg.n_steps + 1,) + grid.shape)
        trajectory = [ScalarImage(grid, f) for f in states]
        return RegistrationResult(last, trajectory, history, grad_norms, k, reason, detail)

    for k in range(cfg.max_iters + 1):
        try:
            value, chain, grad_img = evaluate_objective(template, nu, data, cfg.action, cfg.gamma)
            # the backward sweep builds the geometric Jacobian, so its
            # finiteness check fails here, before this iterate is kept
            back = attach_backprop_field(chain, grad_img)
        except FlowStabilityError as exc:
            return stop(k, StopReason.NUMERICAL_FAILURE, f"iteration {k}: {exc}")

        history.append(value)
        last = nu  # frees the previous iterate, so the gradient can reuse its memory

        grad = objective_gradient(chain, back, kern, cfg.gamma)
        del back  # free the back-propagated chain before the next build
        grad_norm = math.sqrt(velocity_norm_sq(grid, grad))
        grad_norms.append(grad_norm)

        if not math.isfinite(grad_norm):
            return stop(k, StopReason.NUMERICAL_FAILURE, f"iteration {k}: gradient norm not finite", chain)
        if grad_norm <= cfg.grad_tol:
            return stop(k, StopReason.GRAD_TOL, chain=chain)
        if k == cfg.max_iters:
            return stop(k, StopReason.MAX_ITERS, chain=chain)
        del chain  # free the transported template before the next build

        grad *= cfg.alpha  # the step, scaled in place
        # never into nu: it is the last finite iterate if the next evaluation fails
        nu = np.subtract(nu, grad, out=grad)

    raise AssertionError("unreachable")
