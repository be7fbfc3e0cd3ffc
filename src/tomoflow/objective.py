"""Objective functional for indirect registration and its velocity gradient.

E(v) = gamma * |v|^2 + |T(W(v, I)) - g|^2_Y

The velocity norm uses the trapezoidal rule in time over plain L2 norms
of the grid samples. The data-term gradient at each time t_i smooths a
pointwise moment field with the reproducing kernel:

    m_i = C_i * grad(D_i)
    gradE_i = 2 gamma v_i - s smooth(m_i)

where s = ``action.jacobian_sign``, C is the chain of the flow sweep of
sign s, which carries the action's Jacobian, and D is the other chain
(see ``flow``; ``GroupAction.jacobian_sign`` names each for each
action). The two chains are the template I and the data term's image
gradient gradL(f) = 2 T*(T(f) - g), each composed to time t_i. The
moment field is zeroed on the one-pixel boundary ring where one-sided
differences would otherwise inject spurious forces.

The velocity ``nu`` is an ``(N+1, 2, ny, nx)`` array (see ``flow``).
Every velocity the descent makes is in the kernel's range, so
``value_and_gradient`` takes it as ``(N+1, 2, ry, rx)`` coefficients in
the kernel's kept basis (see ``kernel``) and returns the gradient as
the same: 2 gamma c_i - s smooth(m_i), with c the velocity's
coefficients. The basis is orthonormal, so the gradient's velocity norm
is taken on its coefficients. One evaluation expands the coefficients
into one fresh dense ``nu``, which the forward sweep's ``FlowChain``
holds with its chain, evaluates E, and then consumes the backward sweep
(``flow.attach_backprop_field``) one slice at a time: each slice is
turned at once into its time sample's moment and smoothed, so no
backward chain is stored. Per time sample, the moment is built in the
``(2, ny, nx)`` array that ``gradient`` returns.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .action import GroupAction, deform
from .flow import FlowChain, FlowStabilityError, attach_backprop_field, build_flow_chain
from .grid import Grid2D, ScalarImage, gradient
from .kernel import KernelSpec, expand, smooth
from .tomo import Sinogram, back_projection, ray_transform


@dataclass(frozen=True)
class ObjectiveValue:
    penalty: float
    discrepancy: float

    @property
    def total(self) -> float:
        return self.penalty + self.discrepancy


def time_weights(n_steps: int) -> np.ndarray:
    """Trapezoidal quadrature weights over the N+1 samples of [0, 1]."""
    w = np.full(n_steps + 1, 1.0 / n_steps)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def data_term(f: ScalarImage, g: Sinogram) -> tuple[float, ScalarImage]:
    """Discrepancy |T(f) - g|^2_Y and its image gradient 2 T*(T(f) - g)."""
    resid = ray_transform(f, g.geometry).values - g.values
    disc = float(g.geometry.y_weight() * np.sum(resid * resid))
    bp = back_projection(Sinogram(g.geometry, resid), f.grid)
    return disc, ScalarImage(f.grid, 2.0 * bp.values)


def velocity_norm_sq(grid: Grid2D, nu: np.ndarray) -> float:
    """Squared discrete velocity norm: trapezoid in time, L2 in space.
    ``nu`` may also be a velocity's coefficients in the kernel's
    orthonormal basis, whose norm is the velocity's to rounding."""
    return float(grid.cell_area * (time_weights(len(nu) - 1) @ np.einsum("tcij,tcij->t", nu, nu)))


def _zero_boundary_ring(arr: np.ndarray) -> np.ndarray:
    arr[..., 0, :] = 0.0
    arr[..., -1, :] = 0.0
    arr[..., :, 0] = 0.0
    arr[..., :, -1] = 0.0
    return arr


def objective_gradient(
    chain: FlowChain, backprop: Iterable[tuple[int, np.ndarray]], kernel: KernelSpec, gamma: float,
    coef: np.ndarray,
) -> np.ndarray:
    """The velocity gradient of E at the chain's velocity, whose
    coefficients in the kernel's basis are ``coef``, as a fresh array of
    coefficients shaped like ``coef``.

    ``backprop`` is the backward sweep's ``(i, slice)`` pairs
    (``attach_backprop_field``), consumed one at a time;
    ``chain.action.jacobian_sign`` picks which of a slice and the forward
    chain's slice i is differentiated, and the moment's sign.
    """
    sign = chain.action.jacobian_sign
    combine = np.subtract if sign > 0 else np.add
    grad = np.empty_like(coef)
    for i, back in backprop:
        forward = chain.transported_template[i]
        # the slice of the sweep that carries the Jacobian scales the moment
        scaled, differentiated = (back, forward) if sign > 0 else (forward, back)
        # the moment is built in the array gradient() returns
        moment = gradient(kernel.grid, differentiated)
        moment *= scaled
        np.multiply(coef[i], 2.0 * gamma, out=grad[i])
        combine(grad[i], smooth(kernel, _zero_boundary_ring(moment)), out=grad[i])
    return grad


def evaluate_objective(
    template: ScalarImage,
    nu: np.ndarray,
    data: Sinogram,
    action: GroupAction,
    gamma: float,
) -> tuple[ObjectiveValue, FlowChain, ScalarImage]:
    """Build the flow chain and evaluate E(nu).

    Returns (value, chain, grad_image) where grad_image is the
    image-space discrepancy gradient 2 T*(T(deformed) - g). Raises
    FlowStabilityError when the flow fails (see ``build_flow_chain``) or
    when the objective or the deformed template is not finite.
    """
    chain = build_flow_chain(template, nu, action)
    deformed = deform(chain)
    disc, grad_image = data_term(deformed, data)
    value = ObjectiveValue(penalty=gamma * velocity_norm_sq(template.grid, nu), discrepancy=disc)
    if not (math.isfinite(value.total) and np.isfinite(deformed.values).all()):
        raise FlowStabilityError("objective or deformed template not finite")
    return value, chain, grad_image


def value_and_gradient(
    template: ScalarImage, coef: np.ndarray, data: Sinogram, action: GroupAction, gamma: float,
    kernel: KernelSpec,
) -> tuple[ObjectiveValue, np.ndarray, float, FlowChain]:
    """E and its velocity gradient at the velocity whose coefficients in
    the kernel's basis are ``coef``, an (N+1, 2, ry, rx) array.

    Returns (value, grad, grad_norm, chain): grad is a fresh coefficient
    array shaped like ``coef``, grad_norm the velocity norm of the
    gradient and chain the flow chain of the velocity, which holds it
    expanded as a fresh (N+1, 2, ny, nx) array. Raises
    FlowStabilityError when either sweep fails or the objective is not
    finite (see ``evaluate_objective`` and ``attach_backprop_field``).
    """
    value, chain, grad_image = evaluate_objective(template, expand(kernel, coef), data, action, gamma)
    grad = objective_gradient(chain, attach_backprop_field(chain, grad_image), kernel, gamma, coef)
    return value, grad, math.sqrt(velocity_norm_sq(template.grid, grad)), chain
