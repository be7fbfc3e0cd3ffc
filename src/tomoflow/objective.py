"""Objective functional for indirect registration and its velocity gradient.

E(v) = gamma * |v|^2 + |T(W(v, I)) - g|^2_Y

The velocity norm uses the trapezoidal rule in time over plain L2 norms
of the grid samples. The data-term gradient at each time t_i smooths a
pointwise moment field with the reproducing kernel:

* geometric:        m_i = |Dphi_{t_i,1}| * (gradL o phi_{t_i,1}) * grad(I o phi_{t_i,0})
                    gradE_i = 2 gamma v_i - smooth(m_i)
* mass-preserving:  m_i = |Dphi_{t_i,0}| * (I o phi_{t_i,0}) * grad(gradL o phi_{t_i,1})
                    gradE_i = 2 gamma v_i + smooth(m_i)

where gradL(f) = 2 T*(T(f) - g). Each action's Jacobian is folded into
one of the flow's two chains (see ``flow``), so either moment is
the gradient of the chain without the Jacobian times the chain with it.
The moment field is zeroed on the one-pixel boundary ring where
one-sided differences would otherwise inject spurious forces.

The velocity ``nu`` and its gradient are ``(N+1, 2, ny, nx)`` arrays
(see ``flow``). Each evaluation allocates the forward chain, held
with ``nu`` in a ``FlowChain``, from which the backward sweep
(``flow.attach_backprop_field``) and ``objective_gradient`` read the
velocity. The backward sweep allocates the second ``(N+1, ny, nx)``
chain, and each gradient one array shaped like ``nu``.
``optimize.register`` frees the previous iterate once both sweeps have
succeeded, so that array can take its memory, and writes the next
iterate into it. Per time sample, the moment is built in the
``(2, ny, nx)`` array that ``gradient`` returns and its smoothing is
one more of that size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import GroupAction, deform
from .flow import FlowChain, FlowStabilityError, build_flow_chain
from .grid import Grid2D, ScalarImage, gradient
from .kernel import KernelSpec, smooth
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
    """Squared discrete velocity norm: trapezoid in time, L2 in space."""
    return float(grid.cell_area * (time_weights(len(nu) - 1) @ np.einsum("tcij,tcij->t", nu, nu)))


def _zero_boundary_ring(arr: np.ndarray) -> np.ndarray:
    arr[..., 0, :] = 0.0
    arr[..., -1, :] = 0.0
    arr[..., :, 0] = 0.0
    arr[..., :, -1] = 0.0
    return arr


def objective_gradient(
    chain: FlowChain, backprop_field: np.ndarray, kernel: KernelSpec, gamma: float
) -> np.ndarray:
    """Velocity gradient of E at the chain's velocity, a fresh array
    shaped like it, from the flow chain and its backward chain; the
    chain's action picks which array is differentiated and the moment's
    sign."""
    if chain.action is GroupAction.GEOMETRIC:
        scaled, differentiated, combine = backprop_field, chain.transported_template, np.subtract
    else:
        scaled, differentiated, combine = chain.transported_template, backprop_field, np.add
    grid = kernel.grid
    out = np.empty(chain.nu.shape)
    for i, v in enumerate(chain.nu):
        # the moment is built in the array gradient() returns
        moment = gradient(grid, differentiated[i])
        moment *= scaled[i]
        np.multiply(v, 2.0 * gamma, out=out[i])
        combine(out[i], smooth(kernel, _zero_boundary_ring(moment)), out=out[i])
    return out


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
