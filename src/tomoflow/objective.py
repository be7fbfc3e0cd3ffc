"""Objective functional for indirect registration and its velocity gradient.

E(v) = gamma * |v|^2 + |T(W(v, I)) - g|^2_Y

The velocity norm uses the trapezoidal rule in time over plain L2 norms
of the grid samples. The data-term gradient at each time t_i smooths a
pointwise moment field with the reproducing kernel:

* geometric:        m_i = |Dphi_{t_i,1}| * (gradL o phi_{t_i,1}) * grad(I o phi_{t_i,0})
                    gradE_i = 2 gamma v_i - smooth(m_i)
* mass-preserving:  m_i = |Dphi_{t_i,0}| * (I o phi_{t_i,0}) * grad(gradL o phi_{t_i,1})
                    gradE_i = 2 gamma v_i + smooth(m_i)

where gradL(f) = 2 T*(T(f) - g). The moment field is zeroed on the
one-pixel boundary ring where one-sided differences would otherwise
inject spurious forces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import GroupAction, deform
from .flow import FlowChain, build_flow_chain
from .grid import ScalarImage, TimeVelocityField, VectorField2D, gradient
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


def velocity_norm_sq(nu: TimeVelocityField) -> float:
    """Squared discrete velocity norm: trapezoid in time, L2 in space."""
    w = time_weights(nu.n_steps)
    area = nu.grid.cell_area
    total = 0.0
    for wi, f in zip(w, nu.fields):
        total += wi * area * float(np.sum(f.vx * f.vx + f.vy * f.vy))
    return total


def _zero_boundary_ring(arr: np.ndarray) -> np.ndarray:
    arr[0, :] = 0.0
    arr[-1, :] = 0.0
    arr[:, 0] = 0.0
    arr[:, -1] = 0.0
    return arr


def objective_gradient(
    nu: TimeVelocityField, chain: FlowChain, kernel: KernelSpec, gamma: float, action: GroupAction
) -> TimeVelocityField:
    """Velocity gradient of E; the action picks the moment field and its sign."""
    if action is GroupAction.GEOMETRIC:
        jac, scaled, differentiated, combine = (
            chain.jacobian_to_one, chain.backprop_field, chain.transported_template, np.subtract
        )
    else:
        jac, scaled, differentiated, combine = (
            chain.jacobian_to_zero, chain.transported_template, chain.backprop_field, np.add
        )
    if jac is None or chain.backprop_field is None:
        raise ValueError("flow chain lacks the Jacobian or backprop field of this action")
    out = []
    for i, v in enumerate(nu.fields):
        d = gradient(differentiated[i])
        scale = jac[i].values * scaled[i].values
        moment = VectorField2D(
            d.grid, _zero_boundary_ring(scale * d.vx), _zero_boundary_ring(scale * d.vy)
        )
        s = smooth(kernel, moment)
        out.append(
            VectorField2D(v.grid, combine(2.0 * gamma * v.vx, s.vx), combine(2.0 * gamma * v.vy, s.vy))
        )
    return TimeVelocityField(out)


def evaluate_objective(
    template: ScalarImage,
    nu: TimeVelocityField,
    data: Sinogram,
    action: GroupAction,
    gamma: float,
):
    """Build the flow chain and evaluate E(nu).

    Returns (value, chain, deformed, grad_image) where grad_image is the
    image-space discrepancy gradient 2 T*(T(deformed) - g); the chain has
    no backprop field attached yet.
    """
    chain = build_flow_chain(template, nu, action)
    deformed = deform(action, chain)
    disc, grad_image = data_term(deformed, data)
    value = ObjectiveValue(penalty=gamma * velocity_norm_sq(nu), discrepancy=disc)
    return value, chain, deformed, grad_image
