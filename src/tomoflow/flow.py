"""Discrete integration of the velocity-field flow.

Per-step deformations are the small-displacement approximations
Id +- (1/N) v(t_i, .). Three scalar chains are maintained instead of
dense deformation maps:

* transported template  J_i = J_{i-1} o (Id - v_i/N),        i = 1..N
* Jacobian to time 1    A_i = (1 + div v_i/N) A_{i+1} o (Id + v_i/N),
  i = N-1..0 with A_N = 1 (geometric action), or
  Jacobian to time 0    A_i = (1 - div v_i/N) A_{i-1} o (Id - v_i/N),
  i = 1..N with A_0 = 1 (mass-preserving action)
* back-propagated field B_i = B_{i+1} o (Id + v_i/N),        i = N-1..0
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .action import GroupAction
from .grid import (
    DisplacementMap,
    GridMismatchError,
    ScalarImage,
    TimeVelocityField,
    VectorField2D,
    divergence,
    sample_bilinear,
)


class FlowStabilityError(RuntimeError):
    """A Jacobian determinant left the positive range; the step size regime
    (1/N) * velocity magnitude is too coarse for the current field."""


def _pull(img: ScalarImage, v: VectorField2D, scale: float) -> ScalarImage:
    if img.grid != v.grid:
        raise GridMismatchError("image and velocity sample on different grids")
    disp = DisplacementMap(v.grid, scale * v.vx, scale * v.vy)
    return sample_bilinear(img, disp)


def advance_transported_template(prev: ScalarImage, v_i: VectorField2D, n_steps: int) -> ScalarImage:
    """Semi-Lagrangian pull-back: sample prev at x - v_i(x)/N."""
    return _pull(prev, v_i, -1.0 / n_steps)


def backpropagate_field(nxt: ScalarImage, v_i: VectorField2D, n_steps: int) -> ScalarImage:
    """Sample the next back-propagated field at x + v_i(x)/N."""
    return _pull(nxt, v_i, 1.0 / n_steps)


def jacobian_recursion_to_one(next_jac: ScalarImage, v_i: VectorField2D, n_steps: int) -> ScalarImage:
    """One backward step of the Jacobian-to-time-1 recursion."""
    moved = _pull(next_jac, v_i, 1.0 / n_steps)
    factor = 1.0 + divergence(v_i).values / n_steps
    return ScalarImage(next_jac.grid, factor * moved.values)


def jacobian_recursion_to_zero(prev_jac: ScalarImage, v_i: VectorField2D, n_steps: int) -> ScalarImage:
    """One forward step of the Jacobian-to-time-0 recursion."""
    moved = _pull(prev_jac, v_i, -1.0 / n_steps)
    factor = 1.0 - divergence(v_i).values / n_steps
    return ScalarImage(prev_jac.grid, factor * moved.values)


@dataclass
class FlowChain:
    """The three scalar chains of one flow evaluation.

    Entry i of each list refers to time t_i = i/N. ``jacobian_to_one`` is
    filled for the geometric action, ``jacobian_to_zero`` for the
    mass-preserving one. ``backprop_field`` is attached separately once
    the data-discrepancy gradient image is known.
    """

    n_steps: int
    transported_template: list[ScalarImage] = field(default_factory=list)
    jacobian_to_one: list[ScalarImage] | None = None
    jacobian_to_zero: list[ScalarImage] | None = None
    backprop_field: list[ScalarImage] | None = None


def build_flow_chain(template: ScalarImage, nu: TimeVelocityField, action: GroupAction) -> FlowChain:
    """Run the transported-template and Jacobian recursions for the field nu.

    Raises FlowStabilityError when a per-step determinant factor
    1 +- div(v)/N leaves the positive range (the step-size stability
    regime) or a Jacobian image stops being finite; no clamping is done.
    Sampling outside the domain can still pull zeros into a Jacobian
    image near the boundary; that is the zero-extension convention, not
    an instability.
    """
    if template.grid != nu.grid:
        raise GridMismatchError("template and velocity field live on different grids")
    n = nu.n_steps

    transported = [template]
    for i in range(1, n + 1):
        transported.append(advance_transported_template(transported[-1], nu.fields[i], n))

    chain = FlowChain(n_steps=n, transported_template=transported)
    ones = ScalarImage.full(template.grid, 1.0)
    if action is GroupAction.GEOMETRIC:
        jac = [None] * (n + 1)
        jac[n] = ones
        for i in range(n - 1, -1, -1):
            _check_step_factor(nu.fields[i], n, +1.0, i)
            jac[i] = jacobian_recursion_to_one(jac[i + 1], nu.fields[i], n)
            _check_finite(jac[i], i)
        chain.jacobian_to_one = jac
    else:
        jac = [None] * (n + 1)
        jac[0] = ones
        for i in range(1, n + 1):
            _check_step_factor(nu.fields[i], n, -1.0, i)
            jac[i] = jacobian_recursion_to_zero(jac[i - 1], nu.fields[i], n)
            _check_finite(jac[i], i)
        chain.jacobian_to_zero = jac
    return chain


def attach_backprop_field(chain: FlowChain, grad_image: ScalarImage, nu: TimeVelocityField) -> None:
    """Fill chain.backprop_field with grad_image composed to each time."""
    n = nu.n_steps
    if chain.n_steps != n:
        raise ValueError("chain and velocity field disagree on n_steps")
    back = [None] * (n + 1)
    back[n] = grad_image
    for i in range(n - 1, -1, -1):
        back[i] = backpropagate_field(back[i + 1], nu.fields[i], n)
    chain.backprop_field = back


def _check_step_factor(v: VectorField2D, n_steps: int, sign: float, i: int) -> None:
    factor = 1.0 + sign * divergence(v).values / n_steps
    lo = float(factor.min())
    if not np.isfinite(lo) or lo <= 0.0:
        raise FlowStabilityError(
            f"determinant step factor reached {lo:.3e} at time index {i}; "
            "the velocity is too large for this n_steps"
        )


def _check_finite(jac: ScalarImage, i: int) -> None:
    if not np.isfinite(jac.values).all():
        raise FlowStabilityError(f"Jacobian determinant became non-finite at time index {i}")
