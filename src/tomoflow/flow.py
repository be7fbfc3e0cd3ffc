"""Discrete integration of the velocity-field flow.

A velocity is one ``(N+1, 2, ny, nx)`` array ``nu``; ``nu[i]`` is the
field at time t_i = i/N (component 0 along x). Per-step deformations are
the small-displacement approximations Id +- (1/N) nu[i]. Three scalar
chains are kept instead of dense deformation maps, each one
``(N+1, ny, nx)`` array filled slice by slice:

* transported template  J_i = J_{i-1} o (Id - v_i/N),        i = 1..N
* Jacobian              A_i = (1 + div v_i/N) A_{i+1} o (Id + v_i/N),
  i = N-1..0 with A_N = 1 (to time 1, geometric action), or
                        A_i = (1 - div v_i/N) A_{i-1} o (Id - v_i/N),
  i = 1..N with A_0 = 1 (to time 0, mass-preserving action)
* back-propagated field B_i = B_{i+1} o (Id + v_i/N),        i = N-1..0

The pulls run in two sweeps. Each step builds one characteristic (the
corner indices and bilinear weights of the feet x +- v_i(x)/N, see
``grid.characteristics``) and both chains that step with the same sign
pull through it:

* ``build_flow_chain``, the forward sweep (Id - v_i/N): the transported
  template and, for the mass-preserving action, the Jacobian to time 0;
* ``attach_backprop_field``, the backward sweep (Id + v_i/N): the
  back-propagated field and, for the geometric action, the Jacobian to
  time 1, which only the gradient reads.

For the geometric action the forward sweep still checks every step
factor of the Jacobian to time 1, so a too-large velocity fails while
the objective is evaluated. ``build_flow_chain`` allocates all three
arrays afresh for each evaluation. Nothing is shared between
evaluations, so an earlier chain stays valid after a later one fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import GroupAction
from .grid import (
    Characteristic,
    Grid2D,
    GridMismatchError,
    ScalarImage,
    characteristics,
    divergence,
    sample_bilinear,
)


class FlowStabilityError(RuntimeError):
    """A Jacobian determinant left the positive range; the step size regime
    (1/N) * velocity magnitude is too coarse for the current field."""


def step_characteristic(grid: Grid2D, v_i: np.ndarray, n_steps: int, sign: float) -> Characteristic:
    """Feet of the small-displacement step Id + sign v_i/N."""
    return characteristics(grid, (sign / n_steps) * v_i)


def jacobian_step(
    grid: Grid2D, jac: np.ndarray, v_i: np.ndarray, feet: Characteristic, n_steps: int, sign: float
) -> np.ndarray:
    """One step of the Jacobian recursion: (1 + sign div v_i/N) * jac o (Id + sign v_i/N).

    ``feet`` is the step's characteristic, ``step_characteristic(grid,
    v_i, n_steps, sign)``. sign = +1 steps the Jacobian to time 1
    backwards, -1 the Jacobian to time 0 forwards.
    """
    moved = sample_bilinear(grid, jac, feet)
    moved *= _step_factor(grid, v_i, n_steps, sign)
    return moved


@dataclass
class FlowChain:
    """The three scalar chains of one flow evaluation.

    Each is an (N+1, ny, nx) array whose slice i refers to time t_i = i/N.
    ``jacobian`` runs to time 1 for the geometric action and to time 0
    for the mass-preserving one; ``action`` records which. All three are
    allocated with the chain. ``build_flow_chain`` fills
    ``transported_template`` and the mass-preserving ``jacobian``;
    ``attach_backprop_field`` fills ``backprop_field`` and the geometric
    ``jacobian``, which until then holds no values.
    """

    grid: Grid2D
    action: GroupAction
    transported_template: np.ndarray
    jacobian: np.ndarray
    backprop_field: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.transported_template) - 1


def build_flow_chain(template: ScalarImage, nu: np.ndarray, action: GroupAction) -> FlowChain:
    """Run the forward sweep for the field nu.

    Fills the transported template and, for the mass-preserving action,
    the Jacobian to time 0. For the geometric action it checks the step
    factors of the Jacobian to time 1 (i = N-1..0), which
    ``attach_backprop_field`` builds.

    Raises FlowStabilityError when a per-step determinant factor
    1 +- div(v)/N leaves the positive range (the step-size stability
    regime) or a Jacobian image stops being finite; no clamping is done.
    Sampling outside the domain can still pull zeros into a Jacobian
    image near the boundary; that is the zero-extension convention, not
    an instability.
    """
    grid = template.grid
    n = len(nu) - 1
    if n < 1:
        raise ValueError("need at least 2 time samples (n_steps >= 1)")
    if nu.shape != (n + 1, 2) + grid.shape:
        raise GridMismatchError(f"velocity shape {nu.shape} does not match template grid {grid.shape}")
    shape = (n + 1,) + grid.shape
    mass = action is GroupAction.MASS_PRESERVING
    if not mass:
        for i in range(n - 1, -1, -1):
            _check_step_factor(grid, nu[i], n, 1.0, i)

    transported = np.empty(shape)
    transported[0] = template.values
    jac = np.empty(shape)
    if mass:
        jac[0] = 1.0
    for i in range(1, n + 1):
        feet = step_characteristic(grid, nu[i], n, -1.0)
        transported[i] = sample_bilinear(grid, transported[i - 1], feet)
        if mass:
            _check_step_factor(grid, nu[i], n, -1.0, i)
            jac[i] = jacobian_step(grid, jac[i - 1], nu[i], feet, n, -1.0)
            _check_finite(jac[i], i)
    return FlowChain(grid, action, transported, jac, np.empty(shape))


def attach_backprop_field(chain: FlowChain, grad_image: ScalarImage, nu: np.ndarray) -> None:
    """Run the backward sweep: fill chain.backprop_field with grad_image
    composed to each time and, for the geometric action, the Jacobian to
    time 1.

    Raises FlowStabilityError when a geometric Jacobian image stops being
    finite.
    """
    n = chain.n_steps
    if len(nu) != n + 1:
        raise ValueError("chain and velocity field disagree on n_steps")
    grid = chain.grid
    geometric = chain.action is GroupAction.GEOMETRIC
    back, jac = chain.backprop_field, chain.jacobian
    back[n] = grad_image.values
    if geometric:
        jac[n] = 1.0
    for i in range(n - 1, -1, -1):
        feet = step_characteristic(grid, nu[i], n, 1.0)
        back[i] = sample_bilinear(grid, back[i + 1], feet)
        if geometric:
            jac[i] = jacobian_step(grid, jac[i + 1], nu[i], feet, n, 1.0)
            _check_finite(jac[i], i)


def _step_factor(grid: Grid2D, v: np.ndarray, n_steps: int, sign: float) -> np.ndarray:
    """1 + sign div(v)/N, built in place; x / (-N) is exactly -(x / N)."""
    factor = divergence(grid, v)
    factor /= sign * n_steps
    factor += 1.0
    return factor


def _check_step_factor(grid: Grid2D, v: np.ndarray, n_steps: int, sign: float, i: int) -> None:
    factor = _step_factor(grid, v, n_steps, sign)
    lo = float(factor.min())
    if not np.isfinite(lo) or lo <= 0.0:
        raise FlowStabilityError(
            f"determinant step factor reached {lo:.3e} at time index {i}; "
            "the velocity is too large for this n_steps"
        )


def _check_finite(jac: np.ndarray, i: int) -> None:
    if not np.isfinite(jac).all():
        raise FlowStabilityError(f"Jacobian determinant became non-finite at time index {i}")
