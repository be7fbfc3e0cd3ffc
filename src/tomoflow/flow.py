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

``build_flow_chain`` allocates all three arrays afresh for each
evaluation and fills the first two; ``attach_backprop_field`` fills the
third. Nothing is shared between evaluations, so an earlier chain stays
valid after a later one fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import GroupAction
from .grid import Grid2D, GridMismatchError, ScalarImage, divergence, sample_bilinear


class FlowStabilityError(RuntimeError):
    """A Jacobian determinant left the positive range; the step size regime
    (1/N) * velocity magnitude is too coarse for the current field."""


def advance_transported_template(
    grid: Grid2D, prev: np.ndarray, v_i: np.ndarray, n_steps: int
) -> np.ndarray:
    """Semi-Lagrangian pull-back: sample prev at x - v_i(x)/N."""
    return sample_bilinear(grid, prev, (-1.0 / n_steps) * v_i)


def backpropagate_field(grid: Grid2D, nxt: np.ndarray, v_i: np.ndarray, n_steps: int) -> np.ndarray:
    """Sample the next back-propagated field at x + v_i(x)/N."""
    return sample_bilinear(grid, nxt, (1.0 / n_steps) * v_i)


def jacobian_step(grid: Grid2D, jac: np.ndarray, v_i: np.ndarray, n_steps: int, sign: float) -> np.ndarray:
    """One step of the Jacobian recursion: (1 + sign div v_i/N) * jac o (Id + sign v_i/N).

    sign = +1 steps the Jacobian to time 1 backwards, -1 the Jacobian to
    time 0 forwards.
    """
    moved = sample_bilinear(grid, jac, (sign / n_steps) * v_i)
    moved *= _step_factor(grid, v_i, n_steps, sign)
    return moved


@dataclass
class FlowChain:
    """The three scalar chains of one flow evaluation.

    Each is an (N+1, ny, nx) array whose slice i refers to time t_i = i/N.
    ``jacobian`` runs to time 1 for the geometric action and to time 0
    for the mass-preserving one; ``action`` records which.
    ``backprop_field`` is allocated with the chain and filled by
    ``attach_backprop_field`` once the data-discrepancy gradient image is
    known.
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
    """Run the transported-template and Jacobian recursions for the field nu.

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

    transported = np.empty(shape)
    transported[0] = template.values
    for i in range(1, n + 1):
        transported[i] = advance_transported_template(grid, transported[i - 1], nu[i], n)

    if action is GroupAction.GEOMETRIC:
        sign, prev, steps = 1.0, n, range(n - 1, -1, -1)
    else:
        sign, prev, steps = -1.0, 0, range(1, n + 1)
    jac = np.empty(shape)
    jac[prev] = 1.0
    for i in steps:
        _check_step_factor(grid, nu[i], n, sign, i)
        jac[i] = jacobian_step(grid, jac[prev], nu[i], n, sign)
        _check_finite(jac[i], i)
        prev = i
    return FlowChain(grid, action, transported, jac, np.empty(shape))


def attach_backprop_field(chain: FlowChain, grad_image: ScalarImage, nu: np.ndarray) -> None:
    """Fill chain.backprop_field with grad_image composed to each time."""
    n = chain.n_steps
    if len(nu) != n + 1:
        raise ValueError("chain and velocity field disagree on n_steps")
    back = chain.backprop_field
    back[n] = grad_image.values
    for i in range(n - 1, -1, -1):
        back[i] = backpropagate_field(chain.grid, back[i + 1], nu[i], n)


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
