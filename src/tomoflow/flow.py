"""Discrete integration of the velocity-field flow.

A velocity is one ``(N+1, 2, ny, nx)`` array ``nu``; ``nu[i]`` is the
field at time t_i = i/N (component 0 along x). Per-step deformations are
the small-displacement approximations Id +- (1/N) nu[i]. Three scalar
recursions are stepped instead of dense deformation maps:

* transported template  J_i = J_{i-1} o (Id - v_i/N),        i = 1..N
* Jacobian              A_i = (1 + div v_i/N) A_{i+1} o (Id + v_i/N),
  i = N-1..0 with A_N = 1 (to time 1, geometric action), or
                        A_i = (1 - div v_i/N) A_{i-1} o (Id - v_i/N),
  i = 1..N with A_0 = 1 (to time 0, mass-preserving action)
* back-propagated field B_i = B_{i+1} o (Id + v_i/N),        i = N-1..0

Two chains are stored, each one ``(N+1, ny, nx)`` array filled slice by
slice, with the Jacobian folded into the one the action weights: the
forward chain holds J (geometric) or A J (mass-preserving), the template
under the action; the backward chain holds A B (geometric) or B.

One routine runs both sweeps along Id + sign v_i/N: each step builds
one characteristic (the corner indices and bilinear weights of the feet
x + sign v_i(x)/N, see ``grid.characteristics``), and the image and
the Jacobian that step with that sign pull through it:

* ``build_flow_chain``, the forward sweep (sign -1, i = 1..N);
* ``attach_backprop_field``, the backward sweep (sign +1, i = N-1..0),
  which returns its chain as a plain array.

Before any pull, ``build_flow_chain`` checks every step factor of the
action's Jacobian, so for either action a too-large velocity fails while
the objective is evaluated. Each sweep allocates the chain it returns
and one displacement buffer that every step reuses; a step's
characteristic is freed before the next step builds its own. Nothing is
shared between evaluations, and a chain is a function of its velocity
alone: ``optimize.register`` keeps no chain between evaluations and,
when one fails, rebuilds the last finite iterate's chain from that
velocity.
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
    check_count,
    divergence,
    sample_bilinear,
)


class FlowStabilityError(RuntimeError):
    """A Jacobian determinant left the positive range or stopped being
    finite (the step (1/N) * velocity is too coarse for the field), or
    the objective or the deformed template is not finite."""


def jacobian_step(
    grid: Grid2D, jac: np.ndarray, v_i: np.ndarray, feet: Characteristic, n_steps: int, sign: float
) -> np.ndarray:
    """One step of the Jacobian recursion: (1 + sign div v_i/N) * jac o (Id + sign v_i/N).

    ``feet`` is the step's characteristic, ``characteristics(grid,
    (sign / N) * v_i)``. sign = +1 steps the Jacobian to time 1
    backwards, -1 the Jacobian to time 0 forwards.
    """
    moved = sample_bilinear(grid, jac, feet)
    moved *= _step_factor(grid, v_i, n_steps, sign)
    return moved


@dataclass(frozen=True)
class FlowChain:
    """One flow evaluation: the velocity ``nu`` it was built from (held,
    not copied) and its forward chain under ``action``.

    ``transported_template`` is an (N+1, ny, nx) array whose slice i is
    the template under the action at time t_i = i/N (see the module
    docstring); slice -1 is the deformed template.
    """

    grid: Grid2D
    action: GroupAction
    nu: np.ndarray
    transported_template: np.ndarray


def build_flow_chain(template: ScalarImage, nu: np.ndarray, action: GroupAction) -> FlowChain:
    """Check every step factor of the action's Jacobian, in that
    Jacobian's sweep order, then run the forward sweep for the field nu.

    Raises FlowStabilityError, before any pull, when a per-step
    determinant factor 1 +- div(v)/N leaves the positive range (the
    step-size stability regime), and later when a Jacobian image stops
    being finite; no clamping is done. Sampling outside the domain can
    still pull zeros into a Jacobian image near the boundary; that is
    the zero-extension convention, not an instability.
    """
    grid = template.grid
    n = len(nu) - 1
    check_count("n_steps", n, 1)
    if nu.shape != (n + 1, 2) + grid.shape:
        raise GridMismatchError(f"velocity shape {nu.shape} does not match template grid {grid.shape}")
    mass = action is GroupAction.MASS_PRESERVING
    jac_sign = -1.0 if mass else 1.0
    for i in _steps(n, jac_sign):
        _check_step_factor(grid, nu[i], n, jac_sign, i)
    return FlowChain(grid, action, nu, _sweep(grid, nu, template.values, -1.0, mass))


def attach_backprop_field(chain: FlowChain, grad_image: ScalarImage) -> np.ndarray:
    """Run the backward sweep along the chain's velocity: a fresh
    (N+1, ny, nx) array whose slice i is grad_image composed to time
    t_i, times the Jacobian to time 1 for the geometric action.

    Raises FlowStabilityError when a geometric Jacobian image stops being
    finite.
    """
    geometric = chain.action is GroupAction.GEOMETRIC
    return _sweep(chain.grid, chain.nu, grad_image.values, 1.0, geometric)


def _steps(n_steps: int, sign: float) -> range:
    """The step indices of a sweep along Id + sign v_i/N, in order."""
    return range(1, n_steps + 1) if sign < 0 else range(n_steps - 1, -1, -1)


def _sweep(
    grid: Grid2D, nu: np.ndarray, start: np.ndarray, sign: float, with_jacobian: bool
) -> np.ndarray:
    """Pull ``start`` along Id + sign v_i/N into a fresh chain; slice 0
    (sign -1) or N (sign +1) is ``start``. ``with_jacobian`` also steps
    a Jacobian from 1 through the same feet and stores its product with
    each pulled image."""
    n = len(nu) - 1
    chain = np.empty((n + 1,) + grid.shape)
    chain[0 if sign < 0 else n] = start
    pulled, jac = start, np.ones(grid.shape)
    disp = np.empty((2,) + grid.shape)  # every step's displacement sign v_i/N
    for i in _steps(n, sign):
        np.multiply(nu[i], sign / n, out=disp)
        feet = characteristics(grid, disp)
        pulled = sample_bilinear(grid, pulled, feet)
        if with_jacobian:
            jac = jacobian_step(grid, jac, nu[i], feet, n, sign)
            if not np.isfinite(jac).all():
                raise FlowStabilityError(f"Jacobian determinant became non-finite at time index {i}")
            np.multiply(jac, pulled, out=chain[i])
        else:
            chain[i] = pulled
        del feet  # freed before the next step builds its own
    return chain


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
