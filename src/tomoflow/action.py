"""Group actions of deformations on images."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from .grid import ScalarImage

if TYPE_CHECKING:
    from .flow import FlowChain


class GroupAction(enum.Enum):
    """How a deformation acts on an image.

    GEOMETRIC moves intensities without rescaling them (composition with
    the inverse deformation); MASS_PRESERVING additionally multiplies by
    the Jacobian determinant so the total integral is conserved.
    """

    GEOMETRIC = "geometric"
    MASS_PRESERVING = "mass-preserving"

    @property
    def jacobian_sign(self) -> float:
        """The sign of the flow sweep along Id + sign v_i/N that carries
        this action's Jacobian determinant (see ``flow``).

        +1 for GEOMETRIC: the Jacobian to time 1, |Dphi_{t_i,1}|, stepped
        from A_N = 1 by the backward sweep (i = N-1..0), which yields it
        times the back-propagated field; the velocity gradient
        differentiates the forward chain (the transported template) and
        subtracts the smoothed moment.

        -1 for MASS_PRESERVING: the Jacobian to time 0, |Dphi_{t_i,0}|,
        stepped from A_0 = 1 by the forward sweep (i = 1..N), which
        stores it times the transported template, so that chain is the
        template under the action; the velocity gradient differentiates
        the backward sweep's slices and adds the smoothed moment.

        The other sweep gives its plain pulled images.
        """
        return 1.0 if self is GroupAction.GEOMETRIC else -1.0

    @classmethod
    def _missing_(cls, name):
        raise ValueError(f"unknown group action {name!r}; use 'geometric' or 'mass-preserving'")


def deform(chain: "FlowChain") -> ScalarImage:
    """Final deformed template of a flow chain, under the chain's action."""
    return ScalarImage(chain.grid, chain.transported_template[-1])
