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

    @classmethod
    def _missing_(cls, name):
        raise ValueError(f"unknown group action {name!r}; use 'geometric' or 'mass-preserving'")


def deform(chain: "FlowChain") -> ScalarImage:
    """Final deformed template of a flow chain, under the chain's action."""
    final = chain.transported_template[-1]
    if chain.action is GroupAction.MASS_PRESERVING:
        final = chain.jacobian[-1] * final
    return ScalarImage(chain.grid, final)
