"""Link description: one rigid body plus the joint connecting it to its parent."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError
from repro.model.joints import Joint
from repro.spatial.inertia import SpatialInertia
from repro.spatial.transforms import is_spatial_transform


@dataclass
class Link:
    """One link of the robot tree.

    ``x_tree`` is the fixed transform from the parent link frame to this
    link's joint frame (Featherstone's ``XT(i)``); the full parent-to-link
    transform is ``X_J(q_i) @ x_tree``.
    """

    name: str
    parent: int                      # parent link index; -1 attaches to world
    joint: Joint
    inertia: SpatialInertia
    x_tree: np.ndarray = field(default_factory=lambda: np.eye(6))

    def __post_init__(self) -> None:
        self.x_tree = np.asarray(self.x_tree, dtype=float)
        if not is_spatial_transform(self.x_tree):
            raise ModelError(f"link {self.name!r}: x_tree is not a Plücker transform")

    def parent_transform(self, q: np.ndarray) -> np.ndarray:
        """``^iX_lambda(q_i)`` — the motion transform from parent to link."""
        return self.joint.joint_transform(q) @ self.x_tree
