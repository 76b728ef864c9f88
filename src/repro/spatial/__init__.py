"""Featherstone spatial (6D) vector algebra substrate.

All operators broadcast over leading batch axes (``(..., 6)`` vectors,
``(..., 6, 6)`` transforms/operators), so the same functions serve both the
scalar reference algorithms and the compiled batch engine, which loops
over tree depth levels but applies every step to the whole task batch at
once.
"""

from repro.spatial.inertia import SpatialInertia
from repro.spatial.motion import (
    crf,
    crf_bar,
    crm,
    cross_force,
    cross_motion,
)
from repro.spatial.so3 import (
    exp_so3,
    is_rotation,
    log_so3,
    rot_axis,
    rotx,
    roty,
    rotz,
    skew,
    unskew,
)
from repro.spatial.transforms import (
    force_transform,
    inverse_transform,
    is_spatial_transform,
    rot,
    spatial_transform,
    transform_rotation,
    transform_translation,
    xlt,
)

__all__ = [
    "SpatialInertia",
    "crf",
    "crf_bar",
    "crm",
    "cross_force",
    "cross_motion",
    "exp_so3",
    "force_transform",
    "inverse_transform",
    "is_rotation",
    "is_spatial_transform",
    "log_so3",
    "rot",
    "rot_axis",
    "rotx",
    "roty",
    "rotz",
    "skew",
    "spatial_transform",
    "transform_rotation",
    "transform_translation",
    "unskew",
    "xlt",
]
