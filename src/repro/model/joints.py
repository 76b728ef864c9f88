"""Joint models.

Every joint exposes a *constant* motion subspace ``S`` (6 x nv) and a
configuration-dependent joint transform ``X_J(q)`` with the defining
property used throughout the derivative algorithms::

    X_J(q [+] delta) ~= exp(-crm(S @ delta)) @ X_J(q)

i.e. tangent increments act in the child frame.  Multi-DOF joints use
rotation-vector coordinates so ``len(q) == nv`` for the whole robot, which is
also the representation the paper's hardware streams (it consumes
``q, sin q, cos q`` directly).

Planar joints are intentionally absent: they are the one Featherstone joint
whose natural ``S`` is configuration-dependent, so we model planar bases as
prismatic-prismatic-revolute composites (see ``repro.model.library``); the
paper only uses the planar type as a resource optimization for Tiago's root.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.spatial.motion import crm
from repro.spatial.so3 import exp_so3, log_so3, skew
from repro.spatial.transforms import rot, spatial_transform, xlt


@dataclass(frozen=True)
class JointCostProfile:
    """Structural cost metadata consumed by the accelerator cost model.

    ``x_mults`` counts the multiplications needed to refresh ``X_J`` (the
    paper counts 8 for a revolute joint: 12 varying elements holding 8
    distinct ``c*sin q`` / ``c*cos q`` products).  ``trig_pairs`` is the
    number of (sin, cos) evaluations the Global Trigonometric Module must
    supply, and ``s_one_hot`` marks the common case where multiplying by
    ``S`` degenerates to a row/column selection.
    """

    nv: int
    trig_pairs: int
    x_mults: int
    s_one_hot: bool


class Joint(ABC):
    """Base class for all joint types."""

    #: degrees of freedom (columns of S); equals the length of this joint's
    #: slice of q and qd.
    nv: int

    #: True when qd is the plain time-derivative of q (integrate == q + dq).
    #: Spherical/floating joints use quasi-velocities (body-frame twists)
    #: instead, which changes the form of the Lagrangian equations.
    coordinate_velocity: bool = True

    @abstractmethod
    def motion_subspace(self) -> np.ndarray:
        """The constant 6 x nv motion subspace ``S``."""

    @abstractmethod
    def joint_transform(self, q: np.ndarray) -> np.ndarray:
        """The 6x6 transform ``X_J(q)`` (child coords <- pre-joint coords)."""

    def batch_joint_transform(self, q: np.ndarray) -> np.ndarray:
        """``X_J`` for a whole task batch: ``(n, nv)`` -> ``(n, 6, 6)``.

        The base implementation loops over tasks; concrete joints override
        it with a broadcast construction so the compiled plan's transform
        refresh for non-revolute/prismatic joints costs one array op
        instead of ``n`` Python calls.
        """
        q = np.asarray(q, dtype=float)
        return np.stack([self.joint_transform(q[k]) for k in range(q.shape[0])])

    @abstractmethod
    def integrate(self, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
        """Configuration update ``q [+] dq`` consistent with the tangent
        convention in the module docstring."""

    @abstractmethod
    def cost_profile(self) -> JointCostProfile:
        """Structural costs for the hardware model."""

    def neutral(self) -> np.ndarray:
        """The zero configuration."""
        return np.zeros(self.nv)

    def random(self, rng: np.random.Generator) -> np.ndarray:
        """A random configuration suitable for tests/benchmarks."""
        return rng.uniform(-1.0, 1.0, size=self.nv)

    @property
    def type_name(self) -> str:
        return type(self).__name__

    def structural_signature(self) -> str:
        """A string identifying the joint *type* (used to detect symmetric
        branches that can share one hardware branch array)."""
        return self.type_name


def _unit_axis(axis: np.ndarray) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(axis))
    if norm < 1e-12:
        raise ModelError("joint axis must be non-zero")
    return axis / norm


def _se3_exp(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SE(3) exponential of a twist ``delta = [w; v]``.

    Returns (R, p): the displacement rotation and translation such that the
    frame moves by ``delta`` expressed in its own (body) coordinates.
    """
    w = np.asarray(delta[:3], dtype=float)
    v = np.asarray(delta[3:], dtype=float)
    theta = float(np.linalg.norm(w))
    r = exp_so3(w)
    k = skew(w)
    if theta < 1e-8:
        v_mat = np.eye(3) + 0.5 * k + (k @ k) / 6.0
    else:
        v_mat = (
            np.eye(3)
            + (1.0 - np.cos(theta)) / theta**2 * k
            + (theta - np.sin(theta)) / theta**3 * (k @ k)
        )
    return r, v_mat @ v


class RevoluteJoint(Joint):
    """1-DOF rotation about a unit axis through the joint-frame origin."""

    nv = 1

    def __init__(self, axis: np.ndarray = (0.0, 0.0, 1.0)) -> None:
        self.axis = _unit_axis(np.asarray(axis, dtype=float))

    def motion_subspace(self) -> np.ndarray:
        s = np.zeros((6, 1))
        s[:3, 0] = self.axis
        return s

    def joint_transform(self, q: np.ndarray) -> np.ndarray:
        # E = exp(skew(axis)*q).T: coordinate transform into the rotated frame.
        return rot(exp_so3(self.axis * float(q[0])).T)

    def joint_transform_trig(self, sin_q: float, cos_q: float) -> np.ndarray:
        """Build ``X_J`` from precomputed sin/cos (the accelerator path)."""
        k = skew(self.axis)
        e = np.eye(3) + sin_q * k + (1.0 - cos_q) * (k @ k)
        return rot(e.T)

    def batch_joint_transform(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        e = exp_so3(self.axis * q)          # (n, 3, 3)
        return rot(np.swapaxes(e, -1, -2))

    def integrate(self, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
        return q + dq

    def random(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-np.pi, np.pi, size=1)

    def cost_profile(self) -> JointCostProfile:
        return JointCostProfile(nv=1, trig_pairs=1, x_mults=8, s_one_hot=True)

    def structural_signature(self) -> str:
        # Axis sign does not change hardware structure (the paper shares
        # mirrored legs whose parameters "differ only in sign").
        return f"R[{np.argmax(np.abs(self.axis))}]"


class PrismaticJoint(Joint):
    """1-DOF translation along a unit axis."""

    nv = 1

    def __init__(self, axis: np.ndarray = (0.0, 0.0, 1.0)) -> None:
        self.axis = _unit_axis(np.asarray(axis, dtype=float))

    def motion_subspace(self) -> np.ndarray:
        s = np.zeros((6, 1))
        s[3:, 0] = self.axis
        return s

    def joint_transform(self, q: np.ndarray) -> np.ndarray:
        return xlt(self.axis * float(q[0]))

    def batch_joint_transform(self, q: np.ndarray) -> np.ndarray:
        return xlt(self.axis * np.asarray(q, dtype=float))

    def integrate(self, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
        return q + dq

    def cost_profile(self) -> JointCostProfile:
        return JointCostProfile(nv=1, trig_pairs=0, x_mults=3, s_one_hot=True)

    def structural_signature(self) -> str:
        return f"P[{np.argmax(np.abs(self.axis))}]"


class HelicalJoint(Joint):
    """1-DOF screw: rotation about an axis with coupled translation (pitch)."""

    nv = 1

    def __init__(self, axis: np.ndarray = (0.0, 0.0, 1.0), pitch: float = 0.1) -> None:
        self.axis = _unit_axis(np.asarray(axis, dtype=float))
        self.pitch = float(pitch)

    def motion_subspace(self) -> np.ndarray:
        s = np.zeros((6, 1))
        s[:3, 0] = self.axis
        s[3:, 0] = self.pitch * self.axis
        return s

    def joint_transform(self, q: np.ndarray) -> np.ndarray:
        angle = float(q[0])
        e = exp_so3(self.axis * angle).T
        return rot(e) @ xlt(self.axis * self.pitch * angle)

    def batch_joint_transform(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        e = np.swapaxes(exp_so3(self.axis * q), -1, -2)
        return rot(e) @ xlt(self.axis * self.pitch * q)

    def integrate(self, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
        return q + dq

    def cost_profile(self) -> JointCostProfile:
        return JointCostProfile(nv=1, trig_pairs=1, x_mults=12, s_one_hot=False)


class CylindricalJoint(Joint):
    """2-DOF: rotation about and translation along the same axis."""

    nv = 2

    def __init__(self, axis: np.ndarray = (0.0, 0.0, 1.0)) -> None:
        self.axis = _unit_axis(np.asarray(axis, dtype=float))

    def motion_subspace(self) -> np.ndarray:
        s = np.zeros((6, 2))
        s[:3, 0] = self.axis
        s[3:, 1] = self.axis
        return s

    def joint_transform(self, q: np.ndarray) -> np.ndarray:
        e = exp_so3(self.axis * float(q[0])).T
        return rot(e) @ xlt(self.axis * float(q[1]))

    def batch_joint_transform(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        e = np.swapaxes(exp_so3(self.axis * q[:, :1]), -1, -2)
        return rot(e) @ xlt(self.axis * q[:, 1:2])

    def integrate(self, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
        return q + dq

    def cost_profile(self) -> JointCostProfile:
        return JointCostProfile(nv=2, trig_pairs=1, x_mults=12, s_one_hot=True)


class SphericalJoint(Joint):
    """3-DOF ball joint; q is a rotation vector (child relative to parent)."""

    nv = 3
    coordinate_velocity = False

    def motion_subspace(self) -> np.ndarray:
        s = np.zeros((6, 3))
        s[:3, :] = np.eye(3)
        return s

    def joint_transform(self, q: np.ndarray) -> np.ndarray:
        return rot(exp_so3(np.asarray(q, dtype=float)).T)

    def batch_joint_transform(self, q: np.ndarray) -> np.ndarray:
        e = exp_so3(np.asarray(q, dtype=float))
        return rot(np.swapaxes(e, -1, -2))

    def integrate(self, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
        r_new = exp_so3(np.asarray(q, dtype=float)) @ exp_so3(np.asarray(dq, dtype=float))
        return log_so3(r_new)

    def random(self, rng: np.random.Generator) -> np.ndarray:
        w = rng.normal(size=3)
        w /= max(np.linalg.norm(w), 1e-12)
        return w * rng.uniform(0.0, 2.0)

    def cost_profile(self) -> JointCostProfile:
        return JointCostProfile(nv=3, trig_pairs=3, x_mults=24, s_one_hot=True)


class Translation3Joint(Joint):
    """3-DOF free translation."""

    nv = 3

    def motion_subspace(self) -> np.ndarray:
        s = np.zeros((6, 3))
        s[3:, :] = np.eye(3)
        return s

    def joint_transform(self, q: np.ndarray) -> np.ndarray:
        return xlt(np.asarray(q, dtype=float))

    def batch_joint_transform(self, q: np.ndarray) -> np.ndarray:
        return xlt(np.asarray(q, dtype=float))

    def integrate(self, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
        return q + dq

    def cost_profile(self) -> JointCostProfile:
        return JointCostProfile(nv=3, trig_pairs=0, x_mults=9, s_one_hot=True)


class FloatingJoint(Joint):
    """6-DOF free motion; q = [rotation vector (3); position (3)].

    Velocity coordinates are the child-frame spatial velocity ``[w; v]``.
    The paper optionally splits this joint into spherical + translation3 at
    the hardware level (section V-C5); see ``topology.split_floating_base``.
    """

    nv = 6
    coordinate_velocity = False

    def motion_subspace(self) -> np.ndarray:
        return np.eye(6)

    def joint_transform(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        r = exp_so3(q[:3])
        return spatial_transform(r.T, q[3:])

    def batch_joint_transform(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        r = exp_so3(q[:, :3])
        return spatial_transform(np.swapaxes(r, -1, -2), q[:, 3:])

    def integrate(self, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        dq = np.asarray(dq, dtype=float)
        r = exp_so3(q[:3])
        r_d, p_d = _se3_exp(dq)
        r_new = r @ r_d
        p_new = q[3:] + r @ p_d
        return np.concatenate([log_so3(r_new), p_new])

    def random(self, rng: np.random.Generator) -> np.ndarray:
        w = rng.normal(size=3)
        w /= max(np.linalg.norm(w), 1e-12)
        rv = w * rng.uniform(0.0, 2.0)
        p = rng.uniform(-1.0, 1.0, size=3)
        return np.concatenate([rv, p])

    def cost_profile(self) -> JointCostProfile:
        return JointCostProfile(nv=6, trig_pairs=3, x_mults=42, s_one_hot=True)


class ScrewJoint(Joint):
    """1-DOF motion along an arbitrary unit screw ``S`` (axis need not pass
    through the joint-frame origin).

    This is the joint type produced by tree re-rooting (reversing a revolute
    or prismatic edge conjugates its axis by a fixed transform); see
    ``repro.model.topology.reroot``.
    """

    nv = 1

    def __init__(self, screw: np.ndarray) -> None:
        screw = np.asarray(screw, dtype=float)
        if screw.shape != (6,):
            raise ModelError("screw must be a 6-vector")
        ang = np.linalg.norm(screw[:3])
        lin = np.linalg.norm(screw[3:])
        if ang < 1e-12 and lin < 1e-12:
            raise ModelError("screw must be non-zero")
        # Normalize: unit angular part when present, else unit linear part.
        self.screw = screw / (ang if ang >= 1e-12 else lin)

    def motion_subspace(self) -> np.ndarray:
        return self.screw.reshape(6, 1)

    def joint_transform(self, q: np.ndarray) -> np.ndarray:
        # X_J(q) = exp(-crm(S) q); computed via the SE(3) closed form to
        # avoid a 6x6 matrix exponential.
        delta = self.screw * float(q[0])
        r_d, p_d = _se3_exp(delta)
        # X for a child frame displaced by (r_d, p_d): E = r_d.T, r = p_d.
        return spatial_transform(r_d.T, p_d)

    def integrate(self, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
        return q + dq

    def cost_profile(self) -> JointCostProfile:
        return JointCostProfile(nv=1, trig_pairs=1, x_mults=16, s_one_hot=False)

    def structural_signature(self) -> str:
        return "S*"


def crm_subspace(joint: Joint) -> np.ndarray:
    """``crm`` of each column of the joint's motion subspace, stacked.

    Convenience for derivative code; shape (nv, 6, 6).
    """
    s = joint.motion_subspace()
    return np.stack([crm(s[:, k]) for k in range(joint.nv)])
