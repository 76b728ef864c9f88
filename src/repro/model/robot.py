"""The robot model: a topological tree of links (Section II of the paper).

Links are indexed ``0 .. nb-1`` with the invariant ``parent(i) < i`` (the
world is ``-1``); this matches the paper's ``lambda_i`` ordering and makes
every forward loop a single left-to-right sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.model.joints import Joint
from repro.model.link import Link
from repro.spatial.inertia import SpatialInertia
from repro.spatial.so3 import is_rotation
from repro.spatial.transforms import spatial_transform

GRAVITY = 9.80665


@dataclass(frozen=True)
class DofLayout:
    """Mapping from links to slices of the stacked q / qd vectors."""

    offsets: tuple[int, ...]
    counts: tuple[int, ...]

    def slice_of(self, link_index: int) -> slice:
        start = self.offsets[link_index]
        return slice(start, start + self.counts[link_index])


class RobotModel:
    """An open-chain rigid body system described as a topological tree."""

    def __init__(self, links: list[Link], name: str = "robot",
                 gravity: np.ndarray | None = None) -> None:
        if not links:
            raise ModelError("robot must have at least one link")
        for i, link in enumerate(links):
            if not (-1 <= link.parent < i):
                raise ModelError(
                    f"link {i} ({link.name!r}) has parent {link.parent}; "
                    "parents must precede children (world is -1)"
                )
        names = [link.name for link in links]
        if len(set(names)) != len(names):
            raise ModelError("link names must be unique")
        self.name = name
        self.links = list(links)
        self.gravity = (
            np.array([0.0, 0.0, 0.0, 0.0, 0.0, -GRAVITY])
            if gravity is None
            else np.asarray(gravity, dtype=float)
        )
        offsets: list[int] = []
        counts: list[int] = []
        total = 0
        for link in links:
            offsets.append(total)
            counts.append(link.joint.nv)
            total += link.joint.nv
        self._layout = DofLayout(tuple(offsets), tuple(counts))
        self._nv = total
        self._children: list[list[int]] = [[] for _ in links]
        for i, link in enumerate(links):
            if link.parent >= 0:
                self._children[link.parent].append(i)
        self._subtrees = self._compute_subtrees()
        self._depths = self._compute_depths()
        self._validate_masses()

    # ------------------------------------------------------------------
    # Basic shape queries
    # ------------------------------------------------------------------

    @property
    def nb(self) -> int:
        """Number of links/joints (the paper's NB)."""
        return len(self.links)

    @property
    def nv(self) -> int:
        """Total degrees of freedom (the paper's N)."""
        return self._nv

    @property
    def layout(self) -> DofLayout:
        return self._layout

    def joint(self, i: int) -> Joint:
        return self.links[i].joint

    def parent(self, i: int) -> int:
        return self.links[i].parent

    def children(self, i: int) -> list[int]:
        return list(self._children[i])

    def dof_slice(self, i: int) -> slice:
        """Slice of q / qd owned by link i's joint."""
        return self._layout.slice_of(i)

    def link_index(self, name: str) -> int:
        for i, link in enumerate(self.links):
            if link.name == name:
                return i
        raise ModelError(f"no link named {name!r}")

    # ------------------------------------------------------------------
    # Topology queries (tree(i), treee(i), depth, ancestors)
    # ------------------------------------------------------------------

    def subtree(self, i: int) -> list[int]:
        """The paper's ``tree(i)``: all links in the subtree rooted at i
        (including i), in increasing index order."""
        return list(self._subtrees[i])

    def subtree_strict(self, i: int) -> list[int]:
        """The paper's ``treee(i) = tree(i) \\ i``."""
        return [j for j in self._subtrees[i] if j != i]

    def ancestors(self, i: int) -> list[int]:
        """Links on the path from the root down to i, excluding i."""
        out: list[int] = []
        j = self.links[i].parent
        while j >= 0:
            out.append(j)
            j = self.links[j].parent
        out.reverse()
        return out

    def supporting_dofs(self, i: int) -> list[int]:
        """DOF indices of all joints on the root-to-i path (inclusive).

        These are exactly the columns that can be non-zero in the
        derivative matrices of link i — the paper's incremental column
        vectors (Fig 7b).
        """
        dofs: list[int] = []
        for j in self.ancestors(i) + [i]:
            sl = self.dof_slice(j)
            dofs.extend(range(sl.start, sl.stop))
        return dofs

    def depth(self, i: int) -> int:
        """Number of joints on the path from the world to link i (>= 1)."""
        return self._depths[i]

    def max_depth(self) -> int:
        return max(self._depths)

    def leaves(self) -> list[int]:
        return [i for i in range(self.nb) if not self._children[i]]

    def is_serial_chain(self) -> bool:
        return all(len(self._children[i]) <= 1 for i in range(self.nb))

    # ------------------------------------------------------------------
    # Configuration helpers
    # ------------------------------------------------------------------

    def neutral_q(self) -> np.ndarray:
        q = np.zeros(self.nv)
        for i, link in enumerate(self.links):
            q[self.dof_slice(i)] = link.joint.neutral()
        return q

    def random_q(self, rng: np.random.Generator) -> np.ndarray:
        q = np.zeros(self.nv)
        for i, link in enumerate(self.links):
            q[self.dof_slice(i)] = link.joint.random(rng)
        return q

    def random_state(
        self, rng: np.random.Generator, velocity_scale: float = 1.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """A random (q, qd) pair."""
        return self.random_q(rng), rng.normal(scale=velocity_scale, size=self.nv)

    def integrate(self, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
        """Per-joint manifold update ``q [+] dq``."""
        q = np.asarray(q, dtype=float)
        dq = np.asarray(dq, dtype=float)
        out = np.empty_like(q)
        for i, link in enumerate(self.links):
            sl = self.dof_slice(i)
            out[sl] = link.joint.integrate(q[sl], dq[sl])
        return out

    def batch_integrate(self, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
        """Manifold update ``q [+] dq`` for a task batch: ``(n, nv)``.

        Joints with plain coordinate velocities (``coordinate_velocity``,
        i.e. ``integrate == q + dq``) update in one whole-batch addition;
        quasi-velocity joints (spherical/floating) fall back to their
        per-task exponential maps on just their own q slice.
        """
        q = np.atleast_2d(np.asarray(q, dtype=float))
        dq = np.atleast_2d(np.asarray(dq, dtype=float))
        out = q + dq
        for i, link in enumerate(self.links):
            if link.joint.coordinate_velocity:
                continue
            sl = self.dof_slice(i)
            for k in range(q.shape[0]):
                out[k, sl] = link.joint.integrate(q[k, sl], dq[k, sl])
        return out

    def motion_subspaces(self) -> list[np.ndarray]:
        """All S_i, indexable by link."""
        return [link.joint.motion_subspace() for link in self.links]

    def parent_transforms(self, q: np.ndarray) -> list[np.ndarray]:
        """All ``^iX_lambda(q_i)``, indexable by link."""
        q = np.asarray(q, dtype=float)
        return [
            link.parent_transform(q[self.dof_slice(i)])
            for i, link in enumerate(self.links)
        ]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _compute_subtrees(self) -> list[tuple[int, ...]]:
        subtree_sets: list[list[int]] = [[i] for i in range(self.nb)]
        for i in range(self.nb - 1, -1, -1):
            parent = self.links[i].parent
            if parent >= 0:
                subtree_sets[parent].extend(subtree_sets[i])
        return [tuple(sorted(s)) for s in subtree_sets]

    def _compute_depths(self) -> list[int]:
        depths = [0] * self.nb
        for i, link in enumerate(self.links):
            depths[i] = 1 if link.parent < 0 else depths[link.parent] + 1
        return depths

    def _validate_masses(self) -> None:
        # Massless intermediate links are fine (composite joints); every
        # leaf subtree must still carry some mass or the mass matrix would
        # be singular.
        for leaf in self.leaves():
            chain_mass = self.links[leaf].inertia.mass
            j = leaf
            while chain_mass == 0.0 and self.links[j].parent >= 0:
                j = self.links[j].parent
                chain_mass += self.links[j].inertia.mass
            if chain_mass <= 0.0:
                raise ModelError(
                    f"leaf link {self.links[leaf].name!r} has a massless "
                    "supporting chain; the mass matrix would be singular"
                )

    def __repr__(self) -> str:
        return f"RobotModel({self.name!r}, nb={self.nb}, nv={self.nv})"


class RobotBuilder:
    """Incremental construction of a :class:`RobotModel` by link names."""

    def __init__(self, name: str = "robot") -> None:
        self._name = name
        self._links: list[Link] = []
        self._index: dict[str, int] = {}

    def add_link(
        self,
        name: str,
        parent: str | None,
        joint: Joint,
        inertia: SpatialInertia,
        *,
        translation: np.ndarray | None = None,
        rotation: np.ndarray | None = None,
        x_tree: np.ndarray | None = None,
    ) -> "RobotBuilder":
        """Append a link.

        The fixed parent-to-joint placement can be given either as an
        explicit ``x_tree`` transform or as ``rotation`` (3x3, parent->joint
        coordinate transform) plus ``translation`` (joint origin in parent
        coordinates).
        """
        if name in self._index:
            raise ModelError(f"duplicate link name {name!r}")
        if parent is None:
            parent_index = -1
        else:
            if parent not in self._index:
                raise ModelError(f"unknown parent link {parent!r}")
            parent_index = self._index[parent]
        if x_tree is None:
            e = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
            if not is_rotation(e):
                raise ModelError(f"link {name!r}: rotation is not orthonormal")
            r = np.zeros(3) if translation is None else np.asarray(translation, dtype=float)
            x_tree = spatial_transform(e, r)
        elif translation is not None or rotation is not None:
            raise ModelError("pass either x_tree or rotation/translation, not both")
        self._index[name] = len(self._links)
        self._links.append(Link(name, parent_index, joint, inertia, x_tree))
        return self

    def build(self, gravity: np.ndarray | None = None) -> RobotModel:
        return RobotModel(self._links, name=self._name, gravity=gravity)
