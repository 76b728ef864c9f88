"""Per-robot execution plans: the robot's structure compiled ahead of time.

Dadu-RBD's central idea is that the *structure* of the robot — its tree
topology, joint types and DOF layout — is known long before any dynamics
call, so everything derivable from structure is compiled into the datapath
up front: the Structure-Adaptive Pipelines (SAPS) organize hardware around
the branch decomposition, the multifunctional pipelines keep every stage
busy across independent branches, and the Schedule Module replays a fixed
operand schedule instead of re-walking the tree.  This module is the
host-side analogue of that compilation step.  An :class:`ExecutionPlan` is
built once per :class:`~repro.model.robot.RobotModel` (from the model plus
:func:`repro.model.topology.decompose` /
:func:`~repro.model.topology.level_schedule`) and holds:

* **a level schedule** — links grouped by tree depth, the wavefront the
  paper's pipelines sweep: all links of one level advance in a single
  fused ``(n, L_d, ...)`` array op, so Atlas's two arms and two legs cost
  one step per depth instead of one step per link (the SAPS branch arrays,
  fused on the host instead of replicated in silicon);
* **flattened index arrays** — parent gathers, parent-incidence
  matrices for the child-to-parent sums and per-level slot ranges,
  precomputed so the hot loop never touches a Python-level tree query
  (the Schedule Module's address streams);
* **motion-subspace selector stacks** — per-level ``S`` stacks with the
  one-DOF common case compiled to broadcast multiplies and paired index
  writes instead of matrix products (the paper's ``s_one_hot`` selection
  wiring);
* **a packed column layout** — the DOF-column axis of the mass-matrix
  and derivative sweeps is permuted into slot order, so each level's
  subtree columns (backward sweeps) and path columns (forward sweeps)
  are one contiguous window and every step runs at exactly that width,
  the host-side version of the paper's incremental column vectors
  (Fig 7b).  It is the only layout: like the paper's SAPS, it adapts to
  the robot's structure rather than to a user-set mode;
* **precomputed einsum paths** — every contraction in the Table-I kernels
  runs through the backend's ``einsum``, which caches each expression's
  ``einsum_path``;
* **a reusable workspace** — per-thread, preallocated transform /
  velocity / force / derivative stacks sized ``(n_max, n_links, ...)``,
  so steady-state calls never reallocate the O(n·links) recursion state
  (outputs and small per-level BLAS temporaries are the only transient
  allocations).

Links are re-indexed into *slots* sorted by ``(depth, joint.nv, index)``
so every level — and every uniform-DOF group inside a level — is one
contiguous slab of the workspace stacks, turning level steps into views
instead of gathers.  The q/qd/tau layout is untouched; only the internal
link axis is permuted.

Forward dynamics runs as a level-scheduled articulated-body pass (three
O(links) sweeps, no ``nv``-column state at all), which the seed validates
against the paper's ``Minv @ (tau - C)`` substitution; the derivative
kernels carry their d/dq and d/dqd operands on one leading block axis so
each level step is a single broadcast contraction.

:func:`plan_for` memoizes plans per model *and backend* (weakly over
models, so they can be collected); the ``"compiled"`` engine in
:mod:`repro.dynamics.engine` evaluates all seven Table-I functions on top
of these plans.  A plan compiled with ``backend="cupy"`` holds its
constant stacks, selector stacks, index arrays and workspaces on the
device, so the same level-scheduled kernels run there unmodified —
structure compilation happens once on the host (the paper's offline
bitstream build), operand execution wherever the plan lives.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, replace as _dc_replace

from repro.backend import (
    ArrayBackend,
    BackendCapabilityError,
    get_backend,
    host_backend,
)
from repro.dynamics.mminv import _symmetrize_from_rows
from repro.obs import hooks as _obs
from repro.model.joints import PrismaticJoint, RevoluteJoint
from repro.model.robot import RobotModel
from repro.model.topology import decompose, level_schedule
from repro.spatial.motion import crf, crf_bar, crm, cross_force, cross_motion

#: Host (compilation) namespace, reached through the backend shim: the
#: structure-compilation pass — index arrays, selector stacks, level
#: bookkeeping — always runs on the host; only the finished constant
#: stacks are placed on the plan's execution backend.
np = host_backend().xp


def _mv(x, v):
    """Batched matrix @ vector over arbitrary leading axes."""
    return (x @ v[..., None])[..., 0]


# ---------------------------------------------------------------------------
# Compiled structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelGroup:
    """Links of one level sharing a joint DOF count ``k`` (one slot slab).

    Uniform ``k`` makes the group's joint-space quantities rectangular;
    for the ubiquitous ``k == 1`` case the kernels drop to broadcast
    multiplies over ``axis`` and paired index writes at ``rows`` — the
    one-hot selection the paper folds into wiring.
    """

    lo: int                  # absolute slot range [lo, hi)
    hi: int
    k: int                   # joint.nv shared by every link in the group
    links: np.ndarray        # (Lg,) original link indices
    subspaces: np.ndarray    # (Lg, 6, k) motion subspaces S
    subspaces_t: np.ndarray  # (Lg, k, 6) == S^T
    axis: np.ndarray         # (Lg, 6) == S[:, 0] (only meaningful for k == 1)
    dofs: np.ndarray         # (Lg, k) global DOF columns
    rows: np.ndarray         # (Lg*k,) flattened DOF rows (q-layout)
    slots: np.ndarray        # (Lg,) == arange(lo, hi), for paired writes
    rel: np.ndarray          # (Lg,) slots relative to the level's lo

    @property
    def size(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class PlanLevel:
    """One wavefront of the level schedule, in slot coordinates."""

    index: int
    depth: int
    lo: int                  # slot slab [lo, hi)
    hi: int
    is_root: bool
    links: np.ndarray        # (L,) original link indices, slot order
    parent_slots: np.ndarray  # (L,) parent slot per link (-1 at the root)
    groups: tuple[LevelGroup, ...]
    sel: np.ndarray          # (L, 6, nv) expanded subspace selectors

    @property
    def size(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class PackedLevel:
    """Packed-column geometry of one level (the Fig 7b column vectors).

    Packing reindexes the *internal* DOF-column axis into slot order
    (``ExecutionPlan.col_perm``) — the column analogue of the link ->
    slot reindexing the plan already performs.  Because slots are sorted
    by depth, both per-level column unions become contiguous runs of the
    permuted layout, so the packed sweeps are plain slice arithmetic at
    exactly the union width instead of index-array gathers:

    * the union of the level links' root-to-link *path* columns — the
      only columns where the derivative forward-sweep transfer stacks
      can be nonzero — is the prefix ``[0, w)`` (every path column
      belongs to a link of depth <= this level's);
    * the union of the links' *subtree* columns — the only columns where
      the mass-matrix backward-sweep force accumulators can be nonzero —
      is the suffix ``[wp, nv)`` (every link of greater depth descends
      from exactly one link of this level).

    ``wp`` is simultaneously the parent level's prefix width and this
    level's suffix start: the parent prefix nests inside the child's, so
    forward propagation is one matmul at width ``wp`` plus a zero-fill
    of the ``[wp, w)`` gap, and child suffixes nest inside the parent's,
    so backward accumulation scatters at the tighter window.
    ``own_pos`` gives, per :class:`LevelGroup`, each link's own DOF
    columns in the packed layout — the owned columns the sweeps scatter
    results back to.

    ``incidence`` is the one way children accumulate into parents: the
    ``(parent level size, L)`` 0/1 matrix with a one at ``[prel[i], i]``,
    so one matmul sums every link's slab into its parent's row and
    siblings under a shared parent add up.

    Two kernel families read these tables: the in-place sweeps of
    :class:`ExecutionPlan` (``incidence`` wherever ``pslice`` is None),
    and the out-of-place sweeps of
    :class:`~repro.dynamics.functional.FunctionalPlan` behind the ``jit``
    engine, which use ``w``/``wp`` for their windows, ``prel`` for
    parent gathers, ``incidence`` for every parent sum, ``prow`` to
    place own-column terms, and the plan's ``col_pos`` to unpermute
    their outputs.
    """

    w: int                        # prefix width: DOF count of slots [0, hi)
    wp: int                       # parent prefix width == suffix start
    prel: np.ndarray | None       # (L,) parent positions within the parent
                                  # level (None at the root)
    incidence: np.ndarray | None  # (parent level size, L) 0/1 parent sum
                                  # (None at the root)
    own_pos: tuple                # per group: (Lg, k) packed own columns
    sel_packed: np.ndarray | None  # (L, 6, w) selectors, packed columns
    btr_packed: np.ndarray | None  # (L, nv, 6, 6) btr, packed column axis
    #: Parent slots as one basic slice when they are contiguous (which
    #: makes them unique; the common case), so backward scatters run as
    #: slice ``+=``; None means siblings share a parent or the parents
    #: are out of order, and the sum goes through ``incidence``.
    pslice: slice | None = None
    #: ``prel`` as a basic slice when the parent rows are the contiguous
    #: identity map (no branching between the two levels), so forward
    #: propagation matmuls read the parent slab view directly instead of
    #: staging a gathered copy.
    prelslice: slice | None = None
    #: Per group: the group's own DOF rows *in the packed permutation* —
    #: always one contiguous run (slots are contiguous and each link's
    #: DOF columns are), so permuted-row outputs write basic slices.
    prow: tuple = ()
    #: Per group: flat ``(nv*nv)`` diagonal slice of the group's own
    #: (row, col) entries in the permuted layout (k == 1 groups only).
    pdiag: tuple = ()
    #: Relative slots whose derivative ``DF[..., w:]`` tail must be
    #: zero-filled because no child-level scatter will overwrite it
    #: (childless slots, or every slot when the child level sums
    #: through ``incidence``); None when the tail is empty or
    #: fully covered by the child's slice-assign scatter.
    dfz: slice | np.ndarray | None = None


@dataclass(frozen=True)
class TransformGroup:
    """Links whose joint transforms are refreshed by one fused array op.

    Joint objects (not the model) are captured for the generic fallback,
    so a plan holds no reference back to its :class:`RobotModel` and the
    weak plan cache can collect transient models.
    """

    kind: str                # "revolute" | "prismatic" | "generic"
    slots: np.ndarray        # (L,) destination slots
    links: np.ndarray        # (L,) original link indices
    axes: np.ndarray         # (L, 3) joint axes (unused for "generic")
    qcols: np.ndarray        # (L,) global q column (single-DOF kinds)
    x_tree: np.ndarray       # (L, 6, 6) fixed parent placements
    joints: tuple = ()       # per-link Joint objects ("generic" only)
    qslices: tuple = ()      # per-link q slices ("generic" only)


@dataclass(frozen=True)
class StagedState:
    """What :meth:`ExecutionPlan.stage` read off one staging, task-major
    and in link order (None where not staged or not requested)."""

    xw: np.ndarray              # (n, nb, 6, 6) world transforms ^iX_0
    v: np.ndarray | None        # (n, nb, 6) link velocities
    avp: np.ndarray | None      # (n, nb, 6) velocity-product accelerations
                                # at qdd = 0, gravity-free (Jdot qd terms)
    bias: np.ndarray | None     # (n, nv) C = RNEA(q, qd, 0, f_ext)
    minv: np.ndarray | None     # (n, nv, nv)


def _scratch_view5(buf, n: int, L: int, nb: int, width: int):
    """A contiguous ``(n, L, nb, 6, width)`` block-axis view over a flat
    scratch buffer."""
    size = n * L * nb * 6 * width
    return buf.reshape(-1)[:size].reshape(n, L, nb, 6, width)


class PlanWorkspace:
    """Preallocated recursion state for one thread, grown monotonically.

    Buffer groups are allocated on first use (a service that only ever
    runs FD never pays for the derivative stacks) and reused across calls:
    ``ensure`` only reallocates when a batch exceeds every batch seen
    before, so steady-state traffic runs allocation-free on the big
    ``(n_max, n_links, ...)`` stacks.  ``shapes`` maps each group name
    to its ``{buffer: per-task shape}`` table
    (:meth:`ExecutionPlan._workspace_shapes`).
    """

    def __init__(self, shapes: dict,
                 backend: ArrayBackend | None = None) -> None:
        self._backend = backend or host_backend()
        self._shapes = shapes
        self.capacity = 0
        self._allocated: set[str] = set()

    def ensure(self, n: int, *groups: str) -> "PlanWorkspace":
        """Make every buffer of ``groups`` available with >= n task rows."""
        if n > self.capacity:
            self.capacity = n
            for group in self._allocated:
                self._allocate(group)
        for group in groups:
            if group not in self._allocated:
                self._allocated.add(group)
                self._allocate(group)
        return self

    def _allocate(self, group: str) -> None:
        for name, shape in self._shapes[group].items():
            setattr(self, name,
                    self._backend.xp.zeros((self.capacity,) + shape))

    def nbytes(self) -> int:
        return sum(
            getattr(self, name).nbytes
            for group in self._allocated
            for name in self._shapes[group]
        )


# ---------------------------------------------------------------------------
# The execution plan
# ---------------------------------------------------------------------------


class ExecutionPlan:
    """Structure of one robot, compiled for level-scheduled batch kernels.

    All public methods take task-major operands (``q``/``qd``/``qdd``/
    ``tau`` of shape ``(n, nv)``, ``f_ext`` as link -> ``(n, 6)`` stacks)
    and implement the same contracts as the engine interface in
    :mod:`repro.dynamics.engine`.
    """

    def __init__(self, model: RobotModel,
                 backend: str | ArrayBackend | None = None) -> None:
        # Only scalars/arrays/joint objects are captured from the model —
        # no back-reference — so the weak plan cache can actually collect
        # a transient model together with its plan.
        self.backend = get_backend(backend)
        if not self.backend.capabilities.inplace:
            raise BackendCapabilityError(
                f"backend {self.backend.name!r} has immutable arrays "
                "(capabilities.inplace=False); the compiled engine's "
                "preallocated workspaces require in-place mutation — "
                "use the 'numpy' or 'cupy' backend"
            )
        #: Kernel namespace and einsum of the execution backend.
        self._xp = self.backend.xp
        self._ein = self.backend.einsum
        #: Writable strided-view constructor (numpy and cupy expose one);
        #: the kernels fall back to fancy-index writes without it.
        _st = getattr(getattr(self._xp, "lib", None), "stride_tricks",
                      None)
        self._as_strided = getattr(_st, "as_strided", None)
        #: True when operands must cross the host boundary (f_ext stacks
        #: arrive as numpy from the serve layer).
        self._device = self.backend.name != "numpy"
        self.robot_name = model.name
        self.nb = model.nb
        self.nv = model.nv
        # decompose() validates the single-root invariant and exposes the
        # SAPS branch view the schedule fuses (recorded for introspection).
        self.n_branches = len(decompose(model).branches)
        nb, nv = self.nb, self.nv

        # Slot order: by (depth, joint nv, index) so levels and their
        # uniform-DOF groups are contiguous slabs of every stack.
        order = sorted(
            range(nb), key=lambda i: (model.depth(i), model.joint(i).nv, i)
        )
        self.link_of_slot = np.asarray(order, dtype=np.intp)
        self.slot_of_link = np.empty(nb, dtype=np.intp)
        self.slot_of_link[self.link_of_slot] = np.arange(nb)

        subspaces = model.motion_subspaces()
        starts = np.asarray(
            [model.dof_slice(i).start for i in range(nb)], dtype=np.intp
        )
        stops = np.asarray(
            [model.dof_slice(i).stop for i in range(nb)], dtype=np.intp
        )

        # Slot-ordered constant stacks.
        self.inertias = np.stack(
            [model.links[i].inertia.matrix() for i in order]
        )
        self.sel_all = np.zeros((nb, 6, nv))
        for slot, link in enumerate(order):
            self.sel_all[slot, :, starts[link]:stops[link]] = subspaces[link]

        self.levels = self._build_levels(model, subspaces, starts, stops)
        self.transform_groups = self._build_transform_groups(model, order)

        self.packed_levels = self._build_packing(starts, stops)
        self._ws_shapes = self._workspace_shapes()

        self.minus_gravity = -np.asarray(model.gravity, dtype=float)
        if self._device:
            self._place_on_backend()
        self._tls = threading.local()

    def _place_on_backend(self) -> None:
        """Move every operand-facing constant stack to the plan backend.

        Compilation built them on the host; a device plan executes with
        device-resident constants so the level kernels never cross the
        host boundary mid-recursion.  Host-side bookkeeping used for
        python-int indexing (``slot_of_link``) stays on the host.
        """
        dev = self._xp.asarray
        self.inertias = dev(self.inertias)
        self.sel_all = dev(self.sel_all)
        self.minus_gravity = dev(self.minus_gravity)
        self.levels = tuple(
            _dc_replace(
                lvl,
                parent_slots=dev(lvl.parent_slots),
                sel=dev(lvl.sel),
                groups=tuple(
                    _dc_replace(
                        g,
                        subspaces=dev(g.subspaces),
                        subspaces_t=dev(g.subspaces_t),
                        axis=dev(g.axis),
                        dofs=dev(g.dofs),
                        rows=dev(g.rows),
                        slots=dev(g.slots),
                        rel=dev(g.rel),
                    )
                    for g in lvl.groups
                ),
            )
            for lvl in self.levels
        )
        self.transform_groups = tuple(
            _dc_replace(
                g,
                slots=dev(g.slots),
                axes=dev(g.axes),
                qcols=dev(g.qcols),
                x_tree=dev(g.x_tree),
            )
            for g in self.transform_groups
        )
        opt = lambda a: None if a is None else dev(a)  # noqa: E731
        self.col_perm = dev(self.col_perm)
        self.col_pos = dev(self.col_pos)
        self.gyro_t = dev(self.gyro_t)
        if self._k1 is not None:
            self._k1 = {**self._k1,
                        "axis": dev(self._k1["axis"]),
                        "axis_nr": dev(self._k1["axis_nr"])}
        self.packed_levels = tuple(
            _dc_replace(
                pk,
                prel=opt(pk.prel),
                incidence=opt(pk.incidence),
                own_pos=tuple(dev(p) for p in pk.own_pos),
                sel_packed=opt(pk.sel_packed),
                btr_packed=opt(pk.btr_packed),
                dfz=(dev(pk.dfz)
                     if isinstance(pk.dfz, np.ndarray) else pk.dfz),
            )
            for pk in self.packed_levels
        )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _build_levels(self, model, subspaces, starts, stops):
        slot_of = self.slot_of_link
        levels: list[PlanLevel] = []
        lo = 0
        for index, level in enumerate(level_schedule(model)):
            links = sorted(level.links, key=lambda i: (model.joint(i).nv, i))
            links = np.asarray(links, dtype=np.intp)
            hi = lo + len(links)
            parents = np.asarray(
                [model.parent(i) for i in links], dtype=np.intp
            )
            is_root = bool(np.all(parents < 0))
            parent_slots = (np.full(len(links), -1, dtype=np.intp)
                            if is_root else slot_of[parents])
            sel = self.sel_all[lo:hi]
            groups = self._build_groups(model, subspaces, starts, stops,
                                        links, lo)
            levels.append(PlanLevel(
                index=index,
                depth=level.depth,
                lo=lo,
                hi=hi,
                is_root=is_root,
                links=links,
                parent_slots=parent_slots,
                groups=groups,
                sel=sel,
            ))
            lo = hi
        return tuple(levels)

    def _build_groups(self, model, subspaces, starts, stops, links, lo):
        groups: list[LevelGroup] = []
        pos = 0
        while pos < len(links):
            k = model.joint(int(links[pos])).nv
            end = pos
            while end < len(links) and model.joint(int(links[end])).nv == k:
                end += 1
            members = links[pos:end]
            s_stack = np.stack([subspaces[int(i)] for i in members])
            dofs = np.stack([
                np.arange(starts[int(i)], stops[int(i)]) for i in members
            ])
            groups.append(LevelGroup(
                lo=lo + pos,
                hi=lo + end,
                k=k,
                links=members,
                subspaces=s_stack,
                subspaces_t=np.ascontiguousarray(
                    np.swapaxes(s_stack, -1, -2)
                ),
                axis=np.ascontiguousarray(s_stack[:, :, 0]),
                dofs=dofs,
                rows=dofs.reshape(-1),
                slots=np.arange(lo + pos, lo + end, dtype=np.intp),
                rel=np.arange(pos, end, dtype=np.intp),
            ))
            pos = end
        return tuple(groups)

    def _build_transform_groups(self, model, order):
        kinds: dict[str, list[int]] = {}
        for slot, link in enumerate(order):
            joint = model.joint(link)
            if type(joint) is RevoluteJoint:
                kind = "revolute"
            elif type(joint) is PrismaticJoint:
                kind = "prismatic"
            else:
                kind = "generic"
            kinds.setdefault(kind, []).append(slot)
        groups = []
        for kind, slots in kinds.items():
            slots = np.asarray(slots, dtype=np.intp)
            links = self.link_of_slot[slots]
            joints: tuple = ()
            qslices: tuple = ()
            if kind == "generic":
                axes = np.zeros((len(slots), 3))
                qcols = np.zeros(len(slots), dtype=np.intp)
                joints = tuple(model.joint(int(i)) for i in links)
                qslices = tuple(model.dof_slice(int(i)) for i in links)
            else:
                axes = np.stack(
                    [model.joint(int(i)).axis for i in links]
                )
                qcols = np.asarray(
                    [model.dof_slice(int(i)).start for i in links],
                    dtype=np.intp,
                )
            x_tree = np.stack([model.links[int(i)].x_tree for i in links])
            groups.append(TransformGroup(
                kind=kind, slots=slots, links=links,
                axes=axes, qcols=qcols, x_tree=x_tree,
                joints=joints, qslices=qslices,
            ))
        return tuple(groups)

    def _build_packing(self, starts, stops):
        """Compile the packed column layout (Fig 7b's column vectors).

        Packing permutes the *internal* DOF-column axis into slot order
        (``col_perm``; ``col_pos`` is the inverse).  Because slots sort
        by depth, the per-level column unions the sweeps need become
        contiguous runs of the permuted layout — prefix ``[0, w)`` for
        the path union, suffix ``[wp, nv)`` for the subtree union — so
        the mass-matrix and derivative sweeps run at exactly those
        basic-sliced windows, with no per-level index gathers.  Every
        topology packs: on a serial chain slot order *is* column order,
        and the sweeps still gain the block-axis derivative slabs, the
        fused one-DOF bundle and the permuted-row output writes.
        """
        nv = self.nv
        perm = np.concatenate([
            np.arange(starts[int(i)], stops[int(i)])
            for i in self.link_of_slot
        ]).astype(np.intp)
        pos = np.empty(nv, dtype=np.intp)
        pos[perm] = np.arange(nv)
        self.col_perm, self.col_pos = perm, pos

        fields: list[dict] = []
        wp = 0
        for lvl in self.levels:
            w = wp + int((stops[lvl.links] - starts[lvl.links]).sum())
            own_pos = tuple(
                pos[g.dofs].astype(np.intp) for g in lvl.groups
            )
            prow, pdiag = [], []
            for g, p in zip(lvl.groups, own_pos):
                flat = p.reshape(-1)
                p0 = int(flat[0])
                if not np.array_equal(flat,
                                      np.arange(p0, p0 + flat.size)):
                    raise AssertionError(
                        "packed own columns are not contiguous"
                    )
                prow.append(slice(p0, p0 + flat.size))
                pdiag.append(
                    slice(p0 * (nv + 1),
                          (p0 + flat.size - 1) * (nv + 1) + 1, nv + 1)
                    if g.k == 1 else None
                )
            sel_packed = btr_packed = None
            if any(g.k > 1 for g in lvl.groups):
                sel_packed = np.ascontiguousarray(lvl.sel[:, :, perm[:w]])
                # crf(S_col) at each link's own packed DOF columns.
                btr_packed = np.zeros((lvl.size, nv, 6, 6))
                for g, p in zip(lvl.groups, own_pos):
                    btr_packed[g.rel[:, None], p] = crf(g.subspaces_t)
            prel = incidence = pslice = prelslice = None
            if not lvl.is_root:
                parent = self.levels[lvl.index - 1]
                prel = (lvl.parent_slots - parent.lo).astype(np.intp)
                incidence = np.eye(parent.size)[:, prel]
                ps = lvl.parent_slots
                if np.array_equal(ps, np.arange(ps[0], ps[0] + len(ps))):
                    pslice = slice(int(ps[0]), int(ps[0]) + len(ps))
                if np.array_equal(
                    prel, np.arange(prel[0], prel[0] + len(prel))
                ):
                    prelslice = slice(int(prel[0]),
                                      int(prel[0]) + len(prel))
            fields.append(dict(
                w=w, wp=wp, prel=prel, incidence=incidence,
                own_pos=own_pos,
                sel_packed=sel_packed, btr_packed=btr_packed,
                pslice=pslice, prelslice=prelslice,
                prow=tuple(prow), pdiag=tuple(pdiag),
            ))
            wp = w
        if wp != nv:
            raise AssertionError("packed layout does not cover all DOFs")

        # Childless tails: a slot's derivative DF[..., w:] needs explicit
        # zeros only if the child level will not slice-assign over it.
        for d, (lvl, fd) in enumerate(zip(self.levels, fields)):
            if fd["w"] == nv:
                continue
            child = fields[d + 1] if d + 1 < len(fields) else None
            if child is None or child["pslice"] is None:
                fd["dfz"] = slice(0, lvl.size)
                continue
            cov = child["pslice"]
            need = [i for i in range(lvl.size)
                    if not cov.start <= lvl.lo + i < cov.stop]
            if not need:
                fd["dfz"] = None
            elif need == list(range(need[0], need[0] + len(need))):
                fd["dfz"] = slice(need[0], need[0] + len(need))
            else:
                fd["dfz"] = np.asarray(need, dtype=np.intp)
        packed = [PackedLevel(**fd) for fd in fields]

        # Fused one-DOF bundle: when every k == 1 group occupies one
        # contiguous slot (and therefore packed-column) run — true for
        # every revolute/prismatic tree, floating bases included — the
        # derivative sweeps hoist the per-level one-hot terms (btr,
        # cross-motion own columns, dtau extraction) into single
        # whole-robot array ops over these slices.
        self._k1 = None
        parts = [(g.lo, g.hi, g.axis, int(packed[lvl.index]
                                          .own_pos[gi][0, 0]), lvl.is_root)
                 for lvl in self.levels
                 for gi, g in enumerate(lvl.groups) if g.k == 1]
        if parts:
            slots = np.concatenate([np.arange(lo, hi)
                                    for lo, hi, *_ in parts])
            posc = np.concatenate([np.arange(p0, p0 + hi - lo)
                                   for lo, hi, _, p0, _ in parts])
            # Root-level parts always precede non-root ones (parts are
            # generated in level order), so the non-root subset is the
            # suffix once both concatenations are contiguous runs.
            n_root = sum(hi - lo for lo, hi, _, _, r in parts if r)
            if (np.array_equal(slots, np.arange(slots[0],
                                                slots[0] + len(slots)))
                    and np.array_equal(posc, np.arange(posc[0],
                                                       posc[0] + len(posc)))):
                axis_all = np.concatenate([a for _, _, a, _, _ in parts])
                s0, p0 = int(slots[0]), int(posc[0])
                s1 = s0 + len(slots)
                self._k1 = {
                    "sl": slice(s0, s1),
                    "axis": axis_all,
                    "p0": p0,
                    "sl_nr": slice(s0 + n_root, s1),
                    "axis_nr": axis_all[n_root:],
                    "p0_nr": p0 + n_root,
                }

        # Gyroscopic-operator tensor: ``gyro(v) = crf_bar(I v) + crf(v) I``
        # is linear in ``v``, so the packed derivative sweep contracts one
        # precompiled (nb, 6, 6, 6) tensor against ``v`` instead of
        # building two batched operator stacks and multiplying them.
        gt = np.empty((self.nb, 6, 6, 6))
        eye6 = np.eye(6)
        for s in range(6):
            gt[:, s] = (crf_bar(self.inertias[:, :, s])
                        + crf(eye6[s]) @ self.inertias)
        self.gyro_t = gt
        return tuple(packed)

    def _workspace_shapes(self) -> dict:
        """Buffer-group shape table of this plan's workspace."""
        nb, nv = self.nb, self.nv
        # Derivative state is block-axis: the [dv/dq | dv/dqd | da/dq |
        # da/dqd] stacks (and the [df/dq | df/dqd] pair) live on a leading
        # block dimension, so parent propagation broadcasts one matmul
        # straight into the destination blocks.  Each level gets its own
        # packed slab at its prefix width, plus two flat scratch buffers
        # for the forward-sweep propagation.
        deriv = {"DF": (nb, 2, 6, nv), "DOp": (nb, 6, 12),
                 "dtau_q": (nv, nv), "dtau_qd": (nv, nv)}
        scratch = 6 * 4 * nv
        for lvl, pk in zip(self.levels, self.packed_levels):
            deriv[f"Dp{lvl.index}"] = (lvl.size, 4, 6, pk.w)
            scratch = max(scratch, lvl.size * 6 * 4 * pk.w)
        deriv["Dscr"] = (scratch,)
        deriv["Dscr2"] = (scratch,)
        return {
            "x": {"X": (nb, 6, 6)},
            "rnea": {
                "vj": (nb, 6), "aj": (nb, 6), "v": (nb, 6), "a": (nb, 6),
                "xv": (nb, 6), "xa": (nb, 6), "f": (nb, 6),
                "tau": (nv,),
            },
            # Articulated/composite inertias, shared by the ABA and
            # MMinvGen kernels (each fully reinitializes the stack).
            "ia": {"IA": (nb, 6, 6)},
            "mminv": {
                "f_acc": (nb, 6, nv),
                "out": (nv, nv), "p_prop": (nb, 6, nv),
            },
            "deriv": deriv,
        }

    # ------------------------------------------------------------------
    # Workspace and staging
    # ------------------------------------------------------------------

    def workspace(self, n: int, *groups: str) -> PlanWorkspace:
        """This thread's workspace, sized for ``n`` tasks.

        Shard workers run batches concurrently on one shared engine, so
        the mutable recursion state is thread-local — the software mirror
        of each accelerator card owning its operand SRAM.
        """
        ws = getattr(self._tls, "ws", None)
        if ws is None:
            ws = PlanWorkspace(self._ws_shapes, self.backend)
            self._tls.ws = ws
        return ws.ensure(n, "x", *groups)

    def _stage_transforms(self, ws: PlanWorkspace, n: int,
                          q: np.ndarray) -> None:
        """Refresh every ``^iX_lambda(q_i)`` stack: one fused op per joint
        kind (the Global Trigonometric Module feeding all branch arrays)."""
        from repro.spatial.so3 import exp_so3
        from repro.spatial.transforms import rot, xlt

        t0 = _obs.kernel_begin()
        X = ws.X[:n]
        for g in self.transform_groups:
            if g.kind == "revolute":
                e = exp_so3(g.axes * q[:, g.qcols][:, :, None])
                xj = rot(np.swapaxes(e, -1, -2))
                X[:, g.slots] = xj @ g.x_tree
            elif g.kind == "prismatic":
                xj = xlt(g.axes * q[:, g.qcols][:, :, None])
                X[:, g.slots] = xj @ g.x_tree
            else:
                for pos, slot in enumerate(g.slots):
                    X[:, slot] = (
                        g.joints[pos].batch_joint_transform(
                            q[:, g.qslices[pos]]
                        ) @ g.x_tree[pos]
                    )
        _obs.kernel_end(t0, self.robot_name, "transforms", n)

    def stage(self, q, qd=None, f_ext=None, *,
              minv: bool = False) -> StagedState:
        """Stage ``(q, qd)`` once and read off what it determines.

        One transform staging gives the world transforms; with ``qd``,
        one bias RNEA at ``qdd = 0`` gives ``C`` and, from its forward
        sweep, the link velocities and accelerations; with ``minv``,
        MMinvGen runs on the same transforms.  These are the paper's
        shared pipeline intermediates.  Outputs are fresh arrays.
        """
        xp = self._xp
        ws, n = self._prep(q, qd, None, "rnea",
                           *(("mminv", "ia") if minv else ()))
        X = ws.X[:n]
        xw = xp.empty((n, self.nb, 6, 6))
        for lvl in self.levels:
            lo, hi = lvl.lo, lvl.hi
            if lvl.is_root:
                xw[:, lo:hi] = X[:, lo:hi]
            else:
                xw[:, lo:hi] = X[:, lo:hi] @ xw[:, lvl.parent_slots]
        order = self.slot_of_link
        bias = v = avp = None
        if qd is not None:
            bias = self._rnea(ws, n, f_ext).copy()
            v = ws.v[:n][:, order]
            # The forward sweep is linear in the root acceleration, so
            # removing ``^iX_0 a0`` leaves the gravity-free part.
            avp = (ws.a[:n] - xw @ self.minus_gravity)[:, order]
        return StagedState(
            xw=xw[:, order], v=v, avp=avp, bias=bias,
            minv=self._mminvgen(ws, n, out_minv=True) if minv else None,
        )

    def _stage_rates(self, ws: PlanWorkspace, n: int, qd, qdd) -> None:
        self._ein("bsv,nv->nbs", self.sel_all, qd, out=ws.vj[:n])
        if qdd is None:
            ws.aj[:n] = 0.0
        else:
            self._ein("bsv,nv->nbs", self.sel_all, qdd, out=ws.aj[:n])

    def _scatter_to_parents(self, dest, lvl: PlanLevel, value) -> None:
        """Accumulate per-link ``value`` slabs of ``lvl`` into its
        parents' rows of ``dest``.

        Contiguous parent slots (``pslice``) take a slice ``+=``;
        otherwise the parent level's rows receive one matmul with the
        ``(parent, child)`` incidence matrix, so siblings sharing a
        parent add up — the same segment sum the functional kernels use.
        """
        pk = self.packed_levels[lvl.index]
        if pk.pslice is not None:
            dest[:, pk.pslice] += value
            return
        par = self.levels[lvl.index - 1]
        n = value.shape[0]
        dest[:, par.lo:par.hi] += (
            pk.incidence @ value.reshape(n, lvl.size, -1)
        ).reshape((n, par.size) + value.shape[2:])

    # ------------------------------------------------------------------
    # RNEA (Algorithm 1), level-scheduled
    # ------------------------------------------------------------------

    def _rnea(self, ws: PlanWorkspace, n: int, f_ext, *,
              apply_gravity: bool = True,
              reuse_velocities: bool = False) -> np.ndarray:
        """Forward + backward RNEA over the staged transforms and rates.

        Leaves the link-frame velocity/acceleration stacks and the
        *accumulated* force stack in the workspace (the derivative sweeps
        reuse them) and returns a view of the joint torques.  With
        ``reuse_velocities`` the velocity half of the forward sweep is
        skipped — dFD re-runs RNEA at the solved ``qdd`` with identical
        ``(q, qd)``, so ``v``/``xv`` are already in the workspace.
        """
        xp = self._xp
        t0 = _obs.kernel_begin()
        plv = _obs.per_level
        robot = self.robot_name
        X, v, a = ws.X[:n], ws.v[:n], ws.a[:n]
        xv, xa = ws.xv[:n], ws.xa[:n]
        vj, aj, f = ws.vj[:n], ws.aj[:n], ws.f[:n]
        a0 = self.minus_gravity if apply_gravity else xp.zeros(6)

        for lvl in self.levels:
            if plv:
                lt = _obs.level_begin()
            lo, hi = lvl.lo, lvl.hi
            if lvl.is_root:
                v[:, lo:hi] = vj[:, lo:hi]
                xa[:, lo:hi] = X[:, lo:hi] @ a0
                a[:, lo:hi] = xa[:, lo:hi] + aj[:, lo:hi]
            else:
                par = lvl.parent_slots
                if not reuse_velocities:
                    xv[:, lo:hi] = _mv(X[:, lo:hi], v[:, par])
                    v[:, lo:hi] = xv[:, lo:hi] + vj[:, lo:hi]
                xa[:, lo:hi] = _mv(X[:, lo:hi], a[:, par])
                a[:, lo:hi] = (xa[:, lo:hi] + aj[:, lo:hi]
                               + cross_motion(v[:, lo:hi], vj[:, lo:hi]))
            if plv:
                _obs.level_end(lt, robot, "rnea", lvl.index)

        iv = _mv(self.inertias, v)
        f[:] = _mv(self.inertias, a) + cross_force(v, iv)
        if f_ext:
            for link, stack in f_ext.items():
                if self._device:
                    stack = xp.asarray(stack)
                f[:, self.slot_of_link[link]] -= stack

        for lvl in reversed(self.levels):
            if lvl.is_root:
                continue
            if plv:
                lt = _obs.level_begin()
            lo, hi = lvl.lo, lvl.hi
            xt = xp.swapaxes(X[:, lo:hi], -1, -2)
            self._scatter_to_parents(f, lvl, _mv(xt, f[:, lo:hi]))
            if plv:
                _obs.level_end(lt, robot, "rnea", lvl.index)
        tau = self._ein("bsv,nbs->nv", self.sel_all, f, out=ws.tau[:n])
        _obs.kernel_end(t0, robot, "rnea", n)
        return tau

    # ------------------------------------------------------------------
    # ABA forward dynamics, level-scheduled
    # ------------------------------------------------------------------

    def _aba(self, ws: PlanWorkspace, n: int, tau: np.ndarray,
             f_ext) -> np.ndarray:
        """Articulated-body FD: three O(levels) sweeps, no column state.

        The seed validates ABA against the paper's ``Minv @ (tau - C)``
        substitution (``repro.dynamics.aba``); here it is the compiled
        FD kernel because it never touches an ``nv``-column tensor —
        the entire pass stays on ``(n, L, 6)`` slabs.
        """
        xp = self._xp
        t0 = _obs.kernel_begin()
        plv = _obs.per_level
        robot = self.robot_name
        X, v, vj = ws.X[:n], ws.v[:n], ws.vj[:n]
        c, p, ap = ws.a[:n], ws.f[:n], ws.xa[:n]
        IA = ws.IA[:n]

        # Pass 1: velocities and bias terms.
        for lvl in self.levels:
            if plv:
                lt = _obs.level_begin()
            lo, hi = lvl.lo, lvl.hi
            if lvl.is_root:
                v[:, lo:hi] = vj[:, lo:hi]
            else:
                v[:, lo:hi] = (
                    _mv(X[:, lo:hi], v[:, lvl.parent_slots]) + vj[:, lo:hi]
                )
            if plv:
                _obs.level_end(lt, robot, "aba", lvl.index)
        c[:] = cross_motion(v, vj)
        p[:] = cross_force(v, _mv(self.inertias, v))
        if f_ext:
            for link, stack in f_ext.items():
                if self._device:
                    stack = xp.asarray(stack)
                p[:, self.slot_of_link[link]] -= stack
        IA[:] = self.inertias

        # Pass 2: articulated inertias and bias forces, backward.
        saved: dict[tuple[int, int], tuple] = {}
        for lvl in reversed(self.levels):
            if plv:
                lt = _obs.level_begin()
            lo, hi = lvl.lo, lvl.hi
            for gi, g in enumerate(lvl.groups):
                sl = slice(g.lo, g.hi)
                if g.k == 1:
                    u = _mv(IA[:, sl], g.axis)               # (n, Lg, 6)
                    d_inv = 1.0 / xp.einsum(
                        "ls,nls->nl", g.axis, u, optimize=False
                    )
                    u_tau = tau[:, g.dofs[:, 0]] - xp.einsum(
                        "ls,nls->nl", g.axis, p[:, sl], optimize=False
                    )
                    saved[(lvl.index, gi)] = (u, d_inv, u_tau)
                    if not lvl.is_root:
                        IA[:, sl] -= (
                            d_inv[..., None, None]
                            * (u[..., :, None] * u[..., None, :])
                        )
                        p[:, sl] += (
                            _mv(IA[:, sl], c[:, sl])
                            + u * (d_inv * u_tau)[..., None]
                        )
                else:
                    u = IA[:, sl] @ g.subspaces              # (n, Lg, 6, k)
                    d_inv = xp.linalg.inv(g.subspaces_t @ u)
                    u_tau = (
                        tau[:, g.dofs]
                        - _mv(g.subspaces_t, p[:, sl])
                    )
                    saved[(lvl.index, gi)] = (u, d_inv, u_tau)
                    if not lvl.is_root:
                        IA[:, sl] -= (u @ d_inv) @ xp.swapaxes(u, -1, -2)
                        p[:, sl] += (
                            _mv(IA[:, sl], c[:, sl])
                            + _mv(u, _mv(d_inv, u_tau))
                        )
            if not lvl.is_root:
                xl = X[:, lo:hi]
                xt = xp.swapaxes(xl, -1, -2)
                self._scatter_to_parents(p, lvl, _mv(xt, p[:, lo:hi]))
                self._scatter_to_parents(IA, lvl, (xt @ IA[:, lo:hi]) @ xl)
            if plv:
                _obs.level_end(lt, robot, "aba", lvl.index)

        # Pass 3: accelerations, forward.
        qdd = xp.empty((n, self.nv))
        a = ws.v[:n]     # velocities are dead past pass 2; reuse the slab
        for lvl in self.levels:
            if plv:
                lt = _obs.level_begin()
            lo, hi = lvl.lo, lvl.hi
            if lvl.is_root:
                ap[:, lo:hi] = X[:, lo:hi] @ self.minus_gravity + c[:, lo:hi]
            else:
                ap[:, lo:hi] = (
                    _mv(X[:, lo:hi], a[:, lvl.parent_slots]) + c[:, lo:hi]
                )
            for gi, g in enumerate(lvl.groups):
                sl = slice(g.lo, g.hi)
                u, d_inv, u_tau = saved[(lvl.index, gi)]
                if g.k == 1:
                    qdd_g = d_inv * (
                        u_tau - xp.einsum("nls,nls->nl", u, ap[:, sl],
                                          optimize=False)
                    )
                    qdd[:, g.dofs[:, 0]] = qdd_g
                    a[:, sl] = ap[:, sl] + g.axis * qdd_g[..., None]
                else:
                    qdd_g = _mv(
                        d_inv,
                        u_tau - _mv(xp.swapaxes(u, -1, -2), ap[:, sl]),
                    )
                    qdd[:, g.dofs.reshape(-1)] = qdd_g.reshape(n, -1)
                    a[:, sl] = ap[:, sl] + _mv(g.subspaces, qdd_g)
            if plv:
                _obs.level_end(lt, robot, "aba", lvl.index)
        _obs.kernel_end(t0, robot, "aba", n)
        return qdd

    # ------------------------------------------------------------------
    # MMinvGen (Algorithm 2), level-scheduled
    # ------------------------------------------------------------------

    def _mminvgen(self, ws: PlanWorkspace, n: int, *,
                  out_minv: bool) -> np.ndarray:
        """``M`` or ``Minv`` over the staged transforms (MMinvGen).

        The force accumulator carries its DOF-column axis in the packed
        (slot-order) layout, where each level's subtree union is exactly
        the suffix ``[wp, nv)``, so every backward-sweep step runs at that
        basic-sliced window; everything the window skips is a structural
        zero.  Output rows are written in the permuted layout too, and
        unpermuted once at the end — here for ``M``, after the forward
        sweep (:meth:`_minv_forward`) for ``Minv``.
        """
        xp = self._xp
        t0 = _obs.kernel_begin()
        nv = self.nv
        X = ws.X[:n]
        IA, f_acc, out = ws.IA[:n], ws.f_acc[:n], ws.out[:n]
        IA[:] = self.inertias
        # ``out`` rows are written in the *permuted* row layout (row r =
        # slot-order DOF r): every write below then lands on a basic
        # slice, and no row is only partially covered, so no zero-init.
        # ``f_acc`` only ever carries each level's suffix window.
        for lvl in self.levels:
            f_acc[:, lvl.lo:lvl.hi, :,
                  self.packed_levels[lvl.index].wp:] = 0.0
        out_flat = out.reshape(n, nv * nv)
        saved: dict[tuple[int, int], tuple] = {}

        # Backward sweep (Mb submodules) at subtree-union suffix windows.
        for lvl in reversed(self.levels):
            pk = self.packed_levels[lvl.index]
            lo, hi, w0 = lvl.lo, lvl.hi, pk.wp
            width = nv - w0
            for gi, g in enumerate(lvl.groups):
                sl = slice(g.lo, g.hi)
                pos = pk.own_pos[gi]
                pr = pk.prow[gi]
                if g.k == 1:
                    u = _mv(IA[:, sl], g.axis)               # (n, Lg, 6)
                    d = xp.einsum("ls,nls->nl", g.axis, u, optimize=False)
                    stf = xp.matmul(
                        g.axis[:, None, :], f_acc[:, sl, :, w0:]
                    )[:, :, 0]
                    if out_minv:
                        d_inv = 1.0 / d
                        out[:, pr, w0:] = -(d_inv[..., None] * stf)
                        out_flat[:, pk.pdiag[gi]] = d_inv
                        saved[(lvl.index, gi)] = (u, d_inv)
                        og = out[:, pr, w0:]                 # (n, Lg, V)
                        f_acc[:, sl, :, w0:] += (
                            u[..., :, None] * og[:, :, None, :]
                        )
                        if not lvl.is_root:
                            IA[:, sl] -= (
                                d_inv[..., None, None]
                                * (u[..., :, None] * u[..., None, :])
                            )
                    else:
                        out[:, pr, w0:] = stf
                        out_flat[:, pk.pdiag[gi]] = d
                        f_acc[:, g.slots, :, pos[:, 0]] += xp.moveaxis(
                            u, 1, 0
                        )
                else:
                    u = IA[:, sl] @ g.subspaces              # (n, Lg, 6, k)
                    d = g.subspaces_t @ u
                    stf = g.subspaces_t @ f_acc[:, sl, :, w0:]
                    if out_minv:
                        d_inv = xp.linalg.inv(d)
                        out[:, pr, w0:] = (
                            -(d_inv @ stf)
                        ).reshape(n, len(g.rows), width)
                        self._write_diag(out, g, d_inv, pos)
                        saved[(lvl.index, gi)] = (u, d_inv)
                        og = out[:, pr, w0:].reshape(
                            n, g.size, g.k, width
                        )
                        f_acc[:, sl, :, w0:] += u @ og
                        if not lvl.is_root:
                            IA[:, sl] -= (
                                (u @ d_inv) @ xp.swapaxes(u, -1, -2)
                            )
                    else:
                        out[:, pr, w0:] = stf.reshape(
                            n, len(g.rows), width
                        )
                        self._write_diag(out, g, d, pos)
                        for j in range(g.k):
                            f_acc[:, g.slots, :, pos[:, j]] += (
                                xp.moveaxis(u[..., j], 1, 0)
                            )
            if not lvl.is_root:
                xl = X[:, lo:hi]
                xt = xp.swapaxes(xl, -1, -2)
                self._scatter_to_parents(f_acc[:, :, :, w0:], lvl,
                                         xt @ f_acc[:, lo:hi, :, w0:])
                self._scatter_to_parents(IA, lvl, (xt @ IA[:, lo:hi]) @ xl)

        if not out_minv:
            sym = _symmetrize_from_rows(out, xp)
            m = sym[:, self.col_pos[:, None], self.col_pos[None, :]]
            _obs.kernel_end(t0, self.robot_name, "mminvgen", n)
            return m
        minv = self._minv_forward(ws, n, saved)
        _obs.kernel_end(t0, self.robot_name, "mminvgen", n)
        return minv

    def _minv_forward(self, ws: PlanWorkspace, n: int,
                      saved: dict) -> np.ndarray:
        """Forward MMinvGen sweep (Mf submodules) in the packed layout.

        The upper triangle of ``Minv`` is dense in *column order*, but
        the sweep's row windows are governed by reachability, and slot
        order is itself a topological order: row ``r`` only needs columns
        of links no shallower than ``r``, which in the packed layout is
        exactly the suffix ``[wp, nv)``.  The row stack then holds the upper
        triangle *of the permuted ordering*: rows are gathered into slot
        order, symmetrized there, and both axes are unpermuted in one
        paired gather at the end.
        """
        xp = self._xp
        X = ws.X[:n]
        out = ws.out[:n]
        p_prop = ws.p_prop[:n]
        for lvl in self.levels:
            pk = self.packed_levels[lvl.index]
            lo, hi, w0 = lvl.lo, lvl.hi, pk.wp
            width = self.nv - w0
            one_group = len(lvl.groups) == 1
            if not lvl.is_root:
                xpp = X[:, lo:hi] @ p_prop[:, lvl.parent_slots, :, w0:]
            for gi, g in enumerate(lvl.groups):
                sl = slice(g.lo, g.hi)
                pr = pk.prow[gi]
                if not lvl.is_root:
                    xpp_g = xpp if one_group else xpp[:, g.rel]
                if g.k == 1:
                    if not lvl.is_root:
                        u, d_inv = saved[(lvl.index, gi)]
                        out[:, pr, w0:] -= d_inv[..., None] * (
                            xp.matmul(u[:, :, None, :], xpp_g)[:, :, 0]
                        )
                    og = out[:, pr, w0:]
                    pv = p_prop[:, sl, :, w0:]
                    xp.multiply(g.axis[:, :, None], og[:, :, None, :],
                                out=pv)
                    if not lvl.is_root:
                        pv += xpp_g
                else:
                    if not lvl.is_root:
                        u, d_inv = saved[(lvl.index, gi)]
                        corr = d_inv @ (xp.swapaxes(u, -1, -2) @ xpp_g)
                        out[:, pr, w0:] -= corr.reshape(
                            n, len(g.rows), width
                        )
                    og = out[:, pr, w0:].reshape(n, g.size, g.k, width)
                    if lvl.is_root:
                        p_prop[:, sl, :, w0:] = g.subspaces @ og
                    else:
                        p_prop[:, sl, :, w0:] = (
                            g.subspaces @ og + xpp_g
                        )
        sym = _symmetrize_from_rows(out, xp)
        return sym[:, self.col_pos[:, None], self.col_pos[None, :]]

    @staticmethod
    def _write_diag(out: np.ndarray, g: LevelGroup, d: np.ndarray,
                    pos: np.ndarray) -> None:
        """Write each link's (k, k) diagonal block of ``out`` at its packed
        positions ``pos`` (both axes: outputs keep permuted rows)."""
        for j in range(g.size):
            out[:, pos[j][:, None], pos[j][None, :]] = d[:, j]

    # ------------------------------------------------------------------
    # dRNEA (analytical dID), level-scheduled with paired d/dq, d/dqd
    # ------------------------------------------------------------------

    def _add_diag2(self, base, val) -> None:
        """``base[:, i, :, i] += val[:, :, i]`` over a ``(n, L, 6, C)``
        view (C >= L): the own-column writes of one-DOF groups, whose
        packed columns run parallel to their slots.  Uses one writable
        strided view when the backend exposes ``as_strided``; falls back
        to a fancy-index accumulate.
        """
        L = base.shape[1]
        if self._as_strided is not None:
            st = base.strides
            view = self._as_strided(base, base.shape[:1] + (L, 6),
                                    (st[0], st[1] + st[3], st[2]))
            view += val
        else:
            xp = self._xp
            idx = xp.arange(L)
            if val.ndim == 2:                      # (L, 6) broadcast
                base[:, idx, :, idx] += val[:, None, :]
            else:
                base[:, idx, :, idx] += xp.moveaxis(val, 1, 0)

    def _deriv_backward(self, ws: PlanWorkspace,
                        n: int) -> tuple[np.ndarray, np.ndarray]:
        """Backward derivative sweep (Db submodules) over the block-axis
        packed ``DF``.

        Two passes: propagation, then row extraction.  The btr
        own-column terms only depend on the static forces, so the fused
        one-DOF bundle adds all of them in one diagonal-strided op up
        front; the propagation pass then just scatters level slabs onto
        parent slots — a basic-slice ``+=`` over the parent's forward
        window plus a plain assign over its untouched tail when the
        parents are contiguous.  Once it finishes every slot's DF block
        is final, so the dtau rows come off in one whole-robot matmul
        (plus per-group matmuls for multi-DOF and bundle-less plans)
        written to basic slices of the *permuted-row* dtau pair, minus
        the own-column btr projection (extraction runs after the btr
        terms were added, and a joint's own row must exclude them).
        """
        xp = self._xp
        nv = self.nv
        X, f, DF = ws.X[:n], ws.f[:n], ws.DF[:n]
        dtau_q, dtau_qd = ws.dtau_q[:n], ws.dtau_qd[:n]
        k1 = self._k1
        bt_nr = None
        if k1 is not None:
            sl_nr = k1["sl_nr"]
            if sl_nr.stop > sl_nr.start:
                bt_nr = cross_force(k1["axis_nr"], f[:, sl_nr])
                self._add_diag2(DF[:, sl_nr, 0, :, k1["p0_nr"]:], bt_nr)
        for lvl in reversed(self.levels):
            if lvl.is_root:
                continue
            pk = self.packed_levels[lvl.index]
            lo, hi, w = lvl.lo, lvl.hi, pk.w
            for gi, g in enumerate(lvl.groups):
                if g.k == 1:
                    if k1 is not None:
                        continue
                    cols = pk.own_pos[gi][:, 0]
                    DF[:, g.slots, 0, :, cols] += xp.moveaxis(
                        cross_force(g.axis, f[:, g.lo:g.hi]), 1, 0
                    )
                else:
                    DF[:, g.lo:g.hi, 0, :, :w] += self._ein(
                        "lvij,nlj->nliv", pk.btr_packed[g.rel][:, :w],
                        f[:, g.lo:g.hi]
                    )
            xt = xp.swapaxes(X[:, lo:hi], -1, -2)
            val = xt[:, :, None] @ DF[:, lo:hi]
            if pk.pslice is not None:
                wpar = self.packed_levels[lvl.index - 1].w
                DF[:, pk.pslice, :, :, :wpar] += val[..., :wpar]
                DF[:, pk.pslice, :, :, wpar:] = val[..., wpar:]
            else:
                self._scatter_to_parents(DF, lvl, val)
        dq_flat = dtau_q.reshape(n, nv * nv)
        if k1 is not None:
            sl = k1["sl"]
            S = sl.stop - sl.start
            r = xp.matmul(k1["axis"][:, None, None, :], DF[:, sl])
            pr = slice(k1["p0"], k1["p0"] + S)     # (n, S, 2, 1, nv)
            dtau_q[:, pr] = r[:, :, 0, 0]
            dtau_qd[:, pr] = r[:, :, 1, 0]
            if bt_nr is not None:
                corr = self._ein("ls,nls->nl", k1["axis_nr"], bt_nr)
                p0 = k1["p0_nr"]
                s_nr = sl_nr.stop - sl_nr.start
                dq_flat[:, p0 * (nv + 1):
                        (p0 + s_nr - 1) * (nv + 1) + 1: nv + 1] -= corr
        for lvl in self.levels:
            pk = self.packed_levels[lvl.index]
            for gi, g in enumerate(lvl.groups):
                pr = pk.prow[gi]
                if g.k == 1:
                    if k1 is not None:
                        continue
                    r = xp.matmul(
                        g.axis[:, None, None, :], DF[:, g.lo:g.hi]
                    )                                # (n, Lg, 2, 1, nv)
                    dtau_q[:, pr] = r[:, :, 0, 0]
                    dtau_qd[:, pr] = r[:, :, 1, 0]
                    if not lvl.is_root:
                        corr = self._ein(
                            "ls,nls->nl", g.axis,
                            cross_force(g.axis, f[:, g.lo:g.hi])
                        )
                        dq_flat[:, pk.pdiag[gi]] -= corr
                else:
                    r = g.subspaces_t[:, None] @ DF[:, g.lo:g.hi]
                    dtau_q[:, pr] = r[:, :, 0].reshape(n, -1, nv)
                    dtau_qd[:, pr] = r[:, :, 1].reshape(n, -1, nv)
                    if not lvl.is_root:
                        b2 = self._ein(
                            "lsk,lvsj->lkvj", g.subspaces,
                            pk.btr_packed[g.rel]
                        )
                        corr = self._ein(
                            "lkvj,nlj->nlkv", b2, f[:, g.lo:g.hi]
                        )
                        dtau_q[:, pr] -= corr.reshape(n, -1, nv)
        return dtau_q, dtau_qd

    def _rnea_derivatives(self, ws: PlanWorkspace,
                          n: int) -> tuple[np.ndarray, np.ndarray]:
        """Derivative sweeps over the state left behind by :meth:`_rnea`.

        Requires a full RNEA pass (with the real ``qdd``) in the
        workspace: ``v``/``xv``/``xa`` from the forward sweep and the
        accumulated forces ``f`` from the backward sweep (the paper's btr
        operand).

        The ``[dv/dq | dv/dqd | da/dq | da/dqd]`` transfer stacks of a
        link are nonzero only at its root-to-link *path* columns.  In the
        packed (slot-order) layout the level's path union is exactly the
        prefix ``[0, w)``, and the parent level's prefix nests inside it.
        The four stacks live on a leading *block axis* — each level's
        slab is ``(n, L, 4, 6, w)`` — so parent propagation is one row
        gather plus one broadcast matmul written directly into the
        blocks' ``[0, wp)`` windows; only the ``[wp, w)`` gap (this
        level's own columns, structurally zero in every parent) is
        zero-filled.  Joint one-hot terms land at precompiled packed
        positions.  ``DF`` keeps the packed block layout through the
        backward sweep (:meth:`_deriv_backward`) and the dtau pair is
        unpermuted once at the end.
        """
        xp = self._xp
        t0 = _obs.kernel_begin()
        X = ws.X[:n]
        v, xv, xa, vj = ws.v[:n], ws.xv[:n], ws.xa[:n], ws.vj[:n]
        DF = ws.DF[:n]
        # Whole-robot operator stacks, hoisted out of the level loop.
        # ``DOp = [I | gyro]`` is one (6, 12) operator per link: with the
        # slab blocks ordered [da/dq, dv/dq, da/dqd, dv/dqd] each DF
        # block is DOp @ [da; dv] — one broadcast matmul per level
        # instead of two matmuls plus an accumulation pass.  The inertia
        # half is constant, so it is re-staged only when the workspace
        # buffer itself changed; gyro contracts the precompiled
        # linear-in-v tensor directly into the other half.
        DOp = ws.DOp[:n]
        if (getattr(ws, "_dop_id", None) != id(ws.DOp)
                or getattr(ws, "_dop_n", 0) < n):
            DOp[..., :6] = self.inertias
            ws._dop_id = id(ws.DOp)
            ws._dop_n = n
        self._ein("lsij,nls->nlij", self.gyro_t, v, out=DOp[..., 6:])
        cvj = crm(vj)
        # Fused one-DOF bundle: the joint one-hot own-column terms are
        # whole-robot cross products, computed here in three array ops
        # and written per level through diagonal-strided views.
        k1 = self._k1
        if k1 is not None:
            sl_a, a_all = k1["sl"], k1["axis"]
            cm_v = cross_motion(v[:, sl_a], a_all)
            cm_xa = cross_motion(xa[:, sl_a], a_all)
            sl_nr = k1["sl_nr"]
            cm_xv = cross_motion(xv[:, sl_nr], k1["axis_nr"])

        prev = None
        for lvl in self.levels:
            pk = self.packed_levels[lvl.index]
            lo, hi = lvl.lo, lvl.hi
            L = hi - lo
            w, wp = pk.w, pk.wp
            slab = getattr(ws, f"Dp{lvl.index}")[:n]  # (n, L, 4, 6, w)
            if lvl.is_root:
                slab[:] = 0.0
            else:
                if pk.prelslice is not None:
                    # Contiguous identity parent map: propagate straight
                    # off the parent slab view, no gathered copy.
                    gathered = prev[:, pk.prelslice]
                else:
                    gathered = _scratch_view5(ws.Dscr, n, L, 4, wp)
                    xp.take(prev, pk.prel, axis=1, out=gathered,
                            mode="clip")
                # One broadcast matmul writes every block's parent window
                # in place; only the [wp, w) gap (this level's own
                # columns, structurally zero in every parent) is filled.
                xp.matmul(X[:, lo:hi, None], gathered, out=slab[..., :wp])
                slab[..., wp:] = 0.0
            for gi, (g, pos) in enumerate(zip(lvl.groups, pk.own_pos)):
                if g.k == 1:
                    if k1 is not None:
                        p0 = pk.prow[gi].start
                        rel = slice(g.lo - lo, g.hi - lo)
                        if not lvl.is_root:
                            o = g.lo - sl_nr.start
                            self._add_diag2(slab[:, rel, 1, :, p0:],
                                            cm_xv[:, o:o + g.size])
                        o = g.lo - sl_a.start
                        self._add_diag2(slab[:, rel, 3, :, p0:],
                                        a_all[o:o + g.size])
                        self._add_diag2(slab[:, rel, 0, :, p0:],
                                        cm_xa[:, o:o + g.size])
                        continue
                    p0 = pos[:, 0]
                    if not lvl.is_root:
                        slab[:, g.rel, 1, :, p0] += xp.moveaxis(
                            cross_motion(xv[:, g.lo:g.hi], g.axis), 1, 0
                        )
                    slab[:, g.rel, 3, :, p0] += g.axis[:, None]
                    slab[:, g.rel, 0, :, p0] += xp.moveaxis(
                        cross_motion(xa[:, g.lo:g.hi], g.axis), 1, 0
                    )
                else:
                    sel = pk.sel_packed[g.rel]
                    gsl = slab[:, g.lo - lo:g.hi - lo]
                    if not lvl.is_root:
                        gsl[:, :, 1] += crm(xv[:, g.lo:g.hi]) @ sel
                    gsl[:, :, 3] += sel
                    gsl[:, :, 0] += crm(xa[:, g.lo:g.hi]) @ sel
            # a_i includes v_i x vj: differentiate both factors (one
            # broadcast operator covers the dq and dqd blocks at once;
            # the a blocks interleave with their v sources at stride 2).
            cprod = _scratch_view5(ws.Dscr2, n, L, 2, w)
            xp.matmul(cvj[:, lo:hi, None], slab[:, :, 1::2], out=cprod)
            slab[:, :, ::2] -= cprod
            for gi, (g, pos) in enumerate(zip(lvl.groups, pk.own_pos)):
                if g.k == 1:
                    if k1 is not None:
                        o = g.lo - sl_a.start
                        self._add_diag2(
                            slab[:, g.lo - lo:g.hi - lo, 2, :,
                                 pk.prow[gi].start:],
                            cm_v[:, o:o + g.size]
                        )
                        continue
                    slab[:, g.rel, 2, :, pos[:, 0]] += xp.moveaxis(
                        cross_motion(v[:, g.lo:g.hi], g.axis), 1, 0
                    )
                else:
                    slab[:, g.lo - lo:g.hi - lo, 2] += (
                        crm(v[:, g.lo:g.hi]) @ pk.sel_packed[g.rel]
                    )
            # DF pair: values live at the prefix [0, w) of both blocks;
            # the combined operator matmul broadcasts straight into the
            # DF window over the (da, dv) pair axis.
            dfv = DF[:, lo:hi, :, :, :w]
            slab_pairs = slab.reshape(n, L, 2, 12, w)
            xp.matmul(DOp[:, lo:hi, None], slab_pairs, out=dfv)
            # Zero only the tails no child-level scatter will assign
            # over (childless slots / incidence-summed child levels).
            if pk.dfz is not None:
                if isinstance(pk.dfz, slice):
                    DF[:, lo + pk.dfz.start:lo + pk.dfz.stop,
                       :, :, w:] = 0.0
                else:
                    DF[:, lo + pk.dfz, :, :, w:] = 0.0
            prev = slab

        dtau_q, dtau_qd = self._deriv_backward(ws, n)
        ix = self.col_pos
        dtau_q = dtau_q[:, ix[:, None], ix[None, :]]
        dtau_qd = dtau_qd[:, ix[:, None], ix[None, :]]
        _obs.kernel_end(t0, self.robot_name, "rnea_derivatives", n)
        return dtau_q, dtau_qd

    # ------------------------------------------------------------------
    # Table-I functions
    # ------------------------------------------------------------------

    def _operand(self, a):
        """Stage one task-major operand on the plan's backend."""
        xp = self._xp
        return xp.atleast_2d(xp.asarray(a, dtype=float))

    def _prep(self, q, qd=None, qdd=None, *groups):
        q = self._operand(q)
        n = q.shape[0]
        ws = self.workspace(n, *groups)
        self._stage_transforms(ws, n, q)
        if qd is not None:
            self._stage_rates(ws, n, self._operand(qd),
                              None if qdd is None else self._operand(qdd))
        return ws, n

    def id_batch(self, q, qd, qdd, f_ext=None):
        ws, n = self._prep(q, qd, qdd, "rnea")
        return self._rnea(ws, n, f_ext).copy()

    def m_batch(self, q):
        ws, n = self._prep(q, None, None, "mminv", "ia")
        return self._mminvgen(ws, n, out_minv=False)

    def minv_batch(self, q):
        ws, n = self._prep(q, None, None, "mminv", "ia")
        return self._mminvgen(ws, n, out_minv=True)

    def fd_batch(self, q, qd, tau, f_ext=None):
        ws, n = self._prep(q, qd, None, "rnea", "ia")
        return self._aba(ws, n, self._operand(tau), f_ext)

    def did_batch(self, q, qd, qdd, f_ext=None):
        ws, n = self._prep(q, qd, qdd, "rnea", "deriv")
        self._rnea(ws, n, f_ext)
        dtau_q, dtau_qd = self._rnea_derivatives(ws, n)
        return dtau_q.copy(), dtau_qd.copy()

    def dfd_batch(self, q, qd, tau, f_ext=None):
        xp = self._xp
        ws, n = self._prep(q, qd, None, "rnea", "mminv", "ia", "deriv")
        bias = self._rnea(ws, n, f_ext)
        minv = self._mminvgen(ws, n, out_minv=True)
        tau = self._operand(tau)
        qdd = _mv(minv, tau - bias)
        self._ein("bsv,nv->nbs", self.sel_all, qdd, out=ws.aj[:n])
        self._rnea(ws, n, f_ext, reuse_velocities=True)
        dtau_q, dtau_qd = self._rnea_derivatives(ws, n)
        return (
            qdd,
            -xp.matmul(minv, dtau_q),
            -xp.matmul(minv, dtau_qd),
            minv,
        )

    def difd_batch(self, q, qd, qdd, minv=None, f_ext=None):
        xp = self._xp
        qdd = self._operand(qdd)
        ws, n = self._prep(q, qd, qdd, "rnea", "mminv", "ia", "deriv")
        if minv is None:
            minv = self._mminvgen(ws, n, out_minv=True)
        else:
            minv = xp.asarray(minv, dtype=float)
        self._rnea(ws, n, f_ext)
        dtau_q, dtau_qd = self._rnea_derivatives(ws, n)
        return (
            qdd,
            -xp.matmul(minv, dtau_q),
            -xp.matmul(minv, dtau_qd),
            minv,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def structure_hash(self) -> str:
        """Stable fingerprint of the compiled structure and constants.

        Two plans with the same hash produce identical kernels for
        identical operand shapes, so the jit engine uses this as the
        static part of its trace-cache key — re-tracing happens per
        structure, not per model object.
        """
        cached = getattr(self, "_structure_hash", None)
        if cached is not None:
            return cached
        import hashlib

        to_np = self.backend.to_numpy

        def _bytes(a):
            return np.ascontiguousarray(to_np(a)).tobytes()

        h = hashlib.sha256()
        h.update(
            f"{self.robot_name}|{self.nb}|{self.nv}|"
            f"{self.n_branches}".encode()
        )
        for lvl in self.levels:
            h.update(
                f"L{lvl.index}:{lvl.depth}:{lvl.lo}:{lvl.hi}:"
                f"{int(lvl.is_root)}".encode()
            )
            h.update(_bytes(lvl.parent_slots))
            h.update(_bytes(lvl.sel))
            for g in lvl.groups:
                h.update(f"g{g.lo}:{g.hi}:{g.k}".encode())
                h.update(_bytes(g.dofs))
                h.update(_bytes(g.subspaces))
        for tg in self.transform_groups:
            h.update(tg.kind.encode())
            h.update(_bytes(tg.slots))
            if tg.axes is not None:
                h.update(_bytes(tg.axes))
            h.update(_bytes(tg.x_tree))
        h.update(_bytes(self.inertias))
        h.update(_bytes(self.minus_gravity))
        digest = h.hexdigest()
        self._structure_hash = digest
        return digest

    def describe(self) -> dict:
        """Shape summary for benchmarks and the serve cache."""
        return {
            "robot": self.robot_name,
            "backend": self.backend.name,
            "links": self.nb,
            "dofs": self.nv,
            "branches": self.n_branches,
            "levels": len(self.levels),
            "level_widths": [lvl.size for lvl in self.levels],
            "max_level_width": max(lvl.size for lvl in self.levels),
        }

    def __repr__(self) -> str:
        return (
            f"ExecutionPlan({self.robot_name!r}, "
            f"backend={self.backend.name!r}, links={self.nb}, "
            f"levels={len(self.levels)}, "
            f"widths={[lvl.size for lvl in self.levels]})"
        )


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------

#: model -> {backend name: plan}.  Weak over models so transient models
#: can be collected together with every backend variant of their plan.
_PLAN_CACHE: "weakref.WeakKeyDictionary[RobotModel, dict[str, ExecutionPlan]]" = (
    weakref.WeakKeyDictionary()
)
_PLAN_LOCK = threading.Lock()


def plan_for(model: RobotModel,
             backend: str | ArrayBackend | None = None) -> ExecutionPlan:
    """The memoized :class:`ExecutionPlan` for ``model`` on ``backend``.

    Plans are cached per (model instance, backend name) — weakly over
    models, so transient models can be collected;
    :func:`repro.model.library.load_robot` returns shared instances, so
    serve traffic for one robot compiles exactly one plan per backend —
    the software analogue of programming one bitstream per robot and
    cloning it per device type.
    """
    bk = get_backend(backend)
    key = bk.name
    plans = _PLAN_CACHE.get(model)
    if plans is not None:
        plan = plans.get(key)
        if plan is not None:
            return plan
    with _PLAN_LOCK:
        plans = _PLAN_CACHE.get(model)
        if plans is None:
            plans = {}
            _PLAN_CACHE[model] = plans
        plan = plans.get(key)
        if plan is None:
            plan = ExecutionPlan(model, bk)
            plans[key] = plan
    return plan


__all__ = [
    "ExecutionPlan",
    "LevelGroup",
    "PackedLevel",
    "PlanLevel",
    "PlanWorkspace",
    "StagedState",
    "TransformGroup",
    "plan_for",
]
