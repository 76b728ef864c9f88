"""Functional (out-of-place) variants of the execution-plan kernels.

The compiled :class:`~repro.dynamics.plan.ExecutionPlan` kernels mutate
preallocated workspaces, which is exactly what trace-compiling runtimes
with immutable arrays (JAX) cannot execute — the single reason the jax
backend is declined by the ``compiled`` engine.  This module re-derives
the same level-scheduled sweeps as *pure functions*:

* forward sweeps build each level's slab from the previous level (a
  gather by relative parent position) and concatenate — levels are
  contiguous slot runs, so no scatter is needed going down the tree;
* backward sweeps hand each level's slab to its parent level through
  one segment sum (:meth:`FunctionalPlan._to_parents`, a matmul with the
  host plan's ``PackedLevel.incidence``, the same table the in-place
  sweeps use when siblings share a parent).  It is the one accumulation
  scheme: RNEA, ABA, MMinvGen and the derivative sweep all use it, and
  no kernel scatters;
* DOF-row outputs are assembled in slot order (the order the levels
  produce them) and unpermuted once at the end with a precompiled
  position gather.

A :class:`FunctionalPlan` builds one table of its own, the slot-order
gather of its transform slabs.  It borrows every other from the
memoized host numpy :class:`ExecutionPlan`: the levels and groups, the
constant stacks, and the packed column layout with its index tables
(``packed_levels`` and ``col_pos``).  The two kernel families therefore
run on one column layout, the paper's incremental column vectors (Fig
7b): MMinvGen works at each level's suffix window ``[wp, nv)`` and the
derivative forward sweep at its prefix ``[0, w)``.  Every backward
sweep hands its accumulators from one level to the next, so each step
writes a stack the size of the parent level rather than a whole-robot
one.  Structure compilation stays a host-side, one-time pass, like the
paper's offline bitstream build.  Execution runs on any backend: with
numpy the kernels run interpreted (the correctness reference CI
exercises everywhere), with jax each Table-I function traces into one
fused XLA program via :meth:`ArrayBackend.jit`.
Equivalence against the ``loop`` engine holds at the suite's 1e-10
tolerance on every library robot.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from repro.backend import (
    ArrayBackend,
    BackendCapabilityError,
    get_backend,
)
from repro.dynamics.mminv import _symmetrize_from_rows
from repro.dynamics.plan import plan_for
from repro.model.joints import FloatingJoint
from repro.model.robot import RobotModel

_EPS = 1e-12


# ---------------------------------------------------------------------------
# Pure spatial helpers
#
# The operators in ``repro.spatial`` build their outputs with in-place
# writes into ``xp.zeros`` (and dispatch jax operands to the host), so
# traceable equivalents are assembled here from stack/concatenate only.
# ---------------------------------------------------------------------------


def _mv(x, v):
    """Batched matrix @ vector over arbitrary leading axes."""
    return (x @ v[..., None])[..., 0]


def _blockmm(op, slab):
    """``op @ slab[..., b, :]`` for every block ``b`` of an ``(n, L, r,
    B, C)`` slab, as one matmul over ``B * C`` columns."""
    out = op @ slab.reshape(slab.shape[:3] + (-1,))
    return out.reshape(out.shape[:3] + slab.shape[3:])


def fskew(xp, v):
    """``(..., 3) -> (..., 3, 3)`` skew operator, pure."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    o = xp.zeros_like(x)
    return xp.stack([
        xp.stack([o, -z, y], axis=-1),
        xp.stack([z, o, -x], axis=-1),
        xp.stack([-y, x, o], axis=-1),
    ], axis=-2)


def fexp_so3(xp, w):
    """Batched Rodrigues formula, matching ``spatial.so3.exp_so3``."""
    theta = xp.sqrt(xp.sum(w * w, axis=-1))
    small = theta < _EPS
    safe = xp.where(small, 1.0, theta)
    a = xp.where(small, 1.0, xp.sin(safe) / safe)
    b = xp.where(small, 0.5, (1.0 - xp.cos(safe)) / (safe * safe))
    k = fskew(xp, w)
    return (xp.eye(3) + a[..., None, None] * k
            + b[..., None, None] * (k @ k))


def frot(xp, e):
    """Block-diagonal spatial rotation ``[[E, 0], [0, E]]``."""
    z = xp.zeros_like(e)
    return xp.concatenate([
        xp.concatenate([e, z], axis=-1),
        xp.concatenate([z, e], axis=-1),
    ], axis=-2)


def fspatial_transform(xp, e, r):
    """Spatial transform ``[[E, 0], [-E skew(r), E]]``."""
    z = xp.zeros_like(e)
    return xp.concatenate([
        xp.concatenate([e, z], axis=-1),
        xp.concatenate([-(e @ fskew(xp, r)), e], axis=-1),
    ], axis=-2)


def fxlt(xp, r):
    """Pure translation transform ``[[1, 0], [-skew(r), 1]]``."""
    eye = xp.zeros(r.shape[:-1] + (3, 3)) + xp.eye(3)
    return fspatial_transform(xp, eye, r)


def fcrm(xp, v):
    """Motion cross operator ``[[skew(w), 0], [skew(v), skew(w)]]``."""
    sw = fskew(xp, v[..., :3])
    sv = fskew(xp, v[..., 3:])
    z = xp.zeros_like(sw)
    return xp.concatenate([
        xp.concatenate([sw, z], axis=-1),
        xp.concatenate([sv, sw], axis=-1),
    ], axis=-2)


def fcrf(xp, v):
    """Force cross operator ``crf(v) = -crm(v).T``."""
    return -xp.swapaxes(fcrm(xp, v), -1, -2)


def fcrf_bar(xp, f):
    """Argument-swapped force cross: ``fcrf_bar(f) @ a == a x* f``."""
    sn = fskew(xp, f[..., :3])
    sg = fskew(xp, f[..., 3:])
    z = xp.zeros_like(sn)
    return xp.concatenate([
        xp.concatenate([-sn, -sg], axis=-1),
        xp.concatenate([-sg, z], axis=-1),
    ], axis=-2)


def fcross_motion(xp, a, b):
    """``a x b`` for motion vectors, pure."""
    w, v = a[..., :3], a[..., 3:]
    top = xp.cross(w, b[..., :3])
    bottom = xp.cross(v, b[..., :3]) + xp.cross(w, b[..., 3:])
    return xp.concatenate([top, bottom], axis=-1)


def fcross_force(xp, a, f):
    """``a x* f`` for a motion vector on a force vector, pure."""
    w, v = a[..., :3], a[..., 3:]
    top = xp.cross(w, f[..., :3]) + xp.cross(v, f[..., 3:])
    bottom = xp.cross(w, f[..., 3:])
    return xp.concatenate([top, bottom], axis=-1)


# ---------------------------------------------------------------------------
# The functional plan
# ---------------------------------------------------------------------------


class FunctionalPlan:
    """One robot's level schedule as pure functions on one backend.

    Structure (levels, groups, constants, the packed column layout) is
    borrowed from the memoized host :class:`ExecutionPlan`; the constant
    stacks and index tables stay host numpy and become trace constants
    when a kernel is jitted.  All kernel methods take backend-native
    task-major operands and return backend-native results — the
    :class:`~repro.dynamics.jit.JitEngine` owns the host boundary and the
    compiled-callable cache.
    """

    def __init__(self, model: RobotModel,
                 backend: str | ArrayBackend | None = None) -> None:
        self.backend = get_backend(backend)
        self.xp = self.backend.xp
        self.ein = self.backend.einsum
        sp = plan_for(model, "numpy")
        self.nb, self.nv = sp.nb, sp.nv
        self.robot_name = sp.robot_name
        self.inertias = sp.inertias
        self.sel_all = sp.sel_all
        self.minus_gravity = sp.minus_gravity
        self.levels = sp.levels
        self.packed_levels = sp.packed_levels
        self.col_pos = sp.col_pos
        self.transform_groups = sp.transform_groups
        self.slot_of_link = sp.slot_of_link
        for tg in self.transform_groups:
            if tg.kind == "generic":
                bad = [type(j).__name__ for j in tg.joints
                       if not isinstance(j, FloatingJoint)]
                if bad:
                    raise BackendCapabilityError(
                        "the functional kernels support revolute, "
                        "prismatic and floating joints; "
                        f"{sp.robot_name!r} has {sorted(set(bad))}"
                    )
        #: Slot -> position in the group-order concatenation that
        #: :meth:`transforms` builds: one gather puts it in slot order.
        self.x_pos = np.argsort(np.concatenate(
            [g.slots for g in self.transform_groups]
        ))
        #: Trace-cache key: two models with identical compiled structure
        #: *and* constants share compiled callables.
        self.key = (sp.structure_hash(), self.backend.name)

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------

    def transforms(self, q):
        """All joint transforms ``^iX_lambda(q)`` as one ``(n, nb, 6, 6)``
        stack: the per-group slabs are concatenated and put in slot order
        by one gather."""
        xp = self.xp
        slabs = []
        for g in self.transform_groups:
            if g.kind == "revolute":
                e = fexp_so3(xp, g.axes * q[:, g.qcols][:, :, None])
                xj = frot(xp, xp.swapaxes(e, -1, -2))
                slabs.append(xj @ g.x_tree)
            elif g.kind == "prismatic":
                xj = fxlt(xp, g.axes * q[:, g.qcols][:, :, None])
                slabs.append(xj @ g.x_tree)
            else:
                for pos in range(len(g.slots)):
                    qj = q[:, g.qslices[pos]]
                    e = xp.swapaxes(fexp_so3(xp, qj[:, :3]), -1, -2)
                    xj = fspatial_transform(xp, e, qj[:, 3:])
                    slabs.append((xj @ g.x_tree[pos])[:, None])
        return xp.concatenate(slabs, axis=1)[:, self.x_pos]

    def rates(self, qd):
        """Joint-space rates projected to spatial: ``(n, nb, 6)``."""
        return self.ein("bsv,nv->nbs", self.sel_all, qd)

    # ------------------------------------------------------------------
    # RNEA
    # ------------------------------------------------------------------

    def _rnea_core(self, X, vj, aj, fx):
        """Forward + backward RNEA; returns ``(tau, state)`` where state
        carries the intermediates the derivative sweeps reuse."""
        xp = self.xp
        v_sl, xv_sl, xa_sl, a_sl = [], [], [], []
        for lvl, pk in zip(self.levels, self.packed_levels):
            lo, hi = lvl.lo, lvl.hi
            X_l, vj_l, aj_l = X[:, lo:hi], vj[:, lo:hi], aj[:, lo:hi]
            if lvl.is_root:
                v_l = vj_l
                xv_l = xp.zeros_like(vj_l)
                xa_l = X_l @ self.minus_gravity
                a_l = xa_l + aj_l
            else:
                xv_l = _mv(X_l, v_sl[-1][:, pk.prel])
                v_l = xv_l + vj_l
                xa_l = _mv(X_l, a_sl[-1][:, pk.prel])
                a_l = xa_l + aj_l + fcross_motion(xp, v_l, vj_l)
            v_sl.append(v_l)
            xv_sl.append(xv_l)
            xa_sl.append(xa_l)
            a_sl.append(a_l)
        v = xp.concatenate(v_sl, axis=1)
        xv = xp.concatenate(xv_sl, axis=1)
        xa = xp.concatenate(xa_sl, axis=1)
        a = xp.concatenate(a_sl, axis=1)
        iv = _mv(self.inertias, v)
        f0 = _mv(self.inertias, a) + fcross_force(xp, v, iv)
        if fx is not None:
            f0 = f0 - fx
        # Backward: each level's accumulated forces, handed to the parent
        # level as one segment sum.
        f_sl, f_in = [], 0.0
        for lvl, pk in zip(reversed(self.levels),
                           reversed(self.packed_levels)):
            lo, hi = lvl.lo, lvl.hi
            f_l = f0[:, lo:hi] + f_in
            f_sl.append(f_l)
            if not lvl.is_root:
                xt = xp.swapaxes(X[:, lo:hi], -1, -2)
                f_in = self._to_parents(lvl, pk, _mv(xt, f_l))
        f = xp.concatenate(f_sl[::-1], axis=1)
        tau = self.ein("bsv,nbs->nv", self.sel_all, f)
        return tau, dict(v=v, xv=xv, xa=xa, f=f, vj=vj)

    def id_(self, q, qd, qdd, fx=None):
        X = self.transforms(q)
        tau, _ = self._rnea_core(X, self.rates(qd), self.rates(qdd), fx)
        return tau

    # ------------------------------------------------------------------
    # ABA forward dynamics
    # ------------------------------------------------------------------

    def fd(self, q, qd, tau, fx=None):
        xp = self.xp
        n = q.shape[0]
        X = self.transforms(q)
        vj = self.rates(qd)

        # Pass 1: velocities.
        v_sl = []
        for lvl, pk in zip(self.levels, self.packed_levels):
            lo, hi = lvl.lo, lvl.hi
            if lvl.is_root:
                v_sl.append(vj[:, lo:hi])
            else:
                v_sl.append(_mv(X[:, lo:hi], v_sl[-1][:, pk.prel])
                            + vj[:, lo:hi])
        v = xp.concatenate(v_sl, axis=1)
        c = fcross_motion(xp, v, vj)
        p = fcross_force(xp, v, _mv(self.inertias, v))
        if fx is not None:
            p = p - fx

        # Pass 2: articulated inertias and bias forces, backward; each
        # level hands its parent level the summed child contributions.
        saved: dict = {}
        ia_in, p_in = xp.zeros((n, self.levels[-1].size, 6, 6)), 0.0
        for lvl, pk in zip(reversed(self.levels),
                           reversed(self.packed_levels)):
            lo, hi = lvl.lo, lvl.hi
            IA_l = self.inertias[lo:hi] + ia_in
            p_l = p[:, lo:hi] + p_in
            ia_parts, p_parts = [], []
            for gi, g in enumerate(lvl.groups):
                rl = slice(g.lo - lo, g.hi - lo)
                IA_g, p_g, c_g = IA_l[:, rl], p_l[:, rl], c[:, g.lo:g.hi]
                if g.k == 1:
                    u = _mv(IA_g, g.axis)
                    d_inv = 1.0 / xp.einsum("ls,nls->nl", g.axis, u)
                    u_tau = tau[:, g.dofs[:, 0]] - xp.einsum(
                        "ls,nls->nl", g.axis, p_g
                    )
                    saved[(lvl.index, gi)] = (u, d_inv, u_tau)
                    if not lvl.is_root:
                        IA_n = IA_g - (
                            d_inv[..., None, None]
                            * (u[..., :, None] * u[..., None, :])
                        )
                        ia_parts.append(IA_n)
                        p_parts.append(p_g + _mv(IA_n, c_g)
                                       + u * (d_inv * u_tau)[..., None])
                else:
                    u = IA_g @ g.subspaces
                    d_inv = xp.linalg.inv(g.subspaces_t @ u)
                    u_tau = tau[:, g.dofs] - _mv(g.subspaces_t, p_g)
                    saved[(lvl.index, gi)] = (u, d_inv, u_tau)
                    if not lvl.is_root:
                        IA_n = IA_g - (u @ d_inv) @ xp.swapaxes(u, -1, -2)
                        ia_parts.append(IA_n)
                        p_parts.append(p_g + _mv(IA_n, c_g)
                                       + _mv(u, _mv(d_inv, u_tau)))
            if not lvl.is_root:
                xl = X[:, lo:hi]
                xt = xp.swapaxes(xl, -1, -2)
                ia_in = self._to_parents(
                    lvl, pk, (xt @ xp.concatenate(ia_parts, axis=1)) @ xl
                )
                p_in = self._to_parents(
                    lvl, pk, _mv(xt, xp.concatenate(p_parts, axis=1))
                )

        # Pass 3: accelerations, forward.
        a_prev = None
        qdd_parts = []
        for lvl, pk in zip(self.levels, self.packed_levels):
            lo, hi = lvl.lo, lvl.hi
            if lvl.is_root:
                ap_l = X[:, lo:hi] @ self.minus_gravity + c[:, lo:hi]
            else:
                ap_l = _mv(X[:, lo:hi], a_prev[:, pk.prel]) + c[:, lo:hi]
            a_parts = []
            for gi, g in enumerate(lvl.groups):
                u, d_inv, u_tau = saved[(lvl.index, gi)]
                ap_g = ap_l[:, g.lo - lo:g.hi - lo]
                if g.k == 1:
                    qdd_g = d_inv * (
                        u_tau - xp.einsum("nls,nls->nl", u, ap_g)
                    )
                    qdd_parts.append(qdd_g)
                    a_parts.append(ap_g + g.axis * qdd_g[..., None])
                else:
                    qdd_g = _mv(
                        d_inv,
                        u_tau - _mv(xp.swapaxes(u, -1, -2), ap_g),
                    )
                    qdd_parts.append(qdd_g.reshape(n, -1))
                    a_parts.append(ap_g + _mv(g.subspaces, qdd_g))
            a_prev = xp.concatenate(a_parts, axis=1)
        qdd_perm = xp.concatenate(qdd_parts, axis=1)
        return qdd_perm[:, self.col_pos]

    # ------------------------------------------------------------------
    # Packed-layout helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _own(eye, pk, gi, g, lo, hi):
        """``(Lg, k, hi - lo)`` one-hot rows: right-multiplying a
        ``(..., k)`` per-link operand places it at the link's own packed
        DOF columns (``pk.prow[gi]``) inside the column window
        ``[lo, hi)``, zeros elsewhere."""
        return eye[pk.prow[gi], lo:hi].reshape(g.size, g.k, hi - lo)

    @staticmethod
    def _to_parents(lvl, pk, val):
        """Sum per-link ``val`` slabs of a level into a fresh stack over
        its parent level's links (siblings sharing a parent add up).

        The segment sum is one matmul with the plan's ``(parent, child)``
        incidence matrix (``pk.incidence``): dense, so it traces without
        a scatter and runs as BLAS on numpy.
        """
        n, size = val.shape[0], pk.incidence.shape[0]
        return (pk.incidence @ val.reshape(n, lvl.size, -1)).reshape(
            (n, size) + val.shape[2:]
        )

    # ------------------------------------------------------------------
    # MMinvGen
    # ------------------------------------------------------------------

    def _mminv(self, X, *, out_minv):
        """MMinvGen backward sweep (+ forward for Minv), packed columns.

        A level works on its subtree window ``[wp, nv)``.  Its own
        columns ``[wp, w)`` carry only the links' diagonal blocks (no
        descendant writes there), and the descendant columns ``[w, nv)``
        arrive from the child level, so each level hands its parent a
        force stack at exactly the parent's descendant width.  Rows come
        out in slot order and are unpermuted once, with both axes, at
        the end.
        """
        xp = self.xp
        n, nv = X.shape[0], self.nv
        eye = xp.eye(nv)
        rows: list = [None] * len(self.levels)     # per level, per group
        saved: dict = {}
        f_in = ia_in = None     # child-level contributions, this level's links
        for lvl in reversed(self.levels):
            pk = self.packed_levels[lvl.index]
            lo, hi, wp, w = lvl.lo, lvl.hi, pk.wp, pk.w
            if f_in is None:                        # deepest level
                f_in = xp.zeros((n, lvl.size, 6, nv - w))
                ia_in = xp.zeros((n, lvl.size, 6, 6))
            IA = self.inertias[lo:hi] + ia_in
            row_g, f_parts, ia_parts = [], [], []
            for gi, g in enumerate(lvl.groups):
                rl = slice(g.lo - lo, g.hi - lo)
                own = self._own(eye, pk, gi, g, wp, w)
                u = IA[:, rl] @ g.subspaces                 # (n, Lg, 6, k)
                d = g.subspaces_t @ u
                f_g = f_in[:, rl]                           # (n, Lg, 6, nv-w)
                stf = g.subspaces_t @ f_g
                if out_minv:
                    d_inv = 1.0 / d if g.k == 1 else xp.linalg.inv(d)
                    ud = u @ d_inv
                    desc = -(d_inv @ stf)
                    row_g.append(xp.concatenate([d_inv @ own, desc], -1))
                    f_parts.append(xp.concatenate([ud @ own, f_g + u @ desc],
                                                  -1))
                    ia_parts.append(IA[:, rl] - ud @ xp.swapaxes(u, -1, -2))
                    saved[(lvl.index, gi)] = (u, d_inv)
                else:
                    row_g.append(xp.concatenate([d @ own, stf], -1))
                    f_parts.append(xp.concatenate([u @ own, f_g], -1))
            rows[lvl.index] = row_g
            if lvl.is_root:
                continue
            xl = X[:, lo:hi]
            xt = xp.swapaxes(xl, -1, -2)
            f_in = self._to_parents(lvl, pk,
                                    xt @ xp.concatenate(f_parts, axis=1))
            if out_minv:
                IA = xp.concatenate(ia_parts, axis=1)
            ia_in = self._to_parents(lvl, pk, (xt @ IA) @ xl)

        if out_minv:
            rows = self._minv_forward(X, rows, saved)
        # Level row blocks [wp, w) cover every row once, in order; each
        # is zero left of its window.
        out = xp.concatenate([
            xp.concatenate([
                xp.zeros((n, pk.w - pk.wp, pk.wp)),
                xp.concatenate([r.reshape(n, -1, nv - pk.wp)
                                for r in row_g], axis=1),
            ], axis=-1)
            for pk, row_g in zip(self.packed_levels, rows)
        ], axis=1)
        ix = self.col_pos
        return _symmetrize_from_rows(out, xp)[:, ix[:, None], ix[None, :]]

    def _minv_forward(self, X, rows, saved):
        """Forward MMinvGen sweep over the backward sweep's row blocks.

        Returns the corrected ``(n, Lg, k, nv - wp)`` row blocks.  Each
        level passes its propagated stack on at the child level's window
        ``[w, nv)``.
        """
        xp = self.xp
        out: list = []
        p_prev = None
        for lvl, pk in zip(self.levels, self.packed_levels):
            lo, hi = lvl.lo, lvl.hi
            if not lvl.is_root:
                xpp = X[:, lo:hi] @ p_prev[:, pk.prel]
            og_g, p_parts = [], []
            for gi, g in enumerate(lvl.groups):
                og = rows[lvl.index][gi]
                if lvl.is_root:
                    p_parts.append(g.subspaces @ og)
                else:
                    xpp_g = xpp[:, g.lo - lo:g.hi - lo]
                    u, d_inv = saved[(lvl.index, gi)]
                    og = og - d_inv @ (xp.swapaxes(u, -1, -2) @ xpp_g)
                    p_parts.append(g.subspaces @ og + xpp_g)
                og_g.append(og)
            out.append(og_g)
            p_prev = xp.concatenate(p_parts, axis=1)[..., pk.w - pk.wp:]
        return out

    def m(self, q):
        return self._mminv(self.transforms(q), out_minv=False)

    def minv(self, q):
        return self._mminv(self.transforms(q), out_minv=True)

    # ------------------------------------------------------------------
    # dRNEA derivative sweeps
    # ------------------------------------------------------------------

    def _derivatives(self, X, state):
        """Paired d/dq, d/dqd sweeps over a completed RNEA state.

        The forward sweep carries each level's ``[dv/dq, dv/dqd, da/dq,
        da/dqd]`` stacks on a block axis behind the spatial row axis, at
        the level's path prefix ``[0, w)``: every 6x6 operator then
        applies as one matmul over ``4 * w`` columns.  The parents'
        prefix ``[0, wp)`` propagates by one such matmul, and the
        ``[wp, w)`` gap holds only the level's own one-hot joint terms.
        The backward sweep hands each level's full-width ``DF`` pair to
        the parent level and extracts rows in slot order; one
        ``col_pos`` gather unpermutes both axes.
        """
        xp = self.xp
        v, xv, xa, f, vj = (state["v"], state["xv"], state["xa"],
                            state["f"], state["vj"])
        n, nv = v.shape[0], self.nv
        eye = xp.eye(nv)
        gyro = (fcrf_bar(xp, _mv(self.inertias, v))
                + fcrf(xp, v) @ self.inertias)
        cvj = fcrm(xp, vj)
        x3 = xp.stack([xv, xa, v], axis=2)                   # (n, nb, 3, 6)

        # Forward sweep.
        df_lvl = []
        prev = None
        for lvl, pk in zip(self.levels, self.packed_levels):
            lo, hi = lvl.lo, lvl.hi
            own = []
            for gi, g in enumerate(lvl.groups):
                # x x S_j per subspace column, for x in (xv, xa, v); xv is
                # zero at the root, so dv/dq has no root joint term.
                cx = xp.moveaxis(fcross_motion(
                    xp, x3[:, g.lo:g.hi, :, None], g.subspaces_t[:, None]
                ), -1, 2)                                    # (n, Lg, 6, 3, k)
                terms = xp.concatenate([
                    cx[:, :, :, :1],
                    xp.zeros_like(cx[:, :, :, :1]) + g.subspaces[:, :, None],
                    cx[:, :, :, 1:],
                ], axis=3)
                own.append(terms @ self._own(eye, pk, gi, g, pk.wp, pk.w)
                           [:, None])
            slab = xp.concatenate(own, axis=1)          # (n, L, 6, 4, w-wp)
            if not lvl.is_root:
                slab = xp.concatenate(
                    [_blockmm(X[:, lo:hi], prev[:, pk.prel]), slab], axis=-1
                )
            # a_i includes v_i x vj: differentiate both factors.
            dv = slab[:, :, :, :2]
            da = slab[:, :, :, 2:] - _blockmm(cvj[:, lo:hi], dv)
            # DF pair (n, L, 6, 2, w): [df/dq, df/dqd].
            df_lvl.append(_blockmm(self.inertias[lo:hi], da)
                          + _blockmm(gyro[:, lo:hi], dv))
            prev = xp.concatenate([dv, da], axis=3)

        # Backward sweep: extract each level's dtau rows *before* the
        # own-column btr term lands, then hand the level to its parents.
        row_blocks = []
        c_in = None
        for lvl in reversed(self.levels):
            pk = self.packed_levels[lvl.index]
            lo, hi, w = lvl.lo, lvl.hi, pk.w
            acc = df_lvl[lvl.index]
            if c_in is not None:
                acc = xp.concatenate([acc + c_in[..., :w], c_in[..., w:]],
                                     axis=-1)
            parts, bt = [], []
            for gi, g in enumerate(lvl.groups):
                acc_g = acc[:, g.lo - lo:g.hi - lo]
                parts.append(_blockmm(g.subspaces_t, acc_g)
                             .reshape(n, -1, 2, nv))
                if not lvl.is_root:
                    # S_j x* f at the link's own dq columns.
                    btr = fcross_force(xp, g.subspaces_t,
                                       f[:, g.lo:g.hi, None])
                    bt.append(xp.swapaxes(btr, -1, -2)
                              @ self._own(eye, pk, gi, g, 0, nv))
            row_blocks.append(xp.concatenate(parts, axis=1))
            if lvl.is_root:
                continue
            bt = xp.concatenate(bt, axis=1)                  # (n, L, 6, nv)
            acc = xp.concatenate([acc[:, :, :, :1] + bt[:, :, :, None],
                                  acc[:, :, :, 1:]], axis=3)
            c_in = self._to_parents(
                lvl, pk, _blockmm(xp.swapaxes(X[:, lo:hi], -1, -2), acc)
            )

        rows = xp.concatenate(row_blocks[::-1], axis=1)      # (n, nv, 2, nv)
        ix = self.col_pos
        return (rows[:, :, 0][:, ix[:, None], ix[None, :]],
                rows[:, :, 1][:, ix[:, None], ix[None, :]])

    def did(self, q, qd, qdd, fx=None):
        X = self.transforms(q)
        _, state = self._rnea_core(X, self.rates(qd), self.rates(qdd), fx)
        return self._derivatives(X, state)

    def dfd(self, q, qd, tau, fx=None):
        xp = self.xp
        X = self.transforms(q)
        vj = self.rates(qd)
        bias, _ = self._rnea_core(X, vj, xp.zeros_like(vj), fx)
        minv = self._mminv(X, out_minv=True)
        qdd = _mv(minv, tau - bias)
        _, state = self._rnea_core(X, vj, self.rates(qdd), fx)
        dtau_q, dtau_qd = self._derivatives(X, state)
        return (qdd, -xp.matmul(minv, dtau_q),
                -xp.matmul(minv, dtau_qd), minv)

    def difd(self, q, qd, qdd, minv=None, fx=None):
        xp = self.xp
        X = self.transforms(q)
        if minv is None:
            minv = self._mminv(X, out_minv=True)
        _, state = self._rnea_core(X, self.rates(qd), self.rates(qdd), fx)
        dtau_q, dtau_qd = self._derivatives(X, state)
        return (qdd, -xp.matmul(minv, dtau_q),
                -xp.matmul(minv, dtau_qd), minv)


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

#: model -> {backend name: FunctionalPlan}, weak over models like the
#: execution-plan cache it builds on.
_FPLAN_CACHE: "weakref.WeakKeyDictionary[RobotModel, dict]" = (
    weakref.WeakKeyDictionary()
)
_FPLAN_LOCK = threading.Lock()


def functional_plan_for(model: RobotModel,
                        backend: str | ArrayBackend | None = None,
                        ) -> FunctionalPlan:
    """The memoized :class:`FunctionalPlan` for ``model`` on ``backend``."""
    bk = get_backend(backend)
    plans = _FPLAN_CACHE.get(model)
    if plans is not None:
        plan = plans.get(bk.name)
        if plan is not None:
            return plan
    with _FPLAN_LOCK:
        plans = _FPLAN_CACHE.get(model)
        if plans is None:
            plans = {}
            _FPLAN_CACHE[model] = plans
        plan = plans.get(bk.name)
        if plan is None:
            plan = FunctionalPlan(model, bk)
            plans[bk.name] = plan
    return plan


__all__ = [
    "FunctionalPlan",
    "functional_plan_for",
    "fcrf",
    "fcrf_bar",
    "fcrm",
    "fcross_force",
    "fcross_motion",
    "fexp_so3",
    "fskew",
    "fspatial_transform",
]
