"""Functional (out-of-place) variants of the execution-plan kernels.

The compiled :class:`~repro.dynamics.plan.ExecutionPlan` kernels mutate
preallocated workspaces, which is exactly what trace-compiling runtimes
with immutable arrays (JAX) cannot execute — the single reason the jax
backend is declined by the ``compiled`` engine.  This module re-derives
the same level-scheduled sweeps as *pure functions*:

* forward sweeps build each level's slab from the previous level (a
  gather by relative parent position) and concatenate — levels are
  contiguous slot runs, so no scatter is needed going down the tree;
* backward sweeps accumulate into parents through the backend's
  out-of-place :meth:`~repro.backend.ArrayBackend.at_add` scatter
  (duplicate parent slots sum, mirroring ``_scatter_to_parents``);
* DOF-row outputs are assembled in slot order (the order the levels
  produce them) and unpermuted once at the end with a precompiled
  position gather.

A :class:`FunctionalPlan` borrows its *structure* — levels, groups,
selector stacks, inertias, transform groups — from the host numpy
:class:`ExecutionPlan` (structure compilation stays a host-side, one-time
pass, exactly like the paper's offline bitstream build) and executes on
any backend: with numpy the kernels run interpreted (the correctness
reference CI exercises everywhere), with jax each Table-I function
traces into one fused XLA program via :meth:`ArrayBackend.jit`.

The mass-matrix and derivative sweeps here still use the *column-order*
(dense-window) layout — MMinvGen at windows ``[col_start, nv)``, the
derivative transfers at full ``nv`` width — and are now the only
dense-window sweeps in the package: :class:`ExecutionPlan` runs the
packed column layout only.  Porting them onto the packed layout is open
work (on numpy the interpreted jit engine trails ``compiled`` most on
branched Minv, e.g. hyq).  Equivalence against the ``loop`` engine holds
at the suite's 1e-10 tolerance on every library robot.
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

    Structure (levels, groups, constants) is borrowed from the memoized
    host :class:`ExecutionPlan`; the constant stacks stay host numpy and
    become trace constants when a kernel is jitted.  All kernel methods
    take backend-native task-major operands and return backend-native
    results — the :class:`~repro.dynamics.jit.JitEngine` owns the host
    boundary and the compiled-callable cache.
    """

    def __init__(self, model: RobotModel,
                 backend: str | ArrayBackend | None = None) -> None:
        self.backend = get_backend(backend)
        self.xp = self.backend.xp
        self.ein = self.backend.einsum
        sp = plan_for(model, "numpy")
        self.sp = sp
        self.nb, self.nv = sp.nb, sp.nv
        self.robot_name = sp.robot_name
        self.inertias = sp.inertias
        self.sel_all = sp.sel_all
        self.minus_gravity = sp.minus_gravity
        self.levels = sp.levels
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
        # Per-level parent positions relative to the previous level (the
        # forward-sweep gather; parents of level d live exactly in level
        # d-1 because levels are depth wavefronts).
        self.prel: list = [None]
        for lvl in self.levels[1:]:
            prev = self.levels[lvl.index - 1]
            self.prel.append(
                np.asarray(lvl.parent_slots - prev.lo, dtype=np.intp)
            )
        # Slot-major DOF order: outputs are assembled level by level,
        # group by group, then unpermuted with one position gather.
        perm = np.concatenate([
            g.dofs.reshape(-1) for lvl in self.levels for g in lvl.groups
        ]).astype(np.intp)
        pos = np.empty(self.nv, dtype=np.intp)
        pos[perm] = np.arange(self.nv)
        self.dof_perm, self.dof_pos = perm, pos
        #: Trace-cache key: two models with identical compiled structure
        #: *and* constants share compiled callables.
        self.key = (sp.structure_hash(), self.backend.name)

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------

    def transforms(self, q):
        """All joint transforms ``^iX_lambda(q)`` as one ``(n, nb, 6, 6)``
        stack, built group-by-group and scattered once per joint kind."""
        xp, b = self.xp, self.backend
        n = q.shape[0]
        X = xp.zeros((n, self.nb, 6, 6))
        for g in self.transform_groups:
            if g.kind == "revolute":
                e = fexp_so3(xp, g.axes * q[:, g.qcols][:, :, None])
                xj = frot(xp, xp.swapaxes(e, -1, -2))
                X = b.at_set(X, (slice(None), g.slots), xj @ g.x_tree)
            elif g.kind == "prismatic":
                xj = fxlt(xp, g.axes * q[:, g.qcols][:, :, None])
                X = b.at_set(X, (slice(None), g.slots), xj @ g.x_tree)
            else:
                for pos, slot in enumerate(g.slots):
                    qj = q[:, g.qslices[pos]]
                    e = xp.swapaxes(fexp_so3(xp, qj[:, :3]), -1, -2)
                    xj = fspatial_transform(xp, e, qj[:, 3:])
                    X = b.at_set(X, (slice(None), int(slot)),
                                 xj @ g.x_tree[pos])
        return X

    def rates(self, qd):
        """Joint-space rates projected to spatial: ``(n, nb, 6)``."""
        return self.ein("bsv,nv->nbs", self.sel_all, qd)

    # ------------------------------------------------------------------
    # RNEA
    # ------------------------------------------------------------------

    def _rnea_core(self, X, vj, aj, fx):
        """Forward + backward RNEA; returns ``(tau, state)`` where state
        carries the intermediates the derivative sweeps reuse."""
        xp, b = self.xp, self.backend
        v_sl, xv_sl, xa_sl, a_sl = [], [], [], []
        for lvl in self.levels:
            lo, hi = lvl.lo, lvl.hi
            X_l, vj_l, aj_l = X[:, lo:hi], vj[:, lo:hi], aj[:, lo:hi]
            if lvl.is_root:
                v_l = vj_l
                xv_l = xp.zeros_like(vj_l)
                xa_l = X_l @ self.minus_gravity
                a_l = xa_l + aj_l
            else:
                prel = self.prel[lvl.index]
                xv_l = _mv(X_l, v_sl[-1][:, prel])
                v_l = xv_l + vj_l
                xa_l = _mv(X_l, a_sl[-1][:, prel])
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
        f = _mv(self.inertias, a) + fcross_force(xp, v, iv)
        if fx is not None:
            f = f - fx
        for lvl in reversed(self.levels):
            if lvl.is_root:
                continue
            lo, hi = lvl.lo, lvl.hi
            xt = xp.swapaxes(X[:, lo:hi], -1, -2)
            f = b.at_add(f, (slice(None), lvl.parent_slots),
                         _mv(xt, f[:, lo:hi]))
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
        xp, b = self.xp, self.backend
        n = q.shape[0]
        X = self.transforms(q)
        vj = self.rates(qd)

        # Pass 1: velocities.
        v_sl = []
        for lvl in self.levels:
            lo, hi = lvl.lo, lvl.hi
            if lvl.is_root:
                v_sl.append(vj[:, lo:hi])
            else:
                prel = self.prel[lvl.index]
                v_sl.append(_mv(X[:, lo:hi], v_sl[-1][:, prel])
                            + vj[:, lo:hi])
        v = xp.concatenate(v_sl, axis=1)
        c = fcross_motion(xp, v, vj)
        p = fcross_force(xp, v, _mv(self.inertias, v))
        if fx is not None:
            p = p - fx
        IA = xp.zeros((n, self.nb, 6, 6)) + self.inertias

        # Pass 2: articulated inertias and bias forces, backward.
        saved: dict = {}
        for lvl in reversed(self.levels):
            lo, hi = lvl.lo, lvl.hi
            ia_parts, p_parts = [], []
            for gi, g in enumerate(lvl.groups):
                sl = slice(g.lo, g.hi)
                IA_g, p_g, c_g = IA[:, sl], p[:, sl], c[:, sl]
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
                IA_lvl = xp.concatenate(ia_parts, axis=1)
                p_lvl = xp.concatenate(p_parts, axis=1)
                xl = X[:, lo:hi]
                xt = xp.swapaxes(xl, -1, -2)
                IA = b.at_add(IA, (slice(None), lvl.parent_slots),
                              (xt @ IA_lvl) @ xl)
                p = b.at_add(p, (slice(None), lvl.parent_slots),
                             _mv(xt, p_lvl))

        # Pass 3: accelerations, forward.
        a_prev = None
        qdd_parts = []
        for lvl in self.levels:
            lo, hi = lvl.lo, lvl.hi
            if lvl.is_root:
                ap_l = X[:, lo:hi] @ self.minus_gravity + c[:, lo:hi]
            else:
                prel = self.prel[lvl.index]
                ap_l = _mv(X[:, lo:hi], a_prev[:, prel]) + c[:, lo:hi]
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
        return qdd_perm[:, self.dof_pos]

    # ------------------------------------------------------------------
    # MMinvGen
    # ------------------------------------------------------------------

    def _mminv(self, X, *, out_minv):
        """Dense-window MMinvGen backward sweep (+ forward for Minv)."""
        xp, b = self.xp, self.backend
        n = X.shape[0]
        nv = self.nv
        IA = xp.zeros((n, self.nb, 6, 6)) + self.inertias
        f_acc = xp.zeros((n, self.nb, 6, nv))
        row_blocks: dict = {}
        saved: dict = {}

        for lvl in reversed(self.levels):
            lo, hi, w0 = lvl.lo, lvl.hi, lvl.col_start
            width = nv - w0
            blocks = []
            for gi, g in enumerate(lvl.groups):
                sl = slice(g.lo, g.hi)
                IA_g = IA[:, sl]
                if g.k == 1:
                    u = _mv(IA_g, g.axis)
                    d = xp.einsum("ls,nls->nl", g.axis, u)
                    stf = self.ein("ls,nlsv->nlv", g.axis,
                                   f_acc[:, sl, :, w0:])
                    diag_idx = (slice(None), np.arange(g.size),
                                g.dofs[:, 0] - w0)
                    if out_minv:
                        d_inv = 1.0 / d
                        block = -(d_inv[..., None] * stf)
                        block = b.at_set(block, diag_idx, d_inv)
                        saved[(lvl.index, gi)] = (u, d_inv)
                        f_acc = b.at_add(
                            f_acc,
                            (slice(None), sl, slice(None),
                             slice(w0, None)),
                            u[..., :, None] * block[:, :, None, :],
                        )
                        if not lvl.is_root:
                            IA = b.at_set(
                                IA, (slice(None), sl),
                                IA_g - (d_inv[..., None, None]
                                        * (u[..., :, None]
                                           * u[..., None, :])),
                            )
                    else:
                        block = b.at_set(stf, diag_idx, d)
                        f_acc = b.at_add(
                            f_acc,
                            (slice(None), g.slots, slice(None),
                             g.dofs[:, 0]),
                            xp.moveaxis(u, 1, 0),
                        )
                else:
                    u = IA_g @ g.subspaces
                    d = g.subspaces_t @ u
                    stf = g.subspaces_t @ f_acc[:, sl, :, w0:]
                    if out_minv:
                        d_inv = xp.linalg.inv(d)
                        block = (-(d_inv @ stf)).reshape(
                            n, g.size * g.k, width
                        )
                        block = self._set_diag_blocks(block, g, w0, d_inv)
                        saved[(lvl.index, gi)] = (u, d_inv)
                        og = block.reshape(n, g.size, g.k, width)
                        f_acc = b.at_add(
                            f_acc,
                            (slice(None), sl, slice(None),
                             slice(w0, None)),
                            u @ og,
                        )
                        if not lvl.is_root:
                            IA = b.at_set(
                                IA, (slice(None), sl),
                                IA_g - (u @ d_inv)
                                @ xp.swapaxes(u, -1, -2),
                            )
                    else:
                        block = stf.reshape(n, g.size * g.k, width)
                        block = self._set_diag_blocks(block, g, w0, d)
                        for j in range(g.k):
                            f_acc = b.at_add(
                                f_acc,
                                (slice(None), g.slots, slice(None),
                                 g.dofs[:, j]),
                                xp.moveaxis(u[..., j], 1, 0),
                            )
                blocks.append(block)
            lvl_block = xp.concatenate(blocks, axis=1)
            if w0:
                pad = xp.zeros(lvl_block.shape[:-1] + (w0,))
                lvl_block = xp.concatenate([pad, lvl_block], axis=-1)
            row_blocks[lvl.index] = lvl_block
            if not lvl.is_root:
                xl = X[:, lo:hi]
                xt = xp.swapaxes(xl, -1, -2)
                f_acc = b.at_add(
                    f_acc,
                    (slice(None), lvl.parent_slots, slice(None),
                     slice(w0, None)),
                    xt @ f_acc[:, lo:hi, :, w0:],
                )
                IA = b.at_add(IA, (slice(None), lvl.parent_slots),
                              (xt @ IA[:, lo:hi]) @ xl)

        out_perm = xp.concatenate(
            [row_blocks[i] for i in range(len(self.levels))], axis=1
        )
        out = out_perm[:, self.dof_pos]
        if not out_minv:
            return _symmetrize_from_rows(out, xp)
        return self._minv_forward(X, out, saved)

    def _set_diag_blocks(self, block, g, w0, d):
        """Write each link's (k, k) diagonal block into a level row
        block (multi-DOF groups; own DOF columns are contiguous)."""
        b = self.backend
        for j in range(g.size):
            c0 = int(g.dofs[j, 0]) - w0
            block = b.at_set(
                block,
                (slice(None), slice(j * g.k, (j + 1) * g.k),
                 slice(c0, c0 + g.k)),
                d[:, j],
            )
        return block

    def _minv_forward(self, X, out, saved):
        """Forward MMinvGen sweep over the assembled (global-row) out."""
        xp, b = self.xp, self.backend
        n = X.shape[0]
        nv = self.nv
        p_prop = xp.zeros((n, self.nb, 6, nv))
        for lvl in self.levels:
            lo, hi, w0 = lvl.lo, lvl.hi, lvl.col_start
            width = nv - w0
            if not lvl.is_root:
                xpp = X[:, lo:hi] @ p_prop[:, lvl.parent_slots, :, w0:]
            for gi, g in enumerate(lvl.groups):
                sl = slice(g.lo, g.hi)
                if g.k == 1:
                    if not lvl.is_root:
                        u, d_inv = saved[(lvl.index, gi)]
                        corr = d_inv[..., None] * xp.einsum(
                            "nls,nlsv->nlv", u, xpp[:, g.rel]
                        )
                        out = b.at_add(
                            out,
                            (slice(None), g.rows, slice(w0, None)),
                            -corr,
                        )
                    og = out[:, g.rows, w0:]
                    t = g.axis[:, :, None] * og[:, :, None, :]
                else:
                    if not lvl.is_root:
                        u, d_inv = saved[(lvl.index, gi)]
                        corr = d_inv @ (xp.swapaxes(u, -1, -2)
                                        @ xpp[:, g.rel])
                        out = b.at_add(
                            out,
                            (slice(None), g.rows, slice(w0, None)),
                            -corr.reshape(n, len(g.rows), width),
                        )
                    og = out[:, g.rows, w0:].reshape(
                        n, g.size, g.k, width
                    )
                    t = g.subspaces @ og
                if not lvl.is_root:
                    t = t + xpp[:, g.rel]
                p_prop = b.at_set(
                    p_prop,
                    (slice(None), sl, slice(None), slice(w0, None)),
                    t,
                )
        return _symmetrize_from_rows(out, xp)

    def m(self, q):
        return self._mminv(self.transforms(q), out_minv=False)

    def minv(self, q):
        return self._mminv(self.transforms(q), out_minv=True)

    # ------------------------------------------------------------------
    # dRNEA derivative sweeps
    # ------------------------------------------------------------------

    def _derivatives(self, X, state):
        """Paired d/dq, d/dqd sweeps over a completed RNEA state."""
        xp, b = self.xp, self.backend
        v, xv, xa, f, vj = (state["v"], state["xv"], state["xa"],
                            state["f"], state["vj"])
        n = v.shape[0]
        nv = self.nv
        nv2 = 2 * nv
        gyro = (fcrf_bar(xp, _mv(self.inertias, v))
                + fcrf(xp, v) @ self.inertias)
        cvj = fcrm(xp, vj)

        # Forward sweep: per-level [dv/dq | dv/dqd | da/dq | da/dqd].
        df_sl = []
        prev = None
        for lvl in self.levels:
            lo, hi = lvl.lo, lvl.hi
            if lvl.is_root:
                slab = xp.zeros((n, hi - lo, 6, 4 * nv))
            else:
                slab = xp.matmul(X[:, lo:hi],
                                 prev[:, self.prel[lvl.index]])
            for g in lvl.groups:
                if g.k == 1:
                    if not lvl.is_root:
                        slab = b.at_add(
                            slab,
                            (slice(None), g.rel, slice(None),
                             g.dofs[:, 0]),
                            xp.moveaxis(fcross_motion(
                                xp, xv[:, g.lo:g.hi], g.axis), 1, 0),
                        )
                    slab = b.at_add(
                        slab,
                        (slice(None), g.rel, slice(None),
                         nv + g.dofs[:, 0]),
                        g.axis[:, None],
                    )
                    slab = b.at_add(
                        slab,
                        (slice(None), g.rel, slice(None),
                         nv2 + g.dofs[:, 0]),
                        xp.moveaxis(fcross_motion(
                            xp, xa[:, g.lo:g.hi], g.axis), 1, 0),
                    )
                else:
                    sel = lvl.sel[g.rel]
                    rl = slice(g.lo - lo, g.hi - lo)
                    if not lvl.is_root:
                        slab = b.at_add(
                            slab,
                            (slice(None), rl, slice(None), slice(0, nv)),
                            fcrm(xp, xv[:, g.lo:g.hi]) @ sel,
                        )
                    slab = b.at_add(
                        slab,
                        (slice(None), rl, slice(None), slice(nv, nv2)),
                        xp.zeros((n, 1, 6, nv)) + sel,
                    )
                    slab = b.at_add(
                        slab,
                        (slice(None), rl, slice(None),
                         slice(nv2, 3 * nv)),
                        fcrm(xp, xa[:, g.lo:g.hi]) @ sel,
                    )
            # a_i includes v_i x vj: differentiate both factors.
            slab = xp.concatenate([
                slab[..., :nv2],
                slab[..., nv2:] - cvj[:, lo:hi] @ slab[..., :nv2],
            ], axis=-1)
            for g in lvl.groups:
                if g.k == 1:
                    slab = b.at_add(
                        slab,
                        (slice(None), g.rel, slice(None),
                         3 * nv + g.dofs[:, 0]),
                        xp.moveaxis(fcross_motion(
                            xp, v[:, g.lo:g.hi], g.axis), 1, 0),
                    )
                else:
                    rl = slice(g.lo - lo, g.hi - lo)
                    slab = b.at_add(
                        slab,
                        (slice(None), rl, slice(None),
                         slice(3 * nv, 4 * nv)),
                        fcrm(xp, v[:, g.lo:g.hi]) @ lvl.sel[g.rel],
                    )
            df_sl.append(self.inertias[lo:hi] @ slab[..., nv2:]
                         + gyro[:, lo:hi] @ slab[..., :nv2])
            prev = slab
        DF = xp.concatenate(df_sl, axis=1)

        # Backward sweep: extract each level's dtau rows *before* the
        # own-column btr term lands, then propagate to the parents.
        row_blocks: dict = {}
        for lvl in reversed(self.levels):
            lo, hi = lvl.lo, lvl.hi
            blocks = []
            for g in lvl.groups:
                if g.k == 1:
                    blocks.append(self.ein("ls,nlsv->nlv", g.axis,
                                           DF[:, g.lo:g.hi]))
                else:
                    blocks.append(
                        (g.subspaces_t @ DF[:, g.lo:g.hi]).reshape(
                            n, g.size * g.k, nv2
                        )
                    )
            row_blocks[lvl.index] = xp.concatenate(blocks, axis=1)
            if lvl.is_root:
                continue
            for g in lvl.groups:
                if g.k == 1:
                    DF = b.at_add(
                        DF,
                        (slice(None), g.slots, slice(None),
                         g.dofs[:, 0]),
                        xp.moveaxis(fcross_force(
                            xp, g.axis, f[:, g.lo:g.hi]), 1, 0),
                    )
                else:
                    DF = b.at_add(
                        DF,
                        (slice(None), slice(g.lo, g.hi), slice(None),
                         slice(0, nv)),
                        self.ein("lvij,nlj->nliv", lvl.btr[g.rel],
                                 f[:, g.lo:g.hi]),
                    )
            xt = xp.swapaxes(X[:, lo:hi], -1, -2)
            DF = b.at_add(DF, (slice(None), lvl.parent_slots),
                          xt @ DF[:, lo:hi])

        rows = xp.concatenate(
            [row_blocks[i] for i in range(len(self.levels))], axis=1
        )[:, self.dof_pos]
        return rows[..., :nv], rows[..., nv:]

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
