"""MMinvGen (the paper's Algorithm 2): mass matrix or its inverse.

The algorithm fuses CRBA with Carpentier's analytical inverse of the joint
space inertia matrix so one backward sweep plus (for the inverse) one
forward sweep produces either output.  Compared with running CRBA and then a
Cholesky factorization, the reciprocal work is overlapped with the matrix
generation — the property the Backward-Forward Module's RTP exploits
(Section IV-B, Fig 8).

``out_m`` and ``out_minv`` are mutually exclusive, exactly as in the
hardware: generating the inverse applies the articulated-body correction to
``IA`` (line 13), after which the accumulated inertias are no longer the
composite inertias the mass matrix needs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.model.robot import RobotModel


def mminvgen(
    model: RobotModel,
    q: np.ndarray,
    *,
    out_m: bool = False,
    out_minv: bool = False,
) -> np.ndarray:
    """Run Algorithm 2; returns ``M`` or ``Minv`` (nv x nv, symmetric)."""
    if out_m == out_minv:
        raise ModelError("exactly one of out_m / out_minv must be set")
    q = np.asarray(q, dtype=float)
    nb, nv = model.nb, model.nv

    transforms = model.parent_transforms(q)
    subspaces = model.motion_subspaces()
    dof_cols = [
        [d for j in model.subtree(i) for d in range(*_bounds(model, j))]
        for i in range(nb)
    ]

    inertia_acc = [link.inertia.matrix().copy() for link in model.links]
    f_acc = [np.zeros((6, nv)) for _ in range(nb)]
    out = np.zeros((nv, nv))
    d_inv: list[np.ndarray] = [np.zeros((0, 0))] * nb
    u_store: list[np.ndarray] = [np.zeros((6, 0))] * nb

    # ------------------------------------------------------------------
    # Backward sweep (Mb_i submodules): lines 1-17.
    # ------------------------------------------------------------------
    for i in range(nb - 1, -1, -1):
        x = transforms[i]
        s = subspaces[i]
        sl = model.dof_slice(i)
        u = inertia_acc[i] @ s            # U_i, 6 x nv_i
        d = s.T @ u                       # D_i, nv_i x nv_i
        u_store[i] = u

        strict_cols = [c for c in dof_cols[i] if c < sl.start or c >= sl.stop]
        if out_minv:
            d_inv[i] = np.linalg.inv(d)
            out[sl, sl] = d_inv[i]
            if strict_cols:
                out[np.ix_(range(sl.start, sl.stop), strict_cols)] = (
                    -d_inv[i] @ s.T @ f_acc[i][:, strict_cols]
                )
        else:
            out[sl, sl] = d
            if strict_cols:
                out[np.ix_(range(sl.start, sl.stop), strict_cols)] = (
                    s.T @ f_acc[i][:, strict_cols]
                )

        parent = model.parent(i)
        if parent >= 0:
            cols = dof_cols[i]
            if out_minv:
                f_acc[i][:, cols] += u @ out[np.ix_(range(sl.start, sl.stop), cols)]
                inertia_acc[i] = inertia_acc[i] - u @ d_inv[i] @ u.T
            else:
                f_acc[i][:, sl] = u
            # Lazy updates to the parent (line 16-17).
            f_acc[parent][:, cols] += x.T @ f_acc[i][:, cols]
            inertia_acc[parent] += x.T @ inertia_acc[i] @ x

    if out_m:
        return _symmetrize_from_rows(out)

    # ------------------------------------------------------------------
    # Forward sweep (Mf_i submodules): lines 18-24.
    # ------------------------------------------------------------------
    p_prop = [np.zeros((6, nv)) for _ in range(nb)]
    for i in range(nb):
        x = transforms[i]
        s = subspaces[i]
        sl = model.dof_slice(i)
        right = list(range(sl.start, nv))
        parent = model.parent(i)
        rows = range(sl.start, sl.stop)
        if parent >= 0:
            out[np.ix_(rows, right)] -= (
                d_inv[i] @ u_store[i].T @ x @ p_prop[parent][:, right]
            )
        p_prop[i][:, right] = s @ out[np.ix_(rows, right)]
        if parent >= 0:
            p_prop[i][:, right] += x @ p_prop[parent][:, right]

    return _symmetrize_from_rows(out)


def _bounds(model: RobotModel, link: int) -> tuple[int, int]:
    sl = model.dof_slice(link)
    return sl.start, sl.stop


def _symmetrize_from_rows(out: np.ndarray, xp=np) -> np.ndarray:
    """Both sweeps fill row blocks whose columns lie to the right of the
    diagonal block; mirror them into the lower triangle.

    Accepts one ``(nv, nv)`` matrix or an ``(n, nv, nv)`` batch, and an
    optional array namespace — the single implementation shared by this
    scalar reference, the compiled plans and the functional kernels
    (which pass their backend's ``xp``).
    """
    upper = xp.triu(out)
    diag = xp.diagonal(upper, axis1=-2, axis2=-1)
    return (upper + xp.swapaxes(upper, -1, -2)
            - diag[..., None] * xp.eye(out.shape[-1]))


def mass_matrix(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """``M(q)`` via MMinvGen (Table I row 3)."""
    return mminvgen(model, q, out_m=True)


def mass_matrix_inverse(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """``Minv(q)`` via MMinvGen (Table I row 4)."""
    return mminvgen(model, q, out_minv=True)


def mass_matrix_inverse_cholesky(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Reference inverse: CRBA + Cholesky solve (the conventional two-step
    route whose serialized latency the paper's fusion avoids)."""
    from repro.dynamics.crba import crba

    m = crba(model, q)
    chol = np.linalg.cholesky(m)
    identity = np.eye(model.nv)
    y = np.linalg.solve(chol, identity)
    return np.linalg.solve(chol.T, y)
