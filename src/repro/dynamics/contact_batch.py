"""Engine-native batched contact dynamics.

:mod:`repro.dynamics.contact` solves one task at a time with its own
forward-kinematics sweeps; this module promotes the same constrained
dynamics to whole-batch kernels on the engine/plan/backend stack, the
shape the rollout subsystem (:mod:`repro.rollout`) consumes:

* **one staging per call** (:meth:`ExecutionPlan.stage
  <repro.dynamics.plan.ExecutionPlan.stage>`): the joint transforms are
  staged from ``q`` once, and one bias RNEA ``C = RNEA(q, qd, 0, f_ext)``
  runs on them.  Its world transforms give the contact Jacobians, its
  forward-sweep velocities and accelerations the ``Jdot qd`` drift term;
* **free dynamics as ``Minv (tau - C)``**: when the engine runs this
  very plan (``compiled`` on numpy, the serve default), ``Minv`` is
  MMinvGen on the same staged transforms — the paper's FD composition,
  with no ABA call.  Other engines supply ``Minv`` and the free
  acceleration themselves;
* **masked batched KKT/Schur solves** on that ``Minv``: per-task
  ``(n, c)`` contact-mode masks collapse inactive rows/columns to the
  identity inside one shared factorization, so tasks in different
  contact modes (the rollout engine's per-step switching) share it;
* **batched impulse resolution** for (in)elastic touchdown events.

The kernels are registered as dispatchable functions next to the seven
Table-I ones (names ``"cFD"`` and ``"impulse"``), so ``batch_evaluate``
and the service layers reach them through the same engine selection.
All kernels match the per-task :mod:`repro.dynamics.contact` reference
at 1e-10 (see ``tests/test_contact_batch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend import host_backend, to_host
from repro.dynamics.contact import ContactPoint, ConstrainedDynamicsResult
from repro.dynamics.engine import (
    CompiledEngine,
    Engine,
    get_engine,
    normalize_f_ext,
)
from repro.dynamics.plan import ExecutionPlan, StagedState, plan_for
from repro.model.robot import RobotModel
from repro.obs import hooks as _obs
from repro.spatial.motion import cross3
from repro.spatial.transforms import (
    inverse_transform,
    transform_rotation,
    transform_translation,
)

#: Host namespace via the backend shim (the one layer owning numpy).
np = host_backend().xp


def contact_signature(contacts: list[ContactPoint] | tuple) -> tuple:
    """Hashable identity of a contact set (for batching/memo keys)."""
    return tuple(
        (c.link, tuple(float(x) for x in c.point_local)) for c in contacts
    )


# ---------------------------------------------------------------------------
# Batched contact kinematics (plan level schedule)
# ---------------------------------------------------------------------------


def _batch_link_jacobians(
    model: RobotModel, xw: np.ndarray, links: set[int]
) -> dict[int, np.ndarray]:
    """Batched link-frame geometric Jacobians ``(n, 6, nv)`` per link.

    Mirrors :func:`repro.dynamics.kinematics.link_jacobian` over the
    batched world transforms; inverse transforms of shared ancestors are
    computed once for all requesting links.
    """
    n = xw.shape[0]
    subspaces = model.motion_subspaces()
    inv_cache: dict[int, np.ndarray] = {}
    out: dict[int, np.ndarray] = {}
    for link in links:
        jac = np.zeros((n, 6, model.nv))
        x_link = xw[:, link]
        j = link
        while j >= 0:
            xj_inv = inv_cache.get(j)
            if xj_inv is None:
                xj_inv = inverse_transform(xw[:, j])
                inv_cache[j] = xj_inv
            jac[:, :, model.dof_slice(j)] = (x_link @ xj_inv) @ subspaces[j]
            j = model.parent(j)
        out[link] = jac
    return out


def _contact_jacobian(model: RobotModel, xw: np.ndarray,
                      contacts: list[ContactPoint]) -> np.ndarray:
    """Stacked world-frame positional contact Jacobians from staged world
    transforms; contacts sharing a link share one link Jacobian."""
    jacs = _batch_link_jacobians(model, xw, {c.link for c in contacts})
    rows = []
    for contact in contacts:
        jac = jacs[contact.link]
        # world <- link rotation (the transpose of the stored E block).
        rot = np.swapaxes(transform_rotation(xw[:, contact.link]), -1, -2)
        omega_cols = np.swapaxes(jac[:, :3, :], -1, -2)      # (n, nv, 3)
        linear_cols = np.swapaxes(jac[:, 3:, :], -1, -2)
        point_cols = linear_cols + cross3(omega_cols, contact.point_local)
        rows.append(rot @ np.swapaxes(point_cols, -1, -2))   # (n, 3, nv)
    return np.concatenate(rows, axis=1)


def _jacobian_dot_qd(staged: StagedState,
                     contacts: list[ContactPoint]) -> np.ndarray:
    """``Jdot qd`` from the staged link velocities and velocity-product
    accelerations: each contact's classical world acceleration in closed
    form (the batched mirror of
    :func:`repro.dynamics.contact.jacobian_dot_qd`)."""
    cols = []
    for contact in contacts:
        v = staged.v[:, contact.link]
        a = staged.avp[:, contact.link]
        p = contact.point_local
        v_point = v[:, 3:] + cross3(v[:, :3], p)
        a_point = (a[:, 3:] + cross3(a[:, :3], p)
                   + cross3(v[:, :3], v_point))
        rot = np.swapaxes(transform_rotation(staged.xw[:, contact.link]),
                          -1, -2)
        cols.append((rot @ a_point[:, :, None])[..., 0])
    return np.concatenate(cols, axis=1)


def batch_contact_jacobian(
    model: RobotModel,
    q: np.ndarray,
    contacts: list[ContactPoint],
    plan: ExecutionPlan | None = None,
) -> np.ndarray:
    """Stacked world-frame positional contact Jacobians ``(n, 3c, nv)``
    from one staging of ``q`` (:meth:`ExecutionPlan.stage`)."""
    if plan is None:
        plan = plan_for(model)
    return _contact_jacobian(model, plan.stage(q).xw, contacts)


def batch_contact_positions(
    model: RobotModel,
    q: np.ndarray,
    contacts: list[ContactPoint],
    plan: ExecutionPlan | None = None,
    xw: np.ndarray | None = None,
) -> np.ndarray:
    """World positions of the contact points: ``(n, c, 3)``.

    The rollout engine's ``"ground"`` contact mode derives per-step
    active masks from these heights; ``xw`` lets it pass the world
    transforms its step already staged.
    """
    if xw is None:
        if plan is None:
            plan = plan_for(model)
        xw = plan.stage(q).xw
    cols = []
    for contact in contacts:
        x = xw[:, contact.link]
        rot = np.swapaxes(transform_rotation(x), -1, -2)
        origin = transform_translation(x)                    # (n, 3)
        cols.append(origin + (rot @ contact.point_local))
    return np.stack(cols, axis=1)


def batch_jacobian_dot_qd(
    model: RobotModel,
    q: np.ndarray,
    qd: np.ndarray,
    contacts: list[ContactPoint],
    plan: ExecutionPlan | None = None,
) -> np.ndarray:
    """Batched analytic ``Jdot(q, qd) qd`` drift term ``(n, 3c)`` from
    one staging of ``(q, qd)`` (:meth:`ExecutionPlan.stage`)."""
    if plan is None:
        plan = plan_for(model)
    return _jacobian_dot_qd(plan.stage(q, qd), contacts)


# ---------------------------------------------------------------------------
# Masked batched KKT solves
# ---------------------------------------------------------------------------


def _schur_solve(jac, minv, rhs, active, damping):
    """Per-task masked solve of ``(J Minv J^T + damping I) x = -rhs``.

    Inactive contacts' rows/columns collapse to the identity
    (``where``-masked) and their right-hand sides to zero, so ``x``
    carries exact zeros there and the active block solves exactly its
    own sub-system — one batched factorization serves every contact mode
    in the batch.  Returns ``(x, Minv J^T x)``.
    """
    jt = np.swapaxes(jac, -1, -2)
    lam = jac @ minv @ jt
    n, m = rhs.shape
    idx = np.arange(m)
    lam[:, idx, idx] += damping
    if active is not None:
        mask3 = np.repeat(np.broadcast_to(
            np.asarray(active, dtype=bool), (n, m // 3)), 3, axis=1)
        lam = np.where(mask3[:, :, None] & mask3[:, None, :], lam, 0.0)
        lam[:, idx, idx] = np.where(mask3, lam[:, idx, idx], 1.0)
        rhs = np.where(mask3, rhs, 0.0)
    x = -np.linalg.solve(lam, rhs[..., None])[..., 0]
    return x, (minv @ (jt @ x[:, :, None]))[..., 0]


def _stage(model, eng, plan, q, qd=None, tau=None, f_ext=None,
           minv=None, free_qdd=None):
    """One staging of ``(q, qd)`` plus the operands the Schur solve needs:
    ``(staged, minv, free_qdd)``, ``free_qdd`` only when ``qd`` is given.

    When ``eng`` evaluates on ``plan`` itself, ``Minv`` is MMinvGen on
    the staged transforms and ``free_qdd = Minv (tau - C)``; any other
    engine supplies both (device outputs cross to the host here).
    """
    own = (isinstance(eng, CompiledEngine)
           and eng.backend_name == plan.backend.name)
    staged = plan.stage(q, qd, f_ext, minv=own and minv is None)
    if minv is None:
        minv = staged.minv if own else to_host(eng.minv_batch(model, q))
    if qd is not None and free_qdd is None:
        if own:
            free_qdd = (minv @ (tau - staged.bias)[:, :, None])[..., 0]
        else:
            free_qdd = to_host(eng.fd_batch(model, q, qd, tau, f_ext))
    return staged, minv, free_qdd


@dataclass
class BatchConstrainedResult:
    """Output of :func:`batch_constrained_fd`."""

    qdd: np.ndarray            # (n, nv)
    contact_forces: np.ndarray  # (n, 3c) world-frame forces, 3 per point
    active: np.ndarray | None = None   # (n, c) mask actually applied


def _solve_constrained(model, staged, minv, free_qdd, contacts,
                       active=None, damping=1e-10) -> BatchConstrainedResult:
    """:func:`batch_constrained_fd` on one :func:`_stage` result (the
    rollout engine passes the staging its contact mask already read)."""
    n = free_qdd.shape[0]
    t0 = _obs.kernel_begin()
    jac = _contact_jacobian(model, staged.xw, contacts)
    jdot_qd = _jacobian_dot_qd(staged, contacts)
    _obs.kernel_end(t0, model.name, "contact.kinematics", n)
    t0 = _obs.kernel_begin()
    if active is not None:
        active = np.broadcast_to(np.asarray(active, bool), (n, len(contacts)))
    rhs = (jac @ free_qdd[:, :, None])[..., 0] + jdot_qd
    forces, dqdd = _schur_solve(jac, minv, rhs, active, damping)
    _obs.kernel_end(t0, model.name, "contact.schur", n)
    return BatchConstrainedResult(qdd=free_qdd + dqdd,
                                  contact_forces=forces, active=active)


def batch_constrained_fd(
    model: RobotModel,
    q: np.ndarray,
    qd: np.ndarray,
    tau: np.ndarray,
    contacts: list[ContactPoint],
    f_ext: dict[int, np.ndarray] | None = None,
    active: np.ndarray | None = None,
    *,
    damping: float = 1e-10,
    engine: str | Engine | None = None,
    plan: ExecutionPlan | None = None,
    minv: np.ndarray | None = None,
    free_qdd: np.ndarray | None = None,
) -> BatchConstrainedResult:
    """Batched FD with (masked) contact points held at zero acceleration.

    ``(q, qd)`` is staged once on the host plan: the contact Jacobians,
    the drift term and — when the engine runs that plan — ``Minv`` and
    the free acceleration ``Minv (tau - C)`` all read that staging;
    other engines supply ``Minv`` and the free acceleration.  The Schur
    complement on ``Minv`` is one batched solve.  ``active`` is an
    optional per-task ``(n, c)`` mask — masked-out contacts contribute
    exactly zero force, matching a per-task solve over only the active
    set.  ``minv``/``free_qdd`` let callers reuse operands they already
    computed.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    qd = np.atleast_2d(np.asarray(qd, dtype=float))
    tau = np.atleast_2d(np.asarray(tau, dtype=float))
    if plan is None:
        plan = plan_for(model)
    fe = normalize_f_ext(f_ext, q.shape[0])
    staged, minv, free_qdd = _stage(model, get_engine(engine), plan, q, qd,
                                    tau, fe, minv, free_qdd)
    return _solve_constrained(model, staged, minv, free_qdd, contacts,
                              active, damping)


def batch_contact_impulse(
    model: RobotModel,
    q: np.ndarray,
    qd_minus: np.ndarray,
    contacts: list[ContactPoint],
    *,
    restitution: float | np.ndarray = 0.0,
    active: np.ndarray | None = None,
    damping: float = 1e-10,
    engine: str | Engine | None = None,
    plan: ExecutionPlan | None = None,
    minv: np.ndarray | None = None,
) -> np.ndarray:
    """Batched post-impact velocities ``(n, nv)`` for touchdown impacts.

    One staging of ``q`` serves the contact Jacobians and ``Minv`` (as
    in :func:`batch_constrained_fd`).  ``restitution`` may be a scalar
    or an ``(n,)`` per-task coefficient; ``active`` masks which contacts
    of each task actually impact.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    qd_minus = np.atleast_2d(np.asarray(qd_minus, dtype=float))
    if plan is None:
        plan = plan_for(model)
    staged, minv, _ = _stage(model, get_engine(engine), plan, q, minv=minv)
    jac = _contact_jacobian(model, staged.xw, contacts)
    t0 = _obs.kernel_begin()
    rest = np.asarray(restitution, dtype=float)
    rhs = (1.0 + rest.reshape(-1, 1)) * (jac @ qd_minus[:, :, None])[..., 0]
    _, dqd = _schur_solve(jac, minv, rhs, active, damping)
    _obs.kernel_end(t0, model.name, "impulse.schur", len(q))
    return qd_minus + dqd


# ---------------------------------------------------------------------------
# Dispatch registration (next to the Table-I functions)
# ---------------------------------------------------------------------------


def _cfd_handler(model, states, u=None, minv=None, f_ext=None, engine=None,
                 *, contacts=None, active=None, damping=1e-10):
    """``batch_evaluate``-shaped adapter for constrained FD (``u`` = tau)."""
    if not contacts:
        raise ValueError("cFD dispatch requires contacts=[ContactPoint, ...]")
    n = len(states)
    tau = np.zeros((n, model.nv)) if u is None else u
    result = batch_constrained_fd(
        model, states.q, states.qd, tau, list(contacts), f_ext=f_ext,
        active=active, damping=damping, engine=engine, minv=minv,
    )
    return [ConstrainedDynamicsResult(qdd=qdd, contact_forces=forces)
            for qdd, forces in zip(result.qdd, result.contact_forces)]


def _impulse_handler(model, states, u=None, minv=None, f_ext=None,
                     engine=None, *, contacts=None, active=None,
                     restitution=0.0, damping=1e-10):
    """``batch_evaluate``-shaped adapter for impact resolution."""
    if not contacts:
        raise ValueError(
            "impulse dispatch requires contacts=[ContactPoint, ...]"
        )
    qd_plus = batch_contact_impulse(
        model, states.q, states.qd, list(contacts), restitution=restitution,
        active=active, damping=damping, engine=engine, minv=minv,
    )
    return list(qd_plus)


def _register() -> None:
    from repro.dynamics.batch import register_batch_function

    register_batch_function("cFD", _cfd_handler)
    register_batch_function("impulse", _impulse_handler)


_register()


__all__ = [
    "BatchConstrainedResult",
    "batch_constrained_fd",
    "batch_contact_impulse",
    "batch_contact_jacobian",
    "batch_contact_positions",
    "batch_jacobian_dot_qd",
    "contact_signature",
]
