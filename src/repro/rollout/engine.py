"""Batched trajectory rollouts on the engine/plan/backend stack.

A rollout advances a whole batch of robots through ``T`` integrator
steps: every step issues *batched* dynamics calls (free or
contact-constrained) through a registered execution engine, so the
``(n, T, ...)`` trajectory slab costs ``T`` engine calls instead of
``n * T`` scalar ones — the paper's Fig 13 workload shape (serial in
time, embarrassingly parallel across sampling points), lifted onto the
host engines.

* :class:`RolloutPlan` — the per-``(model, scheme, engine, backend)``
  compiled object (memoized by :func:`rollout_plan_for`, also reachable
  through the serve artifact cache): resolved engine instance, the host
  execution plan for the contact kinematics, and per-thread preallocated
  trajectory workspaces.
* :class:`RolloutEngine` — the user-facing facade: pick a scheme
  (``"euler"``, ``"semi_implicit"``, ``"rk4"``), an engine and a
  backend once, then roll out arbitrary models/batches.
* Contact dynamics are engine-native (:mod:`repro.dynamics.contact_batch`):
  per-step contact modes are ``(n, c)`` masks applied inside the shared
  batched KKT solve, so tasks in different modes share one factorization.
  ``contact_mask`` may be static, per-step, per-task-per-step, a
  callable, or ``"ground"`` (activate when the point's world height
  drops below a threshold).
* Optional sensitivity propagation reuses the paired-derivative kernels
  (``dfd_batch``): exact discrete ``A``/``B`` per step for the Euler
  schemes, chained stage Jacobians for RK4 — the batched mirror of
  :mod:`repro.apps.integrators`' sensitivity steps.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

from repro.backend import get_backend, host_backend, to_host
from repro.dynamics.contact import ContactPoint
from repro.dynamics.contact_batch import (
    _solve_constrained,
    _stage,
    batch_contact_positions,
)
from repro.dynamics.engine import Engine, get_engine, normalize_f_ext
from repro.dynamics.plan import plan_for
from repro.model.robot import RobotModel
from repro.obs import hooks as _obs

#: Host namespace via the backend shim.
np = host_backend().xp

#: Integration schemes and their FD evaluations per step.
SCHEMES: dict[str, int] = {"euler": 1, "semi_implicit": 1, "rk4": 4}


@dataclass
class TaskTrajectory:
    """One task's slice of a batched rollout (the serve fan-out unit)."""

    qs: np.ndarray                    # (T+1, nv)
    qds: np.ndarray                   # (T+1, nv)
    controls: np.ndarray | None       # (T, nv) realized controls
    forces: np.ndarray | None         # (T, 3c) contact forces
    active: np.ndarray | None         # (T, c) applied contact modes
    a_matrices: np.ndarray | None = None   # (T, 2nv, 2nv) sensitivities
    b_matrices: np.ndarray | None = None   # (T, 2nv, nv)


@dataclass
class RolloutResult:
    """A batch of trajectories as ``(n, T, ...)`` slabs."""

    qs: np.ndarray                    # (n, T+1, nv)
    qds: np.ndarray                   # (n, T+1, nv)
    controls: np.ndarray | None       # (n, T, nv) realized controls
    forces: np.ndarray | None         # (n, T, 3c)
    active: np.ndarray | None         # (n, T, c) bool
    a_matrices: np.ndarray | None     # (n, T, 2nv, 2nv) sensitivities
    b_matrices: np.ndarray | None     # (n, T, 2nv, nv)
    scheme: str
    dt: float
    engine: str
    backend: str

    @property
    def batch(self) -> int:
        return self.qs.shape[0]

    @property
    def horizon(self) -> int:
        return self.qs.shape[1] - 1

    def task(self, k: int) -> TaskTrajectory:
        """Per-task view (used by the serve layer's result fan-out)."""
        pick = lambda a: None if a is None else a[k]
        return TaskTrajectory(
            qs=self.qs[k], qds=self.qds[k], controls=pick(self.controls),
            forces=pick(self.forces), active=pick(self.active),
            a_matrices=pick(self.a_matrices),
            b_matrices=pick(self.b_matrices),
        )


class RolloutWorkspace:
    """Per-thread trajectory slabs, grown monotonically.

    Steady-state rollouts of one shape never reallocate the big
    ``(n, T+1, nv)`` stacks — the rollout-level mirror of
    :class:`repro.dynamics.plan.PlanWorkspace`.
    """

    def __init__(self) -> None:
        self.n = 0
        self.t = 0
        self.nv = 0
        self.c = -1

    def ensure(self, n: int, t: int, nv: int, c: int) -> "RolloutWorkspace":
        if n > self.n or t > self.t or nv > self.nv:
            self.n = max(n, self.n)
            self.t = max(t, self.t)
            self.nv = max(nv, self.nv)
            shape = (self.n, self.t + 1, self.nv)
            self.qs = np.zeros(shape)
            self.qds = np.zeros(shape)
            self.us = np.zeros((self.n, self.t, self.nv))
            self.c = -1                 # force contact slab refresh
        if c > 0 and c > self.c:
            self.c = c
            self.forces = np.zeros((self.n, self.t, 3 * c))
            self.active = np.zeros((self.n, self.t, c), dtype=bool)
        return self

    def nbytes(self) -> int:
        total = self.qs.nbytes + self.qds.nbytes + self.us.nbytes
        if self.c > 0:
            total += self.forces.nbytes + self.active.nbytes
        return total


class RolloutPlan:
    """Rollout execution state for one (model, scheme, engine, backend).

    Holds no reference back to the :class:`RobotModel` (the memo cache is
    weak over models); every public method takes the model explicitly.
    """

    def __init__(self, model: RobotModel, scheme: str,
                 engine: Engine, backend_name: str) -> None:
        if scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {scheme!r}; choose from {sorted(SCHEMES)}"
            )
        self.scheme = scheme
        self.engine = engine
        self.backend_name = backend_name
        self.robot_name = model.name
        self.nv = model.nv
        #: Host execution plan each contact evaluation stages on once.
        self.xplan = plan_for(model)
        self._tls = threading.local()

    def workspace(self, n: int, t: int, c: int) -> RolloutWorkspace:
        ws = getattr(self._tls, "ws", None)
        if ws is None:
            ws = RolloutWorkspace()
            self._tls.ws = ws
        return ws.ensure(n, t, self.nv, c)

    # ------------------------------------------------------------------
    # Stepping primitives
    # ------------------------------------------------------------------

    def _fd(self, model, q, qd, tau, f_ext, contacts, active, staged=None):
        """One batched (constrained) FD evaluation: (qdd, forces).

        A contact evaluation stages ``(q, qd)`` once; ``staged`` passes
        in the staging the step's contact mask already read.
        """
        if contacts:
            if staged is None:
                staged = _stage(model, self.engine, self.xplan, q, qd, tau,
                                f_ext)
            res = _solve_constrained(model, *staged, contacts, active)
            return res.qdd, res.contact_forces
        return to_host(self.engine.fd_batch(model, q, qd, tau, f_ext)), None

    def _resolve_mask(self, model, contact_mask, contacts, t, t_steps,
                      q, qd, ground_height: float, xw):
        """The ``(n, c)`` active mask for step ``t`` (None = all active).

        ``"ground"`` reads the contact heights off ``xw``, the world
        transforms of the step's staging at ``q``.

        Array masks accept shapes ``(c,)`` (static), ``(T, c)`` (shared
        schedule), ``(n, c)`` (static per task) and ``(n, T, c)``; when
        ``n == T`` makes a 2-D mask ambiguous, the schedule reading
        wins — pass ``(n, 1, c)`` to force the per-task reading.
        """
        n, c = q.shape[0], len(contacts)
        if contact_mask is None:
            return None
        if isinstance(contact_mask, str):
            if contact_mask != "ground":
                raise ValueError(
                    f"unknown contact mode {contact_mask!r}; the only named "
                    "mode is 'ground'"
                )
            heights = batch_contact_positions(
                model, q, contacts, self.xplan, xw=xw
            )[:, :, 2]
            return heights <= ground_height
        if callable(contact_mask):
            mask = np.asarray(contact_mask(t, q, qd), dtype=bool)
            return np.broadcast_to(mask, (n, c))
        mask = np.asarray(contact_mask, dtype=bool)
        if mask.ndim <= 1:
            return np.broadcast_to(mask, (n, c))
        if mask.ndim == 2:
            if mask.shape == (t_steps, c):     # shared schedule
                return np.broadcast_to(mask[t], (n, c))
            if mask.shape == (n, c):           # static per-task modes
                return mask
        elif mask.ndim == 3 and mask.shape in ((n, t_steps, c),
                                               (1, t_steps, c),
                                               (n, 1, c)):
            sub = mask[:, min(t, mask.shape[1] - 1)]
            return np.broadcast_to(sub, (n, c))
        raise ValueError(
            f"contact_mask shape {mask.shape} is not one of (c,), "
            f"({t_steps}, c), ({n}, c), ({n}, {t_steps}, c) for "
            f"n={n}, T={t_steps}, c={c}"
        )

    # ------------------------------------------------------------------
    # The rollout loop
    # ------------------------------------------------------------------

    def rollout(
        self,
        model: RobotModel,
        q0: np.ndarray,
        qd0: np.ndarray,
        controls: np.ndarray | None = None,
        *,
        dt: float,
        horizon: int | None = None,
        policy=None,
        contacts: list[ContactPoint] | None = None,
        contact_mask=None,
        ground_height: float = 0.0,
        f_ext: dict[int, np.ndarray] | None = None,
        sensitivities: bool = False,
    ) -> RolloutResult:
        """Simulate the batch; see :meth:`RolloutEngine.rollout`."""
        q = np.atleast_2d(np.asarray(q0, dtype=float)).copy()
        qd = np.atleast_2d(np.asarray(qd0, dtype=float)).copy()
        n, nv = q.shape
        if qd.shape != (n, nv):
            raise ValueError(
                f"qd0 must have shape {(n, nv)}, got {qd.shape}"
            )
        if policy is None:
            if controls is None:
                raise ValueError("pass controls or a policy")
            controls = np.asarray(controls, dtype=float)
            if controls.ndim == 2:    # (T, nv) shared by every task
                controls = np.broadcast_to(
                    controls, (n,) + controls.shape
                )
            if controls.ndim != 3 or controls.shape[0] != n \
                    or controls.shape[2] != nv:
                raise ValueError(
                    f"controls must have shape (T, {nv}) or ({n}, T, {nv}),"
                    f" got {controls.shape}"
                )
            t_steps = controls.shape[1]
            if horizon is not None and horizon != t_steps:
                raise ValueError(
                    f"horizon {horizon} does not match controls ({t_steps})"
                )
        else:
            if horizon is None:
                raise ValueError("a policy rollout needs an explicit horizon")
            t_steps = horizon
        contacts = list(contacts) if contacts else None
        c = len(contacts) if contacts else 0
        if sensitivities and contacts:
            raise ValueError(
                "sensitivity propagation through contact dynamics is not "
                "supported; roll out free dynamics or drop sensitivities"
            )
        fe = normalize_f_ext(f_ext, n)

        # Open-loop free-dynamics rollouts on a scan-capable engine fold
        # the whole (n, T) slab into one compiled program instead of T
        # per-step engine calls (ROADMAP item 1's trajectory fusion).
        if (policy is None and not contacts and not sensitivities
                and fe is None
                and getattr(self.engine, "supports_fused_rollout",
                            None) is not None
                and self.engine.supports_fused_rollout(model, self.scheme)):
            t0 = _obs.kernel_begin()
            qs_f, qds_f = self.engine.fused_rollout(
                model, q, qd, controls, dt=dt, scheme=self.scheme,
            )
            _obs.kernel_end(
                t0, model.name, f"rollout.fused[{self.scheme}]",
                n * t_steps, args={"horizon": t_steps, "batch": n},
            )
            return RolloutResult(
                qs=qs_f, qds=qds_f,
                controls=np.array(controls, dtype=float),
                forces=None, active=None,
                a_matrices=None, b_matrices=None,
                scheme=self.scheme, dt=dt,
                engine=self.engine.name, backend=self.backend_name,
            )

        ws = self.workspace(n, t_steps, c)
        qs, qds = ws.qs[:n, :t_steps + 1], ws.qds[:n, :t_steps + 1]
        us = ws.us[:n, :t_steps]
        # The workspace slabs grow monotonically; slice down to this
        # call's contact width (a previous rollout may have been wider).
        forces = ws.forces[:n, :t_steps, :3 * c] if contacts else None
        active_rec = ws.active[:n, :t_steps, :c] if contacts else None
        a_out = np.zeros((n, t_steps, 2 * nv, 2 * nv)) if sensitivities \
            else None
        b_out = np.zeros((n, t_steps, 2 * nv, nv)) if sensitivities else None
        qs[:, 0] = q
        qds[:, 0] = qd

        t0 = _obs.kernel_begin()
        for t in range(t_steps):
            st = _obs.kernel_begin()
            tau = policy(t, q, qd) if policy is not None else controls[:, t]
            tau = np.asarray(tau, dtype=float)
            us[:, t] = tau
            active = staged = None
            if contacts:
                staged = _stage(model, self.engine, self.xplan, q, qd,
                                tau, fe)
                active = self._resolve_mask(
                    model, contact_mask, contacts, t, t_steps, q, qd,
                    ground_height, xw=staged[0].xw,
                )
                active_rec[:, t] = True if active is None else active
            if sensitivities:
                q, qd = self._step_with_sensitivities(
                    model, q, qd, tau, fe, dt,
                    a_out[:, t], b_out[:, t],
                )
            else:
                q, qd, f_t = self._step(
                    model, q, qd, tau, fe, dt, contacts, active, staged
                )
                if contacts:
                    forces[:, t] = f_t
            qs[:, t + 1] = q
            qds[:, t + 1] = qd
            _obs.kernel_end(st, model.name, f"rollout.step[{self.scheme}]",
                            n, args={"t": t})
        _obs.kernel_end(
            t0, model.name, f"rollout[{self.scheme}]", n * t_steps,
            args={"horizon": t_steps, "batch": n},
        )

        return RolloutResult(
            qs=qs.copy(), qds=qds.copy(), controls=us.copy(),
            forces=None if forces is None else forces.copy(),
            active=None if active_rec is None else active_rec.copy(),
            a_matrices=a_out, b_matrices=b_out,
            scheme=self.scheme, dt=dt,
            engine=self.engine.name, backend=self.backend_name,
        )

    # ------------------------------------------------------------------
    # Windowed (streaming) rollouts
    # ------------------------------------------------------------------

    @staticmethod
    def _window_mask(contact_mask, t0: int, t1: int, t_steps: int, c: int):
        """Slice a contact mask down to the window ``[t0, t1)``.

        Stepping is Markovian, so a windowed rollout is just the full
        step loop partitioned — but per-schedule masks are indexed by
        absolute step, so the window must see its own slice (callables
        are re-based onto absolute time).  Shapes follow
        :meth:`_resolve_mask`; the ``(T, c)``-vs-``(n, c)`` ambiguity
        resolves the same way (schedule reading wins).
        """
        if contact_mask is None or isinstance(contact_mask, str):
            return contact_mask
        if callable(contact_mask):
            return lambda t, q, qd: contact_mask(t0 + t, q, qd)
        mask = np.asarray(contact_mask, dtype=bool)
        if mask.ndim == 2 and mask.shape == (t_steps, c):
            return mask[t0:t1]
        if mask.ndim == 3 and mask.shape[1] == t_steps:
            return mask[:, t0:t1]
        return mask                     # static shapes pass through

    def rollout_windows(
        self,
        model: RobotModel,
        q0: np.ndarray,
        qd0: np.ndarray,
        controls: np.ndarray,
        *,
        dt: float,
        window: int,
        contacts: list[ContactPoint] | None = None,
        contact_mask=None,
        ground_height: float = 0.0,
        f_ext: dict[int, np.ndarray] | None = None,
        sensitivities: bool = False,
        cancelled=None,
    ):
        """Generator yielding ``(t0, t1, RolloutResult)`` per window of
        ``window`` knots, carrying the batch state between windows.

        Because every integrator step depends only on the current state,
        the concatenated windows are *bitwise* equal to one uninterrupted
        :meth:`rollout` — including the fused-scan path, which each
        eligible window takes independently.  This is the serving tier's
        streaming primitive: a consumer sees the first ``window`` knots
        after ``window`` steps of work instead of after the whole
        horizon, and ``cancelled()`` (checked between windows) abandons
        the unsimulated tail, freeing the engine.  ``sensitivities`` is
        forwarded to each window's :meth:`rollout`; since
        :func:`concat_windows` drops the ``A``/``B`` matrices, take them
        from a one-window run (``window >= T``).
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        q = np.atleast_2d(np.asarray(q0, dtype=float))
        qd = np.atleast_2d(np.asarray(qd0, dtype=float))
        controls = np.asarray(controls, dtype=float)
        if controls.ndim == 2:
            controls = np.broadcast_to(
                controls, (q.shape[0],) + controls.shape
            )
        t_steps = controls.shape[1]
        c = len(contacts) if contacts else 0
        for t0 in range(0, t_steps, window):
            t1 = min(t0 + window, t_steps)
            result = self.rollout(
                model, q, qd, controls[:, t0:t1], dt=dt,
                contacts=contacts,
                contact_mask=self._window_mask(
                    contact_mask, t0, t1, t_steps, c
                ),
                ground_height=ground_height, f_ext=f_ext,
                sensitivities=sensitivities,
            )
            yield t0, t1, result
            if t1 < t_steps and cancelled is not None and cancelled():
                return
            q, qd = result.qs[:, -1], result.qds[:, -1]

    def _step(self, model, q, qd, tau, fe, dt, contacts, active, staged):
        """One integrator step; returns (q+, qd+, step forces).

        ``staged`` is the contact staging at ``(q, qd)`` the step's mask
        read; it serves the (first) FD evaluation.
        """
        if self.scheme == "rk4":
            return self._rk4_step(model, q, qd, tau, fe, dt, contacts,
                                  active, staged)
        qdd, f_t = self._fd(model, q, qd, tau, fe, contacts, active, staged)
        if self.scheme == "euler":
            q_new = model.batch_integrate(q, dt * qd)
            qd_new = qd + dt * qdd
        else:                          # semi-implicit (integrators.euler_step)
            qd_new = qd + dt * qdd
            q_new = model.batch_integrate(q, dt * qd_new)
        return q_new, qd_new, f_t

    def _rk4_step(self, model, q, qd, tau, fe, dt, contacts, active,
                  staged):
        """Classic RK4 (contact mode frozen over the four stages)."""
        k1_dqd, f_t = self._fd(model, q, qd, tau, fe, contacts, active,
                               staged)
        k1_dq = qd
        q2 = model.batch_integrate(q, 0.5 * dt * k1_dq)
        qd2 = qd + 0.5 * dt * k1_dqd
        k2_dqd, _ = self._fd(model, q2, qd2, tau, fe, contacts, active)
        q3 = model.batch_integrate(q, 0.5 * dt * qd2)
        qd3 = qd + 0.5 * dt * k2_dqd
        k3_dqd, _ = self._fd(model, q3, qd3, tau, fe, contacts, active)
        q4 = model.batch_integrate(q, dt * qd3)
        qd4 = qd + dt * k3_dqd
        k4_dqd, _ = self._fd(model, q4, qd4, tau, fe, contacts, active)
        dq = dt / 6.0 * (k1_dq + 2 * qd2 + 2 * qd3 + qd4)
        dqd = dt / 6.0 * (k1_dqd + 2 * k2_dqd + 2 * k3_dqd + k4_dqd)
        return model.batch_integrate(q, dq), qd + dqd, f_t

    # ------------------------------------------------------------------
    # Sensitivity propagation (paired-derivative kernels)
    # ------------------------------------------------------------------

    def _step_with_sensitivities(self, model, q, qd, tau, fe, dt,
                                 a_t, b_t):
        nv = self.nv
        if self.scheme == "rk4":
            return self._rk4_sensitivity_step(model, q, qd, tau, fe, dt,
                                              a_t, b_t)
        qdd, dq_j, dqd_j, minv = self.engine.dfd_batch(model, q, qd, tau, fe)
        qdd, dq_j, dqd_j, minv = (
            to_host(qdd), to_host(dq_j), to_host(dqd_j), to_host(minv)
        )
        eye = np.eye(nv)
        if self.scheme == "euler":
            a_t[:, :nv, :nv] = eye
            a_t[:, :nv, nv:] = dt * eye
            a_t[:, nv:, :nv] = dt * dq_j
            a_t[:, nv:, nv:] = eye + dt * dqd_j
            b_t[:, nv:, :] = dt * minv
            q_new = model.batch_integrate(q, dt * qd)
            qd_new = qd + dt * qdd
        else:                          # semi-implicit, the Fig 2c shape
            a_t[:, nv:, :nv] = dt * dq_j
            a_t[:, nv:, nv:] = eye + dt * dqd_j
            a_t[:, :nv, :nv] = eye + dt * dt * dq_j
            a_t[:, :nv, nv:] = dt * (eye + dt * dqd_j)
            b_t[:, nv:, :] = dt * minv
            b_t[:, :nv, :] = dt * dt * minv
            qd_new = qd + dt * qdd
            q_new = model.batch_integrate(q, dt * qd_new)
        return q_new, qd_new

    def _f_with_jac(self, model, q, qd, tau, fe):
        nv = self.nv
        n = q.shape[0]
        qdd, dq_j, dqd_j, minv = self.engine.dfd_batch(model, q, qd, tau, fe)
        qdd, dq_j, dqd_j, minv = (
            to_host(qdd), to_host(dq_j), to_host(dqd_j), to_host(minv)
        )
        dx = np.concatenate([qd, qdd], axis=1)
        jx = np.zeros((n, 2 * nv, 2 * nv))
        jx[:, :nv, nv:] = np.eye(nv)
        jx[:, nv:, :nv] = dq_j
        jx[:, nv:, nv:] = dqd_j
        ju = np.zeros((n, 2 * nv, nv))
        ju[:, nv:, :] = minv
        return dx, jx, ju

    def _rk4_sensitivity_step(self, model, q, qd, tau, fe, dt, a_t, b_t):
        """Batched mirror of :func:`repro.apps.integrators.rk4_sensitivity_step`."""
        nv = self.nv
        identity = np.eye(2 * nv)
        k1, j1x, j1u = self._f_with_jac(model, q, qd, tau, fe)
        q2 = model.batch_integrate(q, 0.5 * dt * k1[:, :nv])
        qd2 = qd + 0.5 * dt * k1[:, nv:]
        k2, j2x, j2u = self._f_with_jac(model, q2, qd2, tau, fe)
        q3 = model.batch_integrate(q, 0.5 * dt * k2[:, :nv])
        qd3 = qd + 0.5 * dt * k2[:, nv:]
        k3, j3x, j3u = self._f_with_jac(model, q3, qd3, tau, fe)
        q4 = model.batch_integrate(q, dt * k3[:, :nv])
        qd4 = qd + dt * k3[:, nv:]
        k4, j4x, j4u = self._f_with_jac(model, q4, qd4, tau, fe)

        d1x, d1u = j1x, j1u
        d2x = j2x @ (identity + 0.5 * dt * d1x)
        d2u = j2u + 0.5 * dt * (j2x @ d1u)
        d3x = j3x @ (identity + 0.5 * dt * d2x)
        d3u = j3u + 0.5 * dt * (j3x @ d2u)
        d4x = j4x @ (identity + dt * d3x)
        d4u = j4u + dt * (j4x @ d3u)

        dx = dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        a_t[:] = identity + dt / 6.0 * (d1x + 2 * d2x + 2 * d3x + d4x)
        b_t[:] = dt / 6.0 * (d1u + 2 * d2u + 2 * d3u + d4u)
        return (model.batch_integrate(q, dx[:, :nv]), qd + dx[:, nv:])

    def describe(self) -> dict:
        return {
            "robot": self.robot_name,
            "scheme": self.scheme,
            "engine": self.engine.name,
            "backend": self.backend_name,
            "fd_per_step": SCHEMES[self.scheme],
        }

    def __repr__(self) -> str:
        return (f"RolloutPlan({self.robot_name!r}, scheme={self.scheme!r}, "
                f"engine={self.engine.name!r}, "
                f"backend={self.backend_name!r})")


def concat_windows(windows: list[RolloutResult]) -> RolloutResult:
    """Reassemble windowed rollout slices into one :class:`RolloutResult`.

    Each window's ``qs``/``qds`` carry their own initial state in row 0
    (duplicating the previous window's final state), so concatenation
    drops the leading row of every window after the first.  The result is
    bitwise equal to the uninterrupted rollout the windows partition.
    """
    if not windows:
        raise ValueError("no windows to concatenate")
    first = windows[0]

    def cat(pick, skip_first_row: bool):
        parts = [pick(w) for w in windows]
        if any(p is None for p in parts):
            return None
        if skip_first_row:
            parts = [parts[0]] + [p[:, 1:] for p in parts[1:]]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    return RolloutResult(
        qs=cat(lambda w: w.qs, True),
        qds=cat(lambda w: w.qds, True),
        controls=cat(lambda w: w.controls, False),
        forces=cat(lambda w: w.forces, False),
        active=cat(lambda w: w.active, False),
        a_matrices=None, b_matrices=None,
        scheme=first.scheme, dt=first.dt,
        engine=first.engine, backend=first.backend,
    )


# ---------------------------------------------------------------------------
# Memoization (shared with the serve artifact cache)
# ---------------------------------------------------------------------------

_ROLLOUT_PLANS: "weakref.WeakKeyDictionary[RobotModel, dict]" = (
    weakref.WeakKeyDictionary()
)
_ROLLOUT_LOCK = threading.Lock()


def rollout_plan_for(
    model: RobotModel,
    scheme: str = "semi_implicit",
    engine: str | Engine | None = None,
    backend: str | None = None,
) -> RolloutPlan:
    """The memoized :class:`RolloutPlan` for this combination.

    Keyed per (model, scheme, engine name, backend name) — weakly over
    models, like :func:`repro.dynamics.plan.plan_for`; the serve artifact
    cache resolves shard rollout plans through here.
    """
    eng = get_engine(engine)
    backend_name = get_backend(backend).name
    key = (scheme, eng.name, backend_name)
    plans = _ROLLOUT_PLANS.get(model)
    if plans is not None:
        plan = plans.get(key)
        if plan is not None:
            return plan
    with _ROLLOUT_LOCK:
        plans = _ROLLOUT_PLANS.get(model)
        if plans is None:
            plans = {}
            _ROLLOUT_PLANS[model] = plans
        plan = plans.get(key)
        if plan is None:
            plan = RolloutPlan(model, scheme, eng, backend_name)
            plans[key] = plan
    return plan


class RolloutEngine:
    """Batched trajectory simulator over a scheme/engine/backend choice.

    ``RolloutEngine("rk4", engine="compiled").rollout(model, q0, qd0,
    controls, dt=1e-3)`` simulates the whole ``(n, T)`` slab; see
    :meth:`rollout`.
    """

    def __init__(self, scheme: str = "semi_implicit",
                 engine: str | Engine | None = None,
                 backend: str | None = None) -> None:
        if scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {scheme!r}; choose from {sorted(SCHEMES)}"
            )
        self.scheme = scheme
        self.engine = engine
        self.backend = backend

    def plan(self, model: RobotModel) -> RolloutPlan:
        return rollout_plan_for(model, self.scheme, self.engine, self.backend)

    def rollout(
        self,
        model: RobotModel,
        q0: np.ndarray,
        qd0: np.ndarray,
        controls: np.ndarray | None = None,
        *,
        dt: float,
        horizon: int | None = None,
        policy=None,
        contacts: list[ContactPoint] | None = None,
        contact_mask=None,
        ground_height: float = 0.0,
        f_ext: dict[int, np.ndarray] | None = None,
        sensitivities: bool = False,
    ) -> RolloutResult:
        """Simulate ``(n, T)`` trajectories as one batched slab.

        ``q0``/``qd0`` are ``(n, nv)`` (or ``(nv,)`` for a single task);
        ``controls`` is ``(n, T, nv)``, or ``(T, nv)`` shared across the
        batch; alternatively pass ``policy(t, q, qd) -> (n, nv)`` with an
        explicit ``horizon`` for closed-loop rollouts.  ``contacts``
        switches every step to the batched constrained dynamics, with
        ``contact_mask`` choosing per-task contact modes per step
        (``None`` = always active, an array, a callable, or
        ``"ground"``).  ``sensitivities=True`` additionally propagates
        exact discrete ``A``/``B`` linearizations via the paired
        derivative kernels (free dynamics only).
        """
        return self.plan(model).rollout(
            model, q0, qd0, controls, dt=dt, horizon=horizon, policy=policy,
            contacts=contacts, contact_mask=contact_mask,
            ground_height=ground_height, f_ext=f_ext,
            sensitivities=sensitivities,
        )

    def rollout_windows(self, model: RobotModel, q0, qd0, controls, *,
                        dt: float, window: int, contacts=None,
                        contact_mask=None, ground_height: float = 0.0,
                        f_ext=None, cancelled=None):
        """Stream the rollout per window of ``window`` knots; see
        :meth:`RolloutPlan.rollout_windows`."""
        return self.plan(model).rollout_windows(
            model, q0, qd0, controls, dt=dt, window=window,
            contacts=contacts, contact_mask=contact_mask,
            ground_height=ground_height, f_ext=f_ext, cancelled=cancelled,
        )


__all__ = [
    "RolloutEngine",
    "RolloutPlan",
    "RolloutResult",
    "RolloutWorkspace",
    "SCHEMES",
    "TaskTrajectory",
    "concat_windows",
    "rollout_plan_for",
]
