"""The ``jit`` engine: trace-compiled functional plan kernels.

Where the ``compiled`` engine runs the level schedule as in-place numpy
(and therefore declines immutable-array backends), this engine runs the
:mod:`repro.dynamics.functional` out-of-place variants and hands each
whole Table-I function to the backend's :meth:`ArrayBackend.jit` — on
jax every entry point becomes one fused XLA program per (structure,
batch shape), and the rollout step loop folds through
:meth:`ArrayBackend.scan` so an entire ``(n, T)`` trajectory slab is a
single compiled call.

Backend resolution is *lazy* and failure maps to
:class:`BackendCapabilityError` at call time, so a ``jit`` serve shard
on a jax-less host degrades through the engine chain instead of failing
the batch.  Constructing ``JitEngine(backend="numpy")`` is always legal:
numpy's ``jit`` is the identity, which runs the same functional kernels
interpreted — the correctness path CI exercises without jax installed.

Compiled callables are cached per ``(plan structure hash, backend,
function, variant)`` — :meth:`ExecutionPlan.structure_hash` is the
static argument, so models with identical compiled structure share
traces; see :meth:`JitEngine.compile_cache_stats`.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.backend import (
    ArrayBackend,
    BackendCapabilityError,
    BackendUnavailable,
    get_backend,
)
from repro.dynamics.engine import Engine, normalize_f_ext
from repro.dynamics.functional import FunctionalPlan, functional_plan_for
from repro.model.robot import RobotModel

#: Backends tried, in order, when none is requested explicitly.
_PREFERRED = ("jax",)

#: Integrator schemes the fused rollout can fold (must mirror
#: ``repro.rollout.engine``'s step functions exactly).
FUSED_SCHEMES = ("euler", "semi_implicit", "rk4")


class JitEngine(Engine):
    """Table-I functions as jit-compiled functional plan sweeps."""

    name = "jit"

    def __init__(self, backend: str | ArrayBackend | None = None) -> None:
        self._requested = backend
        self._backend: ArrayBackend | None = None
        self._lock = threading.Lock()
        self._cache: dict = {}
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # Backend resolution
    # ------------------------------------------------------------------

    @property
    def backend_name(self) -> str:
        """The backend this engine targets (resolved lazily)."""
        if self._backend is not None:
            return self._backend.name
        if isinstance(self._requested, ArrayBackend):
            return self._requested.name
        if self._requested is not None:
            return self._requested
        return os.environ.get("REPRO_JIT_BACKEND") or _PREFERRED[0]

    def _resolve_backend(self) -> ArrayBackend:
        backend = self._backend
        if backend is not None:
            return backend
        requested = self._requested
        if requested is None:
            requested = os.environ.get("REPRO_JIT_BACKEND") or None
        if requested is not None:
            try:
                backend = get_backend(requested)
            except BackendUnavailable as exc:
                raise BackendCapabilityError(
                    f"the jit engine was pinned to backend "
                    f"{requested!r}, which is unavailable: {exc}"
                ) from exc
        else:
            last: BackendUnavailable | None = None
            for name in _PREFERRED:
                try:
                    candidate = get_backend(name)
                except BackendUnavailable as exc:
                    last = exc
                    continue
                if candidate.capabilities.jit:
                    backend = candidate
                    break
            if backend is None:
                raise BackendCapabilityError(
                    "the jit engine needs a trace-compiling backend and "
                    "none is available (install jax, set "
                    "REPRO_JIT_BACKEND, or construct "
                    "JitEngine(backend='numpy') to run the functional "
                    "kernels interpreted)"
                ) from last
        with self._lock:
            if self._backend is None:
                self._backend = backend
        return self._backend

    def plan(self, model: RobotModel) -> FunctionalPlan:
        """The memoized functional plan on this engine's backend."""
        return functional_plan_for(model, self._resolve_backend())

    # ------------------------------------------------------------------
    # Compile cache
    # ------------------------------------------------------------------

    def _fn(self, plan: FunctionalPlan, func: str, *variant):
        """The jitted callable for (plan structure, function, variant)."""
        key = plan.key + (func,) + variant
        with self._lock:
            fn = self._cache.get(key)
            if fn is not None:
                self._hits += 1
                return fn
        fn = plan.backend.jit(self._build(plan, func, variant))
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._hits += 1
                return cached
            self._cache[key] = fn
            self._misses += 1
        return fn

    @staticmethod
    def _build(plan: FunctionalPlan, func: str, variant: tuple):
        """Close a single traceable callable over the plan constants.

        ``f_ext`` presence is part of the cache key rather than a traced
        branch, so each variant stays one straight-line program.
        """
        if func == "rollout":
            return _build_rollout(plan, variant[0])
        fext = "fext" in variant
        if func == "id":
            if fext:
                return lambda q, qd, qdd, fx: plan.id_(q, qd, qdd, fx)
            return lambda q, qd, qdd: plan.id_(q, qd, qdd)
        if func == "m":
            return plan.m
        if func == "minv":
            return plan.minv
        if func == "fd":
            if fext:
                return lambda q, qd, tau, fx: plan.fd(q, qd, tau, fx)
            return lambda q, qd, tau: plan.fd(q, qd, tau)
        if func == "did":
            if fext:
                return lambda q, qd, qdd, fx: plan.did(q, qd, qdd, fx)
            return lambda q, qd, qdd: plan.did(q, qd, qdd)
        if func == "dfd":
            if fext:
                return lambda q, qd, tau, fx: plan.dfd(q, qd, tau, fx)
            return lambda q, qd, tau: plan.dfd(q, qd, tau)
        if func == "difd":
            with_minv = "minv" in variant
            if with_minv and fext:
                return lambda q, qd, qdd, minv, fx: plan.difd(
                    q, qd, qdd, minv, fx)
            if with_minv:
                return lambda q, qd, qdd, minv: plan.difd(q, qd, qdd, minv)
            if fext:
                return lambda q, qd, qdd, fx: plan.difd(
                    q, qd, qdd, None, fx)
            return lambda q, qd, qdd: plan.difd(q, qd, qdd)
        raise KeyError(func)

    def compile_cache_stats(self) -> dict:
        """Trace-cache counters: ``{entries, hits, misses}``."""
        with self._lock:
            return {
                "entries": len(self._cache),
                "hits": self._hits,
                "misses": self._misses,
            }

    # ------------------------------------------------------------------
    # Operand staging
    # ------------------------------------------------------------------

    @staticmethod
    def _host2d(x):
        return np.atleast_2d(np.asarray(x, dtype=float))

    def _fx_operand(self, plan: FunctionalPlan, f_ext, n: int):
        """Per-link force dict -> dense slot-ordered ``(n, nb, 6)``."""
        fe = normalize_f_ext(f_ext, n)
        if not fe:
            return None
        dense = np.zeros((n, plan.nb, 6))
        for link, stack in fe.items():
            dense[:, plan.slot_of_link[link]] = stack
        return plan.xp.asarray(dense)

    def _stage(self, plan: FunctionalPlan, *arrays):
        return tuple(plan.xp.asarray(self._host2d(a)) for a in arrays)

    # ------------------------------------------------------------------
    # Table-I entry points
    # ------------------------------------------------------------------

    def id_batch(self, model, q, qd, qdd, f_ext=None):
        plan = self.plan(model)
        q, qd, qdd = self._stage(plan, q, qd, qdd)
        fx = self._fx_operand(plan, f_ext, q.shape[0])
        if fx is None:
            out = self._fn(plan, "id")(q, qd, qdd)
        else:
            out = self._fn(plan, "id", "fext")(q, qd, qdd, fx)
        return plan.backend.to_numpy(out)

    def m_batch(self, model, q):
        plan = self.plan(model)
        (q,) = self._stage(plan, q)
        return plan.backend.to_numpy(self._fn(plan, "m")(q))

    def minv_batch(self, model, q):
        plan = self.plan(model)
        (q,) = self._stage(plan, q)
        return plan.backend.to_numpy(self._fn(plan, "minv")(q))

    def fd_batch(self, model, q, qd, tau, f_ext=None):
        plan = self.plan(model)
        q, qd, tau = self._stage(plan, q, qd, tau)
        fx = self._fx_operand(plan, f_ext, q.shape[0])
        if fx is None:
            out = self._fn(plan, "fd")(q, qd, tau)
        else:
            out = self._fn(plan, "fd", "fext")(q, qd, tau, fx)
        return plan.backend.to_numpy(out)

    def did_batch(self, model, q, qd, qdd, f_ext=None):
        plan = self.plan(model)
        q, qd, qdd = self._stage(plan, q, qd, qdd)
        fx = self._fx_operand(plan, f_ext, q.shape[0])
        if fx is None:
            out = self._fn(plan, "did")(q, qd, qdd)
        else:
            out = self._fn(plan, "did", "fext")(q, qd, qdd, fx)
        to_np = plan.backend.to_numpy
        return tuple(to_np(o) for o in out)

    def dfd_batch(self, model, q, qd, tau, f_ext=None):
        plan = self.plan(model)
        q, qd, tau = self._stage(plan, q, qd, tau)
        fx = self._fx_operand(plan, f_ext, q.shape[0])
        if fx is None:
            out = self._fn(plan, "dfd")(q, qd, tau)
        else:
            out = self._fn(plan, "dfd", "fext")(q, qd, tau, fx)
        to_np = plan.backend.to_numpy
        return tuple(to_np(o) for o in out)

    def difd_batch(self, model, q, qd, qdd, minv=None, f_ext=None):
        plan = self.plan(model)
        q, qd, qdd = self._stage(plan, q, qd, qdd)
        fx = self._fx_operand(plan, f_ext, q.shape[0])
        variant = []
        args = [q, qd, qdd]
        if minv is not None:
            variant.append("minv")
            args.append(plan.xp.asarray(np.asarray(minv, dtype=float)))
        if fx is not None:
            variant.append("fext")
            args.append(fx)
        out = self._fn(plan, "difd", *variant)(*args)
        to_np = plan.backend.to_numpy
        return tuple(to_np(o) for o in out)

    # ------------------------------------------------------------------
    # Fused rollout
    # ------------------------------------------------------------------

    def supports_fused_rollout(self, model: RobotModel,
                               scheme: str) -> bool:
        """Whether the whole step loop can fold into one scanned program.

        Quasi-velocity joints (spherical/floating) integrate through
        per-task exponential maps the trace cannot express, so those
        models keep the per-step path.
        """
        if scheme not in FUSED_SCHEMES:
            return False
        return all(link.joint.coordinate_velocity for link in model.links)

    def fused_rollout(self, model: RobotModel, q0, qd0, controls, *,
                      dt: float, scheme: str):
        """Run ``T`` integrator steps as one compiled scan.

        ``controls`` is ``(n, T, nv)``; returns host ``(qs, qds)`` of
        shape ``(n, T+1, nv)`` including the initial state, matching
        the per-step rollout loop bit for bit on the numpy backend.
        ``dt`` rides along as an operand, so sweeps over step sizes
        reuse one trace.
        """
        if not self.supports_fused_rollout(model, scheme):
            raise BackendCapabilityError(
                f"fused rollout supports schemes {FUSED_SCHEMES} on "
                "coordinate-velocity models; "
                f"{model.name!r}/{scheme!r} does not qualify"
            )
        plan = self.plan(model)
        b = plan.backend
        q0, qd0 = self._stage(plan, q0, qd0)
        us = b.xp.asarray(np.asarray(controls, dtype=float))
        us = b.xp.swapaxes(us, 0, 1)       # (T, n, nv) scan-major
        fn = self._fn(plan, "rollout", scheme)
        qs, qds = fn(q0, qd0, us, dt)
        qs = np.swapaxes(b.to_numpy(qs), 0, 1)
        qds = np.swapaxes(b.to_numpy(qds), 0, 1)
        n = qs.shape[0]
        qs = np.concatenate([b.to_numpy(q0).reshape(n, 1, -1), qs], axis=1)
        qds = np.concatenate([b.to_numpy(qd0).reshape(n, 1, -1), qds],
                             axis=1)
        return qs, qds


def _build_rollout(plan: FunctionalPlan, scheme: str):
    """One scanned trajectory program (additive integrate only)."""
    b = plan.backend

    def run(q0, qd0, us, dt):
        def step(carry, tau):
            q, qd = carry
            if scheme == "euler":
                qdd = plan.fd(q, qd, tau)
                q_new = q + dt * qd
                qd_new = qd + dt * qdd
            elif scheme == "semi_implicit":
                qdd = plan.fd(q, qd, tau)
                qd_new = qd + dt * qdd
                q_new = q + dt * qd_new
            else:                          # rk4, mirrors _rk4_step
                k1_dqd = plan.fd(q, qd, tau)
                q2 = q + 0.5 * dt * qd
                qd2 = qd + 0.5 * dt * k1_dqd
                k2_dqd = plan.fd(q2, qd2, tau)
                q3 = q + 0.5 * dt * qd2
                qd3 = qd + 0.5 * dt * k2_dqd
                k3_dqd = plan.fd(q3, qd3, tau)
                q4 = q + dt * qd3
                qd4 = qd + dt * k3_dqd
                k4_dqd = plan.fd(q4, qd4, tau)
                dq = dt / 6.0 * (qd + 2 * qd2 + 2 * qd3 + qd4)
                dqd = dt / 6.0 * (k1_dqd + 2 * k2_dqd + 2 * k3_dqd
                                  + k4_dqd)
                q_new = q + dq
                qd_new = qd + dqd
            return (q_new, qd_new), (q_new, qd_new)

        _, (qs, qds) = b.scan(step, (q0, qd0), xs=us)
        return qs, qds

    return run


__all__ = ["FUSED_SCHEMES", "JitEngine"]
