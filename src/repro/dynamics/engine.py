"""Batch-native execution engines for the Table-I dynamics suite.

The paper's workloads are batched (256 independent tasks per call, Section
VI-A) and its accelerator keeps every pipeline stage busy across the batch.
This module is the host-side analogue, following the layout GRiD and the
batched-PyTorch RBD work use on GPUs: **the recursion stays over the tree,
but every step operates on the whole batch at once** — one ``(n, ...)``
einsum/matmul per step instead of ``n`` Python-level recursions.

Interchangeable engines implement the same batched interface:

* :class:`LoopEngine` (``"loop"``) — the reference: per-task loops over the
  scalar kernels in :mod:`repro.dynamics.rnea` / ``mminv`` /
  ``derivatives``.  Trivially correct, GIL-bound, O(n) Python overhead.
* :class:`CompiledEngine` (``"compiled"``) — structure-compiled kernels on
  per-robot execution plans (:mod:`repro.dynamics.plan`): the recursion is
  scheduled by tree *depth level* rather than by link, so independent
  branches advance in one fused ``(n, L_d, ...)`` op per level, with
  flattened index arrays, precomputed selector stacks and per-thread
  preallocated workspaces.  Takes an optional *backend*
  (:mod:`repro.backend`): ``CompiledEngine(backend="cupy")`` resolves
  device-resident plans.
* ``NativeEngine`` (``"native"``, :mod:`repro.dynamics.native`) — the
  process-wide default: C generated per robot from the execution plan
  and loaded with ctypes runs all seven functions (ID, M, Minv, FD, dID,
  dFD, diFD) without the GIL; only contact staging and robots without a
  library run the inherited compiled plans.
* ``ProcessEngine`` (``"process"``, :mod:`repro.dynamics.process`) — a
  persistent worker-process pool that splits each batch across cores and
  runs the compiled engine in every worker: multi-core scale-out for the
  small-batch/many-request regime where numpy ops are too short to
  release the GIL.  Registered lazily (workers only start on first use).
* ``JitEngine`` (``"jit"``, :mod:`repro.dynamics.jit`) — the functional
  kernels of :mod:`repro.dynamics.functional`, trace-compiled per robot
  structure on jax and run interpreted on numpy.

Engines are selected per call (``engine="loop"``) or process-wide via
:func:`set_default_engine` / the ``REPRO_ENGINE`` environment variable; the
serve runtime records which engine executed each batch in its metrics.
The registry is thread-safe and extensible via :func:`register_engine`.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from typing import Callable

from repro.backend import host_backend
from repro.dynamics.plan import plan_for
from repro.model.robot import RobotModel

#: Host namespace (via the backend shim): the loop engine's scalar
#: kernels and the f_ext normalization are host-side by construction.
np = host_backend().xp

#: External forces for a batch: link index -> (n, 6) force stack (link frame).
BatchFExt = dict[int, "np.ndarray"]


def normalize_f_ext(
    f_ext: dict | None, n: int
) -> BatchFExt | None:
    """Broadcast per-link external forces to ``(n, 6)`` task stacks.

    Accepts the scalar convention (one ``(6,)`` force shared by every task)
    as well as per-task ``(n, 6)`` stacks.
    """
    if not f_ext:
        return None
    out: BatchFExt = {}
    for link, value in f_ext.items():
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 1:
            arr = np.broadcast_to(arr, (n, 6))
        if arr.shape != (n, 6):
            raise ValueError(
                f"f_ext[{link}] must have shape (6,) or ({n}, 6), "
                f"got {arr.shape}"
            )
        out[link] = arr
    return out


class Engine(ABC):
    """One batched implementation of the Table-I function suite.

    Every method takes task-major arrays — ``q``/``qd``/``qdd``/``tau`` of
    shape ``(n, nv)`` — and returns task-major stacks.  ``f_ext`` maps link
    indices to ``(n, 6)`` stacks (see :func:`normalize_f_ext`).
    """

    name: str

    @abstractmethod
    def id_batch(self, model: RobotModel, q: np.ndarray, qd: np.ndarray,
                 qdd: np.ndarray, f_ext: BatchFExt | None = None) -> np.ndarray:
        """Batched inverse dynamics: ``(n, nv)`` torques."""

    @abstractmethod
    def m_batch(self, model: RobotModel, q: np.ndarray) -> np.ndarray:
        """Batched mass matrices: ``(n, nv, nv)``."""

    @abstractmethod
    def minv_batch(self, model: RobotModel, q: np.ndarray) -> np.ndarray:
        """Batched mass-matrix inverses: ``(n, nv, nv)``."""

    @abstractmethod
    def fd_batch(self, model: RobotModel, q: np.ndarray, qd: np.ndarray,
                 tau: np.ndarray, f_ext: BatchFExt | None = None) -> np.ndarray:
        """Batched forward dynamics via Eq. (2): ``(n, nv)`` accelerations."""

    @abstractmethod
    def did_batch(
        self, model: RobotModel, q: np.ndarray, qd: np.ndarray,
        qdd: np.ndarray, f_ext: BatchFExt | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched dID: ``(dtau_dq, dtau_dqd)``, each ``(n, nv, nv)``."""

    @abstractmethod
    def dfd_batch(
        self, model: RobotModel, q: np.ndarray, qd: np.ndarray,
        tau: np.ndarray, f_ext: BatchFExt | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched dFD: ``(qdd, dqdd_dq, dqdd_dqd, minv)``."""

    @abstractmethod
    def difd_batch(
        self, model: RobotModel, q: np.ndarray, qd: np.ndarray,
        qdd: np.ndarray, minv: np.ndarray | None = None,
        f_ext: BatchFExt | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched diFD (``qdd`` and optionally ``Minv`` known):
        ``(qdd, dqdd_dq, dqdd_dqd, minv)``."""

    def prepare(self, model: RobotModel) -> None:
        """Build what this engine needs for ``model`` ahead of its first
        batch (the service calls it for ``warm_robots``); a no-op for
        engines with nothing to build."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


# ---------------------------------------------------------------------------
# Loop engine: the per-task reference
# ---------------------------------------------------------------------------


def _task_f_ext(f_ext: BatchFExt | None, k: int) -> dict[int, np.ndarray] | None:
    if not f_ext:
        return None
    return {link: value[k] for link, value in f_ext.items()}


class LoopEngine(Engine):
    """Reference engine: one scalar-kernel evaluation per task."""

    name = "loop"

    def id_batch(self, model, q, qd, qdd, f_ext=None):
        from repro.dynamics.rnea import rnea

        return np.stack([
            rnea(model, q[k], qd[k], qdd[k], _task_f_ext(f_ext, k))
            for k in range(q.shape[0])
        ])

    def m_batch(self, model, q):
        from repro.dynamics.mminv import mass_matrix

        return np.stack([mass_matrix(model, q[k]) for k in range(q.shape[0])])

    def minv_batch(self, model, q):
        from repro.dynamics.mminv import mass_matrix_inverse

        return np.stack([
            mass_matrix_inverse(model, q[k]) for k in range(q.shape[0])
        ])

    def fd_batch(self, model, q, qd, tau, f_ext=None):
        from repro.dynamics.functions import forward_dynamics

        return np.stack([
            forward_dynamics(model, q[k], qd[k], tau[k], _task_f_ext(f_ext, k))
            for k in range(q.shape[0])
        ])

    def did_batch(self, model, q, qd, qdd, f_ext=None):
        from repro.dynamics.derivatives import rnea_derivatives

        n, nv = q.shape
        dtau_dq = np.empty((n, nv, nv))
        dtau_dqd = np.empty((n, nv, nv))
        for k in range(n):
            partials = rnea_derivatives(
                model, q[k], qd[k], qdd[k], _task_f_ext(f_ext, k)
            )
            dtau_dq[k] = partials.dtau_dq
            dtau_dqd[k] = partials.dtau_dqd
        return dtau_dq, dtau_dqd

    def dfd_batch(self, model, q, qd, tau, f_ext=None):
        from repro.dynamics.derivatives import fd_derivatives

        n, nv = q.shape
        qdd = np.empty((n, nv))
        dq = np.empty((n, nv, nv))
        dqd = np.empty((n, nv, nv))
        minv = np.empty((n, nv, nv))
        for k in range(n):
            d = fd_derivatives(model, q[k], qd[k], tau[k],
                               _task_f_ext(f_ext, k))
            qdd[k], dq[k], dqd[k], minv[k] = (
                d.qdd, d.dqdd_dq, d.dqdd_dqd, d.minv
            )
        return qdd, dq, dqd, minv

    def difd_batch(self, model, q, qd, qdd, minv=None, f_ext=None):
        from repro.dynamics.derivatives import fd_derivatives_from_inverse

        n, nv = q.shape
        dq = np.empty((n, nv, nv))
        dqd = np.empty((n, nv, nv))
        minv_out = np.empty((n, nv, nv))
        for k in range(n):
            d = fd_derivatives_from_inverse(
                model, q[k], qd[k], qdd[k],
                None if minv is None else minv[k], _task_f_ext(f_ext, k),
            )
            dq[k], dqd[k], minv_out[k] = d.dqdd_dq, d.dqdd_dqd, d.minv
        return np.asarray(qdd, dtype=float), dq, dqd, minv_out


# ---------------------------------------------------------------------------
# Compiled engine: level-scheduled kernels over per-robot execution plans
# ---------------------------------------------------------------------------


class CompiledEngine(Engine):
    """Structure-compiled kernels: recursion by depth level, not by link.

    Each call resolves the robot's memoized
    :class:`~repro.dynamics.plan.ExecutionPlan`
    (:func:`~repro.dynamics.plan.plan_for`) and runs the level-scheduled
    kernels on its preallocated per-thread workspace: independent branches
    at the same tree depth advance in one fused ``(n, L_d, ...)`` array op,
    transforms refresh in one op per joint kind, and the big recursion
    stacks never reallocate in steady state.  Numerically interchangeable
    with the ``loop`` reference (same 1e-10 equivalence contract).

    ``backend`` selects the array backend the plans execute on
    (:mod:`repro.backend`); ``None`` follows the process-wide default
    (``REPRO_BACKEND`` / :func:`repro.backend.set_default_backend`).
    """

    name = "compiled"

    def __init__(self, backend: str | None = None) -> None:
        self._backend = backend

    @property
    def backend_name(self) -> str:
        """Resolved backend name plans run on."""
        from repro.backend import get_backend

        return get_backend(self._backend).name

    def _plan(self, model):
        return plan_for(model, self._backend)

    def id_batch(self, model, q, qd, qdd, f_ext=None):
        return self._plan(model).id_batch(q, qd, qdd, f_ext)

    def m_batch(self, model, q):
        return self._plan(model).m_batch(q)

    def minv_batch(self, model, q):
        return self._plan(model).minv_batch(q)

    def fd_batch(self, model, q, qd, tau, f_ext=None):
        return self._plan(model).fd_batch(q, qd, tau, f_ext)

    def did_batch(self, model, q, qd, qdd, f_ext=None):
        return self._plan(model).did_batch(q, qd, qdd, f_ext)

    def dfd_batch(self, model, q, qd, tau, f_ext=None):
        return self._plan(model).dfd_batch(q, qd, tau, f_ext)

    def difd_batch(self, model, q, qd, qdd, minv=None, f_ext=None):
        return self._plan(model).difd_batch(q, qd, qdd, minv, f_ext)


# ---------------------------------------------------------------------------
# Registry and default selection
# ---------------------------------------------------------------------------


def _make_process_engine() -> Engine:
    # Imported lazily: repro.dynamics.process imports this module for the
    # Engine interface, and instantiating the engine must not start any
    # worker (the pool boots on first real batch).
    from repro.dynamics.process import ProcessEngine

    return ProcessEngine()


def _make_native_engine() -> Engine:
    # Lazy: repro.dynamics.native subclasses CompiledEngine from here.
    # Construction builds nothing; libraries resolve per robot.
    from repro.dynamics.native import NativeEngine

    return NativeEngine()


def _make_jit_engine() -> Engine:
    # Lazy for the same reason; constructing the engine never probes a
    # backend — resolution (and any BackendCapabilityError) happens at
    # first batch, where the serve degradation chain can catch it.
    from repro.dynamics.jit import JitEngine

    return JitEngine()


#: name -> constructor; instantiated on first lookup, under the registry
#: lock.  Keeping construction lazy means `import repro` never pays for
#: engines it does not use (and never forks/spawns anything).
_ENGINE_FACTORIES: dict[str, Callable[[], Engine]] = {
    LoopEngine.name: LoopEngine,
    CompiledEngine.name: CompiledEngine,
    "native": _make_native_engine,
    "process": _make_process_engine,
    "jit": _make_jit_engine,
}
_ENGINES: dict[str, Engine] = {}
_REGISTRY_LOCK = threading.RLock()


def register_engine(name: str, factory: Callable[[], Engine]) -> None:
    """Register (or replace) an engine constructor under ``name``.

    Thread-safe; a previously instantiated engine under the same name is
    dropped so the next :func:`get_engine` builds the new one.
    """
    with _REGISTRY_LOCK:
        _ENGINE_FACTORIES[name] = factory
        _ENGINES.pop(name, None)


#: The built-in default engine.
_BUILTIN_DEFAULT = "native"
#: Process-wide default, overridable via the REPRO_ENGINE env var.  A bad
#: env value is reported lazily (first use) so importing the package never
#: fails for commands that touch no engine.
_default_engine_name = os.environ.get("REPRO_ENGINE", _BUILTIN_DEFAULT)


def available_engines() -> tuple[str, ...]:
    """Names of all registered engines."""
    with _REGISTRY_LOCK:
        return tuple(sorted(set(_ENGINE_FACTORIES) | set(_ENGINES)))


def default_engine_name() -> str:
    """The engine used when a call does not name one."""
    if _default_engine_name not in _ENGINE_FACTORIES:
        # Only the REPRO_ENGINE env var can install an unvalidated name
        # (set_default_engine checks eagerly), so name it in the error.
        raise KeyError(
            f"REPRO_ENGINE={_default_engine_name!r} names an unknown "
            f"engine; known engines: {available_engines()}"
        )
    return _default_engine_name


def set_default_engine(name: str | None) -> None:
    """Set the process-wide default engine (e.g. ``"loop"`` or
    ``"compiled"``).

    Passing ``None`` restores the REPRO_ENGINE env var (or the built-in
    ``"native"``) — mainly for tests that must not leak a changed
    default into later tests.
    """
    global _default_engine_name
    if name is None:
        _default_engine_name = os.environ.get(
            "REPRO_ENGINE", _BUILTIN_DEFAULT
        )
        return
    if name not in _ENGINE_FACTORIES:
        raise KeyError(
            f"unknown engine {name!r}; known engines: {available_engines()}"
        )
    _default_engine_name = name


def get_engine(engine: str | Engine | None = None) -> Engine:
    """Resolve an engine argument: instance, name, or None (the default).

    Named engines are singletons, instantiated on first lookup under the
    registry lock (thread-safe double-checked); instances pass through.
    """
    if engine is None:
        engine = default_engine_name()
    if isinstance(engine, Engine):
        return engine
    instance = _ENGINES.get(engine)
    if instance is not None:
        return instance
    with _REGISTRY_LOCK:
        instance = _ENGINES.get(engine)
        if instance is None:
            factory = _ENGINE_FACTORIES.get(engine)
            if factory is None:
                raise KeyError(
                    f"unknown engine {engine!r}; known engines: "
                    f"{available_engines()}"
                )
            instance = factory()
            _ENGINES[engine] = instance
    return instance


__all__ = [
    "BatchFExt",
    "CompiledEngine",
    "Engine",
    "LoopEngine",
    "available_engines",
    "default_engine_name",
    "get_engine",
    "normalize_f_ext",
    "register_engine",
    "set_default_engine",
]
