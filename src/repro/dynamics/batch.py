"""Batch dispatch of the dynamics functions over an execution engine.

The paper's workloads are *batched*: 256 independent tasks per call
(Section VI-A), one per MPC sampling point.  This module is the dispatch
layer over :mod:`repro.dynamics.engine`: callers hand in task-major arrays
(:class:`BatchStates`) and pick an engine — ``"native"`` (the default)
runs C generated per robot from its execution plan
(:mod:`repro.dynamics.native`), ``"compiled"`` replays the
structure-compiled plan itself (:mod:`repro.dynamics.plan`,
level-scheduled recursions over preallocated workspaces), and
``"loop"`` is the per-task scalar reference used for equivalence
testing.

All seven Table-I functions dispatch through the engine, so a service
layer (``repro.serve``) can fan independent requests into one engine call
and fan the per-task results back out to their callers.

Operand intake is normalized *here*, once, at the boundary: every
``q``/``qd``/``u``/``minv``/``f_ext`` stack is coerced to C-contiguous
float64 (:func:`coerce_operand`) before an engine sees it — the engines'
preallocated workspaces, einsum paths and shared-memory packing all
assume that layout — and shape mismatches raise errors that name the
offending operand (and, when a single task row is at fault, its index).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.dynamics.derivatives import FDDerivatives, IDDerivatives
from repro.dynamics.engine import Engine, get_engine, normalize_f_ext
from repro.dynamics.functions import RBDFunction
from repro.model.robot import RobotModel
from repro import faults as _faults
from repro.obs import hooks as _obs

#: Dispatchable functions beyond the seven Table-I ones, keyed by name.
#: Handlers have the signature
#: ``handler(model, states, u=..., minv=..., f_ext=..., engine=..., **kw)``
#: and return a *list* of per-task results (the same fan-out contract as
#: :func:`batch_evaluate`).  The batched contact kernels
#: (:mod:`repro.dynamics.contact_batch`) register ``"cFD"`` and
#: ``"impulse"`` here.
_EXTENSION_FUNCTIONS: dict[str, Callable] = {}
_EXTENSION_LOCK = threading.Lock()


def register_batch_function(name: str, handler: Callable) -> None:
    """Register (or replace) a named batch-dispatchable function."""
    with _EXTENSION_LOCK:
        _EXTENSION_FUNCTIONS[name] = handler


def batch_function_names() -> tuple[str, ...]:
    """Names of the registered extension functions."""
    with _EXTENSION_LOCK:
        return tuple(sorted(_EXTENSION_FUNCTIONS))


def coerce_operand(name: str, value, shape: tuple | None = None,
                   *, request: int | None = None) -> np.ndarray:
    """Coerce one operand stack to C-contiguous float64, verifying shape.

    Engines assume C-contiguous float64 task-major stacks; this is the
    single intake point where float32 buffers, transposed views, lists
    and otherwise exotic inputs are normalized (a no-op passthrough for
    already-conforming arrays).  Errors name the operand and — when the
    caller is coalescing per-request rows — the offending request.
    """
    where = name if request is None else f"{name} (request {request})"
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where} is not a numeric array: {exc}") from None
    if shape is not None and arr.shape != tuple(shape):
        raise ValueError(
            f"{where} must have shape {tuple(shape)}, got {arr.shape}"
        )
    return np.ascontiguousarray(arr)


def stack_rows(name: str, rows: list, row_shape: tuple) -> np.ndarray:
    """Stack per-request rows into one C-contiguous float64 operand.

    Each row is validated against ``row_shape`` individually so a shape
    error names the request that caused it instead of failing the whole
    ``np.stack`` anonymously.
    """
    return np.stack([
        coerce_operand(name, row, row_shape, request=k)
        for k, row in enumerate(rows)
    ])


@dataclass
class BatchStates:
    """A batch of robot states (rows = tasks)."""

    q: np.ndarray            # (n, nv)
    qd: np.ndarray           # (n, nv)

    def __post_init__(self) -> None:
        self.q = np.atleast_2d(coerce_operand("q", self.q))
        self.qd = np.atleast_2d(coerce_operand("qd", self.qd))
        if self.q.shape != self.qd.shape:
            raise ValueError(
                f"q and qd batches must have the same shape; "
                f"got q {self.q.shape} vs qd {self.qd.shape}"
            )

    def __len__(self) -> int:
        return self.q.shape[0]

    @staticmethod
    def random(model: RobotModel, n: int, seed: int = 0) -> "BatchStates":
        rng = np.random.default_rng(seed)
        qs = np.stack([model.random_q(rng) for _ in range(n)])
        qds = rng.normal(size=(n, model.nv))
        return BatchStates(qs, qds)


@dataclass
class BatchDerivatives:
    """Batched dFD output: stacked derivative tensors."""

    qdd: np.ndarray          # (n, nv)
    dqdd_dq: np.ndarray      # (n, nv, nv)
    dqdd_dqd: np.ndarray     # (n, nv, nv)
    dqdd_dtau: np.ndarray    # (n, nv, nv) == Minv per task


def batch_id(
    model: RobotModel,
    states: BatchStates,
    qdd: np.ndarray,
    f_ext: dict[int, np.ndarray] | None = None,
    engine: str | Engine | None = None,
) -> np.ndarray:
    """Batched inverse dynamics: (n, nv) torques."""
    qdd = np.atleast_2d(coerce_operand("qdd", qdd))
    return get_engine(engine).id_batch(
        model, states.q, states.qd, qdd,
        normalize_f_ext(f_ext, len(states)),
    )


def batch_minv(
    model: RobotModel,
    states: BatchStates,
    engine: str | Engine | None = None,
) -> np.ndarray:
    """Batched mass-matrix inverses: (n, nv, nv)."""
    return get_engine(engine).minv_batch(model, states.q)


def batch_fd(
    model: RobotModel,
    states: BatchStates,
    tau: np.ndarray,
    f_ext: dict[int, np.ndarray] | None = None,
    engine: str | Engine | None = None,
) -> np.ndarray:
    """Batched forward dynamics via the paper's Eq. (2)."""
    tau = np.atleast_2d(coerce_operand("tau", tau))
    return get_engine(engine).fd_batch(
        model, states.q, states.qd, tau,
        normalize_f_ext(f_ext, len(states)),
    )


def batch_fd_derivatives(
    model: RobotModel,
    states: BatchStates,
    tau: np.ndarray,
    f_ext: dict[int, np.ndarray] | None = None,
    engine: str | Engine | None = None,
) -> BatchDerivatives:
    """Batched dFD (the Fig 2c "Derivatives of Dynamics" workload)."""
    tau = np.atleast_2d(coerce_operand("tau", tau))
    qdd, dqdd_dq, dqdd_dqd, minv = get_engine(engine).dfd_batch(
        model, states.q, states.qd, tau,
        normalize_f_ext(f_ext, len(states)),
    )
    return BatchDerivatives(
        qdd=qdd, dqdd_dq=dqdd_dq, dqdd_dqd=dqdd_dqd, dqdd_dtau=minv
    )


@dataclass
class RaggedSegment:
    """One robot's contiguous row block inside a :class:`RaggedBatch`."""

    model: RobotModel
    states: BatchStates
    u: np.ndarray | None = None
    minv: np.ndarray | None = None
    f_ext: dict[int, np.ndarray] | None = None
    #: Row window [lo, hi) this segment occupies in the ragged batch
    #: (assigned by :meth:`RaggedBatch.add`).
    lo: int = 0
    hi: int = 0

    def __len__(self) -> int:
        return len(self.states)


class RaggedBatch:
    """A cross-robot batch: per-robot row segments evaluated in one call.

    Same-robot rows share one execution plan, so a heterogeneous-fleet
    load (the multi-robot MPC / serving case) is carried as an ordered
    list of :class:`RaggedSegment` row blocks — each a dense
    ``(n_r, ...)`` operand stack for one robot — instead of fragmenting
    into independent engine calls at the call site.
    :func:`batch_evaluate_ragged` dispatches every segment to its
    robot's (packed-column) plan inside one engine call and returns the
    per-task results flattened back into global row order, so callers
    fan results out exactly as they would for a dense batch.
    """

    def __init__(self) -> None:
        self.segments: list[RaggedSegment] = []
        self._rows = 0

    def __len__(self) -> int:
        """Total task rows across all segments."""
        return self._rows

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def add(
        self,
        model: RobotModel,
        states: BatchStates,
        u: np.ndarray | None = None,
        minv: np.ndarray | None = None,
        f_ext: dict[int, np.ndarray] | None = None,
    ) -> RaggedSegment:
        """Append one robot's row block; returns the placed segment."""
        segment = RaggedSegment(
            model=model, states=states, u=u, minv=minv, f_ext=f_ext,
            lo=self._rows, hi=self._rows + len(states),
        )
        self.segments.append(segment)
        self._rows = segment.hi
        return segment

    def describe(self) -> dict:
        """Shape summary: rows, segments, and the per-segment windows."""
        return {
            "rows": self._rows,
            "segments": self.n_segments,
            "windows": [
                {"robot": s.model.name, "lo": s.lo, "hi": s.hi,
                 "nv": s.model.nv}
                for s in self.segments
            ],
        }


def batch_evaluate_ragged(
    function: RBDFunction | str,
    ragged: RaggedBatch,
    engine: str | Engine | None = None,
    **kwargs,
) -> list:
    """Dispatch one function over a cross-robot :class:`RaggedBatch`.

    Each segment's rows run through its own robot's execution plan (the
    packed-column sweeps for branched robots), back to back on the same
    engine, inside one dispatch; the per-task results come back as one
    flat list in global row order — ``out[seg.lo:seg.hi]`` are segment
    ``seg``'s results, identical to what a per-robot
    :func:`batch_evaluate` call on the same rows would produce.
    """
    if not ragged.segments:
        return []
    eng = get_engine(engine)
    t0 = _obs.kernel_begin()
    out: list = []
    for segment in ragged.segments:
        out.extend(batch_evaluate(
            segment.model, function, segment.states, segment.u,
            minv=segment.minv, f_ext=segment.f_ext, engine=eng, **kwargs,
        ))
    name = function if isinstance(function, str) else function.value
    _obs.kernel_end(
        t0, f"ragged[{ragged.n_segments}]",
        f"dispatch.ragged.{name}[{getattr(eng, 'name', '?')}]", len(ragged),
    )
    return out


def batch_evaluate(
    model: RobotModel,
    function: RBDFunction | str,
    states: BatchStates,
    u: np.ndarray | None = None,
    minv: np.ndarray | None = None,
    f_ext: dict[int, np.ndarray] | None = None,
    engine: str | Engine | None = None,
    **kwargs,
) -> list:
    """Dispatch one Table-I function over a whole batch.

    ``u`` is the per-task third operand — ``qdd`` for ID/dID/diFD, ``tau``
    for FD/dFD (the accelerator's shared input stream), unused for M/Minv.
    ``minv`` is the per-task ``(n, nv, nv)`` stack consumed by diFD and
    ``f_ext`` an optional link -> ``(6,)`` / ``(n, 6)`` external-force map.
    ``engine`` selects the execution engine (name, instance, or None for
    the process default — see :mod:`repro.dynamics.engine`).

    ``function`` may also name a registered extension function
    (:func:`register_batch_function`, e.g. the batched contact kernels
    ``"cFD"``/``"impulse"``); extra keyword arguments — ``contacts``,
    ``active``, ``restitution`` — are forwarded to its handler.

    Returns a *list* of per-task results with the same types
    :func:`repro.dynamics.functions.evaluate` produces for a single
    request, so service layers can fan results back out to independent
    callers.
    """
    if _faults.enabled:
        # Injection point "engine.batch": the engine dispatch boundary,
        # below the serving layer — plan/kernel failures land here.
        _faults.check(
            "engine.batch", robot=model.name,
            function=function if isinstance(function, str)
            else function.value,
        )
    if isinstance(function, str):
        with _EXTENSION_LOCK:
            handler = _EXTENSION_FUNCTIONS.get(function)
        if handler is None:
            raise KeyError(
                f"unknown batch function {function!r}; registered extension "
                f"functions: {batch_function_names()}"
            )
        t0 = _obs.kernel_begin()
        out = handler(model, states, u=u, minv=minv, f_ext=f_ext,
                      engine=engine, **kwargs)
        _obs.kernel_end(t0, model.name, f"dispatch.{function}", len(states))
        return out
    if kwargs:
        raise TypeError(
            f"{function.value} takes no extra keyword arguments: "
            f"{sorted(kwargs)}"
        )
    n = len(states)
    eng = get_engine(engine)
    fe = normalize_f_ext(f_ext, n)
    if fe is not None:
        fe = {
            link: coerce_operand(f"f_ext[{link}]", stack, (n, 6))
            for link, stack in fe.items()
        }
    if u is None:
        u = np.zeros((n, model.nv))
    u = np.atleast_2d(coerce_operand("u", u))
    if u.shape[0] == 1 and n > 1:
        # One operand for all tasks: materialize the broadcast so the
        # engines still receive a C-contiguous stack.
        u = np.ascontiguousarray(np.broadcast_to(u, (n, u.shape[1])))
    if u.shape != (n, model.nv):
        raise ValueError(
            f"u must have shape ({n}, {model.nv}) to match the batch, "
            f"got {u.shape}"
        )
    if minv is not None:
        minv = coerce_operand("minv", minv, (n, model.nv, model.nv))
    q, qd = states.q, states.qd
    if q.shape[1] != model.nv:
        raise ValueError(
            f"q must have shape ({n}, {model.nv}) for robot "
            f"{model.name!r}, got {q.shape}"
        )
    t0 = _obs.kernel_begin()
    if function is RBDFunction.ID:
        out = list(eng.id_batch(model, q, qd, u, fe))
    elif function is RBDFunction.FD:
        out = list(eng.fd_batch(model, q, qd, u, fe))
    elif function is RBDFunction.M:
        out = list(eng.m_batch(model, q))
    elif function is RBDFunction.MINV:
        out = list(eng.minv_batch(model, q))
    elif function is RBDFunction.DID:
        dtau_dq, dtau_dqd = eng.did_batch(model, q, qd, u, fe)
        out = [
            IDDerivatives(dtau_dq=dtau_dq[k], dtau_dqd=dtau_dqd[k])
            for k in range(n)
        ]
    elif function is RBDFunction.DFD:
        qdd, dqdd_dq, dqdd_dqd, minv_out = eng.dfd_batch(model, q, qd, u, fe)
        out = _fan_out_fd(qdd, dqdd_dq, dqdd_dqd, minv_out, n)
    elif function is RBDFunction.DIFD:
        qdd, dqdd_dq, dqdd_dqd, minv_out = eng.difd_batch(
            model, q, qd, u, minv, fe
        )
        out = _fan_out_fd(qdd, dqdd_dq, dqdd_dqd, minv_out, n)
    else:
        raise ValueError(f"unknown function {function!r}")
    _obs.kernel_end(
        t0, model.name,
        f"dispatch.{function.value}[{getattr(eng, 'name', '?')}]", n,
    )
    return out


def _fan_out_fd(qdd, dqdd_dq, dqdd_dqd, minv_out, n: int) -> list:
    return [
        FDDerivatives(
            dqdd_dq=dqdd_dq[k],
            dqdd_dqd=dqdd_dqd[k],
            dqdd_dtau=minv_out[k],
            qdd=qdd[k],
            minv=minv_out[k],
        )
        for k in range(n)
    ]
