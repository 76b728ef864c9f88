"""The dynamics service runtime: request -> batch -> shard -> result.

:class:`DynamicsService` is the top-level facade.  Clients submit single
robot states for any Table-I function and get a future back; internally
the runtime coalesces same-``(robot, function)`` requests with the
:class:`~repro.serve.batcher.DynamicBatcher`, executes each coalesced
batch on a :class:`~repro.serve.pool.ShardPool` shard on the service's
execution engine (the ``"native"`` engine by default — C generated per
robot from its cached execution plan, with the structure-compiled plan
kernels for what the C does not cover; see :mod:`repro.dynamics.engine`,
:mod:`repro.dynamics.native` and :mod:`repro.dynamics.plan`),
charges the batch's modeled cost to the shard via the accelerator's
cycle simulation, and resolves the per-request futures in submission
order.  External forces ride along per request (link -> ``(6,)``) and
are stacked per batch; the engine that served each batch is recorded in
the metrics registry.

Each request kind has one execute path.  Point batches run through
:func:`repro.dynamics.batch.batch_evaluate_ragged` — a single-robot
batch is a one-segment :class:`~repro.dynamics.batch.RaggedBatch`.
Rollout batches run through
:meth:`repro.rollout.RolloutPlan.rollout_windows` — a non-streamed
rollout is a one-window stream.

Serial chains (RK4-style sensitivity steps) bypass the batcher and are
dispatched as one unit whose cycle accounting uses
:func:`repro.core.scheduler.serial_chains` job dependencies (Fig 13);
``submit(..., urgent=True)`` requests bypass it the same way, trading
occupancy for immediate dispatch.

Failure semantics (see the README's "Failure semantics" section): a
request with a ``deadline_s`` is shed — resolved with
:class:`~repro.serve.request.DeadlineExceededError` — if it expires in
the batcher or while its batch waits for a shard.  A batch whose
execution fails walks a recovery pipeline: capability/resource errors
degrade the shard's engine down the chain jit -> process -> compiled
-> loop (native -> compiled) and re-run; transient errors retry with
exponential backoff + jitter (:class:`~repro.serve.request.RetryPolicy`),
*re-placed* through the pool so they route around the failing shard;
poison errors bisect the batch (split-and-retry) until the single bad
request is isolated and failed alone, its future carrying a
:class:`~repro.serve.request.BatchExecutionError` with the original
exception as ``__cause__``.  Consecutive shard failures trip a
per-shard circuit breaker (placement skips open shards; the flusher
probes quarantined shards in the background and closes the breaker on
success).  Every path keeps the invariant: a future handed to a client
is always resolved — by result, error, shed, or shutdown.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from random import Random

import numpy as np

from repro.backend import BackendCapabilityError, get_backend
from repro.core.config import AcceleratorConfig, PAPER_CONFIG
from repro.core.functions import BatchProfile
from repro.core.scheduler import serial_chains
from repro.dynamics import BatchStates, batch_evaluate
from repro.dynamics.batch import RaggedBatch, batch_evaluate_ragged, stack_rows
from repro.dynamics.engine import (
    CompiledEngine,
    Engine,
    get_engine,
)
from repro.dynamics.functions import RBDFunction
from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.cache import ArtifactCache, RobotArtifacts
from repro.serve.metrics import MetricsRegistry
from repro.serve.pool import (
    ShardConfig,
    ShardPool,
    ShardState,
    accelerator_desc,
    engine_throughput_hint,
)
from repro.model.library import load_robot
from repro.obs import Telemetry, Tracer
from repro.rollout import SCHEMES, concat_windows
from repro import faults as _faults
from repro.serve.request import (
    BatchExecutionError,
    DeadlineExceededError,
    RetryPolicy,
    RolloutRequest,
    RolloutServeResult,
    ServeError,
    ServeRequest,
    ServeResult,
    ServiceClosed,
    ServiceOverloaded,
    StreamCancelledError,
)


def _check_f_ext(request, model) -> None:
    """Reject out-of-range links and mis-shaped forces in ``f_ext``."""
    for link, value in (request.f_ext or {}).items():
        if not 0 <= link < model.nb:
            raise ValueError(
                f"f_ext link index {link} out of range for robot "
                f"{request.robot!r} (nb={model.nb})"
            )
        if np.shape(value) != (6,):
            raise ValueError(
                f"f_ext[{link}] must have shape (6,), "
                f"got {np.shape(value)}"
            )


class DynamicsService:
    """Dynamics-as-a-service over the modeled Dadu-RBD accelerator pool."""

    #: Engine degradation chain: when a shard's engine raises a
    #: capability or resource error, the shard drops to the next engine
    #: and the batch re-runs.  Unknown (custom) engines degrade to
    #: "compiled"; "loop" is terminal (nothing simpler exists).
    _DEGRADE_NEXT = {
        "native": "compiled",
        "jit": "process",
        "process": "compiled",
        "compiled": "loop",
        "loop": None,
    }
    #: Exception types that trigger degradation instead of retry — the
    #: same engine would just fail the same way again.
    _DEGRADABLE = (BackendCapabilityError, MemoryError, NotImplementedError)

    def __init__(
        self,
        policy: BatchPolicy | None = None,
        n_shards: int = 2,
        shard_policy: str = "round_robin",
        config: AcceleratorConfig = PAPER_CONFIG,
        warm_robots: list[str] | None = None,
        engine: str | Engine | None = None,
        backend: str | None = None,
        shard_configs: list[ShardConfig] | None = None,
        tracer: Tracer | None = None,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 0.05,
    ) -> None:
        self.policy = policy or BatchPolicy()
        self.config = config
        #: Optional request tracer: when set, every accepted request is
        #: stamped with a trace ID at submission and its queue wait and
        #: batch execution are booked as spans.  Install the same tracer
        #: via :func:`repro.obs.install` to nest engine-kernel spans
        #: under the batch-execute spans.
        self.tracer = tracer
        #: Execution engine shard workers evaluate batches with: the
        #: ``engine`` argument, else the process default ("native",
        #: unless REPRO_ENGINE / ``set_default_engine`` changed it).
        self.engine = get_engine(engine)
        #: Default array backend shard plans execute on (validated here
        #: so a typo or an uninstalled runtime fails at construction).
        self.backend_name = get_backend(backend).name
        self.cache = ArtifactCache(config)
        self.batcher = DynamicBatcher(self.policy)
        self.pool = ShardPool(n_shards, shard_policy, shard_configs,
                              breaker_threshold=breaker_threshold,
                              breaker_cooldown_s=breaker_cooldown_s)
        #: Retry discipline for failed batches (see
        #: :class:`~repro.serve.request.RetryPolicy`).
        self.retry = retry or RetryPolicy()
        # Seeded jitter source: retry backoff is deterministic per
        # service instance, matching the fault injector's replayability.
        self._retry_rng = Random("serve-retry-jitter")
        self._retry_rng_lock = threading.Lock()
        #: Per-shard engine instances / backend names / accelerator
        #: configs and artifact caches, resolved from the shard configs
        #: (``None`` fields inherit the service defaults).  Shards with
        #: the same accelerator override share one cache — replicating a
        #: bitstream, not rebuilding it — and default shards share
        #: :attr:`cache`.
        self._shard_engines: list[Engine] = []
        self._shard_backends: list[str] = []
        self._shard_accels: list[AcceleratorConfig] = []
        self._shard_caches: list[ArtifactCache] = []
        override_caches: dict[AcceleratorConfig, ArtifactCache] = {}
        for index, shard_config in enumerate(self.pool.shard_configs):
            eng, backend_name = self._resolve_shard(shard_config)
            self._shard_engines.append(eng)
            self._shard_backends.append(backend_name)
            accel = shard_config.accelerator
            if accel is None:
                self._shard_accels.append(config)
                self._shard_caches.append(self.cache)
            else:
                self._shard_accels.append(accel)
                if accel not in override_caches:
                    override_caches[accel] = (
                        self.cache if accel == config
                        else ArtifactCache(accel)
                    )
                self._shard_caches.append(override_caches[accel])
            shard = self.pool.shards[index]
            shard.engine_name = eng.name
            shard.backend_name = backend_name
            shard.accel_desc = accelerator_desc(shard_config.accelerator)
            shard.weight = (
                shard_config.throughput_weight
                if shard_config.throughput_weight is not None
                else engine_throughput_hint(eng)
            )
            # The static prior seeds placement until real measurements
            # arrive; recalibrate_weights keeps it for unmeasured shards.
            shard.prior_weight = shard.weight
        self.metrics = MetricsRegistry()
        #: Memoized batch profiles keyed by (robot, accelerator config,
        #: function, n, chained) — the config is part of the key so two
        #: shards with different accelerator overrides never share cycle
        #: numbers.
        self._profiles: dict[tuple, BatchProfile] = {}
        self._profile_lock = threading.Lock()
        self._chain_counter = 0
        #: Requests dispatched to the pool but not yet executed.  Counted
        #: against max_pending alongside the batcher's queue, so the bound
        #: covers the whole in-service backlog, not just un-flushed work.
        self._dispatched_outstanding = 0
        self._counter_lock = threading.Lock()
        #: Every live future handed to a client, tracked from acceptance
        #: to resolution.  This is the zero-unresolved-futures ledger:
        #: close() resolves anything still here with ServeError after
        #: the pool drains, so no client ever hangs on shutdown.
        self._inflight: set[Future] = set()
        self._inflight_lock = threading.Lock()
        #: Most recent robot seen by submit — the background breaker
        #: probe evaluates a cheap M on it (None until traffic arrives).
        self._last_robot: str | None = None
        self._closed = False
        #: Set once the first close() has fully finished (pool drained,
        #: leftovers resolved).  Concurrent/repeated close() calls block
        #: on it instead of returning while the ledger is still being
        #: resolved — close is idempotent *and* a barrier.
        self._close_done = threading.Event()
        #: Serializes elastic-pool mutations (scale_up / scale_down): the
        #: per-shard engine/backend/cache tables must be extended before
        #: placement can see a new shard.
        self._scale_lock = threading.Lock()
        #: Cumulative admitted work in cost units (1 per plain request,
        #: the horizon per rollout) — the autoscaler's demand signal,
        #: sampled as a rate and compared against the pool's measured
        #: capacity.
        self._submitted_cost = 0
        #: Serializes enqueue against shutdown: a request either lands in
        #: the batcher before close() drains it, or observes _closed —
        #: never slips in after the final drain (which would orphan its
        #: future).
        self._lifecycle_lock = threading.Lock()
        self._wake = threading.Event()
        self._flusher = threading.Thread(
            target=self._flush_loop, name="repro-serve-flusher", daemon=True
        )
        if warm_robots:
            self.cache.warm(warm_robots)
            # Engines build per-robot state (native libraries) now, not
            # on the first timed request.
            engines = {id(e): e for e in self._shard_engines}.values()
            for name in warm_robots:
                model = self.cache.get(name).model
                for eng in engines:
                    eng.prepare(model)
        self._flusher.start()

    def _resolve_shard(self, shard_config: ShardConfig) -> tuple[Engine, str]:
        """Resolve one :class:`ShardConfig` to (engine instance, backend).

        A shard naming a non-default backend gets its own compiled-engine
        instance bound to that backend (the compiled engine is the
        backend-portable one; ``native`` is numpy-only and hands device
        shards to it too); host-bound engines (loop, process) always
        record ``"numpy"``.
        """
        backend = (
            get_backend(shard_config.backend)
            if shard_config.backend is not None
            else get_backend(self.backend_name)
        )
        backend_name = backend.name
        engine = (
            get_engine(shard_config.engine)
            if shard_config.engine is not None else self.engine
        )
        if engine.name in ("compiled", "native"):
            # Fail at construction, not on the first batch: the compiled
            # engine's plans require in-place arrays (jax is immutable).
            if not backend.capabilities.inplace:
                raise BackendCapabilityError(
                    f"shard backend {backend_name!r} has immutable arrays;"
                    f" the {engine.name!r} engine requires an in-place"
                    " backend (numpy or cupy)"
                )
            if backend_name != getattr(engine, "backend_name", "numpy"):
                engine = CompiledEngine(backend=backend_name)
        elif engine.name == "jit":
            # The jit engine resolves its trace backend lazily (on the
            # first batch, where a BackendCapabilityError rides the
            # degradation chain); an explicit shard backend pins it.
            # Shard operands and artifact plan warming stay host-side —
            # the engine owns the device boundary — so record "numpy".
            if shard_config.backend is not None and backend_name != getattr(
                    engine, "backend_name", None):
                from repro.dynamics.jit import JitEngine

                engine = JitEngine(backend=backend_name)
            backend_name = "numpy"
        else:
            backend_name = "numpy"
        return engine, backend_name

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    def _mark_trace(self, request) -> None:
        """Stamp an accepted request with a trace ID and submit time."""
        tracer = self.tracer
        if tracer is not None:
            request.trace_id = tracer.new_trace_id()
            request.trace_t0 = time.perf_counter()

    def _validate(self, request: ServeRequest) -> None:
        """Reject malformed inputs at the submitting caller.

        Validation must happen before the batcher: once a request is
        coalesced, a shape error would fail the whole batch and surface
        on innocent co-batched clients' futures.
        """
        model = load_robot(request.robot)
        nv = model.nv
        for label, operand in (("q", request.q), ("qd", request.qd),
                               ("u", request.u)):
            if operand is not None and np.shape(operand) != (nv,):
                raise ValueError(
                    f"{label} must have shape ({nv},) for robot "
                    f"{request.robot!r}, got {np.shape(operand)}"
                )
        if request.f_ext and request.function in (RBDFunction.M,
                                                  RBDFunction.MINV):
            raise ValueError(
                f"f_ext is not accepted for {request.function.value} "
                "requests (mass-matrix functions take no forces)"
            )
        _check_f_ext(request, model)
        if request.function is RBDFunction.DIFD:
            if request.minv is None:
                raise ValueError("diFD requests must carry minv")
            if np.shape(request.minv) != (nv, nv):
                raise ValueError(
                    f"minv must have shape ({nv}, {nv}), "
                    f"got {np.shape(request.minv)}"
                )
        elif request.minv is not None:
            # A stray minv would make this request un-stackable with its
            # minv-less batchmates in _execute.
            raise ValueError(
                f"minv is only accepted for diFD requests, "
                f"not {request.function.value}"
            )

    def submit(
        self,
        robot: str,
        function: RBDFunction,
        q: np.ndarray,
        qd: np.ndarray | None = None,
        u: np.ndarray | None = None,
        minv: np.ndarray | None = None,
        f_ext: dict[int, np.ndarray] | None = None,
        urgent: bool = False,
        deadline_s: float | None = None,
    ) -> Future:
        """Submit one request; resolves to a :class:`ServeResult`.

        ``f_ext`` maps link indices to ``(6,)`` external spatial forces
        (link frame); the batcher stacks them per coalesced batch, so
        force-carrying and force-free requests share a pipeline pass.

        ``urgent=True`` skips the dynamic batcher and dispatches the
        request immediately as a singleton batch, the same bypass serial
        chains use — for deadline-bound clients that must not pay the
        ``max_wait_s`` coalescing delay under sparse traffic.  Urgent
        requests still count against ``max_pending`` backpressure.

        ``deadline_s`` is a per-request deadline in seconds from
        acceptance: if it passes before the request executes (in the
        batcher or waiting for a shard), the future resolves with
        :class:`~repro.serve.request.DeadlineExceededError` instead of
        occupying a pipeline pass nobody is waiting for.

        Raises :class:`ValueError` on malformed inputs,
        :class:`ServiceOverloaded` when the bounded queue is full
        (backpressure) and :class:`ServiceClosed` after shutdown.
        """
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        # Coerce names ("M") to members here: an unknown function must
        # fail the caller with ValueError, not strand a dispatched
        # batch whose failure path assumes RBDFunction fields.
        function = RBDFunction(function)
        request = ServeRequest(robot=robot, function=function,
                               q=np.asarray(q, dtype=float),
                               qd=qd, u=u, minv=minv, f_ext=f_ext,
                               urgent=urgent, deadline_s=deadline_s)
        self._validate(request)
        return self._admit(request)

    def _admit(self, request) -> Future:
        """Accept a validated request: enqueue it in the batcher, or
        dispatch it at once as a singleton batch when it is urgent.  Its
        ``cost`` (1, or a rollout's horizon) feeds the autoscaler's
        demand signal."""
        self._mark_trace(request)
        self._last_robot = request.robot
        with self._lifecycle_lock:
            if self._closed:
                raise ServiceClosed("service is shut down")
            with self._counter_lock:
                dispatched = self._dispatched_outstanding
                self._submitted_cost += request.cost
            if request.urgent:
                # Priority bypass: same backpressure bound, no coalescing.
                self._check_backpressure(1)
                request.arrival_s = time.monotonic()
                self.batcher.stats.accepted += 1
                self.batcher.stats.urgent += 1
                self._track(request)
                self._dispatch([request], chained=False)
                return request.future
            batch = self.batcher.add(request, time.monotonic(),
                                     extra_pending=dispatched)
            self._track(request)
            if batch is not None:
                self._dispatch(batch, chained=False)
            else:
                self._wake.set()
        return request.future

    def submit_many(self, requests: list[tuple], robot: str,
                    function: RBDFunction) -> list[Future]:
        """Submit ``(q, qd, u)`` tuples in order; futures in that order."""
        return [self.submit(robot, function, q, qd, u)
                for q, qd, u in requests]

    def submit_chain(
        self,
        robot: str,
        function: RBDFunction,
        qs: np.ndarray,
        qds: np.ndarray | None = None,
        us: np.ndarray | None = None,
    ) -> list[Future]:
        """Submit one serial chain of requests (e.g. the 4 RK4 stages).

        The chain bypasses the batcher: its steps execute together on one
        shard and the modeled timing honours the step-to-step dependency
        via :func:`repro.core.scheduler.serial_chains`, so a chain costs
        ``~length * latency`` instead of ``latency + (length-1) * II``.
        """
        qs = np.atleast_2d(np.asarray(qs, dtype=float))
        n = qs.shape[0]
        if n == 0:
            return []
        qds_arr = None if qds is None else np.atleast_2d(np.asarray(qds))
        us_arr = None if us is None else np.atleast_2d(np.asarray(us))
        with self._counter_lock:
            chain = self._chain_counter
            self._chain_counter += 1
        now = time.monotonic()
        requests = []
        for k in range(n):
            requests.append(ServeRequest(
                robot=robot, function=function, q=qs[k],
                qd=None if qds_arr is None else qds_arr[k],
                u=None if us_arr is None else us_arr[k],
                arrival_s=now, chain=chain, sequence=k,
            ))
        for r in requests:
            self._validate(r)
            self._mark_trace(r)
        self._last_robot = robot
        with self._lifecycle_lock:
            if self._closed:
                raise ServiceClosed("service is shut down")
            # Chains bypass the batcher but not its backpressure: the
            # whole backlog (queued + dispatched) stays under one bound.
            self._check_backpressure(n)
            with self._counter_lock:
                self._submitted_cost += n
            for r in requests:
                self._track(r)
            self._dispatch(requests, chained=True)
        return [r.future for r in requests]

    def _validate_rollout(self, request: RolloutRequest) -> None:
        """Reject malformed rollout inputs at the submitting caller."""
        if request.scheme not in SCHEMES:
            raise ValueError(
                f"unknown rollout scheme {request.scheme!r}; choose from "
                f"{sorted(SCHEMES)}"
            )
        if request.dt <= 0:
            raise ValueError(f"dt must be > 0, got {request.dt}")
        model = load_robot(request.robot)
        nv = model.nv
        for label, operand in (("q0", request.q0), ("qd0", request.qd0)):
            if np.shape(operand) != (nv,):
                raise ValueError(
                    f"{label} must have shape ({nv},) for robot "
                    f"{request.robot!r}, got {np.shape(operand)}"
                )
        if request.controls.ndim != 2 or request.controls.shape[1] != nv \
                or request.controls.shape[0] < 1:
            raise ValueError(
                f"controls must have shape (T, {nv}) with T >= 1, "
                f"got {request.controls.shape}"
            )
        for contact in request.contacts:
            if not 0 <= contact.link < model.nb:
                raise ValueError(
                    f"contact link index {contact.link} out of range for "
                    f"robot {request.robot!r} (nb={model.nb})"
                )
        if request.contact_mask is not None:
            if not request.contacts:
                raise ValueError("contact_mask given without contacts")
            expected = (request.horizon, len(request.contacts))
            if np.shape(request.contact_mask) != expected:
                raise ValueError(
                    f"contact_mask must have shape {expected}, "
                    f"got {np.shape(request.contact_mask)}"
                )
        if request.sensitivities and request.contacts:
            raise ValueError(
                "sensitivities are not available for contact rollouts"
            )
        if request.window is not None:
            if request.window < 1:
                raise ValueError(
                    f"window must be >= 1, got {request.window}"
                )
            if request.sensitivities:
                raise ValueError(
                    "streaming windows are not available for sensitivity "
                    "rollouts (A/B matrices are whole-trajectory outputs)"
                )
        _check_f_ext(request, model)

    def submit_rollout(
        self,
        robot: str,
        q0: np.ndarray,
        qd0: np.ndarray,
        controls: np.ndarray,
        dt: float,
        scheme: str = "semi_implicit",
        contacts: list | None = None,
        contact_mask: np.ndarray | None = None,
        f_ext: dict[int, np.ndarray] | None = None,
        sensitivities: bool = False,
        urgent: bool = False,
        deadline_s: float | None = None,
        window: int | None = None,
        on_window=None,
    ) -> Future:
        """Submit one whole-trajectory rollout; resolves to a
        :class:`RolloutServeResult`.

        Rollouts batch by (robot, scheme, dt, horizon, contact set): the
        coalesced group executes as one ``(n, T, ...)`` slab on a shard's
        engine (:mod:`repro.rollout`).  The batcher's ``max_batch_cost``
        budget is horizon-aware — each rollout counts ``T`` toward the
        flush budget — and shard placement weighs rollouts by horizon.
        ``contact_mask`` is this request's per-step ``(T, c)`` activation
        schedule; ``f_ext`` maps link indices to ``(6,)`` external
        spatial forces applied at every step (force-free and
        force-carrying rollouts coalesce, like plain requests);
        ``urgent=True`` bypasses the batcher like plain urgent requests
        do; ``deadline_s`` sheds the rollout if it expires before
        execution (see :meth:`submit`).

        Streaming: ``window=W`` executes the rollout in windows of ``W``
        knots and calls ``on_window(t0, t1, trajectory, done)`` after
        each completed window (on the shard thread; the ``trajectory``
        is that window's :class:`~repro.rollout.TaskTrajectory` slice).
        The future still resolves with the full reassembled trajectory
        — bitwise identical to the non-windowed rollout, since the
        integrators are Markovian in the carried state.  Calling the
        returned future's ``cancel_stream()`` (attached for windowed
        submissions) abandons the unsimulated tail once every rollout in
        the coalesced batch is cancelled, resolving the future with
        :class:`~repro.serve.request.StreamCancelledError`.  Windows are
        part of the coalescing key, so only same-window rollouts share a
        slab.  Incompatible with ``sensitivities``.
        """
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        request = RolloutRequest(
            robot=robot, scheme=scheme,
            q0=np.asarray(q0, dtype=float),
            qd0=np.asarray(qd0, dtype=float),
            controls=np.asarray(controls, dtype=float),
            dt=float(dt),
            contacts=tuple(contacts or ()),
            contact_mask=(
                None if contact_mask is None
                else np.asarray(contact_mask, dtype=bool)
            ),
            f_ext=f_ext,
            sensitivities=sensitivities,
            urgent=urgent,
            deadline_s=deadline_s,
            window=None if window is None else int(window),
            on_window=on_window,
        )
        self._validate_rollout(request)
        if request.window is not None:
            # Hand the consumer a cancellation handle without exposing
            # the request record: futures accept ad-hoc attributes.
            request.future.cancel_stream = request.cancel_stream
        return self._admit(request)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Synchronously flush all pending groups (regardless of age)."""
        with self._lifecycle_lock:
            for batch in self.batcher.drain():
                self._dispatch(batch, chained=False)

    def close(self) -> None:
        """Drain pending work, stop the flusher, and shut the pool down.

        After the pool drains, any future still unresolved (stranded by
        a crashed recovery path or a retry that raced shutdown) is
        resolved with ``ServeError("service shut down")`` — clients
        never hang on a closed service.

        Idempotent and a barrier: concurrent callers block until the
        first closer has fully finished (pool drained, leftover futures
        resolved) instead of returning while the inflight ledger is
        still being emptied — an async shutdown that double-closes must
        not observe live futures after *any* ``close()`` returns.
        """
        with self._lifecycle_lock:
            already = self._closed
            self._closed = True
        if already:
            # A previous (possibly concurrent) closer owns the teardown;
            # wait for it so this return means "fully closed" too.
            self._close_done.wait(timeout=10.0)
            return
        try:
            self._wake.set()
            self._flusher.join(timeout=5.0)
            with self._lifecycle_lock:
                # Any concurrent submit has either enqueued by now (this
                # drain picks it up) or will observe _closed and raise.
                for batch in self.batcher.drain():
                    self._dispatch(batch, chained=False)
                self.pool.shutdown()
                with self._inflight_lock:
                    leftovers = list(self._inflight)
                    self._inflight.clear()
                for future in leftovers:
                    if future.done():
                        continue
                    try:
                        future.set_exception(ServeError("service shut down"))
                    except InvalidStateError:
                        pass
        finally:
            # Set even if teardown raised: blocked co-closers must not
            # hang on a failed close.
            self._close_done.set()

    def __enter__(self) -> "DynamicsService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def modeled_throughput_rps(self) -> float:
        """Sustained request throughput implied by the cycle model."""
        return self.metrics.modeled_throughput_rps(
            self.config.clock_hz, max(self.pool.n_active, 1)
        )

    def stats(self) -> dict:
        """Flat service-wide stats: metrics + batcher + cache + shards."""
        out = self.metrics.snapshot()
        fragmentation = self.batcher.fragmentation()
        out.update({
            "accepted": self.batcher.stats.accepted,
            "rejected": self.batcher.stats.rejected,
            "urgent": self.batcher.stats.urgent,
            "flushed_full": self.batcher.stats.flushed_full,
            "flushed_timeout": self.batcher.stats.flushed_timeout,
            "flushed_merged": self.batcher.stats.flushed_merged,
            "queues_per_flush": fragmentation["queues_per_flush"],
            "active_queues": fragmentation["active_queues"],
            "batcher_shed": self.batcher.stats.shed,
            "engine": self.engine.name,
            "backend": self.backend_name,
            "shards": self.pool.describe(),
            "shard_health": [s.health for s in self.pool.shards],
            "breaker_opens": sum(
                s.breaker_opens for s in self.pool.shards
            ),
            "cache_hits": self.cache.stats.hits,
            "cache_misses": self.cache.stats.misses,
            "modeled_throughput_rps": self.modeled_throughput_rps(),
            "shard_busy_cycles": self.pool.busy_cycles(),
            "placement_events": len(self.pool.placement_events()),
            "active_shards": self.pool.n_active,
            "scale_events": len(self.pool.scale_events()),
            "submitted_cost": self.submitted_cost(),
        })
        return out

    def telemetry(self, telemetry: Telemetry | None = None) -> Telemetry:
        """Project the service's observable state into a
        :class:`~repro.obs.Telemetry` registry (Prometheus text via
        ``.prometheus()``, JSON via ``.to_json()``).

        Unifies the :class:`~repro.serve.metrics.MetricsRegistry` series
        (request/rollout latency summaries, batch-occupancy histogram,
        per-engine/backend/shard counters) with the batcher, artifact
        cache, and shard-pool gauges.
        """
        t = self.metrics.telemetry(telemetry)
        stats = self.batcher.stats
        t.counter("serve_accepted_total",
                  "Requests accepted by the batcher").set(stats.accepted)
        t.counter("serve_rejected_total",
                  "Requests rejected by backpressure").set(stats.rejected)
        t.counter("serve_urgent_total",
                  "Urgent batcher bypasses").set(stats.urgent)
        t.counter("serve_flushed_full_total",
                  "Batches flushed on size/cost budget"
                  ).set(stats.flushed_full)
        t.counter("serve_flushed_timeout_total",
                  "Batches flushed on deadline").set(stats.flushed_timeout)
        t.counter("serve_flushed_merged_total",
                  "Flushes that coalesced >= 2 queues into a ragged batch"
                  ).set(stats.flushed_merged)
        fragmentation = self.batcher.fragmentation()
        t.gauge("batcher_fragmentation",
                "Distinct active (robot, function) queues pending"
                ).set(fragmentation["active_queues"])
        t.gauge("batcher_queues_per_flush",
                "Mean distinct queues folded into each executed batch"
                ).set(fragmentation["queues_per_flush"])
        t.counter("cache_hits_total",
                  "Artifact-cache hits").set(self.cache.stats.hits)
        t.counter("cache_misses_total",
                  "Artifact-cache misses (bundle builds)"
                  ).set(self.cache.stats.misses)
        t.gauge("modeled_throughput_rps",
                "Sustained capacity implied by the cycle model"
                ).set(self.modeled_throughput_rps())
        health_code = {"healthy": 0, "half_open": 1, "open": 2,
                       "draining": 3, "removed": 4}
        for row in self.pool.describe():
            labels = {"shard": row["shard"]}
            t.gauge("shard_weight", "Placement throughput weight",
                    **labels).set(row["weight"])
            t.gauge("shard_busy_cycles", "Accumulated modeled busy cycles",
                    **labels).set(row["busy_cycles"])
            t.counter("shard_dispatched_requests_total",
                      "Requests dispatched to the shard",
                      **labels).set(row["dispatched_requests"])
            t.gauge("shard_health",
                    "Breaker state (0 healthy, 1 half-open, 2 open, "
                    "3 draining, 4 removed)",
                    **labels).set(health_code.get(row["health"], -1))
            t.counter("shard_failures_total",
                      "Batch failures recorded against the shard",
                      **labels).set(row["failures"])
            t.counter("shard_breaker_opens_total",
                      "Times the shard's circuit breaker opened",
                      **labels).set(row["breaker_opens"])
        t.counter("shard_placement_events_total",
                  "Placement decisions retained in the event log"
                  ).set(len(self.pool.placement_events()))
        t.gauge("pool_active_shards",
                "Shards currently in the pool (not scaled away)"
                ).set(self.pool.n_active)
        scale_events = self.pool.scale_events()
        t.counter("pool_scale_up_total",
                  "Elastic-pool shard additions").set(
            sum(1 for e in scale_events if e["action"] == "add"))
        t.counter("pool_scale_down_total",
                  "Elastic-pool shard removals").set(
            sum(1 for e in scale_events if e["action"] == "remove"))
        t.counter("serve_submitted_cost_total",
                  "Admitted work in cost units (autoscaler demand signal)"
                  ).set(self.submitted_cost())
        return t

    # ------------------------------------------------------------------
    # Elastic pool & admin surface
    # ------------------------------------------------------------------

    def submitted_cost(self) -> int:
        """Cumulative admitted work in cost units (1 per plain request,
        the horizon per rollout) — sampled as a rate, this is the demand
        signal the autoscaler compares against measured capacity."""
        with self._counter_lock:
            return self._submitted_cost

    def scale_up(self, shard_config: ShardConfig | None = None,
                 reason: str = "manual") -> int:
        """Grow the pool by one shard; returns the new shard's index.

        The per-shard engine/backend/accelerator/cache tables are
        extended *before* the pool makes the shard placeable, so a
        dispatch racing the scale-up can never index past them.  Shards
        with an accelerator override matching an existing shard share
        its artifact cache (replicating a bitstream, not rebuilding it).
        """
        with self._scale_lock:
            if self._closed:
                raise ServiceClosed("service is shut down")
            shard_config = shard_config or ShardConfig()
            eng, backend_name = self._resolve_shard(shard_config)
            accel = shard_config.accelerator
            if accel is None:
                accel, cache = self.config, self.cache
            else:
                cache = next(
                    (c for a, c in zip(self._shard_accels,
                                       self._shard_caches) if a == accel),
                    None,
                ) or (self.cache if accel == self.config
                      else ArtifactCache(accel))
            self._shard_engines.append(eng)
            self._shard_backends.append(backend_name)
            self._shard_accels.append(accel)
            self._shard_caches.append(cache)
            shard = self.pool.add_shard(shard_config, reason=reason)
            shard.engine_name = eng.name
            shard.backend_name = backend_name
            shard.accel_desc = accelerator_desc(shard_config.accelerator)
            shard.weight = (
                shard_config.throughput_weight
                if shard_config.throughput_weight is not None
                else engine_throughput_hint(eng)
            )
            shard.prior_weight = shard.weight
            return shard.index

    def scale_down(self, index: int | None = None, wait_s: float = 2.0,
                   reason: str = "manual") -> int:
        """Drain and permanently remove one shard; returns its index.

        Defaults to the highest-indexed active shard.  The shard drains
        first (placement stops, queued work finishes up to ``wait_s``),
        reusing the same machinery as admin drains; its slot stays in
        the pool with health ``removed`` so shard indices — and the
        engine/cache tables keyed by them — stay stable.  Refuses to
        remove the last active shard.
        """
        with self._scale_lock:
            if self.pool.n_active <= 1:
                raise ValueError("cannot remove the last active shard")
            if index is None:
                index = max(
                    i for i, s in enumerate(self.pool.shards)
                    if s.health != "removed"
                )
            if self.pool.shards[index].health == "removed":
                raise ValueError(f"shard {index} is already removed")
            self.pool.remove_shard(index, wait_s=wait_s, reason=reason)
            return index

    def drain_shard(self, index: int, wait_s: float | None = None) -> None:
        """Admin drain: stop placing on the shard, let its queue empty."""
        self.pool.drain(index, wait_s=wait_s)

    def restart_shard(self, index: int) -> None:
        """Admin restart: return a drained/quarantined shard to service."""
        self.pool.restart(index)

    def admin_state(self) -> dict:
        """Stable admin-facing snapshot of the serving plane.

        This is the schema the async admin endpoint serves: per-shard
        health/breaker/ledger rows (:meth:`ShardPool.describe` plus the
        live backlog), the elastic-pool event log, and the service-level
        counters an operator acts on.  Fields are additive-only.
        """
        shards = []
        for row, shard in zip(self.pool.describe(), self.pool.shards):
            row = dict(row)
            row["backlog"] = shard.backlog()[0]
            shards.append(row)
        with self._counter_lock:
            submitted_cost = self._submitted_cost
            dispatched = self._dispatched_outstanding
        return {
            "closed": self._closed,
            "shards": shards,
            "active_shards": self.pool.n_active,
            "scale_events": self.pool.scale_events(),
            "submitted_cost": submitted_cost,
            "dispatched_outstanding": dispatched,
            "queued": len(self.batcher),
            "accepted": self.batcher.stats.accepted,
            "rejected": self.batcher.stats.rejected,
            "shed": self.batcher.stats.shed,
            "breaker_opens": sum(
                s.breaker_opens for s in self.pool.shards
            ),
            "modeled_throughput_rps": self.modeled_throughput_rps(),
        }

    # ------------------------------------------------------------------
    # Runtime internals
    # ------------------------------------------------------------------

    def _flush_loop(self) -> None:
        tick = max(self.policy.max_wait_s / 4.0, 2.5e-4)
        while not self._closed:
            deadline = self.batcher.next_deadline()
            if deadline is None:
                # Idle default; tighten while deadline-carrying requests
                # are queued so shedding stays responsive, and while a
                # breaker is quarantining a shard so the probe fires
                # promptly after its cooldown.
                timeout = 0.05
                if self.batcher.has_deadlines or any(
                    s.health in ("open", "half_open")
                    for s in self.pool.shards
                ):
                    timeout = max(tick, 1e-3)
                self._wake.wait(timeout=timeout)
            else:
                delay = deadline - time.monotonic()
                if delay > 0:
                    self._wake.wait(timeout=min(delay, tick))
            self._wake.clear()
            now = time.monotonic()
            if self.batcher.has_deadlines:
                self._resolve_shed(self.batcher.shed_expired(now))
            for batch in self.batcher.poll_expired(now):
                self._dispatch(batch, chained=False)
            self._probe_quarantined(now)

    def _check_backpressure(self, n: int) -> None:
        """Reject batcher-bypassing work (chains, urgent requests) that
        would push the whole in-service backlog — dispatched plus queued —
        past ``max_pending``.  Caller holds ``_lifecycle_lock``."""
        with self._counter_lock:
            outstanding = self._dispatched_outstanding
        if outstanding + len(self.batcher) + n > self.policy.max_pending:
            self.batcher.stats.rejected += 1
            raise ServiceOverloaded(
                f"request queue full ({self.policy.max_pending} pending)"
            )

    def _track(self, request) -> None:
        """Enter an accepted request's future in the inflight ledger."""
        with self._inflight_lock:
            self._inflight.add(request.future)

    def _forget(self, request) -> None:
        """Drop a resolved request's future from the inflight ledger."""
        with self._inflight_lock:
            self._inflight.discard(request.future)

    def _resolve(self, request, result) -> None:
        """Hand an executed request its result.

        Metrics are booked before ``set_result``: a client waiting on the
        future may read stats() the instant it resolves, and must see
        this request counted.
        """
        self._forget(request)
        if request.future.cancelled():
            return
        self.metrics.record_request(result.wall_latency_s,
                                    result.modeled_latency_s)
        if isinstance(result, RolloutServeResult):
            self.metrics.record_rollout(result.horizon,
                                        result.wall_latency_s)
        try:
            request.future.set_result(result)
        except InvalidStateError:
            pass        # cancellation raced; don't strand batchmates

    def _reject(self, request, exc: BaseException) -> None:
        """Resolve a request with ``exc`` (shed, failed, stream-cancelled)."""
        self._forget(request)
        if request.future.done():
            return
        try:
            request.future.set_exception(exc)
        except InvalidStateError:
            pass

    def _book_batch(self, shard: ShardState, size: int, makespan: float,
                    wall_s: float, **kw) -> None:
        """Record an executed batch and feed the measured per-shard
        throughput back into placement (the static per-engine priors
        only steer until real traffic lands)."""
        self.metrics.record_batch(
            size, makespan, engine=self._shard_engines[shard.index].name,
            backend=self._shard_backends[shard.index], shard=shard.index,
            wall_s=wall_s, **kw,
        )
        self.pool.recalibrate_weights(self.metrics.measured_shard_rps())

    def _resolve_shed(self, requests: list) -> None:
        """Resolve deadline-expired requests with DeadlineExceededError."""
        if not requests:
            return
        for r in requests:
            self._reject(r, DeadlineExceededError(
                f"deadline of {r.deadline_s * 1e3:.3g} ms passed "
                f"before execution (robot={r.robot!r})"
            ))
        self.metrics.record_shed(len(requests))

    def _dispatch(self, batch: list, chained: bool) -> None:
        with self._counter_lock:
            self._dispatched_outstanding += len(batch)
        # Placement cost: 1 per plain request, the horizon per rollout —
        # a 64-step rollout occupies a shard like 64 pipeline tasks.
        cost = sum(r.cost for r in batch)
        # Per-robot segment count of the placed batch (> 1 only for
        # coalesced ragged flushes); placement events record it.
        segments = 1 + sum(
            1 for a, b in zip(batch, batch[1:]) if a.robot != b.robot
        )
        try:
            self.pool.dispatch(
                len(batch),
                lambda shard: self._execute(shard, batch, chained),
                cost=cost, segments=segments,
            )
        except RuntimeError:
            # Pool executor already shut down (a retry raced close());
            # undo the outstanding claim and let the caller fail the
            # batch (or close() resolve the futures).
            with self._counter_lock:
                self._dispatched_outstanding -= len(batch)
            raise

    def _profile(self, artifacts: RobotArtifacts, function: RBDFunction,
                 n: int, chained: bool,
                 config: AcceleratorConfig | None = None) -> BatchProfile:
        """Cycle-accounting for an n-task batch, memoized per shape.

        ``config`` disambiguates bundles built under per-shard
        accelerator overrides (defaults to the service config)."""
        key = (artifacts.name, config or self.config, function, n, chained)
        with self._profile_lock:
            cached = self._profiles.get(key)
        if cached is not None:
            return cached
        jobs = serial_chains(1, n) if chained else None
        profile = artifacts.accelerator.profile_batch(function, n, jobs=jobs)
        with self._profile_lock:
            self._profiles[key] = profile
        return profile

    @staticmethod
    def _stack_f_ext(batch: list) -> dict[int, np.ndarray] | None:
        """Stack per-request external forces into link -> ``(n, 6)`` maps.

        Requests without forces contribute zero rows, so they coalesce
        with force-carrying requests in the same pipeline pass.  Serves
        both plain and rollout batches (the rollout engine broadcasts the
        per-task rows across its steps).
        """
        links = sorted({
            link for r in batch if r.f_ext for link in r.f_ext
        })
        if not links:
            return None
        zero = np.zeros(6)
        return {
            link: np.stack([
                np.asarray(r.f_ext[link], dtype=float)
                if r.f_ext and link in r.f_ext else zero
                for r in batch
            ])
            for link in links
        }

    def _execute(self, shard: ShardState, batch: list,
                 chained: bool) -> float:
        """Run one coalesced batch on ``shard``; returns makespan cycles."""
        n_dispatched = len(batch)
        try:
            # Dispatch-time shedding: a request can expire while its
            # batch sits in the shard's one-at-a-time execution queue.
            batch = self._shed_batch(batch)
            if not batch:
                return 0.0
            tracer = self.tracer
            if tracer is None:
                return self._execute_resilient(shard, batch, chained)
            # Traced path: book each request's queue wait retroactively
            # (submission -> execution start, stamped with its trace ID),
            # then run the batch inside an execute span.  Kernel sections
            # recorded through repro.obs.hooks on this thread nest under
            # the execute span, completing the enqueue -> batch -> shard
            # -> kernel chain for every member trace ID.
            first = batch[0]
            rollout = isinstance(first, RolloutRequest)
            fn = f"rollout/{first.scheme}" if rollout \
                else first.function.value
            # Coalesced flushes carry several robots: name the span
            # "ragged" rather than after the first robot.
            ragged = not rollout and any(
                r.robot != first.robot for r in batch
            )
            span_robot = "ragged" if ragged else first.robot
            exec_t0 = time.perf_counter()
            trace_ids = [r.trace_id for r in batch if r.trace_id]
            for r in batch:
                if r.trace_id:
                    tracer.record(
                        "serve.queue", r.trace_t0, exec_t0 - r.trace_t0,
                        trace_id=r.trace_id,
                        args={"robot": r.robot, "function": fn,
                              "shard": shard.index},
                    )
            with tracer.span(
                f"serve.execute {span_robot}/{fn}",
                trace_id=trace_ids[0] if trace_ids else None,
                args={"shard": shard.index, "batch_size": len(batch),
                      "engine": self._shard_engines[shard.index].name,
                      "backend": self._shard_backends[shard.index],
                      "chained": chained, "trace_ids": trace_ids},
            ):
                return self._execute_resilient(shard, batch, chained)
        finally:
            with self._counter_lock:
                self._dispatched_outstanding -= n_dispatched

    # ------------------------------------------------------------------
    # Resilience pipeline
    # ------------------------------------------------------------------

    def _shed_batch(self, batch: list) -> list:
        """Drop deadline-expired requests from a batch about to execute,
        resolving them with DeadlineExceededError; returns the live
        remainder."""
        now = time.monotonic()
        expired = [r for r in batch if r.expired(now)]
        if not expired:
            return batch
        self._resolve_shed(expired)
        return [r for r in batch if not r.expired(now)]

    def _run_batch(self, shard: ShardState, batch: list,
                   chained: bool) -> float:
        """One raw execution attempt (no recovery); raises on failure."""
        if isinstance(batch[0], RolloutRequest):
            return self._execute_rollout(shard, batch)
        return self._execute_points(shard, batch, chained)

    def _execute_resilient(self, shard: ShardState, batch: list,
                           chained: bool) -> float:
        """Execute with recovery; every future in ``batch`` is resolved
        by the time this returns (result, error, or re-dispatch)."""
        try:
            if _faults.enabled:
                _faults.check("shard.execute", robot=batch[0].robot,
                              shard=shard.index, n=len(batch))
            makespan = self._run_batch(shard, batch, chained)
        except Exception as exc:
            self.pool.record_result(shard, ok=False)
            return self._recover(shard, batch, chained, exc)
        self.pool.record_result(shard, ok=True)
        return makespan

    def _recover(self, shard: ShardState, batch: list, chained: bool,
                 exc: Exception) -> float:
        """Failure recovery ladder: degrade -> retry -> isolate -> fail."""
        for r in batch:
            r.attempts += 1
        # 1) Capability/resource error: the engine itself cannot serve
        #    this work — drop the shard down the degradation chain and
        #    re-run in place (retrying the same engine would be futile).
        if isinstance(exc, self._DEGRADABLE) and self._degrade_shard(shard):
            return self._execute_resilient(shard, batch, chained)
        # 2) Transient failure: back off and re-place the whole batch
        #    through the pool.  Placement skips the breaker this failure
        #    may just have opened, so the retry lands on a healthy shard.
        attempt = max(r.attempts for r in batch)
        if self.retry.is_retryable(exc) and attempt < self.retry.max_attempts:
            with self._retry_rng_lock:
                delay = self.retry.backoff_for(attempt, self._retry_rng)
            if delay > 0:
                time.sleep(delay)
            self.metrics.record_retry(len(batch))
            try:
                self._dispatch(batch, chained=chained)
                return 0.0
            except RuntimeError:
                pass        # service closed underneath the retry: fail below
        # 3) Poison isolation: a non-retryable (or retry-exhausted)
        #    multi-request batch is bisected and each half re-run, so
        #    the one malformed request fails alone after O(log n)
        #    re-executions while its coalesced neighbors still resolve.
        elif len(batch) > 1:
            self.metrics.record_poison_isolation()
            mid = len(batch) // 2
            return (self._execute_resilient(shard, batch[:mid], chained)
                    + self._execute_resilient(shard, batch[mid:], chained))
        return self._fail_batch(shard, batch, exc)

    def _degrade_shard(self, shard: ShardState) -> bool:
        """Drop ``shard`` one step down the engine degradation chain
        (jit -> process -> compiled -> loop); False at the end."""
        current = self._shard_engines[shard.index].name
        next_name = self._DEGRADE_NEXT.get(current, "compiled")
        if next_name is None:
            return False
        engine = get_engine(next_name)
        self._shard_engines[shard.index] = engine
        # Degraded engines are host engines; their plans run on numpy.
        self._shard_backends[shard.index] = "numpy"
        shard.engine_name = engine.name
        shard.backend_name = "numpy"
        # The old engine's measured throughput no longer applies; fall
        # back to the new engine's static prior until fresh measurements.
        hint = engine_throughput_hint(engine)
        shard.set_weight(hint, measured=False)
        shard.prior_weight = hint
        self.metrics.record_engine_degradation()
        return True

    def _fail_batch(self, shard: ShardState, batch: list,
                    exc: Exception) -> float:
        """Terminal failure: resolve every future with a context-carrying
        BatchExecutionError chaining the original exception."""
        first = batch[0]
        fn = (f"rollout/{first.scheme}" if isinstance(first, RolloutRequest)
              else first.function.value)
        robots = sorted({r.robot for r in batch})
        robot = robots[0] if len(robots) == 1 else "+".join(robots)
        attempts = max(r.attempts for r in batch)
        wrapped = BatchExecutionError(
            f"batch execution failed: robot={robot!r} function={fn} "
            f"batch_size={len(batch)} shard={shard.index} "
            f"attempts={attempts}: {exc}",
            robot=robot, function=fn, batch_size=len(batch),
            shard=shard.index, attempts=attempts,
        )
        wrapped.__cause__ = exc
        for r in batch:
            self._reject(r, wrapped)
        self.metrics.record_failure(len(batch))
        return 0.0

    def _probe_quarantined(self, now: float) -> None:
        """Launch background health probes at quarantined shards whose
        breaker cooldown has elapsed (runs on the flusher thread)."""
        if self._last_robot is None:
            return      # nothing ever served; nothing meaningful to probe
        for shard in self.pool.shards:
            if shard.probe_due(now):
                self.pool.dispatch_to(
                    shard.index, 0,
                    lambda s, _shard=shard: self._probe(_shard),
                    cost=0.0, reason="probe",
                )

    def _probe(self, shard: ShardState) -> float:
        """One synthetic health check executed *on* the quarantined
        shard: a single-row mass-matrix evaluation through the shard's
        engine.  Success closes the breaker; failure re-arms the
        cooldown.  Runs as pool work so it serializes with (and never
        races) real batches on the shard."""
        robot = self._last_robot
        ok = False
        try:
            if _faults.enabled:
                _faults.check("shard.execute", robot=robot,
                              shard=shard.index, probe=True)
            artifacts = self._shard_caches[shard.index].get(
                robot, backend=self._shard_backends[shard.index]
            )
            model = artifacts.model
            q = np.zeros((1, model.nv))
            batch_evaluate(model, RBDFunction.M, BatchStates(q, q.copy()),
                           engine=self._shard_engines[shard.index])
            ok = True
        except Exception:
            ok = False
        finally:
            shard.probe_done()
        self.pool.record_result(shard, ok)
        self.metrics.record_probe(ok)
        return 0.0

    def _execute_points(self, shard: ShardState, batch: list[ServeRequest],
                        chained: bool) -> float:
        """Run one batch of point requests on ``shard``.

        The batch arrives queue-grouped from the batcher (one contiguous
        run of requests per source (robot, function) queue); each run
        stacks into a :class:`RaggedBatch` segment and the whole thing
        executes as one engine dispatch
        (:func:`~repro.dynamics.batch.batch_evaluate_ragged`).  A
        single-robot batch is a one-segment ragged batch.  Per-robot
        cycle profiles still apply — the modeled makespan is the sum of
        the per-segment makespans (the accelerator reprograms between
        robot structures), and each request's modeled latency comes from
        its own segment's profile — so results are identical to the
        fragmented path, batch for request.
        """
        function = batch[0].function
        engine = self._shard_engines[shard.index]
        backend_name = self._shard_backends[shard.index]
        accel_config = self._shard_accels[shard.index]
        cache = self._shard_caches[shard.index]
        # Failures propagate to _execute_resilient's recovery ladder
        # (degrade / retry / isolate / fail) — no blanket handler here.
        ragged = RaggedBatch()
        seg_meta: list[tuple[RobotArtifacts, list[ServeRequest]]] = []
        i = 0
        while i < len(batch):
            j = i
            while j < len(batch) and batch[j].robot == batch[i].robot:
                j += 1
            seg = batch[i:j]
            artifacts = cache.get(seg[0].robot, backend=backend_name)
            nv = artifacts.model.nv
            zero = np.zeros(nv)
            # stack_rows coerces to C-contiguous float64 and names the
            # offending request on a per-row shape mismatch.
            q = stack_rows("q", [r.q for r in seg], (nv,))
            qd = stack_rows(
                "qd", [zero if r.qd is None else r.qd for r in seg],
                (nv,),
            )
            u = stack_rows(
                "u", [zero if r.u is None else r.u for r in seg], (nv,)
            )
            minv = None
            if all(r.minv is not None for r in seg):
                minv = stack_rows("minv", [r.minv for r in seg],
                                  (nv, nv))
            ragged.add(artifacts.model, BatchStates(q, qd), u,
                       minv=minv, f_ext=self._stack_f_ext(seg))
            seg_meta.append((artifacts, seg))
            i = j
        exec_start = time.perf_counter()
        values = batch_evaluate_ragged(function, ragged, engine=engine)
        exec_wall = time.perf_counter() - exec_start
        profiles = [
            self._profile(artifacts, function, len(seg), chained,
                          config=accel_config)
            for artifacts, seg in seg_meta
        ]
        makespan = sum(p.makespan_cycles for p in profiles)
        self._book_batch(shard, len(batch), makespan, exec_wall,
                         segments=len(seg_meta))
        now = time.monotonic()
        k = 0
        for (artifacts, seg), profile in zip(seg_meta, profiles):
            modeled_s = accel_config.cycles_to_seconds(
                profile.mean_latency_cycles
            )
            for r in seg:
                self._resolve(r, ServeResult(
                    robot=r.robot,
                    function=function,
                    value=values[k],
                    wall_latency_s=now - r.arrival_s,
                    modeled_latency_cycles=profile.mean_latency_cycles,
                    modeled_latency_s=modeled_s,
                    modeled_makespan_cycles=makespan,
                    batch_size=len(batch),
                    shard=shard.index,
                    engine=engine.name,
                    backend=backend_name,
                ))
                k += 1
        return makespan

    def _execute_rollout(self, shard: ShardState,
                         batch: list[RolloutRequest]) -> float:
        """Run one coalesced rollout slab on ``shard``, window by window.

        All requests in the batch share one key (robot, scheme, dt,
        horizon, contact set, window), so their initial states and
        control sequences stack into one ``(n, T, ...)`` slab; the
        modeled accelerator cost is ``T`` serial FD passes (times the
        scheme's stage count) over the n-task batch.

        The slab advances per window of ``first.window`` knots — a
        non-streamed rollout is a one-window stream.  For streamed
        requests, after each window every live request's ``on_window``
        callback fires with its task's window slice, and at the end the
        windows are reassembled (:func:`repro.rollout.concat_windows`)
        into the full trajectory — bitwise equal to a one-window run,
        since the integrators carry only the last state between windows.

        Cancellation: stepping stops early only once *every* request in
        the batch has been stream-cancelled (batchmates still need the
        tail rows of the shared slab).  Cancelled requests resolve with
        :class:`~repro.serve.request.StreamCancelledError` whether or
        not their batchmates forced the tail to be simulated.
        """
        first = batch[0]
        engine = self._shard_engines[shard.index]
        backend_name = self._shard_backends[shard.index]
        accel_config = self._shard_accels[shard.index]
        n = len(batch)
        t_steps = first.horizon
        streamed = first.window is not None
        # Failures propagate to _execute_resilient's recovery ladder.
        artifacts = self._shard_caches[shard.index].get(
            first.robot, backend=backend_name
        )
        model = artifacts.model
        nv = model.nv
        q0 = stack_rows("q0", [r.q0 for r in batch], (nv,))
        qd0 = stack_rows("qd0", [r.qd0 for r in batch], (nv,))
        # Controls were coerced and shape-checked per request in
        # submit_rollout; one C-level stack suffices here.
        controls = np.stack([r.controls for r in batch])
        contacts = list(first.contacts) or None
        mask = None
        if contacts and any(r.contact_mask is not None for r in batch):
            c = len(contacts)
            mask = np.stack([
                r.contact_mask if r.contact_mask is not None
                else np.ones((t_steps, c), dtype=bool)
                for r in batch
            ])
        plan = artifacts.rollout_plan(first.scheme, engine, backend_name)
        tracer = self.tracer if streamed and first.trace_id else None
        windows: list = []
        t_done = 0
        exec_start = time.perf_counter()
        w_t0 = exec_start
        for t0, t1, wres in plan.rollout_windows(
            model, q0, qd0, controls, dt=first.dt,
            window=first.window or t_steps,
            contacts=contacts, contact_mask=mask,
            f_ext=self._stack_f_ext(batch),
            sensitivities=first.sensitivities,
            cancelled=lambda: all(r.stream_cancelled() for r in batch),
        ):
            windows.append(wres)
            t_done = t1
            if not streamed:
                continue
            done = t1 >= t_steps
            for k, r in enumerate(batch):
                callback = r.on_window
                if callback is None or r.stream_cancelled():
                    continue
                try:
                    callback(t0, t1, wres.task(k), done)
                except Exception:
                    # A client callback must not poison its batchmates
                    # (or trip the shard's recovery ladder).
                    pass
            w_now = time.perf_counter()
            if tracer is not None:
                tracer.record(
                    "serve.window", w_t0, w_now - w_t0,
                    trace_id=first.trace_id,
                    args={"t0": t0, "t1": t1, "batch_size": n,
                          "shard": shard.index},
                )
            w_t0 = w_now
        exec_wall = time.perf_counter() - exec_start
        result = windows[0] if len(windows) == 1 else concat_windows(windows)
        profile = self._profile(artifacts, RBDFunction.FD, n, False,
                                config=accel_config)
        # Modeled cost: the scheme's FD passes are serial in t but
        # batched across tasks — T * stages pipeline fills of an n-batch,
        # counting only the knots simulated (a cancelled stream hands
        # back the unspent tail).
        passes = SCHEMES[first.scheme] * t_done
        makespan = profile.makespan_cycles * passes
        latency_cycles = profile.mean_latency_cycles * passes
        self._book_batch(shard, n, makespan, exec_wall, rows=n * t_done)
        modeled_s = accel_config.cycles_to_seconds(latency_cycles)
        now = time.monotonic()
        for k, r in enumerate(batch):
            if r.stream_cancelled() or t_done < t_steps:
                self._reject(r, StreamCancelledError(
                    f"rollout stream cancelled after {t_done}/{t_steps}"
                    f" knots (robot={r.robot!r})"
                ))
                continue
            self._resolve(r, RolloutServeResult(
                robot=r.robot,
                scheme=r.scheme,
                value=result.task(k),
                wall_latency_s=now - r.arrival_s,
                modeled_latency_cycles=latency_cycles,
                modeled_latency_s=modeled_s,
                modeled_makespan_cycles=makespan,
                horizon=t_steps,
                batch_size=n,
                shard=shard.index,
                engine=engine.name,
                backend=backend_name,
                windows=len(windows) if streamed else 0,
            ))
        return makespan
