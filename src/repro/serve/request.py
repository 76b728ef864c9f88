"""Request/response records and errors for the dynamics service.

A :class:`ServeRequest` is the service-level analogue of the accelerator's
:class:`repro.core.functions.TaskRequest`: one dynamics evaluation for one
robot, carried together with the bookkeeping the runtime needs (arrival
time, future, chain membership).  Results come back as
:class:`ServeResult`, which pairs the functional value with both clocks
the service tracks — host wall time and modeled accelerator cycles.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.dynamics.functions import RBDFunction
from repro.errors import ReproError


class ServeError(ReproError):
    """Base class for service-runtime errors."""


class ServiceOverloaded(ServeError):
    """The bounded request queue is full; the request was rejected."""


class ServiceClosed(ServeError):
    """The service has been shut down and accepts no new requests."""


class DeadlineExceededError(ServeError):
    """The request's deadline passed before execution; it was shed.

    Shedding happens in two places: the flusher sweeps expired requests
    out of the batcher's pending queues, and the shard worker re-checks
    at dispatch time (a request can expire while its batch waits in a
    shard's one-at-a-time execution queue)."""


class StreamCancelledError(ServeError):
    """A streaming rollout was cancelled by its consumer mid-stream.

    The request's future resolves with this error instead of a full
    trajectory; the unsimulated tail of the rollout is abandoned, so a
    closed-loop client that re-plans after the first windows hands the
    shard back instead of paying for knots nobody will read."""


class BatchExecutionError(ServeError):
    """A coalesced batch failed to execute.

    Carries the batch's request context — which robot/function, how many
    requests were coalesced, which shard ran it, how many attempts were
    made — so a client holding one future can see which batch took it
    down.  The original failure is chained as ``__cause__``.
    """

    def __init__(self, message: str, *, robot: str = "",
                 function: str = "", batch_size: int = 0,
                 shard: int = -1, attempts: int = 1) -> None:
        super().__init__(message)
        self.robot = robot
        self.function = function
        self.batch_size = batch_size
        self.shard = shard
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """Retry discipline for failed batch executions.

    A failed batch is retried up to ``max_attempts`` total executions
    when its failure looks transient, with exponential backoff
    (``backoff_s * backoff_multiplier**(attempt-1)``) spread by
    ``jitter`` (a ±fraction drawn from the service's seeded RNG, so
    retry storms decorrelate deterministically).  Retries are
    *re-placed* through the shard pool, so a retry routes around the
    shard whose breaker the failure just opened.

    Failure classification: an exception carrying a boolean
    ``retryable`` attribute (e.g. :class:`repro.faults.InjectedFault`)
    is believed; otherwise anything not in ``non_retryable`` is treated
    as transient.  The default non-retryable set is the poison shapes —
    malformed operands raise ``ValueError``/``TypeError``/``KeyError``,
    and re-running those can only fail again (they go to bisect
    isolation instead).
    """

    max_attempts: int = 3
    backoff_s: float = 1e-3
    backoff_multiplier: float = 2.0
    jitter: float = 0.25
    non_retryable: tuple = (ValueError, TypeError, KeyError)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def is_retryable(self, exc: BaseException) -> bool:
        flagged = getattr(exc, "retryable", None)
        if flagged is not None:
            return bool(flagged)
        return not isinstance(exc, self.non_retryable)

    def backoff_for(self, attempt: int, rng=None) -> float:
        """Backoff before retry ``attempt`` (1-based), with jitter."""
        base = self.backoff_s * self.backoff_multiplier ** max(attempt - 1, 0)
        if rng is None or self.jitter == 0.0:
            return base
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


@dataclass
class ServeRequest:
    """One dynamics evaluation submitted to the service."""

    robot: str
    function: RBDFunction
    q: np.ndarray
    qd: np.ndarray | None = None
    #: ``qdd`` for ID/dID/diFD, ``tau`` for FD/dFD (the accelerator's
    #: shared third operand).
    u: np.ndarray | None = None
    minv: np.ndarray | None = None          # for diFD
    #: External forces: link index -> ``(6,)`` spatial force in the link
    #: frame.  Stacked per batch by the service and threaded through
    #: ``batch_evaluate`` (requests without forces ride in the same batch
    #: with zero stacks).
    f_ext: dict[int, np.ndarray] | None = None
    #: Wall-clock submission time (``time.monotonic``), set by the service.
    arrival_s: float = 0.0
    #: Per-request deadline, seconds from arrival.  Expired requests are
    #: shed (resolved with
    #: :class:`~repro.serve.request.DeadlineExceededError`) instead of
    #: executed; ``None`` means no deadline.
    deadline_s: float | None = None
    #: Number of times this request has been executed and failed (the
    #: retry machinery's counter; compared against
    #: :attr:`RetryPolicy.max_attempts`).
    attempts: int = 0
    #: Chain membership: requests sharing a chain id execute serially in
    #: ``sequence`` order on one shard (RK4-style sensitivity steps).
    chain: int | None = None
    sequence: int = 0
    #: Urgent requests bypass the dynamic batcher entirely (deadline-bound
    #: closed-loop clients must not pay ``max_wait_s`` under sparse load).
    urgent: bool = False
    #: Request trace ID (set at submission when the service has a
    #: :class:`~repro.obs.Tracer`) and the matching ``perf_counter``
    #: submission timestamp — the anchor for the retroactive queue span.
    trace_id: str | None = None
    trace_t0: float = 0.0
    future: Future = field(default_factory=Future, repr=False)

    @property
    def key(self) -> tuple[str, RBDFunction]:
        """The dynamic batcher's coalescing key."""
        return (self.robot, self.function)

    @property
    def cost(self) -> int:
        """Batching cost weight (one pipeline task)."""
        return 1

    def expired(self, now: float) -> bool:
        """True once the per-request deadline has passed."""
        return (self.deadline_s is not None
                and now - self.arrival_s >= self.deadline_s)


@dataclass
class RolloutRequest:
    """One whole-trajectory simulation submitted to the service.

    Unlike a :class:`ServeRequest` (one pipeline pass), a rollout costs
    ``T`` serial engine steps; its batching ``cost`` is therefore the
    horizon, which the dynamic batcher's ``max_batch_cost`` budget and
    the shard pool's cost-aware placement both account for.
    """

    robot: str
    scheme: str
    q0: np.ndarray                     # (nv,)
    qd0: np.ndarray                    # (nv,)
    controls: np.ndarray               # (T, nv)
    dt: float
    #: Contact points (tuple so the coalescing key can hash them) plus an
    #: optional per-step activation mask ``(T, c)``.
    contacts: tuple = ()
    contact_mask: np.ndarray | None = None
    #: External forces applied at every step: link index -> ``(6,)``
    #: spatial force in the link frame (stacked per batch by the service;
    #: the rollout engine already accepts per-task stacks).
    f_ext: dict[int, np.ndarray] | None = None
    sensitivities: bool = False
    #: Streaming window: when set, the rollout executes (and its batch's
    #: futures resolve) per window of this many knots — ``on_window`` is
    #: invoked after each completed window with
    #: ``(t0, t1, TaskTrajectory, done)`` and the future still resolves
    #: with the full reassembled trajectory at the end.  Part of the
    #: coalescing key (only same-window rollouts share a slab).
    window: int | None = None
    #: Per-window delivery callback (called on the shard thread; must be
    #: cheap and must not raise — exceptions are swallowed so a client
    #: callback cannot poison its batchmates).
    on_window: object | None = None
    arrival_s: float = 0.0
    #: Per-request deadline, seconds from arrival (see
    #: :attr:`ServeRequest.deadline_s`).
    deadline_s: float | None = None
    #: Failed-execution count (see :attr:`ServeRequest.attempts`).
    attempts: int = 0
    urgent: bool = False
    #: Mid-stream cancellation flag (streaming rollouts only): set via
    #: :meth:`cancel_stream`; the rollout executor stops simulating once
    #: every live request in the batch is cancelled and resolves the
    #: cancelled futures with :class:`StreamCancelledError`.
    _cancel: threading.Event = field(default_factory=threading.Event,
                                     repr=False)
    #: Trace ID + ``perf_counter`` submission timestamp (see
    #: :class:`ServeRequest`).
    trace_id: str | None = None
    trace_t0: float = 0.0
    future: Future = field(default_factory=Future, repr=False)

    @property
    def horizon(self) -> int:
        return self.controls.shape[0]

    @property
    def cost(self) -> int:
        """Batching cost weight: one engine step per horizon step."""
        return self.horizon

    @property
    def key(self) -> tuple:
        """Coalescing key: only rollouts sharing integrator, step size,
        horizon, contact set and streaming window can ride one
        ``(n, T, ...)`` slab."""
        from repro.dynamics.contact_batch import contact_signature

        return ("rollout", self.robot, self.scheme, self.dt, self.horizon,
                contact_signature(self.contacts), self.sensitivities,
                self.window)

    def cancel_stream(self) -> None:
        """Ask the rollout executor to stop simulating this rollout."""
        self._cancel.set()

    def stream_cancelled(self) -> bool:
        return self._cancel.is_set()

    def expired(self, now: float) -> bool:
        """True once the per-request deadline has passed."""
        return (self.deadline_s is not None
                and now - self.arrival_s >= self.deadline_s)


@dataclass
class RolloutServeResult:
    """One task's trajectory plus the service-level accounting."""

    robot: str
    scheme: str
    #: The per-task :class:`repro.rollout.TaskTrajectory` slice.
    value: object
    wall_latency_s: float
    modeled_latency_cycles: float
    modeled_latency_s: float
    modeled_makespan_cycles: float
    horizon: int
    #: Number of whole rollouts coalesced into the executed slab.
    batch_size: int
    shard: int
    engine: str = ""
    backend: str = ""
    #: Streaming delivery record: number of windows streamed before the
    #: future resolved (0 for non-windowed rollouts).
    windows: int = 0


@dataclass
class ServeResult:
    """Functional output plus the two latency views the service records."""

    robot: str
    function: RBDFunction
    value: object
    #: End-to-end host latency: submission to future resolution.
    wall_latency_s: float
    #: Modeled accelerator latency of this request inside its batch
    #: (queue wait is host-side and excluded, as in Fig 15's protocol).
    modeled_latency_cycles: float
    modeled_latency_s: float
    #: Modeled completion time of the whole coalesced batch (for serial
    #: chains this is where the chain's serialization cost shows up).
    modeled_makespan_cycles: float
    #: Size of the coalesced batch this request rode in.
    batch_size: int
    #: Shard that executed the batch.
    shard: int
    #: Name of the execution engine that served the batch (see
    #: :mod:`repro.dynamics.engine`).
    engine: str = ""
    #: Array backend the batch executed on (see :mod:`repro.backend`).
    backend: str = ""
