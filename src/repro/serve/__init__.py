"""Dynamics-as-a-service runtime over the modeled Dadu-RBD accelerator.

Architecture — the life of a request::

            clients                      runtime                    execution
    ------------------------   --------------------------   ----------------------
    submit(robot, fn, q, ...)                                 ArtifactCache
        |                                                      (model, DaduRBD,
        v                                                       SAPS org, graphs,
    ServeRequest + Future ---> DynamicBatcher                   M sparsity, exec
                               key=(robot, fn)                  plan; built once
                               flush on full/timeout            per robot)
                                    |                                |
                                    v                                v
                               ShardPool.select()  ---------> batch_evaluate
                               round_robin | least_loaded     (compiled Table-I
                                    |                          kernels) + cycle
                                    |                          sim profile_batch
                                    v                                |
                               futures resolved  <-------------------+
                               in submission order;
                               MetricsRegistry records
                               p50/p95/p99, occupancy,
                               throughput

    * ``submit`` hands back a future immediately; the **dynamic batcher**
      coalesces same-``(robot, function)`` requests up to ``max_batch`` or
      ``max_wait_s`` (the latency/throughput knob), with a bounded queue
      providing backpressure (``ServiceOverloaded``).
    * A flushed batch lands on one **shard** — a modeled accelerator
      instance with its own cycle ledger — chosen round-robin or
      cost-aware least-loaded (backlog divided by the shard's throughput
      weight); a thread pool (one worker per shard) executes it.  Shards
      are heterogeneous by configuration: :class:`ShardConfig` pins an
      execution engine and array backend per shard (e.g. one
      ``"process"`` shard for multi-core batches next to a ``"compiled"``
      shard), and the engine/backend serving each batch is recorded in
      metrics and on :class:`ServeResult`.
    * The shard evaluates the batch through an **execution engine**
      (:mod:`repro.dynamics.engine`): by default the ``"native"``
      engine, which runs C generated per robot from its cached
      execution plan (:mod:`repro.dynamics.native`) and, for contact
      staging, the structure-compiled plan
      itself (:mod:`repro.dynamics.plan`) — level-scheduled recursions
      over preallocated workspaces.  Both are numerically identical to
      per-request :func:`repro.dynamics.functions.evaluate`; the
      ``"compiled"`` and ``"loop"`` engines and the ``"process"`` /
      ``"jit"`` engines remain selectable.  The batch's modeled makespan
      from :meth:`repro.core.accelerator.DaduRBD.profile_batch` is charged
      to the shard's ledger and the serving engine recorded in metrics.
    * Serial chains (RK4 sensitivity, Fig 13) bypass the batcher via
      :meth:`DynamicsService.submit_chain` and are timed with
      :func:`repro.core.scheduler.serial_chains` dependencies; urgent
      single requests (``submit(..., urgent=True)``) take the same bypass
      for deadline-bound clients.
    * Whole-trajectory rollouts (:meth:`DynamicsService.submit_rollout`)
      batch by (robot, scheme, dt, horizon, contact set) and execute as
      one ``(n, T, ...)`` slab through :mod:`repro.rollout` on the
      shard's engine.  Batching is horizon-aware — each rollout counts
      its horizon ``T`` against ``BatchPolicy.max_batch_cost`` and the
      shard pool's cost-weighted backlog — and per-rollout latency/step
      counts land in metrics.
    * The metrics registry measures real per-shard batch throughput
      (EWMA of rows per second of kernel wall time) and the service
      feeds it back into the ``least_loaded`` weights after every batch
      (:meth:`~repro.serve.pool.ShardPool.recalibrate_weights`) — the
      static per-engine priors only steer cold pools.
    * Per-robot derived state (parsed model, auto-fit accelerator build,
      SAPS organization, pipeline graphs, mass-matrix sparsity) lives in
      the **artifact cache**, built once and shared read-only by all
      shards.

Health & retry — what happens when execution fails::

                      shard executes batch
                             |
                       success? --yes--> futures resolved, breaker
                             |           failure streak reset
                             no
                             |
             record failure on shard (consecutive
             failures >= threshold => breaker OPENS:
             placement skips shard; flusher probes it
             after cooldown, success re-closes it)
                             |
         +-------------------+--------------------+
         |                   |                    |
    capability /        transient error      poison (ValueError/
    resource error      (retryable)          TypeError/KeyError,
         |                   |               or retries exhausted)
         v                   v                    |
    degrade shard       backoff+jitter,           v
    engine: jit ->      re-place through     bisect split-and-
    process ->          the pool (routes     retry: halves re-run
    compiled ->         around the open      until the bad request
    loop; re-run        breaker); at most    fails alone with
    in place            RetryPolicy          BatchExecutionError
                        .max_attempts        (__cause__ = original);
                                             neighbors still resolve

    Deadlines ride orthogonally: ``submit(..., deadline_s=...)`` sheds
    the request — future resolved with ``DeadlineExceededError`` — if
    it expires in the batcher (flusher sweep) or while its batch waits
    for a shard (dispatch-time check).  ``close()`` resolves any future
    still pending after the pool drains with ``ServeError("service
    shut down")``.  Chaos coverage: :mod:`repro.faults` injection
    points + ``benchmarks/bench_chaos.py`` (availability floor under
    injected shard faults).

Entry points: :class:`DynamicsService` (the facade),
``python -m repro serve-bench`` (CLI sweep), ``examples/serving.py``
(walkthrough), ``benchmarks/bench_serve.py`` (latency/throughput curves).
"""

from repro.serve.batcher import BatcherStats, BatchPolicy, DynamicBatcher
from repro.serve.bench import format_serve_table, run_serve_load
from repro.serve.cache import (
    ArtifactCache,
    CacheStats,
    RobotArtifacts,
    mass_matrix_sparsity,
)
from repro.serve.clients import ClientReport, ClosedLoopClient, OpenLoopClient
from repro.serve.metrics import LatencySummary, MetricsRegistry, Reservoir
from repro.serve.pool import (
    ShardConfig,
    ShardPool,
    ShardState,
    engine_throughput_hint,
)
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
from repro.serve.service import DynamicsService

__all__ = [
    "ArtifactCache",
    "BatchExecutionError",
    "BatchPolicy",
    "BatcherStats",
    "CacheStats",
    "DeadlineExceededError",
    "ClientReport",
    "ClosedLoopClient",
    "DynamicBatcher",
    "DynamicsService",
    "LatencySummary",
    "MetricsRegistry",
    "OpenLoopClient",
    "Reservoir",
    "RetryPolicy",
    "RobotArtifacts",
    "RolloutRequest",
    "RolloutServeResult",
    "ServeError",
    "ServeRequest",
    "ServeResult",
    "ServiceClosed",
    "ServiceOverloaded",
    "ShardConfig",
    "ShardPool",
    "ShardState",
    "StreamCancelledError",
    "engine_throughput_hint",
    "format_serve_table",
    "mass_matrix_sparsity",
    "run_serve_load",
]
