"""Sharded execution: a pool of accelerator instances behind one queue.

One Dadu-RBD instance has a fixed sustained capacity (``clock / II`` per
function); serving beyond it means replicating the accelerator — the
multi-FPGA scaling the paper leaves to the host.  A :class:`ShardPool`
models ``n`` accelerator cards: each shard owns its modeled-cycle ledger,
and coalesced batches are placed on a shard by policy:

* ``round_robin`` — cyclic assignment, oblivious but fair for uniform
  batches;
* ``least_loaded`` — place on the shard with the smallest *cost-aware*
  outstanding backlog: in-flight requests and accumulated busy cycles,
  each divided by the shard's throughput weight.  With homogeneous
  shards this degenerates to the classic least-backlog rule; with
  heterogeneous shards (per-shard engines/backends via
  :class:`ShardConfig`) a fast shard absorbs proportionally more work
  before it stops being "least loaded".

Shards are heterogeneous by configuration: :class:`ShardConfig` names
the execution engine and array backend each shard evaluates batches
with (``None`` fields inherit the service defaults), plus an optional
explicit throughput weight; absent a weight the per-engine hints in
:func:`engine_throughput_hint` seed the cost model.

Execution is thread-pool backed (one worker per shard, so per-shard
serialization matches the hardware's one-batch-at-a-time pipeline fill).
Shards share the read-only :class:`~repro.serve.cache.ArtifactCache`
bundles — replicating a bitstream, not rebuilding it.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import AcceleratorConfig


def accelerator_desc(config: AcceleratorConfig | None) -> str:
    """Short human-readable tag for a per-shard accelerator override
    (``""`` when the shard inherits the service config) — recorded in
    placement-decision events and :meth:`ShardPool.describe` rows."""
    if config is None:
        return ""
    heavy = config.ii_target_heavy_cycles
    return (
        f"{config.clock_hz / 1e6:g}MHz/II{config.ii_target_cycles}"
        + (f"+{heavy}" if heavy is not None else "")
        + (f"x{config.sap_replicas}" if config.sap_replicas != 1 else "")
    )


@dataclass(frozen=True)
class ShardConfig:
    """Per-shard execution configuration.

    ``engine``
        Engine name this shard evaluates batches with (``"loop"``,
        ``"native"``, ``"compiled"``, ``"process"``, ``"jit"``); ``None``
        inherits the service's engine.
    ``backend``
        Array backend name for the shard's plans (:mod:`repro.backend`);
        ``None`` inherits the service's backend.  Only the compiled
        engine is backend-portable — host engines record ``"numpy"``.
    ``throughput_weight``
        Relative sustained-throughput estimate used by the cost-aware
        ``least_loaded`` policy; ``None`` falls back to the per-engine
        hint (:func:`engine_throughput_hint`).
    ``accelerator``
        Per-shard :class:`~repro.core.config.AcceleratorConfig` override
        — a pool may model heterogeneous cards (different clocks, II
        fits, SAP replica counts).  ``None`` inherits the service
        config.  The shard's cycle accounting, artifact bundles and
        modeled latencies all use the override; placement-decision
        events record it (:func:`accelerator_desc`).
    """

    engine: str | None = None
    backend: str | None = None
    throughput_weight: float | None = None
    accelerator: AcceleratorConfig | None = None


#: Relative single-batch throughput priors per engine, host-normalized to
#: the loop reference.  Deliberately coarse — they only have to order the
#: engines sensibly until real measurements arrive; an explicit
#: ``ShardConfig.throughput_weight`` always wins.
_ENGINE_HINTS = {
    "loop": 1.0,
    "compiled": 12.0,
    # Generated C for all seven functions (10-77x compiled at n = 1 on
    # bench_native, dFD included); only contact staging runs the plans.
    "native": 40.0,
    # Trace-compiled functional kernels: whole Table-I functions fused
    # by XLA, amortized after the first-call compile.
    "jit": 20.0,
}


def engine_throughput_hint(engine) -> float:
    """Throughput prior for an engine instance (by name, duck-typed).

    The process engine scales with its worker count; unknown engines get
    the neutral weight 1.0.
    """
    name = getattr(engine, "name", str(engine))
    if name == "process":
        workers = getattr(engine, "n_workers", None) or os.cpu_count() or 1
        return _ENGINE_HINTS["compiled"] * max(int(workers), 1)
    return _ENGINE_HINTS.get(name, 1.0)


@dataclass
class ShardState:
    """Load-accounting for one modeled accelerator instance."""

    index: int
    dispatched_batches: int = 0
    dispatched_requests: int = 0
    inflight: int = 0
    #: Requests dispatched to this shard and not yet executed — the unit
    #: the cost-aware placement divides by the throughput weight.
    inflight_requests: int = 0
    #: Cost-weighted backlog: plain requests count 1, rollouts count
    #: their horizon ``T`` (the number of serial engine steps they buy).
    inflight_cost: float = 0.0
    busy_cycles: float = 0.0
    #: Engine/backend this shard executes with (recorded by the service
    #: when it resolves the shard configs; placement and stats read it).
    engine_name: str = ""
    backend_name: str = ""
    #: Per-shard accelerator override tag (:func:`accelerator_desc`;
    #: ``""`` when the shard inherits the service config).
    accel_desc: str = ""
    #: Relative throughput estimate for cost-aware placement.  Seeded
    #: from the static per-engine prior; once the service measures real
    #: per-shard batch throughput the pool recalibrates it
    #: (:meth:`ShardPool.recalibrate_weights`).
    weight: float = 1.0
    #: The static prior the weight was seeded with (kept for shards that
    #: have no measurements yet during recalibration).
    prior_weight: float = 1.0
    #: True once :meth:`ShardPool.recalibrate_weights` replaced the prior
    #: with a measured value.
    weight_measured: bool = False
    #: Health state machine: ``healthy`` -> ``open`` (consecutive-failure
    #: breaker trips; placement skips the shard) -> ``half_open``
    #: (cooldown elapsed; one probe's worth of traffic allowed) ->
    #: ``healthy`` on success / back to ``open`` on failure.
    #: ``draining`` is the administrative state (graceful restart):
    #: placement skips the shard but queued work finishes.  ``removed``
    #: is terminal: the shard was scaled out of the pool (its slot stays
    #: so indices remain stable, but placement never returns).
    health: str = "healthy"
    #: Monotonic time the open breaker's cooldown elapses.
    breaker_open_until: float = 0.0
    consecutive_failures: int = 0
    failures_total: int = 0
    successes_total: int = 0
    breaker_opens: int = 0
    #: True while a background health probe is outstanding (guards
    #: against the flusher stacking probes on a slow shard).
    probe_inflight: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def begin(self, n_requests: int, cost: float | None = None) -> None:
        with self._lock:
            self.inflight += 1
            self.inflight_requests += n_requests
            self.inflight_cost += n_requests if cost is None else cost
            self.dispatched_batches += 1
            self.dispatched_requests += n_requests

    def finish(self, makespan_cycles: float, n_requests: int,
               cost: float | None = None) -> None:
        """Close out one batch; ``n_requests``/``cost`` must mirror
        :meth:`begin` (required, so a drifted call site fails loudly
        instead of leaking phantom inflight requests into the cost
        model)."""
        with self._lock:
            self.inflight -= 1
            self.inflight_requests -= n_requests
            self.inflight_cost -= n_requests if cost is None else cost
            self.busy_cycles += makespan_cycles

    def backlog(self) -> tuple[int, float]:
        with self._lock:
            return (self.inflight, self.busy_cycles)

    def set_weight(self, weight: float, measured: bool) -> None:
        with self._lock:
            self.weight = weight
            self.weight_measured = measured

    def record_success(self) -> None:
        """One batch (or probe) succeeded: reset the failure streak and
        close the breaker if it was probing (or still open — queued work
        finishing cleanly on a quarantined shard is equally good news)."""
        with self._lock:
            self.successes_total += 1
            self.consecutive_failures = 0
            if self.health in ("open", "half_open"):
                self.health = "healthy"
                self.breaker_open_until = 0.0

    def record_failure(self, threshold: int, cooldown_s: float,
                       now: float) -> bool:
        """One batch (or probe) failed; returns True iff this failure
        opened the breaker (threshold crossed, or a half-open probe
        failed).  An already-open breaker has its cooldown extended."""
        with self._lock:
            self.failures_total += 1
            self.consecutive_failures += 1
            if self.health == "draining":
                return False
            if self.health == "open":
                self.breaker_open_until = now + cooldown_s
                return False
            if (self.health == "half_open"
                    or self.consecutive_failures >= threshold):
                self.health = "open"
                self.breaker_open_until = now + cooldown_s
                self.breaker_opens += 1
                return True
            return False

    def selectable(self, now: float) -> bool:
        """Whether placement may route new work here.  An open breaker
        whose cooldown has elapsed transitions to ``half_open`` (probe
        traffic allowed) as a side effect of being asked."""
        with self._lock:
            if self.health in ("draining", "removed"):
                return False
            if self.health == "open":
                if now >= self.breaker_open_until:
                    self.health = "half_open"
                    return True
                return False
            return True

    def probe_due(self, now: float) -> bool:
        """Atomically claim a background-probe slot: True iff the shard
        is quarantined, its cooldown has elapsed, and no probe is
        already in flight (the claim sets :attr:`probe_inflight`)."""
        with self._lock:
            if (self.health in ("open", "half_open")
                    and now >= self.breaker_open_until
                    and not self.probe_inflight):
                self.probe_inflight = True
                return True
            return False

    def probe_done(self) -> None:
        with self._lock:
            self.probe_inflight = False

    def set_health(self, health: str) -> None:
        """Administratively force a health state (drain / restart)."""
        with self._lock:
            self.health = health
            if health == "healthy":
                self.consecutive_failures = 0
                self.breaker_open_until = 0.0

    def cost_score(self) -> tuple[float, float]:
        """Estimated time-to-drain, in throughput-weighted units.

        Primary key: queued request cost over the shard's throughput
        weight (a 4x-faster shard tolerates a 4x-deeper queue); busy
        cycles break ties the same way so an idle-but-historically-busy
        shard still ranks behind a fresh one.
        """
        with self._lock:
            w = self.weight if self.weight > 0 else 1.0
            return (self.inflight_cost / w, self.busy_cycles / w)


class ShardPool:
    """Dispatch batches onto ``n_shards`` modeled accelerator instances."""

    POLICIES = ("round_robin", "least_loaded")

    def __init__(self, n_shards: int = 2, policy: str = "round_robin",
                 shard_configs: list[ShardConfig] | None = None,
                 placement_log_capacity: int = 256,
                 breaker_threshold: int = 3,
                 breaker_cooldown_s: float = 0.05) -> None:
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if breaker_cooldown_s < 0:
            raise ValueError("breaker_cooldown_s must be >= 0")
        #: Consecutive failures that trip a shard's circuit breaker, and
        #: how long the quarantine lasts before a probe is allowed.
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        if shard_configs:
            # An explicit config list defines the pool size.
            n_shards = len(shard_configs)
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {self.POLICIES}"
            )
        self.policy = policy
        self.shard_configs = tuple(
            shard_configs or (ShardConfig(),) * n_shards
        )
        self.shards = [ShardState(i) for i in range(n_shards)]
        self._rr_next = 0
        self._lock = threading.Lock()
        #: Elastic-pool event log: every :meth:`add_shard` /
        #: :meth:`remove_shard` appends ``{"action", "shard", "t_s",
        #: "active", "reason"}`` (the autoscaler's audit trail, exposed
        #: through the service's admin schema and telemetry).
        self._scale_events: list[dict] = []
        #: Bounded log of placement decisions: which shard won, why, and
        #: the cost scores at decision time (``least_loaded`` records the
        #: whole scoreboard; ``round_robin`` has no scores to record).
        self._placement_log: deque = deque(maxlen=placement_log_capacity)
        self._placement_seq = 0
        # One single-worker executor per shard: batches placed on a shard
        # execute one at a time, in placement order, like the hardware's
        # one-pipeline-fill-at-a-time — a shared pool would let a queued
        # batch jump to whichever worker frees up first.
        self._executors = [
            ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"repro-serve-shard{i}"
            )
            for i in range(n_shards)
        ]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_active(self) -> int:
        """Shards still in the pool (everything not scaled ``removed``)."""
        return sum(1 for s in self.shards if s.health != "removed")

    def scale_events(self) -> list[dict]:
        """Elastic-pool add/remove decisions, oldest first."""
        with self._lock:
            return list(self._scale_events)

    def _record_scale_locked(self, action: str, index: int,
                             reason: str) -> None:
        self._scale_events.append({
            "action": action,
            "shard": index,
            "t_s": time.monotonic(),
            "active": sum(1 for s in self.shards if s.health != "removed"),
            "reason": reason,
        })

    def add_shard(self, config: ShardConfig | None = None,
                  reason: str = "manual") -> ShardState:
        """Grow the pool by one shard (a fresh modeled accelerator card
        with its own executor); returns the new :class:`ShardState`.

        The caller (:meth:`DynamicsService.scale_up`) must have resolved
        the shard's engine/backend *before* calling, so the shard is
        fully servable the moment placement can see it.
        """
        config = config or ShardConfig()
        with self._lock:
            index = len(self.shards)
            shard = ShardState(index)
            self.shard_configs = self.shard_configs + (config,)
            self._executors.append(ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"repro-serve-shard{index}"
            ))
            self.shards.append(shard)
            self._record_scale_locked("add", index, reason)
        return shard

    def remove_shard(self, index: int, wait_s: float = 2.0,
                     reason: str = "manual") -> bool:
        """Drain-before-remove: stop placement, let queued work finish
        (up to ``wait_s``), then retire the shard permanently.

        Returns True iff the shard drained clean within the wait.  The
        slot stays in :attr:`shards` with health ``removed`` so shard
        indices (metrics, placement events, service-side engine tables)
        stay stable; its executor is shut down without cancelling queued
        work, so a slow drain still completes — it just finishes after
        removal.
        """
        shard = self.shards[index]
        self.drain(index, wait_s=wait_s)
        clean = shard.backlog()[0] == 0
        shard.set_health("removed")
        with self._lock:
            self._record_scale_locked("remove", index, reason)
        self._executors[index].shutdown(wait=False)
        return clean

    def select(self) -> ShardState:
        """Pick the shard the next batch lands on."""
        with self._lock:
            return self._select_locked(time.monotonic())[0]

    def _select_locked(self, now: float) -> tuple[ShardState, list | None]:
        """Pick a shard among the healthy ones; also returns the
        per-shard cost scoreboard the decision was based on (``None``
        for round-robin).

        Shards with an open breaker or in administrative drain are
        skipped.  If *every* shard is unavailable the pool degrades to
        placing on the non-draining shards anyway (serving degraded
        beats deadlocking the whole service); only when literally all
        shards are draining does it fall back to the full set.
        """
        eligible = [s for s in self.shards if s.selectable(now)]
        if not eligible:
            eligible = [
                s for s in self.shards
                if s.health not in ("draining", "removed")
            ]
        if not eligible:
            # Literally everything is draining/removed: fall back to the
            # draining shards before the removed ones (whose executors
            # may already be gone).
            eligible = ([s for s in self.shards if s.health != "removed"]
                        or self.shards)
        if self.policy == "round_robin":
            for _ in range(len(self.shards)):
                shard = self.shards[self._rr_next]
                self._rr_next = (self._rr_next + 1) % len(self.shards)
                if shard in eligible:
                    return shard, None
            return eligible[0], None
        scores = [s.cost_score() for s in self.shards]
        best = min(
            (i for i, s in enumerate(self.shards) if s in eligible),
            key=scores.__getitem__,
        )
        return self.shards[best], scores

    def record_result(self, shard: ShardState, ok: bool) -> bool:
        """Feed one batch/probe outcome into the shard's breaker;
        returns True iff this failure opened the breaker."""
        if ok:
            shard.record_success()
            return False
        return shard.record_failure(
            self.breaker_threshold, self.breaker_cooldown_s, time.monotonic()
        )

    def drain(self, index: int, wait_s: float | None = None) -> None:
        """Gracefully drain one shard: placement stops routing to it,
        queued work finishes.  ``wait_s`` optionally blocks until the
        shard's in-flight count hits zero (or the wait elapses)."""
        shard = self.shards[index]
        shard.set_health("draining")
        if wait_s is not None:
            deadline = time.monotonic() + wait_s
            while shard.backlog()[0] > 0 and time.monotonic() < deadline:
                time.sleep(1e-3)

    def restart(self, index: int) -> None:
        """Return a drained (or quarantined) shard to service with a
        clean failure record.  Removed shards are gone for good — their
        executor is shut down; grow the pool with :meth:`add_shard`."""
        if self.shards[index].health == "removed":
            raise ValueError(
                f"shard {index} was removed from the pool and cannot be "
                "restarted; add a new shard instead"
            )
        self.shards[index].set_health("healthy")

    def _log_placement_locked(self, shard: ShardState,
                              scores: list | None, n_requests: int,
                              cost: float | None, segments: int,
                              reason: str = "policy") -> None:
        self._placement_log.append({
            "seq": self._placement_seq,
            "shard": shard.index,
            "policy": self.policy,
            # "policy" for normal selection; "pinned"/"probe"/"retry"
            # for targeted dispatches (dispatch_to).
            "reason": reason,
            "n_requests": n_requests,
            "cost": float(n_requests if cost is None else cost),
            # Ragged placements carry > 1 per-robot segment; the event
            # records how fragmented the placed batch was.
            "segments": segments,
            "accelerator": shard.accel_desc,
            "scores": (
                None if scores is None
                else [[float(a), float(b)] for a, b in scores]
            ),
            "weights": [s.weight for s in self.shards],
            #: Pool health at decision time — chaos runs read breaker
            #: transitions straight off the placement record.
            "health": [s.health for s in self.shards],
        })
        self._placement_seq += 1

    def placement_events(self) -> list[dict]:
        """The retained placement decisions, oldest first."""
        with self._lock:
            return list(self._placement_log)

    def dispatch(self, n_requests: int,
                 work: Callable[[ShardState], float],
                 cost: float | None = None,
                 segments: int = 1) -> Future:
        """Run ``work(shard)`` on the pool; ``work`` returns the batch's
        modeled makespan in cycles, credited to the shard's ledger.
        ``cost`` is the batch's placement weight (defaults to the request
        count; rollout batches pass their summed horizons); ``segments``
        is the batch's per-robot segment count (> 1 for coalesced ragged
        batches), recorded in the placement event."""
        with self._lock:
            # select+begin must be atomic: two concurrent dispatchers
            # (flusher and a flush-on-full submit) would otherwise both
            # read the same "least loaded" shard before either claims it.
            shard, scores = self._select_locked(time.monotonic())
            shard.begin(n_requests, cost)
            self._log_placement_locked(shard, scores, n_requests, cost,
                                       segments)
        return self._submit(shard, work, n_requests, cost)

    def dispatch_to(self, index: int, n_requests: int,
                    work: Callable[[ShardState], float],
                    cost: float | None = None,
                    reason: str = "pinned") -> Future:
        """Run ``work`` on a *specific* shard, bypassing placement —
        health probes and targeted tests use this (an open breaker only
        heals by executing something on the quarantined shard)."""
        shard = self.shards[index]
        with self._lock:
            shard.begin(n_requests, cost)
            self._log_placement_locked(shard, None, n_requests, cost, 1,
                                       reason=reason)
        return self._submit(shard, work, n_requests, cost)

    def _submit(self, shard: ShardState, work, n_requests: int,
                cost: float | None) -> Future:
        def run() -> float:
            makespan = 0.0
            try:
                makespan = work(shard)
                return makespan
            finally:
                shard.finish(makespan, n_requests, cost)

        try:
            return self._executors[shard.index].submit(run)
        except RuntimeError:
            # The executor is already shut down (a retry raced close()):
            # undo the ledger claim so the shard doesn't leak phantom
            # inflight cost, and let the caller fail the batch.
            shard.finish(0.0, n_requests, cost)
            raise

    def recalibrate_weights(self, measured_rps: dict[int, float]) -> None:
        """Feed measured per-shard throughput back into the cost weights.

        ``measured_rps`` maps shard index -> measured sustained request
        throughput (the :class:`~repro.serve.metrics.MetricsRegistry`
        per-shard EWMA).  Measured shards get weights proportional to
        their real throughput; shards without measurements keep their
        static prior, rescaled into the same units so mixed pools still
        compare sensibly.  Once every shard has measurements the static
        per-engine priors are fully out of the loop.
        """
        measured = {
            i: r for i, r in measured_rps.items()
            if r > 0 and 0 <= i < len(self.shards)
        }
        if not measured:
            return
        prior_sum = sum(self.shards[i].prior_weight for i in measured)
        rps_sum = sum(measured.values())
        # Scale measured rates into prior units so unmeasured shards'
        # priors remain comparable during the transition.
        scale = prior_sum / rps_sum if rps_sum > 0 else 1.0
        for index, rps in measured.items():
            self.shards[index].set_weight(rps * scale, measured=True)

    def busy_cycles(self) -> list[float]:
        return [s.backlog()[1] for s in self.shards]

    def describe(self) -> list[dict]:
        """Per-shard placement view: engine, backend, weight, ledger."""
        return [
            {
                "shard": s.index,
                "engine": s.engine_name,
                "backend": s.backend_name,
                "accelerator": s.accel_desc,
                "weight": s.weight,
                "weight_measured": s.weight_measured,
                "dispatched_requests": s.dispatched_requests,
                "busy_cycles": s.backlog()[1],
                "health": s.health,
                "consecutive_failures": s.consecutive_failures,
                "failures": s.failures_total,
                "breaker_opens": s.breaker_opens,
            }
            for s in self.shards
        ]

    def shutdown(self) -> None:
        for executor in self._executors:
            executor.shutdown(wait=True)
