"""Dynamic batching: coalesce single-state requests into accelerator loads.

The paper's throughput numbers (Fig 15-17) assume batches of ~256 tasks
keeping the pipelines full; a service facing independent clients has to
*manufacture* those batches.  The batcher groups pending requests by
``(robot, function)`` — only same-key requests can share a pipeline pass —
and flushes a group when it reaches ``max_batch`` (flush-on-full) or when
its oldest request has waited ``max_wait_s`` (flush-on-timeout), the
classic latency/throughput knob.

The batcher is a passive, explicitly-clocked data structure: callers pass
``now`` into :meth:`add` / :meth:`poll_expired`, which makes the flush
policies deterministic under test and leaves thread ownership to the
service runtime.  A bounded total queue provides backpressure: beyond
``max_pending`` requests, :meth:`add` raises
:class:`~repro.serve.request.ServiceOverloaded` and the rejection is
counted.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.serve.request import ServeRequest, ServiceOverloaded


@dataclass(frozen=True)
class BatchPolicy:
    """The batcher's flush policy (the serve scheduler's configuration)."""

    max_batch: int = 64
    max_wait_s: float = 2e-3
    max_pending: int = 4096
    #: Horizon-aware flush budget: a group also flushes when the summed
    #: *cost* of its requests (1 per plain request, the horizon ``T`` per
    #: rollout) reaches this bound, so long-horizon rollouts coalesce
    #: into proportionally narrower ``(n, T)`` slabs.  ``None`` disables
    #: the budget (count-only flushing).
    max_batch_cost: int | None = 8192
    #: Ragged coalescing: when a queue flushes on timeout (or drain),
    #: fold in other pending *compatible* queues — plain requests for the
    #: same function on a different robot — up to ``max_batch``, so a
    #: heterogeneous-fleet load stops fragmenting into per-robot
    #: singleton batches.  The merged flush executes as one ragged batch
    #: (per-robot row segments; see
    #: :func:`repro.dynamics.batch.batch_evaluate_ragged`).
    coalesce: bool = False

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if self.max_pending < self.max_batch:
            raise ValueError("max_pending must be >= max_batch")
        if self.max_batch_cost is not None and self.max_batch_cost < 1:
            raise ValueError("max_batch_cost must be >= 1 (or None)")


@dataclass
class BatcherStats:
    """Counters describing how batches were formed."""

    accepted: int = 0
    rejected: int = 0
    flushed_full: int = 0
    flushed_timeout: int = 0
    flushed_drain: int = 0
    #: Requests that bypassed the batcher via the urgent fast path.
    urgent: int = 0
    #: Flushes that merged >= 2 distinct (robot, function) queues into
    #: one ragged batch (``BatchPolicy.coalesce``).
    flushed_merged: int = 0
    #: Requests shed from the pending queues because their deadline
    #: passed before they flushed (:meth:`DynamicBatcher.shed_expired`).
    shed: int = 0
    #: Total distinct queues drained across all flushes (== flush count
    #: when nothing merges; the fragmentation telemetry divides this by
    #: the flush count to report mean queues folded per batch).
    queues_flushed: int = 0
    #: Batch-occupancy histogram: flushed size -> count.
    occupancy: dict[int, int] = field(default_factory=dict)

    @property
    def flushes(self) -> int:
        return self.flushed_full + self.flushed_timeout + self.flushed_drain

    def record_flush(self, size: int, reason: str, queues: int = 1) -> None:
        self.occupancy[size] = self.occupancy.get(size, 0) + 1
        self.queues_flushed += queues
        if queues > 1:
            self.flushed_merged += 1
        if reason == "full":
            self.flushed_full += 1
        elif reason == "timeout":
            self.flushed_timeout += 1
        else:
            self.flushed_drain += 1


class DynamicBatcher:
    """Coalesces :class:`ServeRequest`s keyed by ``(robot, function)``."""

    def __init__(self, policy: BatchPolicy | None = None) -> None:
        self.policy = policy or BatchPolicy()
        #: Groups are keyed by each request's ``.key`` — ``(robot,
        #: function)`` for plain requests, the richer rollout identity
        #: (robot, scheme, dt, horizon, contacts) for rollouts; the
        #: batcher only requires the key to hash.
        self._pending: dict[tuple, list] = {}
        self._pending_total = 0
        #: Summed request ``cost`` per pending group (horizon-aware flush).
        self._cost_by_key: dict[tuple, int] = {}
        self._lock = threading.Lock()
        #: Count of pending requests carrying a deadline — lets the
        #: shed sweep and the flusher's tick tightening short-circuit
        #: when no queued request can expire (the common case).
        self._deadlines_pending = 0
        self.stats = BatcherStats()

    def __len__(self) -> int:
        with self._lock:
            return self._pending_total

    def add(self, request: ServeRequest, now: float,
            extra_pending: int = 0) -> list[ServeRequest] | None:
        """Queue a request; returns a flushed batch if its key filled up.

        Requests keep submission order within a key, so a returned batch's
        order matches the order in which its futures were handed out.
        ``extra_pending`` counts queued work held outside the batcher
        (the service's outstanding chains) against the same bound.
        """
        with self._lock:
            if self._pending_total + extra_pending >= self.policy.max_pending:
                self.stats.rejected += 1
                raise ServiceOverloaded(
                    f"request queue full ({self.policy.max_pending} pending)"
                )
            request.arrival_s = now
            key = request.key
            group = self._pending.setdefault(key, [])
            group.append(request)
            self._pending_total += 1
            cost = self._cost_by_key.get(key, 0) + getattr(request, "cost", 1)
            self._cost_by_key[key] = cost
            if getattr(request, "deadline_s", None) is not None:
                self._deadlines_pending += 1
            self.stats.accepted += 1
            budget = self.policy.max_batch_cost
            if len(group) >= self.policy.max_batch or (
                budget is not None and cost >= budget
            ):
                return self._flush_locked(key, "full")
            return None

    def poll_expired(self, now: float) -> list[list[ServeRequest]]:
        """Flush every key whose oldest request has waited ``max_wait_s``.

        With ``policy.coalesce`` each timeout flush also folds in other
        pending compatible queues (same function, different robot, plain
        requests) up to ``max_batch`` — those queues would otherwise sit
        until their own deadline and then fragment into separate small
        batches."""
        wait = self.policy.max_wait_s
        with self._lock:
            expired = [
                key for key, group in self._pending.items()
                if group and now - group[0].arrival_s >= wait
            ]
            if not self.policy.coalesce:
                return [self._flush_locked(key, "timeout") for key in expired]
            flushes = []
            for key in expired:
                if self._pending.get(key):   # not absorbed by an earlier merge
                    flushes.append(self._flush_coalesced_locked(key, "timeout"))
            return flushes

    @property
    def has_deadlines(self) -> bool:
        """True iff any pending request carries a deadline (cheap guard
        for the flusher's shed sweep)."""
        with self._lock:
            return self._deadlines_pending > 0

    def shed_expired(self, now: float) -> list[ServeRequest]:
        """Remove deadline-expired requests from the pending queues.

        Returns the shed requests so the caller (the service flusher)
        can resolve their futures with
        :class:`~repro.serve.request.DeadlineExceededError`; emptied
        queues are dropped entirely so they stop driving the flush
        clock.
        """
        with self._lock:
            if not self._deadlines_pending:
                return []
            shed: list[ServeRequest] = []
            for key in list(self._pending):
                group = self._pending[key]
                keep = [r for r in group if not r.expired(now)]
                if len(keep) == len(group):
                    continue
                expired = [r for r in group if r.expired(now)]
                shed.extend(expired)
                self._pending_total -= len(expired)
                self._deadlines_pending -= sum(
                    1 for r in expired
                    if getattr(r, "deadline_s", None) is not None
                )
                if keep:
                    self._pending[key] = keep
                    self._cost_by_key[key] = sum(
                        getattr(r, "cost", 1) for r in keep
                    )
                else:
                    del self._pending[key]
                    self._cost_by_key.pop(key, None)
            self.stats.shed += len(shed)
            return shed

    def drain(self) -> list[list[ServeRequest]]:
        """Flush everything (service shutdown)."""
        with self._lock:
            if not self.policy.coalesce:
                keys = [k for k, g in self._pending.items() if g]
                return [self._flush_locked(key, "drain") for key in keys]
            flushes = []
            while True:
                keys = [k for k, g in self._pending.items() if g]
                if not keys:
                    return flushes
                flushes.append(self._flush_coalesced_locked(keys[0], "drain"))

    def active_queues(self) -> int:
        """Number of distinct (robot, function) queues currently pending."""
        with self._lock:
            return sum(1 for g in self._pending.values() if g)

    def fragmentation(self) -> dict:
        """Queue fragmentation view: distinct active (robot, function)
        queues against the flushed-batch record.

        ``queues_per_flush`` is the mean number of distinct queues folded
        into each executed batch — 1.0 under the fragmented (per-key)
        policy, > 1.0 once ``coalesce`` merges heterogeneous-fleet
        traffic into ragged batches.
        """
        with self._lock:
            active = sum(1 for g in self._pending.values() if g)
            s = self.stats
            flushes = s.flushes
            return {
                "active_queues": active,
                "flushed_batches": flushes,
                "queues_flushed": s.queues_flushed,
                "flushed_merged": s.flushed_merged,
                "queues_per_flush": (
                    s.queues_flushed / flushes if flushes else 0.0
                ),
            }

    def next_deadline(self) -> float | None:
        """Earliest ``arrival_s + max_wait_s`` over all pending groups."""
        with self._lock:
            arrivals = [g[0].arrival_s for g in self._pending.values() if g]
            if not arrivals:
                return None
            return min(arrivals) + self.policy.max_wait_s

    def _pop_queue_locked(self, key: tuple) -> list[ServeRequest]:
        batch = self._pending.pop(key)
        self._cost_by_key.pop(key, None)
        self._pending_total -= len(batch)
        if self._deadlines_pending:
            self._deadlines_pending -= sum(
                1 for r in batch if getattr(r, "deadline_s", None) is not None
            )
        return batch

    @staticmethod
    def _mergeable(key: tuple, other: tuple) -> bool:
        """Queues that may share one ragged batch: plain-request keys
        (``(robot, function)``) for the same function.  Rollout keys and
        any richer identities never merge — their operands don't stack
        across keys."""
        return (
            len(key) == 2 and len(other) == 2 and key[1] == other[1]
        )

    def _flush_coalesced_locked(self, key: tuple,
                                reason: str) -> list[ServeRequest]:
        """Flush ``key`` and fold in compatible queues up to
        ``max_batch``; the result is queue-grouped (one contiguous
        per-robot run of requests per source queue), which is exactly
        the segment order the ragged execute path expects."""
        batch = self._pop_queue_locked(key)
        queues = 1
        for other in list(self._pending):
            if other == key or not self._mergeable(key, other):
                continue
            group = self._pending.get(other)
            if not group or len(batch) + len(group) > self.policy.max_batch:
                continue
            batch.extend(self._pop_queue_locked(other))
            queues += 1
        self.stats.record_flush(len(batch), reason, queues=queues)
        return batch

    def _flush_locked(self, key: tuple, reason: str) -> list[ServeRequest]:
        batch = self._pop_queue_locked(key)
        self.stats.record_flush(len(batch), reason)
        return batch

