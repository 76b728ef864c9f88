"""Async gateway: awaitable submissions over the thread-based service.

:class:`AsyncGateway` is the in-process bridge between asyncio clients
and the synchronous :class:`~repro.serve.service.DynamicsService`.  It
adds exactly three things on top of the service's future-based API:

* **Awaitability** — ``await gateway.submit(...)`` wraps the service's
  ``concurrent.futures.Future`` with :func:`asyncio.wrap_future`, so
  thousands of coroutine clients can multiplex over one event loop
  while shard threads resolve results underneath.
* **Admission** — every submission passes the
  :class:`~repro.aserve.admission.AdmissionController` gate first:
  token-bucket rate limiting (cost-weighted — rollouts cost their
  horizon), per-tenant inflight caps, and priority classes
  (``interactive`` tenants ride the service's urgent bypass; tenant
  default deadlines feed the service's deadline shedding).
* **Streaming** — :meth:`stream_rollout` exposes the service's
  windowed rollouts as an async iterator: windows computed on the
  shard thread are handed across the thread/loop boundary with
  ``call_soon_threadsafe`` onto an :class:`asyncio.Queue`, and
  cancelling the stream hands the unsimulated tail back to the pool.

The gateway is also what the socket server (:mod:`repro.aserve.server`)
speaks to — out-of-process clients get the same admission and
streaming semantics over the wire.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from repro.aserve.admission import AdmissionController, TenantPolicy
from repro.serve.request import StreamCancelledError
from repro.serve.service import DynamicsService

__all__ = ["AsyncGateway", "RolloutStream", "StreamWindow"]


@dataclass(frozen=True)
class StreamWindow:
    """One delivered window of a streaming rollout."""

    t0: int
    t1: int
    #: The window's :class:`~repro.rollout.TaskTrajectory` slice for
    #: this request's task (states carry the window's leading knot).
    trajectory: object
    #: True on the final window of the horizon.
    done: bool


class RolloutStream:
    """Async iterator over a streaming rollout's windows.

    Iterate to receive :class:`StreamWindow` records as the shard
    computes them; ``await stream.result()`` afterwards (or instead)
    for the final :class:`~repro.serve.request.RolloutServeResult`
    carrying the full reassembled trajectory.  ``stream.cancel()``
    abandons the tail: iteration ends and ``result()`` raises
    :class:`~repro.serve.request.StreamCancelledError`.

    Windows are enqueued from the shard thread via
    ``call_soon_threadsafe`` *before* the future resolves, so iteration
    always sees every delivered window before the end-of-stream
    sentinel.
    """

    _DONE = object()

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._queue: asyncio.Queue = asyncio.Queue()
        self._future = None          # concurrent.futures.Future
        self._aio_future = None      # asyncio wrapper
        self._cancelled = False
        self._exhausted = False

    # -- shard-thread side --------------------------------------------

    def _deliver(self, t0: int, t1: int, trajectory, done: bool) -> None:
        """on_window callback (runs on the shard thread)."""
        self._post(StreamWindow(t0, t1, trajectory, done))

    def _finish(self, _future) -> None:
        """Future done-callback: post the end-of-stream sentinel."""
        self._post(self._DONE)

    def _post(self, item) -> None:
        try:
            self._loop.call_soon_threadsafe(self._queue.put_nowait, item)
        except RuntimeError:
            pass        # loop already closed; consumer is gone anyway

    # -- consumer side -------------------------------------------------

    def _bind(self, future) -> None:
        self._future = future
        self._aio_future = asyncio.wrap_future(future, loop=self._loop)
        # Swallow "exception never retrieved" for consumers that only
        # iterate (StopAsyncIteration already conveys the outcome).
        self._aio_future.add_done_callback(
            lambda f: f.cancelled() or f.exception()
        )
        future.add_done_callback(self._finish)

    def cancel(self) -> None:
        """Abandon the unsimulated tail (see ``cancel_stream``)."""
        self._cancelled = True
        if self._future is not None:
            self._future.cancel_stream()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    async def result(self):
        """The final :class:`RolloutServeResult` (full trajectory)."""
        value = await asyncio.shield(self._aio_future)
        if self._cancelled:
            # The shard finished before the cancel reached it; the
            # consumer abandoned the tail all the same.
            raise StreamCancelledError(
                f"rollout stream cancelled after {value.horizon}/"
                f"{value.horizon} knots (robot={value.robot!r})")
        return value

    def __aiter__(self) -> "RolloutStream":
        return self

    async def __anext__(self) -> StreamWindow:
        if self._exhausted:
            raise StopAsyncIteration
        while True:
            item = await self._queue.get()
            if item is self._DONE:
                self._exhausted = True
                exc = self._future.exception()
                if exc is None or isinstance(exc, StreamCancelledError):
                    # Normal end of stream, or the tail this consumer
                    # asked to abandon — either way, iteration just ends.
                    raise StopAsyncIteration
                raise exc
            if self._cancelled:
                # A window raced the cancel across the thread boundary;
                # drop it and wait for the sentinel.
                continue
            return item


class AsyncGateway:
    """Awaitable, admission-controlled facade over a DynamicsService."""

    def __init__(self, service: DynamicsService,
                 admission: AdmissionController | None = None) -> None:
        self.service = service
        self.admission = admission or AdmissionController()

    # -- tenant management --------------------------------------------

    def set_policy(self, tenant: str, policy: TenantPolicy) -> None:
        self.admission.set_policy(tenant, policy)

    # -- internals -----------------------------------------------------

    def _admit(self, tenant: str, cost: float,
               deadline_s: float | None,
               urgent: bool | None) -> tuple[float | None, bool]:
        """Run the admission gate; returns the effective (deadline,
        urgent) after applying tenant policy defaults.  Raises
        RateLimitedError / ClientOverloaded on refusal."""
        t0 = time.perf_counter()
        policy = self.admission.admit(tenant, cost)
        tracer = self.service.tracer
        if tracer is not None:
            tracer.record("aserve.admission", t0,
                          time.perf_counter() - t0,
                          args={"tenant": tenant, "cost": cost,
                                "priority": policy.priority})
        if deadline_s is None:
            deadline_s = policy.deadline_s
        if urgent is None:
            urgent = policy.urgent
        return deadline_s, urgent

    def _released(self, tenant: str, future):
        """Release the tenant's inflight slot when the future resolves."""
        future.add_done_callback(lambda f: self.admission.release(tenant))
        return future

    # -- client API ----------------------------------------------------

    async def submit(self, robot: str, function, q, qd=None, u=None, *,
                     tenant: str = "default", minv=None, f_ext=None,
                     deadline_s: float | None = None,
                     urgent: bool | None = None):
        """``await`` one dynamics evaluation; returns a ServeResult.

        ``urgent=None`` defers to the tenant's priority class
        (interactive tenants bypass the batcher); likewise a ``None``
        deadline inherits the tenant's default, propagating into the
        service's deadline shedding.
        """
        deadline_s, urgent = self._admit(tenant, 1.0, deadline_s, urgent)
        try:
            future = self.service.submit(
                robot, function, q, qd=qd, u=u, minv=minv, f_ext=f_ext,
                urgent=urgent, deadline_s=deadline_s,
            )
        except Exception:
            self.admission.release(tenant)
            raise
        return await asyncio.wrap_future(self._released(tenant, future))

    async def submit_rollout(self, robot: str, q0, qd0, controls,
                             dt: float, *, scheme: str = "semi_implicit",
                             tenant: str = "default", contacts=None,
                             contact_mask=None, f_ext=None,
                             sensitivities: bool = False,
                             deadline_s: float | None = None,
                             urgent: bool | None = None):
        """``await`` one whole-trajectory rollout (non-streaming)."""
        cost = float(np.asarray(controls).shape[-2])
        deadline_s, urgent = self._admit(tenant, cost, deadline_s, urgent)
        try:
            future = self.service.submit_rollout(
                robot, q0, qd0, controls, dt, scheme=scheme,
                contacts=contacts, contact_mask=contact_mask, f_ext=f_ext,
                sensitivities=sensitivities, urgent=urgent,
                deadline_s=deadline_s,
            )
        except Exception:
            self.admission.release(tenant)
            raise
        return await asyncio.wrap_future(self._released(tenant, future))

    async def stream_rollout(self, robot: str, q0, qd0, controls,
                             dt: float, *, window: int,
                             scheme: str = "semi_implicit",
                             tenant: str = "default", contacts=None,
                             contact_mask=None, f_ext=None,
                             deadline_s: float | None = None,
                             urgent: bool | None = None) -> RolloutStream:
        """Submit a streaming rollout; returns a :class:`RolloutStream`.

        The coroutine returns as soon as the rollout is admitted and
        enqueued — windows arrive through the stream as the shard
        computes them, so a closed-loop client can act on the first
        ``window`` knots while the tail is still simulating (and
        ``stream.cancel()`` the rest once it has re-planned).
        """
        cost = float(np.asarray(controls).shape[-2])
        deadline_s, urgent = self._admit(tenant, cost, deadline_s, urgent)
        loop = asyncio.get_running_loop()
        stream = RolloutStream(loop)
        try:
            future = self.service.submit_rollout(
                robot, q0, qd0, controls, dt, scheme=scheme,
                contacts=contacts, contact_mask=contact_mask, f_ext=f_ext,
                urgent=urgent, deadline_s=deadline_s,
                window=window, on_window=stream._deliver,
            )
        except Exception:
            self.admission.release(tenant)
            raise
        stream._bind(self._released(tenant, future))
        return stream

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        """Gateway view: service stats plus per-tenant admission rows."""
        return {
            "service": self.service.stats(),
            "tenants": self.admission.stats(),
        }
