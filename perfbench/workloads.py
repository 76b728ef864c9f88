"""The workloads: inputs from a seed, set-up, references, timed phase.

Each workload object follows the same life cycle::

    w = WORKLOADS[name](seed)
    w.setup()              # timed as setup_s: robots, plans, service, warm-up
    w.references()         # loop-engine references (outside setup_s)
    w.run(seconds, ledger) # the timed phase; every op checked
    w.close()

The program receives only generated inputs; every reference comes from
the scalar ``loop`` engine on the same seeded rows.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np

import spec
from harness import Ledger, matches
from repro.aserve import AsyncDynamicsServer, AsyncServeClient
from repro.dynamics import BatchStates, batch_evaluate
from repro.dynamics.contact import ContactPoint
from repro.dynamics.functions import RBDFunction
from repro.model.library import load_robot
from repro.rollout import RolloutEngine
from repro.serve import BatchPolicy, DynamicsService

FD, MINV, DFD, ID = (RBDFunction.FD, RBDFunction.MINV, RBDFunction.DFD,
                     RBDFunction.ID)
ROBOTS = spec.ROBOTS
GRID_FUNCTIONS = tuple(RBDFunction(f) for f in spec.GRID_FUNCTIONS)
DT = 1e-3
SCHEME = "semi_implicit"
#: Interactive latency limits (served_mix and mpc_latency) per op kind:
#: 20 ms for a point request, 100 ms for a rollout (T=32 iiwa, T=16 hyq
#: in contact).  served_mix books its streamed rollouts as "stream" and
#: its whole ones as "rollout", so each median describes one path.
INTERACTIVE_LIMITS_S = {"point": 0.020, "rollout": 0.100, "stream": 0.100}

_now = time.perf_counter


def state_pool(model, rng, size: int):
    """``size`` seeded (q, qd, u) rows for one robot."""
    q = np.stack([model.random_q(rng) for _ in range(size)])
    qd = 0.5 * rng.normal(size=(size, model.nv))
    u = rng.normal(size=(size, model.nv))
    return q, qd, u


def operand(function, u):
    """The third operand a function takes (Minv takes none)."""
    return None if function is MINV else u


def hyq_feet(model) -> list:
    """HyQ's four feet as ground contact points."""
    return [
        ContactPoint(model.link_index(link), np.array([0.0, 0.0, -0.35]))
        for link in ("lf_kfe", "rf_kfe", "lh_kfe", "rh_kfe")
    ]


def trot_mask(horizon: int, phase: int) -> np.ndarray:
    """(T, 4) contact schedule of a trot: the diagonal foot pairs
    (lf+rh, rf+lh) alternate every ``phase`` steps."""
    first = np.arange(horizon) // phase % 2 == 0
    return np.stack([first, ~first, ~first, first], axis=1)


def loop_rollout(model, q0, qd0, controls, **kwargs):
    return RolloutEngine(SCHEME, engine="loop").rollout(
        model, q0, qd0, controls, dt=DT, **kwargs
    )


class Interactive:
    """Inputs and references shared by the two n=1 workloads: a seeded
    state pool per robot for point ops, and seeded rollouts of
    ``ROLLOUT_ROBOT`` over ``HORIZON`` steps."""

    FUNCTIONS: tuple = ()
    POOL = 16
    ROLLOUT_POOL = 8
    ROLLOUT_ROBOT = "iiwa"
    HORIZON = 32
    WINDOW = 8

    def rollout_kwargs(self) -> dict:
        """Contacts of the rollouts (none by default)."""
        return {}

    def _make_inputs(self, rng) -> None:
        self.models = {r: load_robot(r) for r in ROBOTS}
        self.pool = {r: state_pool(m, rng, self.POOL)
                     for r, m in self.models.items()}
        model = self.models[self.ROLLOUT_ROBOT]
        q0, qd0, _ = state_pool(model, rng, self.ROLLOUT_POOL)
        controls = 0.1 * rng.normal(
            size=(self.ROLLOUT_POOL, self.HORIZON, model.nv))
        self.rollout_inputs = (q0, qd0, controls)

    def references(self) -> None:
        self.expected = {}
        for robot, model in self.models.items():
            q, qd, u = self.pool[robot]
            for function in self.FUNCTIONS:
                self.expected[(robot, function)] = batch_evaluate(
                    model, function, BatchStates(q, qd), operand(function, u),
                    engine="loop",
                )
        self.expected_rollout = loop_rollout(self.models[self.ROLLOUT_ROBOT],
                                        *self.rollout_inputs,
                                        **self.rollout_kwargs())

    def rollout_matches(self, qs, qds, k: int) -> bool:
        return (matches(qs, self.expected_rollout.qs[k])
                and matches(qds, self.expected_rollout.qds[k]))


# ---------------------------------------------------------------------------
# mpc_latency: closed loop, one caller, urgent n=1 ops on the service
# ---------------------------------------------------------------------------


class MpcLatency(Interactive):
    """The control-loop regime: one caller, each op waits for its reply.

    A cycle is the 3x3 grid {iiwa, hyq, atlas} x {FD, Minv, dFD} as
    urgent n=1 submits, then the re-plan of a legged MPC tick: one
    urgent hyq rollout (T=16, feet against the ground in a trot
    schedule) streamed in windows of 8.  States cycle through a seeded
    pool; one reference computation per cycle tracks host speed.
    """

    name = "mpc_latency"
    limits_s = INTERACTIVE_LIMITS_S
    tail_pct = 99.0
    FUNCTIONS = GRID_FUNCTIONS
    ROLLOUT_ROBOT = "hyq"
    HORIZON = 16
    #: Steps each diagonal foot pair of the trot stays on the ground.
    TROT_PHASE = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.service = None

    def rollout_kwargs(self) -> dict:
        return dict(contacts=hyq_feet(self.models["hyq"]),
                    contact_mask=trot_mask(self.HORIZON, self.TROT_PHASE))

    def setup(self) -> None:
        self._make_inputs(np.random.default_rng(self.seed))
        self.service = DynamicsService(n_shards=2, warm_robots=list(ROBOTS))
        for robot in ROBOTS:
            for function in GRID_FUNCTIONS:
                self._point(robot, function, 0)
        self._rollout(0)

    def _point(self, robot, function, k):
        q, qd, u = self.pool[robot]
        return self.service.submit(
            robot, function, q[k],
            qd=None if function is MINV else qd[k],
            u=operand(function, u[k]), urgent=True,
        ).result().value

    def _rollout(self, k):
        """One streamed rollout: (trajectory, first-window time)."""
        q0, qd0, controls = self.rollout_inputs
        first: list[float] = []

        def on_window(t0, t1, trajectory, done):
            if not first:
                first.append(_now())

        future = self.service.submit_rollout(
            self.ROLLOUT_ROBOT, q0[k], qd0[k], controls[k], DT,
            scheme=SCHEME, urgent=True, window=self.WINDOW,
            on_window=on_window, **self.rollout_kwargs(),
        )
        return future.result().value, first[0]

    def run(self, seconds: float, ledger: Ledger, tracer=None) -> None:
        ledger.timed(lambda: self._cycles(seconds, ledger, tracer))

    def _cycles(self, seconds, ledger, tracer) -> None:
        deadline = _now() + seconds
        cycle = 0
        while _now() < deadline:
            ledger.ref.sample()
            k = cycle % self.POOL
            for robot in ROBOTS:
                for function in GRID_FUNCTIONS:
                    t0 = _now()
                    try:
                        value = self._point(robot, function, k)
                    except Exception as exc:   # counted, run continues
                        ledger.fail("point", exc)
                        continue
                    elapsed = _now() - t0
                    if tracer is not None:
                        tracer.record("perfbench.point", t0, elapsed,
                                      args={"robot": robot,
                                            "function": function.value})
                    ledger.ok("point", t0, elapsed,
                              matches(value, self.expected[(robot, function)][k]))
            k = cycle % self.ROLLOUT_POOL
            t0 = _now()
            try:
                trajectory, first = self._rollout(k)
            except Exception as exc:
                ledger.fail("rollout", exc)
            else:
                elapsed = _now() - t0
                if tracer is not None:
                    tracer.record("perfbench.rollout", t0, elapsed)
                ledger.first_window(t0, first - t0)
                ledger.ok("rollout", t0, elapsed, self.rollout_matches(
                    trajectory.qs, trajectory.qds, k))
            cycle += 1

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


# ---------------------------------------------------------------------------
# served_mix: open loop over the socket, two tenants
# ---------------------------------------------------------------------------


class ServedMix(Interactive):
    """Open-loop traffic from two tenants over a loopback socket.

    An in-process :class:`AsyncDynamicsServer` over a ragged-coalescing
    ``DynamicsService(n_shards=2)``; two client connections (no more
    than the 2-core hosts this is sized for have):

    * tenant ``fleet`` (standard priority) sends point requests — FD and
      ID over {iiwa, hyq, atlas} — that the batcher coalesces;
    * tenant ``mpc`` (interactive, so urgent) re-plans at a fixed rate
      with iiwa T=32 rollouts streamed in windows of 8, and halfway
      between every second pair of re-plans asks for a whole
      (unstreamed) T=32 rollout.

    The arrival schedule is computed up front from the seed; each op is
    timed from its due time, so a stalled generator charges its delay to
    the ops behind it.  The schedule also runs the reference computation
    on the event loop ``REF_HZ`` times a second to track host speed.
    """

    name = "served_mix"
    limits_s = INTERACTIVE_LIMITS_S
    #: Points caught behind a rollout wait up to its length, so p99 sits
    #: on the steep edge of that plateau and moves with how many points
    #: a seed's arrivals put there; p99.5 (over 10 samples beyond it at
    #: 50 s) lies on the plateau.
    tail_pct = 99.5
    #: Fleet point-request rate, ops/s.
    POINT_RATE = 50.0
    #: The mpc tenant's re-planning rate, streamed rollouts/s.
    STREAM_HZ = 4.0
    #: Reference computations per second.
    REF_HZ = 10.0
    FUNCTIONS = (FD, ID)
    #: The run is invalid when the generator's p99 lateness exceeds this
    #: share of the point-request latency limit.  The generator shares
    #: the event loop (and the interpreter lock) with the server, so
    #: lateness of a few ms is the server's own stall, already charged
    #: to the ops timed from their due time; beyond the limit itself the
    #: schedule is no longer being offered as stated.
    LAG_LIMIT_SHARE = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.loop = None
        self.service = None
        self.server = None
        self.clients: list = []
        #: Request + response JSON bytes per op (traced phases only).
        self.wire_bytes: list[int] = []

    def setup(self) -> None:
        self._make_inputs(np.random.default_rng(self.seed))
        self.loop = asyncio.new_event_loop()
        self.service = DynamicsService(
            policy=BatchPolicy(coalesce=True), n_shards=2,
            warm_robots=list(ROBOTS),
        )
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        self.server = await AsyncDynamicsServer(self.service).start()
        tenants = (("fleet", "standard"), ("mpc", "interactive"))
        for tenant, priority in tenants:
            # Buckets far above the offered load: refusals would measure
            # the admission policy, not the serving path.
            self.clients.append(await AsyncServeClient.connect(
                port=self.server.port, tenant=tenant, priority=priority,
                rate_rps=1e6, burst=1e6, max_inflight=4096,
            ))
        self.fleet, self.mpc = self.clients
        warm = Ledger(self.limits_s)
        for robot in ROBOTS:
            for function in self.FUNCTIONS:
                await self._point(("point", robot, function, 0), _now(),
                                  warm, check=False)
        for kind in ("rollout", "stream"):
            await self._rollout((kind, "iiwa", None, 0), _now(), warm,
                                check=False)
        if warm.failed:
            raise RuntimeError(f"served_mix warm-up failed: {warm.errors}")

    def schedule(self, seconds: float) -> list[tuple[float, tuple]]:
        """(due offset s, op) pairs, sorted; identical per seed.

        Fleet point requests: ``round(POINT_RATE * seconds)`` arrivals
        placed uniformly at random — a Poisson process conditioned on
        its count, so the offered load is exact — cycling through the
        robot x function grid.  The mpc tenant re-plans periodically at
        ``STREAM_HZ`` from a seeded phase with streamed rollouts, and
        half a period after every second re-plan asks for a whole
        rollout, so the two never overlap.  ``REF_HZ * seconds``
        reference computations are placed uniformly at random, so they
        keep no fixed phase to the rollouts.  States are drawn from the
        seeded pools.
        """
        rng = np.random.default_rng([self.seed, 1])
        n = max(1, round(self.POINT_RATE * seconds))
        due = np.sort(rng.uniform(0.0, seconds, n))
        rows = rng.integers(self.POOL, size=n)
        grid = [(r, f) for r in ROBOTS for f in self.FUNCTIONS]
        ops = [(float(due[i]), ("point", *grid[i % len(grid)], int(rows[i])))
               for i in range(n)]
        period = 1.0 / self.STREAM_HZ
        ticks = np.arange(rng.uniform(0.0, period), seconds, period)
        whole = ticks[::2] + period / 2
        for kind, times in (("stream", ticks), ("rollout", whole)):
            ops += [(float(t), (kind, "iiwa", None, j % self.ROLLOUT_POOL))
                    for j, t in enumerate(times)]
        ops += [(float(t), ("ref",)) for t in
                rng.uniform(0.0, seconds, round(self.REF_HZ * seconds))]
        ops.sort(key=lambda item: item[0])
        return ops

    async def _point(self, op, due, ledger, check=True, trace=False):
        _, robot, function, k = op
        q, qd, u = (a[k] for a in self.pool[robot])
        try:
            payload = await self.fleet.submit(robot, function.value, q, qd, u)
        except Exception as exc:     # refused or failed: counted
            ledger.fail("point", exc)
            return
        elapsed = _now() - due
        ok = not check or matches(payload["value"],
                                  self.expected[(robot, function)][k])
        ledger.ok("point", due, elapsed, ok)
        if trace:
            request = {"op": "submit", "robot": robot,
                       "function": function.value, "q": q.tolist(),
                       "qd": qd.tolist(), "u": u.tolist()}
            self.wire_bytes.append(_line_bytes(request)
                                   + _line_bytes(payload))

    async def _rollout(self, op, due, ledger, check=True, trace=False):
        kind, _, _, k = op
        q0, qd0, controls = (a[k] for a in self.rollout_inputs)
        lines: list[dict] = []
        try:
            if kind == "rollout":
                final = await self.mpc.submit_rollout(
                    "iiwa", q0, qd0, controls, dt=DT, scheme=SCHEME)
            else:
                stream = await self.mpc.stream_rollout(
                    "iiwa", q0, qd0, controls, dt=DT, scheme=SCHEME,
                    window=self.WINDOW)
                async for window in stream:
                    if not lines:
                        ledger.first_window(due, _now() - due)
                    lines.append(window)
                final = await stream.result()
        except Exception as exc:
            ledger.fail(kind, exc)
            return
        elapsed = _now() - due
        ok = not check or self.rollout_matches(final["qs"], final["qds"], k)
        ledger.ok(kind, due, elapsed, ok)
        if trace:
            request = {"op": "rollout", "robot": "iiwa", "scheme": SCHEME,
                       "q0": q0.tolist(), "qd0": qd0.tolist(),
                       "controls": controls.tolist(), "dt": DT}
            self.wire_bytes.append(_line_bytes(request) + sum(
                _line_bytes(line) for line in lines + [final]))

    def run(self, seconds: float, ledger: Ledger, tracer=None) -> None:
        ledger.timed(lambda: self.loop.run_until_complete(
            self._run(seconds, ledger, tracer is not None)))

    async def _run(self, seconds, ledger, trace) -> None:
        ops = self.schedule(seconds)
        tasks = []
        start = _now()
        for offset, op in ops:
            due = start + offset
            delay = due - _now()
            if delay > 0:
                await asyncio.sleep(delay)
            if op[0] == "ref":
                ledger.ref.sample()
                continue
            ledger.lag_s.append(max(0.0, _now() - due))
            ledger.offered += 1
            handler = self._point if op[0] == "point" else self._rollout
            tasks.append(asyncio.ensure_future(
                handler(op, due, ledger, trace=trace)))
        await asyncio.gather(*tasks)

    def close(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self._stop())
            self.loop.close()
            self.loop = None
        if self.service is not None:
            self.service.close()

    async def _stop(self) -> None:
        for client in self.clients:
            await client.close()
        if self.server is not None:
            await self.server.stop()
        # Let the server's per-connection handlers see EOF and finish.
        others = [t for t in asyncio.all_tasks()
                  if t is not asyncio.current_task()]
        if others:
            await asyncio.wait(others, timeout=5.0)


def _line_bytes(payload: dict) -> int:
    """Size of one JSON-lines protocol line carrying ``payload``."""
    return len(json.dumps(payload)) + 1


WORKLOADS = {cls.name: cls for cls in (MpcLatency, ServedMix)}
