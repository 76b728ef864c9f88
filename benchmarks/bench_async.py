"""The async serving plane's headline bench: streaming, tenancy, scale.

Four sections, each pinned to an acceptance criterion:

* **streaming** — first-window latency of a windowed rollout vs full
  delivery of the same horizon.  At horizon >= 64 the first window must
  land >= 2x sooner than the whole trajectory: that gap is the whole
  point of streaming for closed-loop control.
* **isolation** — a priority (interactive) tenant's p95 with the pool
  to itself vs under contention from rate-limited aggressor tenants
  *offering* 2x the pool's measured capacity (their token buckets clip
  them to a fraction of it).  Admission control earns its keep iff the
  priority p95 degrades <= 20% (+1 ms jitter epsilon for 1-core CI).
* **autoscale** — a bursty load against a 1-shard pool with the
  autoscaler armed must grow the pool during the burst AND shrink it
  after, with zero failed requests across the scaling events.  The
  burst offers 2x the pool's measured capacity, like the isolation
  section's overload.
* **availability** — the fleet simulation: ~1k concurrent coroutine
  clients (Poisson telemetry + closed-loop MPC streams) with 5% of
  shard executions faulting; availability must stay >= 99%.

Runs under pytest (table summary) or directly for CI smoke::

    PYTHONPATH=src python benchmarks/bench_async.py --quick --json
"""

import asyncio
import statistics
import sys
import time

import numpy as np

from repro.aserve import AsyncGateway, TenantPolicy, run_async_load
from repro.dynamics.functions import RBDFunction
from repro.serve import BatchPolicy, DynamicsService

ROBOT = "iiwa"
NV = 7
#: Streaming acceptance: first window >= this factor sooner than full
#: delivery, at this horizon.
STREAM_HORIZON = 64
STREAM_WINDOW = 8
STREAM_SPEEDUP_FLOOR = 2.0
#: Isolation acceptance: contended p95 <= factor * baseline + epsilon.
#: The epsilon absorbs event-loop timer jitter and one interpreter
#: scheduling quantum on 1-core CI runners.
ISOLATION_FACTOR = 1.2
ISOLATION_EPSILON_S = 3e-3
ISOLATION_HORIZON = 32
#: Availability acceptance at the anchor fault rate.
FAULT_RATE = 0.05
AVAILABILITY_FLOOR = 0.99
SEED = 7


# ----------------------------------------------------------------------
# Section 1: streaming first-window latency vs full delivery
# ----------------------------------------------------------------------

def run_streaming_bench(horizon: int = STREAM_HORIZON,
                        window: int = STREAM_WINDOW,
                        repeats: int = 5) -> dict:
    """Median first-window and full-delivery latencies, one service."""
    svc = DynamicsService(n_shards=2, warm_robots=[ROBOT])
    gw = AsyncGateway(svc)
    q = np.zeros(NV)
    controls = np.zeros((horizon, NV))

    async def run() -> tuple[list[float], list[float]]:
        # Warm the rollout plan so neither arm pays the build.
        await gw.submit_rollout(ROBOT, q, q, controls, 1e-3, urgent=True)
        first_s, full_s = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            stream = await gw.stream_rollout(
                ROBOT, q, q, controls, 1e-3, window=window, urgent=True,
            )
            got_first = None
            async for w in stream:
                if got_first is None:
                    got_first = time.perf_counter() - t0
            await stream.result()
            first_s.append(got_first)
            t0 = time.perf_counter()
            await gw.submit_rollout(ROBOT, q, q, controls, 1e-3,
                                    urgent=True)
            full_s.append(time.perf_counter() - t0)
        return first_s, full_s

    try:
        first_s, full_s = asyncio.run(run())
    finally:
        svc.close()
    first = statistics.median(first_s)
    full = statistics.median(full_s)
    return {
        "horizon": horizon,
        "window": window,
        "repeats": repeats,
        "first_window_ms": first * 1e3,
        "full_delivery_ms": full * 1e3,
        "speedup": full / first if first > 0 else float("inf"),
    }


# ----------------------------------------------------------------------
# Section 2: tenant isolation under overload
# ----------------------------------------------------------------------

async def _priority_run(gw: AsyncGateway, n: int, gap_s: float,
                        horizon: int) -> list[float]:
    q = np.zeros(NV)
    controls = np.zeros((horizon, NV))
    latencies = []
    for _ in range(n):
        t0 = time.perf_counter()
        await gw.submit_rollout(ROBOT, q, q, controls, 1e-3,
                                tenant="priority")
        latencies.append(time.perf_counter() - t0)
        await asyncio.sleep(gap_s)
    return latencies


async def _aggressor_run(gw: AsyncGateway, tenant: str, horizon: int,
                         gap_s: float, counts: dict,
                         stop: asyncio.Event) -> None:
    """Fire-and-forget rollout submits at the offered rate until ``stop``.

    Submissions are spawned as tasks, not awaited inline — the offered
    rate must not collapse to the service latency, or there is no
    overload to clip.  Rollouts (cost = horizon) saturate the bucket in
    few requests, so the overload is in admitted *work*, not call
    count.
    """
    from repro.aserve import ClientOverloaded, RateLimitedError

    q = np.zeros(NV)
    controls = np.zeros((horizon, NV))

    async def one() -> None:
        try:
            await gw.submit_rollout(ROBOT, q, q, controls, 1e-3,
                                    tenant=tenant)
            counts["admitted"] += 1
        except (RateLimitedError, ClientOverloaded):
            counts["clipped"] += 1
        except Exception:
            counts["failed"] += 1

    tasks = []
    while not stop.is_set():
        tasks.append(asyncio.ensure_future(one()))
        await asyncio.sleep(gap_s)
    await asyncio.gather(*tasks)


async def _fd_capacity(gw: AsyncGateway, n: int = 64) -> float:
    """Measured pool capacity, FD requests/s end to end (a saturating
    burst through the gateway)."""
    q = np.zeros(NV)
    t0 = time.perf_counter()
    await asyncio.gather(*[
        gw.submit(ROBOT, RBDFunction.FD, q, q, q) for _ in range(n)
    ])
    return n / (time.perf_counter() - t0)


def run_isolation_bench(n_priority: int = 160, n_aggressors: int = 2,
                        overload_factor: float = 2.0,
                        passes: int = 4) -> dict:
    """Priority-tenant p95 alone vs under rate-limited 2x overload.

    Baseline and contended samples interleave across ``passes`` so
    slow machine-load drift hits both arms equally.

    The shard pool is in-process threads, so *any* admitted aggressor
    execution steals GIL time from the priority tenant's rollout — the
    simulation's stand-in for a saturated accelerator.  Isolation is
    therefore a pure admission-policy outcome: the batch tier's budget
    (~0.5% of measured capacity) keeps admitted aggressor duty cycle
    below the p95 sample fraction, exactly how an operator would
    provision a best-effort tier against a latency SLO.
    """
    svc = DynamicsService(
        policy=BatchPolicy(max_wait_s=1e-3, max_pending=100_000),
        n_shards=2, shard_policy="least_loaded", warm_robots=[ROBOT],
    )
    gw = AsyncGateway(svc)
    gw.set_policy("priority", TenantPolicy(priority="interactive",
                                           rate_rps=100_000, burst=100_000))
    gap_priority = 0.004

    try:
        capacity_rps = asyncio.run(_fd_capacity(gw))
        # Aggressors collectively offer overload_factor * capacity in
        # cost units (a rollout costs its horizon); their buckets clip
        # pool-wide aggressor admission to ~0.5% of capacity — a
        # best-effort batch tier provisioned against the priority
        # tenant's latency SLO.
        agg_horizon = 32
        offered_each = overload_factor * capacity_rps / n_aggressors
        limit_each = 0.005 * capacity_rps / n_aggressors
        for i in range(n_aggressors):
            gw.set_policy(f"aggressor-{i}", TenantPolicy(
                rate_rps=max(limit_each, 1.0),
                burst=agg_horizon + 1.0,
                priority="batch",
            ))
        gap_aggressor = max(agg_horizon / offered_each, 1e-3)

        counts = {"admitted": 0, "clipped": 0, "failed": 0}

        async def contended_run(n: int) -> list[float]:
            stop = asyncio.Event()
            aggressors = [
                asyncio.ensure_future(_aggressor_run(
                    gw, f"aggressor-{i}", agg_horizon, gap_aggressor,
                    counts, stop))
                for i in range(n_aggressors)
            ]
            try:
                return await _priority_run(
                    gw, n, gap_priority, ISOLATION_HORIZON)
            finally:
                stop.set()
                await asyncio.gather(*aggressors)

        # Warm the rollout plan so no measured sample pays the build.
        asyncio.run(_priority_run(gw, 1, 0.0, ISOLATION_HORIZON))
        per_pass = max(n_priority // passes, 10)
        baseline: list[float] = []
        contended: list[float] = []
        # A short GIL switch interval keeps an overlapping aggressor
        # batch from pinning the interpreter for whole 5 ms quanta.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-3)
        try:
            for _ in range(passes):
                baseline += asyncio.run(_priority_run(
                    gw, per_pass, gap_priority, ISOLATION_HORIZON))
                contended += asyncio.run(contended_run(per_pass))
        finally:
            sys.setswitchinterval(switch)
    finally:
        svc.close()

    p95_base = float(np.percentile(baseline, 95))
    p95_cont = float(np.percentile(contended, 95))
    return {
        "capacity_rps": capacity_rps,
        "overload_factor": overload_factor,
        "aggressors": n_aggressors,
        "aggressor_admitted": counts["admitted"],
        "aggressor_clipped": counts["clipped"],
        "aggressor_failed": counts["failed"],
        "p95_baseline_ms": p95_base * 1e3,
        "p95_contended_ms": p95_cont * 1e3,
        "degradation": p95_cont / p95_base if p95_base > 0 else 1.0,
        "bound_ms": (ISOLATION_FACTOR * p95_base + ISOLATION_EPSILON_S)
        * 1e3,
        "within_bound": p95_cont
        <= ISOLATION_FACTOR * p95_base + ISOLATION_EPSILON_S,
    }


# ----------------------------------------------------------------------
# Sections 3 + 4: autoscaling burst, fleet availability
# ----------------------------------------------------------------------

def run_autoscale_bench(quick: bool = False,
                        overload_factor: float = 2.0) -> dict:
    """Bursty load against a 1-shard pool; must grow AND shrink.

    The burst is sized from the pool's measured capacity, as in the
    isolation section: the Poisson clients together offer
    ``overload_factor`` times the end-to-end FD requests/s a saturating
    burst measured, for 0.1 s (``quick``) or 0.2 s.  A fixed rate cannot
    overload every engine: 40 req/s per client is far under a native
    shard's capacity.
    """
    n_clients = 40 if quick else 80
    mpc_fraction = 0.25
    burst_s = 0.1 if quick else 0.2
    svc = DynamicsService(policy=BatchPolicy(max_pending=100_000),
                          n_shards=1, warm_robots=[ROBOT])
    try:
        capacity_rps = asyncio.run(_fd_capacity(AsyncGateway(svc)))
        n_poisson = n_clients - round(n_clients * mpc_fraction)
        rate_rps = overload_factor * capacity_rps / n_poisson
        report = run_async_load(
            n_clients=n_clients,
            mpc_fraction=mpc_fraction,
            requests_per_client=max(4, round(rate_rps * burst_s)),
            plans_per_client=2,
            horizon=16, window=4,
            rate_rps=rate_rps,
            fault_rate=0.0,
            autoscale=True, min_shards=1, max_shards=4,
            seed=SEED, service=svc,
        )
    finally:
        svc.close()
    failed = report["poisson"]["failed"] + report["mpc"]["failed"]
    return {
        "clients": report["n_clients"],
        "capacity_rps": capacity_rps,
        "overload_factor": overload_factor,
        "rate_rps_per_client": rate_rps,
        "scale_ups": report["scale_ups"],
        "scale_downs": report["scale_downs"],
        "failed": failed,
        "availability": report["availability"],
        "wall_s": report["wall_s"],
        "utilization": (report["autoscaler"] or {}).get("utilization", 0.0),
    }


def run_availability_bench(quick: bool = False) -> dict:
    """~1k-client Poisson + MPC mix at the anchor fault rate."""
    report = run_async_load(
        n_clients=1000,
        mpc_fraction=0.2,
        requests_per_client=1 if quick else 3,
        plans_per_client=1 if quick else 2,
        horizon=16, window=4,
        rate_rps=20.0,
        fault_rate=FAULT_RATE,
        n_shards=3,
        seed=SEED,
    )
    return {
        "clients": report["n_clients"],
        "mpc_clients": report["mpc_clients"],
        "fault_rate": FAULT_RATE,
        "availability": report["availability"],
        "poisson_ok": report["poisson"]["ok"],
        "poisson_failed": report["poisson"]["failed"],
        "mpc_ok": report["mpc"]["ok"],
        "mpc_failed": report["mpc"]["failed"],
        "mpc_cancelled": report["mpc"]["cancelled"],
        "first_window_p95_ms": report["mpc"]["first_window_p95_ms"],
        "retries": report["retries"],
        "breaker_opens": report["breaker_opens"],
        "wall_s": report["wall_s"],
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

def run_all(quick: bool = False) -> dict:
    return {
        "streaming": run_streaming_bench(
            repeats=3 if quick else 5),
        "isolation": run_isolation_bench(
            n_priority=80 if quick else 160),
        "autoscale": run_autoscale_bench(quick),
        "availability": run_availability_bench(quick),
    }


def check(rows: dict) -> list[str]:
    """Acceptance gates; returns failure descriptions (empty = pass)."""
    failures = []
    s = rows["streaming"]
    if s["speedup"] < STREAM_SPEEDUP_FLOOR:
        failures.append(
            f"streaming speedup {s['speedup']:.2f}x < "
            f"{STREAM_SPEEDUP_FLOOR}x at horizon {s['horizon']}"
        )
    i = rows["isolation"]
    if not i["within_bound"]:
        failures.append(
            f"priority p95 degraded {i['degradation']:.2f}x "
            f"(bound {ISOLATION_FACTOR}x + {ISOLATION_EPSILON_S * 1e3}ms)"
        )
    a = rows["autoscale"]
    if a["scale_ups"] < 1 or a["scale_downs"] < 1:
        failures.append(
            f"autoscaler did not both grow and shrink "
            f"(ups={a['scale_ups']}, downs={a['scale_downs']})"
        )
    if a["failed"] > 0:
        failures.append(f"{a['failed']} requests failed during scaling")
    v = rows["availability"]
    if v["availability"] < AVAILABILITY_FLOOR:
        failures.append(
            f"availability {v['availability']:.4f} < {AVAILABILITY_FLOOR} "
            f"at {v['fault_rate']:.0%} faults"
        )
    return failures


def _async_table(rows: dict):
    from repro.reporting import Table

    table = Table(
        "async serving: streaming / isolation / autoscale / availability",
        ["section", "metric", "value", "gate"],
    )
    s = rows["streaming"]
    table.add_row("streaming", f"first window @T={s['horizon']}",
                  f"{s['first_window_ms']:.1f} ms vs "
                  f"{s['full_delivery_ms']:.1f} ms full",
                  f"{s['speedup']:.1f}x (floor {STREAM_SPEEDUP_FLOOR}x)")
    i = rows["isolation"]
    table.add_row("isolation", "priority p95 under 2x overload",
                  f"{i['p95_baseline_ms']:.2f} -> "
                  f"{i['p95_contended_ms']:.2f} ms",
                  f"{i['degradation']:.2f}x (bound {ISOLATION_FACTOR}x)")
    a = rows["autoscale"]
    table.add_row("autoscale", "pool grow/shrink, failures",
                  f"+{a['scale_ups']}/-{a['scale_downs']} shards, "
                  f"{a['failed']} failed",
                  ">=1 each, 0 failed")
    v = rows["availability"]
    table.add_row("availability", f"{v['clients']} clients @ "
                  f"{v['fault_rate']:.0%} faults",
                  f"{v['availability']:.4f} "
                  f"({v['retries']} retries)",
                  f">= {AVAILABILITY_FLOOR}")
    return table


def test_async_serving(once):
    """Streaming 2x, isolation <= 1.2x, scale up+down, 99% availability."""
    from conftest import record_table

    def _run():
        rows = run_all(quick=True)
        record_table(_async_table(rows))
        failures = check(rows)
        assert not failures, "; ".join(failures)

    once(_run)


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    rows = run_all(quick=quick)
    s = rows["streaming"]
    print(f"bench_async ({'quick' if quick else 'full'}):")
    print(f"  streaming:    first window {s['first_window_ms']:.1f} ms vs "
          f"full {s['full_delivery_ms']:.1f} ms at T={s['horizon']} "
          f"-> {s['speedup']:.1f}x")
    i = rows["isolation"]
    print(f"  isolation:    priority p95 {i['p95_baseline_ms']:.2f} -> "
          f"{i['p95_contended_ms']:.2f} ms under 2x overload "
          f"({i['aggressor_clipped']} aggressor requests clipped) "
          f"-> {i['degradation']:.2f}x")
    a = rows["autoscale"]
    print(f"  autoscale:    +{a['scale_ups']}/-{a['scale_downs']} shards, "
          f"{a['failed']} failed, availability {a['availability']:.4f} "
          f"(burst {a['overload_factor']:.0f}x {a['capacity_rps']:.0f} "
          f"FD req/s measured capacity, utilization "
          f"{a['utilization']:.2f})")
    v = rows["availability"]
    print(f"  availability: {v['availability']:.4f} with {v['clients']} "
          f"clients at {v['fault_rate']:.0%} faults "
          f"({v['retries']} retries, {v['breaker_opens']} breaker opens, "
          f"first-window p95 {v['first_window_p95_ms']:.1f} ms)")
    if "--json" in argv:
        from jsonout import write_bench_json

        path = write_bench_json(
            "async",
            [dict(section=k, **v) for k, v in rows.items()],
            {"stream_speedup": s["speedup"],
             "stream_speedup_floor": STREAM_SPEEDUP_FLOOR,
             "isolation_degradation": i["degradation"],
             "isolation_factor": ISOLATION_FACTOR,
             "scale_ups": a["scale_ups"],
             "scale_downs": a["scale_downs"],
             "availability": v["availability"],
             "availability_floor": AVAILABILITY_FLOOR,
             "seed": SEED},
        )
        print(f"wrote {path}")
    failures = check(rows)
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
