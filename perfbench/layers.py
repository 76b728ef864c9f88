"""The traced run: per-layer metrics, each mapped to the end-to-end
metric (and workload) it should move.

Layers, bottom to top, by module: ``dynamics.plan`` (level sweeps) ->
``dynamics.engine`` (``compiled``) -> ``dynamics.batch``
(``batch_evaluate``) -> ``rollout`` / ``dynamics.contact_batch`` ->
``serve`` (``DynamicsService``) -> ``aserve.gateway`` -> ``aserve``
socket.  ``core`` (the cycle model) feeds no metric.

A traced run of workload W:

1. sets W up and runs it for half the run with instrumentation off,
   then half with a :class:`~repro.obs.Tracer` and
   :class:`~repro.obs.KernelProfiler` installed; how much higher the
   traced half's point-op median (in ref) reads is
   ``tracing.overhead_frac``;
2. times each layer's public entry point on the same seeded inputs
   (plan, engine, ``batch_evaluate``, rollout, cFD, urgent submit,
   gateway, socket client);
3. reads the serving counters (service stats, gateway admission, the
   ``serve.*`` / ``aserve.admission`` spans) from a traced
   ``served_mix`` phase — W's own when W is ``served_mix``, a short one
   otherwise — so every traced run reports every per-layer metric.
"""

from __future__ import annotations

import time

import numpy as np

from harness import Ledger, Stopwatch, median, percentile
from repro import obs
from repro.dynamics import BatchStates, batch_evaluate
from repro.dynamics.engine import get_engine
from repro.dynamics.opcount import function_ops
from repro.dynamics.plan import plan_for
from repro.model.library import load_robot
from repro.rollout import RolloutEngine
from spec import metrics as listed
from workloads import (
    DFD,
    DT,
    FD,
    GRID_FUNCTIONS,
    MINV,
    ROBOTS,
    SCHEME,
    WORKLOADS,
    ServedMix,
    hyq_feet,
    operand,
    state_pool,
)

_now = time.perf_counter

#: Seconds of traced served_mix traffic when W is not served_mix.
SERVED_PROBE_S = 4.0
#: Plan kernels that sweep recursion levels (per-level attribution).
LEVEL_KERNELS = ("rnea", "aba")
#: Kernels booked by the compiled plans (the "inside engine kernels"
#: share of rollout time).
PLAN_KERNELS = ("transforms", "rnea", "aba", "mminvgen", "rnea_derivatives")
#: Rollout slabs the probes time: iiwa free dynamics, and hyq with four
#: feet against the ground at height 0 (the seeded states start some
#: feet above it and some below, so both contact-mode branches run).
IIWA_SLAB = dict(n=64, horizon=64)
HYQ_SLAB = dict(n=32, horizon=16)


def _median_time(calls: dict, reps: int) -> dict:
    """Median seconds per named call, reps interleaved across calls so
    slow host phases hit every layer alike (after one warm-up each)."""
    samples = {name: [] for name in calls}
    for fn in calls.values():
        fn()
    for _ in range(reps):
        for name, fn in calls.items():
            t0 = _now()
            fn()
            samples[name].append(_now() - t0)
    return {name: median(s) for name, s in samples.items()}


# ---------------------------------------------------------------------------
# Kernel layers: plan -> engine -> batch_evaluate, rollout, contact
# ---------------------------------------------------------------------------

_PLAN_CALL = {
    FD: lambda plan, q, qd, u: plan.fd_batch(q, qd, u),
    MINV: lambda plan, q, qd, u: plan.minv_batch(q),
    DFD: lambda plan, q, qd, u: plan.dfd_batch(q, qd, u),
}
_ENGINE_CALL = {
    FD: lambda eng, m, q, qd, u: eng.fd_batch(m, q, qd, u),
    MINV: lambda eng, m, q, qd, u: eng.minv_batch(m, q),
    DFD: lambda eng, m, q, qd, u: eng.dfd_batch(m, q, qd, u),
}


def kernel_layers(seed: int) -> dict:
    rng = np.random.default_rng([seed, 7])
    engine = get_engine("compiled")
    out: dict = {}
    engine_over: list[float] = []
    batch_over = {1: [], 256: []}
    ops_total = plan_total_s = 0.0
    for robot in ROBOTS:
        model = load_robot(robot)
        plan = plan_for(model)
        for n, reps in ((1, 15), (256, 3)):
            q, qd, u = state_pool(model, rng, n)
            states = BatchStates(q, qd)
            for fn in GRID_FUNCTIONS:
                t = _median_time({
                    "plan": lambda: _PLAN_CALL[fn](plan, q, qd, u),
                    "engine": lambda: _ENGINE_CALL[fn](engine, model, q, qd,
                                                       u),
                    "batch": lambda: batch_evaluate(
                        model, fn, states, operand(fn, u), engine=engine),
                }, reps)
                batch_over[n].append(t["batch"] - t["engine"])
                if n == 1:
                    engine_over.append(t["engine"] - t["plan"])
                    out[f"plan.call_us.{robot}.{fn.value}.n1"] = \
                        t["plan"] * 1e6
                else:
                    out[f"plan.call_ms.{robot}.{fn.value}.n256"] = \
                        t["plan"] * 1e3
                    ops_total += function_ops(model, fn, software=True) * n
                    plan_total_s += t["plan"]
    out["plan.mops_per_s.n256"] = ops_total / plan_total_s / 1e6
    out["engine.overhead_us.n1"] = median(engine_over) * 1e6
    out["batch.overhead_us.n1"] = median(batch_over[1]) * 1e6
    out["batch.overhead_ms.n256"] = median(batch_over[256]) * 1e3

    # Fixed cost per recursion level: per-level self time of the rnea /
    # aba sweeps at n=1 over the number of level passes.
    profiler = obs.KernelProfiler(per_level=True)
    with obs.profiled(profiler):
        for robot in ROBOTS:
            model = load_robot(robot)
            plan = plan_for(model)
            q, qd, u = state_pool(model, rng, 1)
            for _ in range(10):
                plan.fd_batch(q, qd, u)
                plan.id_batch(q, qd, u)
    level_s = level_calls = 0
    for (_, kernel), row in profiler.breakdown().items():
        if kernel in LEVEL_KERNELS:
            for level in row["levels"].values():
                level_s += level["total_s"]
                level_calls += level["calls"]
    out["plan.level_us.n1"] = level_s / level_calls * 1e6
    out.update(rollout_layers(rng))
    return out


def rollout_layers(rng) -> dict:
    """Per-step rollout cost of the two slabs, rollout kernel share, cFD."""
    engine = RolloutEngine(SCHEME, engine="compiled")
    iiwa, hyq = load_robot("iiwa"), load_robot("hyq")
    shape = IIWA_SLAB
    q0, qd0, _ = state_pool(iiwa, rng, shape["n"])
    controls = 0.1 * rng.normal(size=(shape["n"], shape["horizon"], iiwa.nv))
    hshape = HYQ_SLAB
    hq0, hqd0, _ = state_pool(hyq, rng, hshape["n"])
    hcontrols = rng.normal(size=(hshape["n"], hshape["horizon"], hyq.nv))
    feet = hyq_feet(hyq)
    cq, cqd, cu = state_pool(hyq, rng, 256)
    cstates = BatchStates(cq, cqd)
    t = _median_time({
        "iiwa": lambda: engine.rollout(iiwa, q0, qd0, controls, dt=DT),
        "hyq": lambda: engine.rollout(
            hyq, hq0, hqd0, hcontrols, dt=DT, contacts=feet,
            contact_mask="ground", ground_height=0.0),
        "cfd": lambda: batch_evaluate(hyq, "cFD", cstates, cu,
                                      contacts=feet, engine="compiled"),
    }, 3)
    profiler = obs.KernelProfiler()
    with obs.profiled(profiler):
        engine.rollout(iiwa, q0, qd0, controls, dt=DT)
    rollout_s = kernel_s = 0.0
    for (_, kernel), row in profiler.breakdown().items():
        if kernel.startswith("rollout["):
            rollout_s += row["total_s"]
        elif kernel in PLAN_KERNELS:
            kernel_s += row["total_s"]
    return {
        "rollout.step_us_per_row.iiwa":
            t["iiwa"] / (shape["n"] * shape["horizon"]) * 1e6,
        "rollout.step_us_per_row.hyq_contact":
            t["hyq"] / (hshape["n"] * hshape["horizon"]) * 1e6,
        "rollout.kernel_frac": kernel_s / rollout_s,
        "contact.cfd_ms.hyq": t["cfd"] * 1e3,
    }


# ---------------------------------------------------------------------------
# Serving layers: service, gateway, socket
# ---------------------------------------------------------------------------


def serving_layers(served: ServedMix, tracer, ledger: Ledger,
                   seed: int) -> dict:
    """Counters of a traced served_mix phase plus closed-loop probes of
    the urgent path at each serving layer (iiwa FD, n=1)."""
    spans = tracer.spans()

    def span_p50_ms(match) -> float:
        durations = [s.duration_s for s in spans if match(s.name)]
        return median(durations) * 1e3 if durations else float("nan")

    stats = served.service.stats()
    flushes = stats["flushed_full"] + stats["flushed_timeout"]
    tenants = served.server.gateway.stats()["tenants"]
    refused = sum(t["rate_limited"] + t["overloaded"]
                  for t in tenants.values())
    admitted = sum(t["admitted"] for t in tenants.values())
    out = {
        "serve.queue_ms.p50": span_p50_ms(lambda n: n == "serve.queue"),
        "serve.execute_ms.p50": span_p50_ms(
            lambda n: n.startswith("serve.execute")),
        "serve.wall_p50_ms": stats["wall_p50_ms"],
        "serve.window_ms.p50": span_p50_ms(lambda n: n == "serve.window"),
        "serve.occupancy": stats["mean_batch_occupancy"],
        "serve.queues_per_flush": stats["queues_per_flush"],
        "serve.timeout_flush_frac": stats["flushed_timeout"] / max(flushes, 1),
        "serve.retries": stats["retries"],
        "serve.shed": stats["shed"],
        "serve.failed": stats["failed"],
        "gateway.admit_us.p50": span_p50_ms(
            lambda n: n == "aserve.admission") * 1e3,
        "gateway.refused_frac": refused / max(admitted + refused, 1),
        "socket.bytes_per_op": float(np.mean(served.wire_bytes)),
        "loadgen.lag_p99_ms": percentile(ledger.lag_s, 99.0) * 1e3,
        "loadgen.offered_per_s": ledger.offered / (ledger.wall_s or 1.0),
    }
    out.update(served.loop.run_until_complete(
        _urgent_probe(served, seed)))
    return out


async def _urgent_probe(served: ServedMix, seed: int, reps: int = 41) -> dict:
    """Urgent iiwa FD at n=1 through each serving layer, interleaved:
    ``batch_evaluate`` -> ``DynamicsService.submit`` ->
    ``AsyncGateway.submit`` -> ``AsyncServeClient.submit``."""
    model = load_robot("iiwa")
    q, qd, u = (a[0] for a in state_pool(model, np.random.default_rng(
        [seed, 11]), 1))
    states = BatchStates(q[None], qd[None])
    service, gateway = served.service, served.server.gateway
    kernel, serve, gate, gate_over, sock = [], [], [], [], []
    for _ in range(reps):
        with Stopwatch() as sw:
            batch_evaluate(model, FD, states, u[None], engine="compiled")
        kernel.append(sw.s)
        with Stopwatch() as sw:
            service.submit("iiwa", FD, q, qd, u, urgent=True).result()
        serve.append(sw.s)
        t0 = _now()
        result = await gateway.submit("iiwa", FD, q, qd, u, tenant="probe",
                                      urgent=True)
        gate.append(_now() - t0)
        gate_over.append(gate[-1] - result.wall_latency_s)
        t0 = _now()
        await served.mpc.submit("iiwa", FD.value, q, qd, u, urgent=True)
        sock.append(_now() - t0)
    return {
        "serve.overhead_us.urgent": (median(serve) - median(kernel)) * 1e6,
        "gateway.overhead_ms": median(gate_over) * 1e3,
        "socket.overhead_ms": (median(sock) - median(gate)) * 1e3,
    }


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def _point_p50_ref(ledger: Ledger) -> float:
    return median(ledger.in_ref("point"))


def _traced_phase(workload, seconds: float, ledger: Ledger):
    """Run ``workload`` with a tracer and a kernel profiler installed."""
    tracer = obs.Tracer(capacity=1 << 20)
    service = getattr(workload, "service", None)
    if service is not None:
        service.tracer = tracer
    try:
        with obs.profiled(obs.KernelProfiler(), tracer):
            workload.run(seconds, ledger, tracer=tracer)
    finally:
        if service is not None:
            service.tracer = None
    return tracer


def traced_run(name: str, seed: int, seconds: float):
    """The ``--trace 1`` run; returns (ledger, metrics, None).

    Generator lateness is reported as ``loadgen.lag_p99_ms`` rather than
    enforced: only an untraced served_mix run is declared invalid by it.
    """
    total = Ledger({})
    workload = WORKLOADS[name](seed)
    served = None
    try:
        workload.setup()
        workload.references()
        half = seconds / 2
        plain = Ledger(workload.limits_s)
        workload.run(half, plain)
        traced = Ledger(workload.limits_s)
        tracer = _traced_phase(workload, half, traced)
        overhead = _point_p50_ref(traced) / _point_p50_ref(plain) - 1.0
        metrics = kernel_layers(seed)
        if isinstance(workload, ServedMix):
            served, served_ledger, served_tracer = workload, traced, tracer
        else:
            served = ServedMix(seed)
            served.setup()
            served.references()
            served_ledger = Ledger(served.limits_s)
            served_tracer = _traced_phase(served, SERVED_PROBE_S,
                                          served_ledger)
        metrics.update(serving_layers(served, served_tracer, served_ledger,
                                      seed))
        metrics["tracing.overhead_frac"] = overhead
    finally:
        workload.close()
        if served is not None and served is not workload:
            served.close()
    ledgers = [plain, traced]
    if served is not workload:
        ledgers.append(served_ledger)
    for ledger in ledgers:
        total.attempted += ledger.attempted
        total.failed += ledger.failed
        total.wrong += ledger.wrong
        total.errors += ledger.errors
    ordered = {name: (metrics[name], unit)
               for name, unit, _ in listed("per_layer")}
    return total, ordered, None
