"""Command-line interface: inspect accelerator builds for library robots.

Examples::

    python -m repro list
    python -m repro engines
    python -m repro report iiwa
    python -m repro report atlas --function dID
    python -m repro timeline hyq --function ID --jobs 3
    python -m repro serve-bench iiwa --function FD --requests 512
    python -m repro serve-bench hyq --requests 256 --shards 4 \\
        --shard-policy least_loaded
    python -m repro rollout-bench --batch 256 --horizon 16
    python -m repro rollout-bench --workload quadruped_contact
    python -m repro trace iiwa --requests 32 --out TRACE_iiwa.json
    python -m repro trace hyq --prometheus

``engines`` probes the execution-engine registry and the array backends
(:mod:`repro.backend`): which engines are selectable, whether cupy/jax
are importable, and how many cores the process engine would use.

``serve-bench`` drives the :mod:`repro.serve` runtime with an open-loop
load twice — batch-size-1 dispatch vs dynamic batching — and prints the
service-level latency/throughput comparison.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.accelerator import DaduRBD
from repro.core.visualize import pipeline_timeline
from repro.dynamics.functions import RBDFunction
from repro.model.library import ROBOT_REGISTRY, load_robot


def _add_robot_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("robot", choices=sorted(ROBOT_REGISTRY),
                        help="robot model from the library")


def _function(name: str) -> RBDFunction:
    for f in RBDFunction:
        if f.value.lower() == name.lower():
            return f
    raise argparse.ArgumentTypeError(
        f"unknown function {name!r}; choose from "
        + ", ".join(f.value for f in RBDFunction)
    )


def cmd_list(_args: argparse.Namespace) -> int:
    for name in sorted(ROBOT_REGISTRY):
        model = load_robot(name)
        print(f"{name:16s} NB={model.nb:3d}  N={model.nv:3d}  "
              f"depth={model.max_depth()}")
    return 0


def cmd_engines(_args: argparse.Namespace) -> int:
    """Print the per-engine x per-backend capability matrix."""
    import os

    from repro.backend import backend_status, default_backend_name, get_backend
    from repro.dynamics.engine import (
        available_engines,
        default_engine_name,
        get_engine,
    )

    cores = os.cpu_count() or 1
    default = default_engine_name()
    notes = {
        "loop": "per-task scalar reference",
        "native": "generated C per robot for all seven functions "
                  "(default); numpy plans for contact staging",
        "compiled": "structure-compiled plans; in-place backends",
        "process": f"worker-process pool ({cores} core"
                   f"{'s' if cores != 1 else ''} available)",
        "jit": "trace-compiled functional kernels + fused rollout scan",
    }
    status = backend_status()
    caps = {
        name: get_backend(name).capabilities
        for name, st in status.items() if st["available"]
    }

    def cell(engine: str, backend: str) -> str:
        if backend not in caps:
            return "--"
        c = caps[backend]
        if engine == "compiled":
            return "yes" if c.inplace else "no"
        if engine == "native":
            # Device shards of a native service run the compiled plans.
            return "C" if backend == "numpy" else (
                "compiled" if c.inplace else "no")
        if engine == "jit":
            return "jit+scan" if (c.jit and c.scan) else "interp"
        return "yes" if backend == "numpy" else "no"

    backends = list(status)
    print("engines x backends:")
    header = "    " + f"{'engine':12s}" + "".join(
        f"{b:>10s}" for b in backends
    ) + "  notes"
    print(header)
    for name in available_engines():
        marker = "*" if name == default else " "
        row = "".join(f"{cell(name, b):>10s}" for b in backends)
        print(f"  {marker} {name:12s}{row}  {notes.get(name, '')}")
    print("    (* = process default; REPRO_ENGINE or set_default_engine"
          " overrides; -- = backend unavailable; interp = functional"
          " kernels run uncompiled)")
    print()
    print("backends:")
    default_backend = default_backend_name()
    for name, st in status.items():
        marker = "*" if name == default_backend else " "
        state = "ok " if st["available"] else "-- "
        detail = st["detail"]
        c = caps.get(name)
        if c is not None:
            detail += f", jit={c.jit}, scan={c.scan}"
        print(f"  {marker} {name:8s} {state}{detail}")
    print("    (* = default backend; REPRO_BACKEND overrides)")
    jit = get_engine("jit")
    stats = jit.compile_cache_stats()
    print()
    print(f"jit compile cache: backend={jit.backend_name} "
          f"entries={stats['entries']} hits={stats['hits']} "
          f"misses={stats['misses']}")
    _print_native(get_engine("native"))
    return 0


def _print_native(engine) -> None:
    """The native engine's compiler, cache and per-robot kernels."""
    from repro.dynamics.native import (
        NativeUnavailable, find_compiler, library_dir)

    try:
        cache = str(library_dir())
    except NativeUnavailable as exc:
        cache = f"none: {exc}"
    print()
    print(f"native kernels: compiler={find_compiler() or 'none'} "
          f"cache={cache}")
    for name in sorted(ROBOT_REGISTRY):
        print(f"    {name:16s} {engine.status(load_robot(name))}")
    print("    (C = generated library; compiled (reason) = numpy plan "
          "fallback)")


def cmd_report(args: argparse.Namespace) -> int:
    accelerator = DaduRBD(load_robot(args.robot))
    print(accelerator.describe())
    print()
    functions = [args.function] if args.function else list(RBDFunction)
    header = (f"{'function':6s} {'latency(us)':>12s} {'II(cyc)':>8s} "
              f"{'thr(M/s)':>9s} {'power(W)':>9s}")
    print(header)
    print("-" * len(header))
    for f in functions:
        print(
            f"{f.value:6s} "
            f"{accelerator.latency_seconds(f) * 1e6:12.2f} "
            f"{accelerator.initiation_interval(f):8.1f} "
            f"{accelerator.throughput_tasks_per_s(f, 256) / 1e6:9.2f} "
            f"{accelerator.power_w(f):9.1f}"
        )
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    accelerator = DaduRBD(load_robot(args.robot))
    function = args.function or RBDFunction.ID
    print(pipeline_timeline(
        accelerator.graph(function), n_jobs=args.jobs, width=args.width
    ))
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve.bench import format_serve_table, run_serve_load

    function = args.function or RBDFunction.FD
    print(f"serve-bench: {args.robot} {function.value}, "
          f"{args.requests} requests, {args.shards} shard(s), "
          f"policy={args.shard_policy}")
    runs = {
        "batch-1": dict(max_batch=1, max_wait_s=0.0),
        f"dynamic(max_batch={args.max_batch})": dict(
            max_batch=args.max_batch, max_wait_s=args.max_wait_ms * 1e-3
        ),
    }
    stats = {}
    for label, knobs in runs.items():
        stats[label] = run_serve_load(
            args.robot, function, args.requests,
            shards=args.shards, shard_policy=args.shard_policy, **knobs,
        )
    print(format_serve_table(list(stats.items())))
    base = stats["batch-1"]["modeled_throughput_rps"]
    batched = [v for k, v in stats.items() if k != "batch-1"][0]
    if base <= 0:
        print("\nno batch-1 baseline throughput measured "
              "(too few requests?); speedup n/a")
        return 0
    speedup = batched["modeled_throughput_rps"] / base
    print(f"\ndynamic batching sustained-throughput speedup: {speedup:.1f}x")
    return 0


def cmd_rollout_bench(args: argparse.Namespace) -> int:
    from repro.rollout.bench import (
        SPEEDUP_TARGET,
        format_rollout_table,
        run_rollout_bench,
    )

    workloads = (
        [args.workload] if args.workload
        else ["serial", "quadruped_contact"]
    )
    print(f"rollout-bench: batch {args.batch}, horizon {args.horizon}, "
          f"engine {args.engine}")
    rows = [
        run_rollout_bench(workload, batch=args.batch, horizon=args.horizon,
                          engine=args.engine,
                          baseline_tasks=args.baseline_tasks)
        for workload in workloads
    ]
    print(format_rollout_table(rows).render())
    best = max(row["speedup"] for row in rows)
    print(f"\nbest batched-rollout speedup: {best:.1f}x "
          f"(target {SPEEDUP_TARGET:.0f}x at batch 256)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a traced serve workload and export the observability views.

    Drives a short :class:`~repro.serve.service.DynamicsService` load —
    plain requests, one urgent request, and one rollout carrying an
    external force — with a :class:`~repro.obs.Tracer` and
    :class:`~repro.obs.KernelProfiler` installed, then writes the
    Chrome-trace JSON (load it at ``chrome://tracing`` or
    https://ui.perfetto.dev) and prints the span summary and per-kernel
    breakdown.  ``--prometheus`` additionally dumps the unified
    telemetry registry in text exposition format.
    """
    import numpy as np

    from repro import obs
    from repro.serve import BatchPolicy, DynamicsService

    model = load_robot(args.robot)
    function = args.function or RBDFunction.FD
    rng = np.random.default_rng(args.seed)
    tracer = obs.Tracer()
    profiler = obs.KernelProfiler(per_level=args.per_level)
    obs.install(profiler=profiler, tracer=tracer)
    try:
        policy = BatchPolicy(max_batch=args.max_batch, max_wait_s=2e-3)
        with DynamicsService(policy=policy, n_shards=args.shards,
                             shard_policy="least_loaded",
                             warm_robots=[args.robot],
                             tracer=tracer) as service:
            futures = []
            for _ in range(args.requests):
                futures.append(service.submit(
                    args.robot, function,
                    rng.standard_normal(model.nv),
                    rng.standard_normal(model.nv),
                    rng.standard_normal(model.nv),
                ))
            # One urgent request: a singleton batch whose trace ID is the
            # execute span's primary, the easiest trace to follow.
            futures.append(service.submit(
                args.robot, function,
                rng.standard_normal(model.nv),
                rng.standard_normal(model.nv),
                rng.standard_normal(model.nv),
                urgent=True,
            ))
            # One rollout with an external force on the last link.
            futures.append(service.submit_rollout(
                args.robot,
                rng.standard_normal(model.nv) * 0.1,
                np.zeros(model.nv),
                rng.standard_normal((args.horizon, model.nv)) * 0.05,
                dt=1e-3,
                f_ext={model.nb - 1: np.array([0, 0, 0, 0, 0, -4.0])},
            ))
            service.flush()
            for future in futures:
                future.result(timeout=60.0)
            telemetry = service.telemetry()
    finally:
        obs.uninstall()

    out = args.out or f"TRACE_{args.robot}.json"
    tracer.export_chrome(out)
    summary = tracer.summary()
    print(f"trace: {summary['spans']} spans, {summary['traces']} traces "
          f"-> {out}")
    print()
    print(obs.format_summary(summary))
    print()
    print(obs.format_breakdown(profiler.breakdown()))
    if args.prometheus:
        print()
        print(telemetry.prometheus(), end="")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the async dynamics server until interrupted.

    ``python -m repro serve --port 7431 --shards 2 --engine compiled``
    binds the JSON-line protocol plus the HTTP scrape surface
    (``/metrics``, ``/healthz``, ``/telemetry``) on one port;
    ``--autoscale`` attaches the demand-driven shard autoscaler;
    ``--rate-rps``/``--burst`` set the default tenant admission policy
    (connections override per-tenant via the hello op).
    """
    import asyncio

    from repro.aserve import (
        AdmissionController,
        AsyncDynamicsServer,
        Autoscaler,
        TenantPolicy,
    )
    from repro.serve import BatchPolicy, DynamicsService

    service = DynamicsService(
        policy=BatchPolicy(max_wait_s=args.max_wait_ms * 1e-3,
                           max_pending=args.max_pending),
        n_shards=args.shards,
        shard_policy="least_loaded",
        engine=args.engine,
        warm_robots=args.warm.split(",") if args.warm else None,
    )
    admission = AdmissionController(TenantPolicy(
        rate_rps=args.rate_rps, burst=args.burst or 2 * args.rate_rps,
    ))
    autoscaler = None
    if args.autoscale:
        autoscaler = Autoscaler(service, min_shards=1,
                                max_shards=args.max_shards)
    server = AsyncDynamicsServer(service, host=args.host, port=args.port,
                                 admission=admission,
                                 autoscaler=autoscaler)

    async def run() -> None:
        await server.start()
        print(f"serving dynamics on {args.host}:{server.port} "
              f"({args.shards} shard(s), engine={service.engine.name}, "
              f"autoscale={'on' if autoscaler else 'off'})")
        print(f"  scrape: http://{args.host}:{server.port}/metrics")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        service.close()
    return 0


def cmd_serve_client(args: argparse.Namespace) -> int:
    """Connect to a running server and run a smoke workload.

    ``--selftest`` instead starts an in-process server on an ephemeral
    port, runs the same workload against it over a real socket, and
    tears everything down — the one-command health check CI uses.
    """
    import asyncio

    import numpy as np

    from repro.aserve import AsyncServeClient

    model = load_robot(args.robot)
    nv = model.nv

    async def workload(host: str, port: int) -> int:
        client = await AsyncServeClient.connect(
            host, port, tenant=args.tenant, priority=args.priority,
        )
        try:
            pong = await client.ping()
            print(f"ping -> {pong['op']}")
            q = np.zeros(nv)
            results = await asyncio.gather(*[
                client.submit(args.robot, "FD", q, q, q)
                for _ in range(args.requests)
            ])
            shards = sorted({r["shard"] for r in results})
            print(f"{len(results)} FD evaluations OK "
                  f"(shards {shards}, batch sizes up to "
                  f"{max(r['batch_size'] for r in results)})")
            windows = 0
            stream = await client.stream_rollout(
                args.robot, q, q, np.zeros((args.horizon, nv)),
                dt=1e-3, window=args.window,
            )
            async for w in stream:
                windows += 1
                if windows == 1:
                    print(f"first window [{w['window'][0]}, "
                          f"{w['window'][1]}) streamed")
            final = await stream.result()
            print(f"rollout streamed in {windows} windows "
                  f"(horizon {final['horizon']})")
            admin = await client.admin()
            print(f"admin: {admin['active_shards']} active shard(s), "
                  f"{len(admin['scale_events'])} scale event(s), "
                  f"health {[s['health'] for s in admin['shards']]}")
            return 0
        finally:
            await client.close()

    async def selftest() -> int:
        from repro.aserve import AsyncDynamicsServer
        from repro.serve import DynamicsService

        service = DynamicsService(n_shards=2, shard_policy="least_loaded")
        server = AsyncDynamicsServer(service, port=0)
        await server.start()
        print(f"selftest server on 127.0.0.1:{server.port}")
        try:
            return await workload("127.0.0.1", server.port)
        finally:
            await server.stop()
            service.close()
            print("selftest OK")

    if args.selftest:
        return asyncio.run(selftest())
    return asyncio.run(workload(args.host, args.port))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Dadu-RBD reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list library robots").set_defaults(
        handler=cmd_list
    )

    sub.add_parser(
        "engines",
        help="list execution engines and array backends (with probes)",
    ).set_defaults(handler=cmd_engines)

    report = sub.add_parser("report", help="accelerator build report")
    _add_robot_argument(report)
    report.add_argument("--function", type=_function, default=None)
    report.set_defaults(handler=cmd_report)

    timeline = sub.add_parser("timeline", help="ASCII pipeline timeline")
    _add_robot_argument(timeline)
    timeline.add_argument("--function", type=_function, default=None)
    timeline.add_argument("--jobs", type=int, default=4)
    timeline.add_argument("--width", type=int, default=72)
    timeline.set_defaults(handler=cmd_timeline)

    serve = sub.add_parser(
        "serve-bench",
        help="benchmark the repro.serve runtime (batching vs batch-1)",
    )
    _add_robot_argument(serve)
    serve.add_argument("--function", type=_function, default=None)
    serve.add_argument("--requests", type=int, default=512)
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument("--max-wait-ms", type=float, default=2.0)
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument("--shard-policy", default="round_robin",
                       choices=("round_robin", "least_loaded"))
    serve.set_defaults(handler=cmd_serve_bench)

    rollout = sub.add_parser(
        "rollout-bench",
        help="benchmark batched trajectory rollouts vs per-task stepping",
    )
    rollout.add_argument("--workload", default=None,
                         choices=("serial", "quadruped_contact"))
    rollout.add_argument("--batch", type=int, default=64)
    rollout.add_argument("--horizon", type=int, default=16)
    rollout.add_argument("--engine", default="compiled")
    rollout.add_argument("--baseline-tasks", type=int, default=4)
    rollout.set_defaults(handler=cmd_rollout_bench)

    trace = sub.add_parser(
        "trace",
        help="run a traced serve workload; export Chrome-trace JSON "
             "and kernel/telemetry summaries",
    )
    _add_robot_argument(trace)
    trace.add_argument("--function", type=_function, default=None)
    trace.add_argument("--requests", type=int, default=32)
    trace.add_argument("--horizon", type=int, default=8)
    trace.add_argument("--max-batch", type=int, default=16)
    trace.add_argument("--shards", type=int, default=2)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--per-level", action="store_true",
                       help="record per-recursion-level kernel timing")
    trace.add_argument("--out", default=None,
                       help="Chrome-trace output path "
                            "(default TRACE_<robot>.json)")
    trace.add_argument("--prometheus", action="store_true",
                       help="also print the telemetry registry in "
                            "Prometheus text exposition format")
    trace.set_defaults(handler=cmd_trace)

    serve_cmd = sub.add_parser(
        "serve",
        help="run the async dynamics server (JSON lines + HTTP scrape)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=7431)
    serve_cmd.add_argument("--shards", type=int, default=2)
    serve_cmd.add_argument("--engine", default=None,
                           help="execution engine for shard workers "
                                "(default: compiled)")
    serve_cmd.add_argument("--max-wait-ms", type=float, default=2.0)
    serve_cmd.add_argument("--max-pending", type=int, default=8192)
    serve_cmd.add_argument("--rate-rps", type=float, default=1000.0,
                           help="default tenant rate limit (cost units/s)")
    serve_cmd.add_argument("--burst", type=float, default=None)
    serve_cmd.add_argument("--autoscale", action="store_true",
                           help="grow/shrink the shard pool from measured "
                                "demand vs capacity")
    serve_cmd.add_argument("--max-shards", type=int, default=8)
    serve_cmd.add_argument("--warm", default=None,
                           help="comma-separated robots to warm the "
                                "artifact cache with")
    serve_cmd.set_defaults(handler=cmd_serve)

    serve_client = sub.add_parser(
        "serve-client",
        help="smoke-test a running server (or --selftest in-process)",
    )
    serve_client.add_argument("--host", default="127.0.0.1")
    serve_client.add_argument("--port", type=int, default=7431)
    serve_client.add_argument("--robot", default="iiwa",
                              choices=sorted(ROBOT_REGISTRY))
    serve_client.add_argument("--requests", type=int, default=16)
    serve_client.add_argument("--horizon", type=int, default=32)
    serve_client.add_argument("--window", type=int, default=8)
    serve_client.add_argument("--tenant", default="cli")
    serve_client.add_argument("--priority", default="standard",
                              choices=("interactive", "standard", "batch"))
    serve_client.add_argument("--selftest", action="store_true",
                              help="start an in-process server on an "
                                   "ephemeral port and run against it")
    serve_client.set_defaults(handler=cmd_serve_client)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
