"""Walkthrough: dynamics-as-a-service with the repro.serve runtime.

The paper's accelerator earns its throughput from batched workloads that
keep the multifunctional pipelines full (Fig 15-17).  A service facing
many independent robots has to build those batches on the fly: this
example stands up a :class:`repro.serve.DynamicsService`, pushes an
open-loop Poisson load and a closed-loop MPC client through it, and
prints the service-level latency/throughput picture.

Batched execution: once the batcher has coalesced a batch, the shard
evaluates it with the ``"compiled"`` engine — level-scheduled kernels
over the robot's cached execution plan (:mod:`repro.dynamics.plan`), so
a 256-task batch costs one sweep per tree *depth level* with all
independent branches fused, on a preallocated workspace.  Pass
``engine="loop"`` (per-task reference) to
:class:`~repro.serve.DynamicsService` to compare; results are identical
to 1e-10 and the serving engine is recorded per batch in the metrics
(see ``benchmarks/bench_plan.py``).

Run with ``PYTHONPATH=src python examples/serving.py``.
"""

import numpy as np

from repro.apps.workloads import chain_inputs
from repro.dynamics.functions import RBDFunction, evaluate
from repro.model.library import load_robot
from repro.serve import (
    BatchPolicy,
    ClosedLoopClient,
    DynamicsService,
    OpenLoopClient,
)

ROBOT = "iiwa"


def main() -> None:
    model = load_robot(ROBOT)

    # 1. Stand the service up: batches of up to 64 same-(robot, function)
    #    requests, flushed after at most 1 ms; two modeled accelerator
    #    shards behind a least-loaded dispatcher.
    policy = BatchPolicy(max_batch=64, max_wait_s=1e-3, max_pending=8192)
    with DynamicsService(policy, n_shards=2, shard_policy="least_loaded",
                         warm_robots=[ROBOT]) as service:
        # 2. A single request round trip: futures resolve to ServeResult.
        rng = np.random.default_rng(0)
        q, qd = model.random_state(rng)
        tau = rng.normal(size=model.nv)
        result = service.submit(ROBOT, RBDFunction.FD, q, qd, tau).result(
            timeout=10.0
        )
        direct = evaluate(model, RBDFunction.FD, q, qd, tau)
        print(f"single FD request: batch_size={result.batch_size}, "
              f"shard={result.shard}, "
              f"modeled latency {result.modeled_latency_s * 1e6:.2f} us, "
              f"max |serve - direct| = "
              f"{np.max(np.abs(result.value - direct)):.2e}")

        # 2b. A deadline-bound client: urgent=True skips the batcher and
        #     dispatches immediately (no max_wait_s coalescing delay).
        urgent = service.submit(ROBOT, RBDFunction.FD, q, qd, tau,
                                urgent=True).result(timeout=10.0)
        print(f"urgent FD request: batch_size={urgent.batch_size} "
              f"(bypassed the batcher), engine={urgent.engine}")

        # 3. A serial chain (the 4 RK4 sensitivity stages of one sampling
        #    point): executes in order on one shard, timed with chained
        #    jobs (Fig 13).
        qs, qds, taus = chain_inputs(model, chain_length=4, seed=3)
        chain = service.submit_chain(ROBOT, RBDFunction.FD, qs, qds, taus)
        chain_result = chain[-1].result(timeout=10.0)
        chain_us = service.config.cycles_to_seconds(
            chain_result.modeled_makespan_cycles) * 1e6
        print(f"RK4-style chain of 4: modeled makespan {chain_us:.2f} us "
              f"(serialized stages, vs {result.modeled_latency_s * 1e6:.2f} "
              f"us for one pipelined task)")

        # 4. Open-loop Poisson load: 400 independent FD requests arriving
        #    at 20 kHz (time compressed) — the batcher coalesces them.
        open_report = OpenLoopClient(
            service, ROBOT, RBDFunction.FD, rate_rps=20_000.0, seed=1
        ).run(400, time_scale=0.0)
        print(f"open-loop: {open_report.completed}/{open_report.submitted} "
              f"completed, mean latency "
              f"{open_report.mean_latency_s * 1e3:.2f} ms")

        # 5. A closed-loop MPC client: submit FD, wait, integrate, repeat.
        closed_report = ClosedLoopClient(service, ROBOT, dt=0.01,
                                         seed=2).run(25)
        print(f"closed-loop: {closed_report.completed} control steps, "
              f"mean round trip "
              f"{closed_report.mean_latency_s * 1e3:.2f} ms")

        # 6. The service-level scoreboard.
        stats = service.stats()
        print("\nservice stats:")
        for key in ("completed", "accepted", "rejected", "urgent",
                    "flushed_full", "flushed_timeout",
                    "mean_batch_occupancy", "cache_hits", "cache_misses",
                    "engine", "engine_batches"):
            print(f"  {key:22s} {stats[key]}")
        print(f"  modeled throughput     "
              f"{stats['modeled_throughput_rps'] / 1e6:.2f} Mtasks/s")


if __name__ == "__main__":
    main()
