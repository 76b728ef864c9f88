"""Ragged cross-robot batching: coalesced vs fragmented serving.

A heterogeneous fleet (one queue per (robot, function)) fragments into
per-robot batches unless ``BatchPolicy.coalesce`` folds compatible
queues into one ragged batch per flush
(:class:`repro.dynamics.RaggedBatch`).  This drives an identical
interleaved multi-robot load through both policies and records
throughput, merged-flush stats, and a per-request result-identity check
(coalescing must not change any answer, bit for bit).

Acceptance anchor: the coalesced serve run must actually merge queues
(``flushed_merged >= 1``) while returning bitwise-identical results.

Runs under pytest (with the usual summary table) or directly for CI
smoke::

    PYTHONPATH=src python benchmarks/bench_ragged.py --quick
"""

import sys
import time

import numpy as np

from repro.dynamics.functions import RBDFunction
from repro.model.library import load_robot
from repro.serve import BatchPolicy, DynamicsService

#: Mixed-robot serve load: requests per robot, interleaved round-robin.
SERVE_ROBOTS = ("iiwa", "hyq", "quadruped_arm")
SERVE_REQUESTS_PER_ROBOT = 24


def _run_serve_mode(coalesce: bool, requests_per_robot: int,
                    robots=SERVE_ROBOTS) -> tuple[dict, list]:
    """One mixed-robot FD load through the service; returns (stats row,
    per-request result values in submission order)."""
    rng = np.random.default_rng(7)
    inputs = []
    for k in range(requests_per_robot):
        for robot in robots:
            nv = load_robot(robot).nv
            inputs.append((robot, rng.standard_normal(nv),
                           rng.standard_normal(nv), rng.standard_normal(nv)))
    policy = BatchPolicy(max_batch=64, max_wait_s=2e-3, coalesce=coalesce)
    service = DynamicsService(policy=policy, n_shards=1,
                              warm_robots=list(robots))
    t0 = time.perf_counter()
    futures = [service.submit(robot, RBDFunction.FD, q, qd, u)
               for robot, q, qd, u in inputs]
    values = [np.asarray(f.result(timeout=60).value) for f in futures]
    wall_s = time.perf_counter() - t0
    stats = service.stats()
    service.close()
    n = len(inputs)
    return {
        "mode": "coalesced" if coalesce else "fragmented",
        "requests": n,
        "wall_s": wall_s,
        "throughput_rps": n / wall_s,
        "batches": sum(stats["engine_batches"].values()),
        "mean_batch_occupancy": stats["mean_batch_occupancy"],
        "flushed_merged": stats["flushed_merged"],
        "queues_per_flush": stats["queues_per_flush"],
        "ragged_batches": stats["ragged_batches"],
        "ragged_segments": stats["ragged_segments"],
    }, values


def run_serve_bench(requests_per_robot=SERVE_REQUESTS_PER_ROBOT):
    """Coalesced vs fragmented rows + the result-identity verdict."""
    fragmented, frag_values = _run_serve_mode(False, requests_per_robot)
    coalesced, coal_values = _run_serve_mode(True, requests_per_robot)
    identical = all(
        np.array_equal(a, b) for a, b in zip(frag_values, coal_values)
    )
    return [fragmented, coalesced], identical


def _serve_table(rows):
    from repro.reporting import Table

    table = Table(
        "ragged: mixed-robot serve, coalesced vs fragmented",
        ["mode", "requests", "batches", "occupancy", "merged",
         "queues/flush", "throughput (r/s)"],
    )
    for row in rows:
        table.add_row(row["mode"], row["requests"], row["batches"],
                      row["mean_batch_occupancy"], row["flushed_merged"],
                      row["queues_per_flush"], row["throughput_rps"])
    return table


def test_coalesced_serving(once):
    """Serve coalescing merges queues and changes no result."""
    from conftest import record_table

    def _run():
        serve_rows, identical = run_serve_bench(requests_per_robot=8)
        record_table(_serve_table(serve_rows))
        coalesced = serve_rows[1]
        assert coalesced["flushed_merged"] >= 1, coalesced
        assert coalesced["ragged_batches"] >= 1, coalesced
        assert identical, "coalesced results diverged from fragmented"

    once(_run)


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    requests_per_robot = 8 if quick else SERVE_REQUESTS_PER_ROBOT
    serve_rows, identical = run_serve_bench(requests_per_robot)
    print(f"bench_ragged: {'quick' if quick else 'full'} mode")
    print(_serve_table(serve_rows).render())
    print(f"\ncoalesced results identical to fragmented: {identical}")
    if "--json" in argv:
        from jsonout import write_bench_json

        path = write_bench_json(
            "ragged", serve_rows,
            {"serve_results_identical": identical,
             "coalesced_merged_flushes": serve_rows[1]["flushed_merged"],
             "coalesced_queues_per_flush":
                 serve_rows[1]["queues_per_flush"]},
        )
        print(f"wrote {path}")
    if not identical:
        print("FAIL: coalesced serve results diverged", file=sys.stderr)
        return 1
    if serve_rows[1]["flushed_merged"] < 1:
        print("FAIL: coalescing mode never merged a flush", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
