"""Service-level latency/throughput curves for the repro.serve runtime.

The paper measures the accelerator with pre-formed batches (Fig 15); the
serving layer has to *form* them from independent requests.  This bench
sweeps the dynamic batcher's ``max_batch`` knob under a max-pressure
open-loop load and records the resulting latency-vs-throughput curve,
plus the shard-scaling and dispatch-policy effects.

The headline is measured: wall-clock requests per second of the largest
batch setting over batch-size-1 dispatch.  Acceptance anchor: dynamic
batching must sustain >= 5x the *modeled* (accelerator cycle-accounted)
service throughput of batch-size-1 dispatch for the iiwa FD workload;
that figure is reported beside the headline, labelled as modeled.

Runs under pytest (with the usual paper-vs-measured table summary) or
directly for CI smoke::

    PYTHONPATH=src python benchmarks/bench_serve.py --quick
"""

import sys

from repro.dynamics.functions import RBDFunction
from repro.serve.bench import run_serve_load

ROBOT = "iiwa"
FUNCTION = RBDFunction.FD
REQUESTS = 256
BATCH_SWEEP = (1, 4, 16, 64)
SPEEDUP_FLOOR = 5.0
#: Flush timer for the batching runs, longer than the whole submit burst:
#: batches then fill to ``max_batch`` before the timer can fire, so
#: occupancy does not depend on host speed.  The client's closing
#: ``flush()`` sends the remainder.
BURST_WAIT_S = 1.0


def sweep_batch_sizes(requests: int = REQUESTS,
                      batch_sizes=BATCH_SWEEP) -> dict[int, dict]:
    """Run the open-loop load once per max_batch; stats keyed by size."""
    out = {}
    for max_batch in batch_sizes:
        out[max_batch] = run_serve_load(
            ROBOT, FUNCTION, requests,
            max_batch=max_batch,
            max_wait_s=0.0 if max_batch == 1 else BURST_WAIT_S,
            shards=2, shard_policy="round_robin",
        )
    return out


def batching_speedup(stats: dict[int, dict],
                     key: str = "modeled_throughput_rps") -> float:
    """Throughput gain of the largest batch vs batch-1: modeled by
    default, wall clock with ``key="wall_throughput_rps"``."""
    best = max(k for k in stats if k > 1)
    base = stats[1][key]
    return stats[best][key] / base if base > 0 else float("nan")


def _headline(stats: dict[int, dict]) -> str:
    wall = batching_speedup(stats, "wall_throughput_rps")
    best = max(stats)
    return (f"wall-clock throughput vs batch-1: {wall:.1f}x "
            f"({stats[best]['wall_throughput_rps']:.0f} vs "
            f"{stats[1]['wall_throughput_rps']:.0f} req/s)\n"
            f"modeled (cycle-accounted) throughput vs batch-1: "
            f"{batching_speedup(stats):.1f}x (floor {SPEEDUP_FLOOR:.0f}x)")


def _curve_table(stats: dict[int, dict]):
    from repro.reporting import Table
    from repro.serve.bench import SERVE_TABLE_COLUMNS, serve_table_row

    table = Table(
        f"serve: {ROBOT} {FUNCTION.value} latency vs throughput "
        f"({REQUESTS} requests, 2 shards)",
        ["max_batch", *SERVE_TABLE_COLUMNS],
    )
    for max_batch, s in sorted(stats.items()):
        table.add_row(max_batch, *serve_table_row(s))
    return table


def test_serve_batching_speedup(once):
    """Dynamic batching sustains >= 5x batch-1 dispatch (iiwa FD)."""
    from conftest import record_table

    def _run():
        stats = sweep_batch_sizes()
        record_table(_curve_table(stats))
        speedup = batching_speedup(stats)
        record_table(
            f"== serve dynamic-batching speedup (iiwa FD) ==\n"
            + _headline(stats)
        )
        # Occupancy must actually rise with the knob, and the modeled
        # speedup must clear the acceptance floor.
        occupancies = [s["mean_batch_occupancy"]
                       for _, s in sorted(stats.items())]
        assert occupancies == sorted(occupancies)
        assert speedup >= SPEEDUP_FLOOR

    once(_run)


def test_serve_shard_policies(once):
    """least_loaded matches round_robin capacity on a uniform load."""
    from conftest import record_table

    def _run():
        rows = {}
        for policy in ("round_robin", "least_loaded"):
            rows[policy] = run_serve_load(
                ROBOT, FUNCTION, 128, max_batch=32, max_wait_s=2e-3,
                shards=2, shard_policy=policy,
            )
        from repro.reporting import Table

        table = Table("serve: shard dispatch policies (128 requests)",
                      ["policy", "occupancy", "modeled thr (M/s)"])
        for policy, s in rows.items():
            table.add_row(policy, s["mean_batch_occupancy"],
                          s["modeled_throughput_rps"] / 1e6)
            assert s["completed"] == 128
        record_table(table)

    once(_run)


def main(argv: list[str]) -> int:
    from repro.serve.bench import format_serve_table

    quick = "--quick" in argv
    requests = 96 if quick else REQUESTS
    batch_sizes = (1, 64) if quick else BATCH_SWEEP
    stats = sweep_batch_sizes(requests, batch_sizes)
    print(f"bench_serve: {ROBOT} {FUNCTION.value}, {requests} requests")
    print(format_serve_table(
        [(f"max_batch={k}", s) for k, s in sorted(stats.items())]
    ))
    speedup = batching_speedup(stats)
    print("\n" + _headline(stats))
    if "--json" in argv:
        from jsonout import write_bench_json

        rows = [
            {"robot": ROBOT, "function": FUNCTION, "max_batch": max_batch,
             "requests": requests, **s}
            for max_batch, s in sorted(stats.items())
        ]
        path = write_bench_json(
            "serve", rows,
            {"wall_batching_speedup":
             batching_speedup(stats, "wall_throughput_rps"),
             "batching_speedup": speedup, "floor": SPEEDUP_FLOOR},
        )
        print(f"wrote {path}")
    if speedup < SPEEDUP_FLOOR:
        print("FAIL: speedup below floor", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
