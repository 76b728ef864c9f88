"""Shared serve-benchmark harness: load driver + result-table rendering.

Used by the ``python -m repro serve-bench`` CLI subcommand and by
``benchmarks/bench_serve.py`` (both pytest and direct-run modes), so the
measurement protocol and the table shape exist in exactly one place.
"""

from __future__ import annotations

from repro.dynamics.functions import RBDFunction

#: The serve-bench result columns, shared by every renderer of
#: run_serve_load stats: measured wall-clock throughput first, the
#: accelerator cycle model's throughput last and labelled as modeled.
SERVE_TABLE_COLUMNS = ("wall req/s", "occupancy", "p50 (ms)", "p99 (ms)",
                       "modeled thr (M/s)")


def run_serve_load(
    robot: str,
    function: RBDFunction,
    requests: int,
    max_batch: int,
    max_wait_s: float,
    shards: int,
    shard_policy: str,
    seed: int = 0,
) -> dict:
    """Drive the serve runtime with a max-pressure open-loop load and
    return its stats dict."""
    from repro.serve.batcher import BatchPolicy
    from repro.serve.clients import OpenLoopClient
    from repro.serve.service import DynamicsService

    policy = BatchPolicy(
        max_batch=max_batch, max_wait_s=max_wait_s,
        max_pending=max(4096, requests),
    )
    with DynamicsService(policy, n_shards=shards, shard_policy=shard_policy,
                         warm_robots=[robot]) as service:
        client = OpenLoopClient(service, robot, function, seed=seed)
        report = client.run(requests, time_scale=0.0)
        stats = service.stats()
    stats["client_mean_latency_ms"] = report.mean_latency_s * 1e3
    return stats


def serve_table_row(stats: dict) -> tuple:
    """One run_serve_load stats dict -> the SERVE_TABLE_COLUMNS cells."""
    return (stats["wall_throughput_rps"], stats["mean_batch_occupancy"],
            stats["wall_p50_ms"], stats["wall_p99_ms"],
            stats["modeled_throughput_rps"] / 1e6)


def format_serve_table(rows: list[tuple[str, dict]],
                       title: str = "serve-bench") -> str:
    """Render (label, run_serve_load stats) rows via repro.reporting."""
    from repro.reporting import Table

    table = Table(title, ["mode", *SERVE_TABLE_COLUMNS])
    for label, s in rows:
        table.add_row(label, *serve_table_row(s))
    return table.render()
