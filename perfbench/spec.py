"""Metric definitions.  Names, units and directions come from
``BENCHMARK.json`` at the checkout root; this module adds, for each
per-layer metric, the end-to-end metric (at a workload) it should move.
Imports nothing from the program, so the diff view runs anywhere.
"""

import json
from pathlib import Path

ROBOTS = ("iiwa", "hyq", "atlas")
GRID_FUNCTIONS = ("FD", "Minv", "dFD")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def metrics(kind: str) -> list[tuple[str, str, str]]:
    """(name, unit, better) of each metric BENCHMARK.json lists under
    ``kind``: ``"end_to_end"`` (untraced run) or ``"per_layer"``."""
    listed = json.loads(BENCHMARK.read_text())[kind]
    return [(m["name"], m["unit"], m["better"]) for m in listed]


def _maps_to() -> dict:
    """Per-layer metric -> the end-to-end metric@workload it should move."""
    mpc, srv = "mpc_latency", "served_mix"
    # n=256 batches run in no end-to-end workload (README: why
    # offline_batch was left out).
    none = "(per-layer only)"
    out = {}
    for r in ROBOTS:
        for f in GRID_FUNCTIONS:
            out[f"plan.call_us.{r}.{f}.n1"] = f"latency_p50_ref@{mpc}"
            out[f"plan.call_ms.{r}.{f}.n256"] = none
    out.update({
        "plan.level_us.n1": f"latency_p50_ref@{mpc}",
        "plan.mops_per_s.n256": none,
        "engine.overhead_us.n1": f"latency_p50_ref@{mpc}",
        "batch.overhead_us.n1": f"latency_p50_ref@{mpc}",
        "batch.overhead_ms.n256": none,
        "rollout.step_us_per_row.iiwa": f"rollout_p50_ref@{srv}",
        "rollout.step_us_per_row.hyq_contact": f"rollout_p50_ref@{mpc}",
        "rollout.kernel_frac": f"rollout_p50_ref@{srv}",
        "contact.cfd_ms.hyq": f"rollout_p50_ref@{mpc}",
        "serve.overhead_us.urgent": f"latency_p50_ref@{mpc}",
        "serve.queue_ms.p50": f"latency_p50_ref@{srv}",
        "serve.execute_ms.p50": f"latency_p50_ref@{srv}",
        "serve.wall_p50_ms": f"latency_p50_ref@{srv}",
        "serve.window_ms.p50": f"first_window_p50_ref@{srv}",
        "serve.occupancy": f"cpu_per_op_ref@{srv}",
        "serve.queues_per_flush": f"latency_tail_ref@{srv}",
        "serve.timeout_flush_frac": f"slo_attain@{srv}",
        "serve.retries": f"error_frac@{srv}",
        "serve.shed": f"error_frac@{srv}",
        "serve.failed": f"error_frac@{srv}",
        "gateway.admit_us.p50": f"latency_p50_ref@{srv}",
        "gateway.overhead_ms": f"latency_p50_ref@{srv}",
        "gateway.refused_frac": f"slo_attain@{srv}",
        "socket.overhead_ms": f"latency_p50_ref@{srv}",
        "socket.bytes_per_op": f"cpu_per_op_ref@{srv}",
        "loadgen.lag_p99_ms": f"run validity@{srv}",
        "loadgen.offered_per_s": f"run validity@{srv}",
        "tracing.overhead_frac": "latency_p50_ref@traced workload",
    })
    return out


MAPS_TO = _maps_to()
