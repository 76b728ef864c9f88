"""Structure-compiled engine vs the per-task loop reference.

The compiled engine replays a per-robot execution plan
(:mod:`repro.dynamics.plan`): recursions scheduled by tree *depth level*
(independent branches fused into one array op per level), transforms
refreshed in one op per joint kind, packed-column mass-matrix and
derivative sweeps, and preallocated per-thread workspaces.  It is the
process-wide default engine and the one ``repro.serve`` ships.

This bench times ``"compiled"`` against the per-task ``"loop"``
reference on a serial robot (iiwa) and three branched robots (hyq,
quadruped_arm, atlas) across the batch sizes the serve runtime produces.
The loop engine is a Python loop over scalar per-task kernels, so its
cost is linear in the batch: batches larger than :data:`LOOP_SAMPLE`
time the loop on their first ``LOOP_SAMPLE`` tasks and scale by
``batch / LOOP_SAMPLE`` (the ``loop_tasks`` JSON field records how many
tasks were timed).

Acceptance anchor: compiled must be >= 5x faster than loop on every
robot and function at batch >= 64 — in particular iiwa FD at batch 256.
The CI smoke (``--quick``) checks FD at batch 64 on iiwa and
quadruped_arm.

Runs under pytest (with the usual summary table) or directly for CI
smoke::

    PYTHONPATH=src python benchmarks/bench_plan.py --quick
"""

import sys
import time

import numpy as np

from repro.dynamics import BatchStates, batch_evaluate
from repro.dynamics.functions import RBDFunction
from repro.dynamics.plan import plan_for
from repro.model.library import load_robot

#: (robot, is_branched) — one serial chain, three branched topologies
#: (atlas is the high-DOF stressor the packed sweeps target).
ROBOTS = (("iiwa", False), ("hyq", True), ("quadruped_arm", True),
          ("atlas", True))
BATCHES = (1, 64, 256)
FUNCTIONS = (RBDFunction.FD, RBDFunction.DFD)
#: compiled / loop floor at every batch >= FLOOR_MIN_BATCH.  Measured
#: ratios on a 2-core host sit at 60-260x there, so only a gross
#: regression (or a broken kernel path falling back to per-task work)
#: trips it.  At batch 1 there is nothing to amortize and no floor.
SPEEDUP_FLOOR = 5.0
FLOOR_MIN_BATCH = 64
#: Tasks the loop engine is timed on at larger batches (see module doc).
LOOP_SAMPLE = 32


def _time_engine(model, function, states, u, engine, reps) -> float:
    """Best-of-``reps`` wall seconds for one batched call."""
    batch_evaluate(model, function, states, u, engine=engine)   # warm-up
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        batch_evaluate(model, function, states, u, engine=engine)
        best = min(best, time.perf_counter() - t0)
    return best


def run_plan_bench(robots=ROBOTS, batches=BATCHES,
                   functions=FUNCTIONS) -> list[dict]:
    """Rows of {robot, function, batch, loop_s, loop_tasks, compiled_s,
    speedup} (speedup = loop / compiled)."""
    rows = []
    for robot, branched in robots:
        model = load_robot(robot)
        for batch in batches:
            states = BatchStates.random(model, batch, seed=0)
            u = np.random.default_rng(1).normal(size=(batch, model.nv))
            k = min(batch, LOOP_SAMPLE)
            sample = BatchStates(states.q[:k], states.qd[:k])
            for function in functions:
                loop_s = _time_engine(
                    model, function, sample, u[:k], "loop", reps=2
                ) * batch / k
                compiled_s = _time_engine(
                    model, function, states, u, "compiled", reps=5
                )
                rows.append({
                    "robot": robot,
                    "branched": branched,
                    "function": function,
                    "batch": batch,
                    "loop_s": loop_s,
                    "loop_tasks": k,
                    "compiled_s": compiled_s,
                    "speedup": loop_s / compiled_s,
                })
    return rows


def _plan_table(rows):
    from repro.reporting import Table

    table = Table(
        "plan: compiled vs loop (speedup = loop / compiled)",
        ["robot", "function", "batch", "loop (ms)", "compiled (ms)",
         "speedup"],
    )
    for row in rows:
        table.add_row(
            row["robot"], row["function"].value, row["batch"],
            row["loop_s"] * 1e3, row["compiled_s"] * 1e3, row["speedup"],
        )
    return table


def _schedule_lines(robots=ROBOTS) -> str:
    lines = ["== compiled level schedules =="]
    for robot, _ in robots:
        info = plan_for(load_robot(robot)).describe()
        lines.append(
            f"{robot}: {info['links']} links -> {info['levels']} levels, "
            f"widths {info['level_widths']} ({info['branches']} branches)"
        )
    return "\n".join(lines)


def _floor_violations(rows) -> list[str]:
    """Cells at batch >= FLOOR_MIN_BATCH below the speedup floor."""
    return [
        f"{row['robot']} {row['function'].value} @ {row['batch']}: "
        f"{row['speedup']:.1f}x < floor {SPEEDUP_FLOOR:.0f}x"
        for row in rows
        if row["batch"] >= FLOOR_MIN_BATCH
        and row["speedup"] < SPEEDUP_FLOOR
    ]


def test_compiled_engine_speedup(once):
    """Compiled >= 5x loop on every robot x function at batch >= 64."""
    from conftest import record_table

    def _run():
        rows = run_plan_bench()
        record_table(_plan_table(rows))
        record_table(_schedule_lines())
        assert not _floor_violations(rows), _floor_violations(rows)

    once(_run)


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    robots = (("iiwa", False), ("quadruped_arm", True)) if quick else ROBOTS
    batches = (FLOOR_MIN_BATCH,) if quick else BATCHES
    functions = (RBDFunction.FD,) if quick else FUNCTIONS
    rows = run_plan_bench(robots, batches, functions)
    print(f"bench_plan: {'quick' if quick else 'full'} mode")
    print(_plan_table(rows).render())
    print()
    print(_schedule_lines(robots))
    floored = [r for r in rows if r["batch"] >= FLOOR_MIN_BATCH]
    worst = min(r["speedup"] for r in floored)
    print(f"\ncompiled vs loop at batch >= {FLOOR_MIN_BATCH}: worst "
          f"{worst:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)")
    violations = _floor_violations(rows)
    for line in violations:
        print(f"below floor: {line}", file=sys.stderr)
    if "--json" in argv:
        from jsonout import write_bench_json

        from repro import obs

        # One extra profiled pass per (robot, function) at the largest
        # batch — after the timing loops, which ran with hooks disabled —
        # so the JSON carries the per-kernel breakdown alongside the
        # end-to-end numbers.
        profiler = obs.KernelProfiler(per_level=True)
        tracer = obs.Tracer()
        with obs.profiled(profiler=profiler, tracer=tracer):
            for robot, _ in robots:
                model = load_robot(robot)
                batch = max(batches)
                states = BatchStates.random(model, batch, seed=0)
                u = np.random.default_rng(1).normal(size=(batch, model.nv))
                for function in functions:
                    batch_evaluate(model, function, states, u,
                                   engine="compiled")
        json_rows = [
            {**row, "engine": "compiled", "backend": "numpy"}
            for row in rows
        ]
        path = write_bench_json(
            "plan", json_rows,
            {"worst_speedup": worst, "floor": SPEEDUP_FLOOR,
             "floor_min_batch": FLOOR_MIN_BATCH,
             "kernel_breakdown": profiler.snapshot(),
             "trace_summary": tracer.summary()},
        )
        print(f"wrote {path}")
    if violations:
        print("FAIL: compiled engine below the loop speedup floor",
              file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
