"""Native (generated C) vs compiled (numpy plans) on all seven functions.

The ``native`` engine runs ID, M, Minv, FD and the derivatives dID, dFD
and diFD (given Minv) in C generated per robot from its execution plan;
``compiled`` runs the same plan as level-scheduled numpy sweeps.  This
bench times both on a serial arm (iiwa), a branched quadruped (hyq) and
a humanoid (atlas) at batch 1 (the latency regime, where numpy dispatch
dominates) and batch 256 (where numpy amortizes it).  Each case
alternates the two engines and keeps each one's best time, so a slow
stretch of the host hits both.

Floors: native >= 10x compiled on FD, Minv and dFD at batch 1 (target
20x), and >= 1x on every function at batch 256.  Without a C compiler
the bench prints ``SKIP`` and exits 0.

Runs under pytest (summary table) or directly for CI smoke::

    PYTHONPATH=src python benchmarks/bench_native.py --quick --json
"""

import sys
import time

import numpy as np

from repro.dynamics.batch import BatchStates
from repro.dynamics.engine import get_engine
from repro.dynamics.functions import RBDFunction
from repro.model.library import load_robot

ROBOTS = ("iiwa", "hyq", "atlas")
FUNCTIONS = tuple(RBDFunction)
BATCHES = (1, 256)
#: Batch-1 floor applies to these functions (the mpc_latency grid's ops).
LATENCY_FUNCTIONS = (RBDFunction.FD, RBDFunction.MINV, RBDFunction.DFD)
LATENCY_FLOOR = 10.0
LATENCY_TARGET = 20.0
BATCH_FLOOR = 1.0


def _call(engine, model, function, st, u, minv):
    calls = {
        RBDFunction.ID: lambda: engine.id_batch(model, st.q, st.qd, u),
        RBDFunction.M: lambda: engine.m_batch(model, st.q),
        RBDFunction.MINV: lambda: engine.minv_batch(model, st.q),
        RBDFunction.FD: lambda: engine.fd_batch(model, st.q, st.qd, u),
        RBDFunction.DID: lambda: engine.did_batch(model, st.q, st.qd, u),
        RBDFunction.DFD: lambda: engine.dfd_batch(model, st.q, st.qd, u),
        RBDFunction.DIFD: lambda: engine.difd_batch(model, st.q, st.qd, u,
                                                    minv),
    }
    return calls[function]


def _best_pair(fa, fb, reps: int) -> tuple[float, float]:
    """Best seconds of ``fa`` and ``fb``, timed alternately."""
    fa(), fb()
    best_a = best_b = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fa()
        t1 = time.perf_counter()
        fb()
        t2 = time.perf_counter()
        best_a, best_b = min(best_a, t1 - t0), min(best_b, t2 - t1)
    return best_a, best_b


def native_ready(robots=ROBOTS) -> bool:
    """Whether every bench robot runs generated C on this host."""
    native = get_engine("native")
    return all(native.kernels(load_robot(r)) is not None for r in robots)


def run(batches=BATCHES, reps: int = 7) -> list[dict]:
    native, compiled = get_engine("native"), get_engine("compiled")
    rows = []
    for robot in ROBOTS:
        model = load_robot(robot)
        for batch in batches:
            st = BatchStates.random(model, batch, seed=0)
            u = np.random.default_rng(1).normal(size=(batch, model.nv))
            minv = compiled.minv_batch(model, st.q)
            # Many more repetitions at batch 1: each call is ~10-250 us.
            n_reps = reps * 40 if batch == 1 else reps
            for function in FUNCTIONS:
                t_nat, t_comp = _best_pair(
                    _call(native, model, function, st, u, minv),
                    _call(compiled, model, function, st, u, minv), n_reps)
                rows.append({
                    "robot": robot, "function": function, "batch": batch,
                    "native_us": t_nat * 1e6, "compiled_us": t_comp * 1e6,
                    "speedup": t_comp / t_nat,
                })
    return rows


def floor_of(row: dict) -> float | None:
    if row["batch"] == 1:
        return (LATENCY_FLOOR if row["function"] in LATENCY_FUNCTIONS
                else None)
    return BATCH_FLOOR


def failures(rows: list[dict]) -> list[dict]:
    return [r for r in rows
            if floor_of(r) is not None and r["speedup"] < floor_of(r)]


def _format(rows: list[dict]) -> str:
    header = (f"{'robot':8s} {'function':8s} {'batch':>6s} "
              f"{'native(us)':>11s} {'compiled(us)':>13s} {'speedup':>8s}"
              f" {'floor':>6s}")
    lines = [header, "-" * len(header)]
    for r in rows:
        floor = floor_of(r)
        lines.append(
            f"{r['robot']:8s} {r['function'].value:8s} {r['batch']:6d} "
            f"{r['native_us']:11.1f} {r['compiled_us']:13.1f} "
            f"{r['speedup']:7.1f}x "
            f"{'' if floor is None else f'{floor:.0f}x':>6s}")
    return "\n".join(lines)


def _summary(rows: list[dict]) -> dict:
    latency = [r["speedup"] for r in rows
               if r["batch"] == 1 and r["function"] in LATENCY_FUNCTIONS]
    large = [r["speedup"] for r in rows if r["batch"] != 1]
    return {
        "min_latency_speedup": min(latency),
        "min_batch_speedup": min(large) if large else None,
        "latency_floor": LATENCY_FLOOR,
        "latency_target": LATENCY_TARGET,
        "latency_target_met": min(latency) >= LATENCY_TARGET,
        "batch_floor": BATCH_FLOOR,
    }


def test_native_bench(once):
    """native >= 10x compiled on FD/Minv/dFD at batch 1, >= 1x at 256."""
    import pytest
    from conftest import record_table

    if not native_ready():
        pytest.skip("no native libraries on this host")

    def _check():
        rows = run(reps=3)
        record_table(_format(rows))
        assert not failures(rows)

    once(_check)


def main(argv: list[str]) -> int:
    if not native_ready():
        native = get_engine("native")
        print("bench_native: SKIP (no native libraries: "
              f"{sorted(set(native.fallbacks.values()))})")
        return 0
    reps = 3 if "--quick" in argv else 7
    rows = run(reps=reps)
    print(_format(rows))
    summary = _summary(rows)
    print(f"\nmin batch-1 FD/Minv/dFD speedup "
          f"{summary['min_latency_speedup']:.1f}x (floor {LATENCY_FLOOR:.0f}x, target {LATENCY_TARGET:.0f}x: "
          f"{'met' if summary['latency_target_met'] else 'not met'}); "
          f"min batch-256 speedup {summary['min_batch_speedup']:.1f}x "
          f"(floor {BATCH_FLOOR:.0f}x)")
    if "--json" in argv:
        from jsonout import write_bench_json

        print(f"wrote {write_bench_json('native', rows, summary)}")
    bad = failures(rows)
    if bad:
        for r in bad:
            print(f"FAIL: {r['robot']} {r['function'].value} batch "
                  f"{r['batch']}: {r['speedup']:.2f}x < {floor_of(r):.0f}x",
                  file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
