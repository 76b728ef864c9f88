"""Repo benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload mpc_latency --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with all instrumentation
off; ``--trace 1`` is the separate traced run that produces the
per-layer metrics (see ``layers.py``).  Human-readable lines (host
fingerprint, every metric with its unit, ops attempted / succeeded /
failed) come first; the last line of standard output is the JSON
result.  Runs from the root of a source checkout and imports the
program from its ``src/`` directory.

Exit codes: 0 on a valid, correct run; 1 when any op failed or
disagreed with its ``loop``-engine reference; 2 when the checkout has
no program to measure; 3 when the open-loop generator fell behind.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy is first imported, in this
# process and in the set-up probes it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Run every thread of the benchmark (caller, service shards, server) on
# one core: the reference computation then shares the core the measured
# work runs on, and no op pays for a wake-up on the other core.
if hasattr(os, "sched_setaffinity"):
    NPROC = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
else:
    NPROC = os.cpu_count() or 1

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: set-up is measured this many times per run (this process plus
#: fresh subprocesses, so every sample is cold) and reported as the median.
SETUP_SAMPLES = 5
#: Reference computations timed before and after each set-up.
SETUP_REF_SAMPLES = 5
#: setup_s is reported in seconds on a host where one reference
#: computation takes this long (see ``timed_setup``).
NOMINAL_REF_S = 1e-3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it (internal)")
    return parser.parse_args(argv)


def timed_setup(workload) -> tuple[float, float]:
    """Set ``workload`` up: (seconds, seconds scaled to the nominal host).

    Set-up is CPU-bound and short, so one slow stretch of the host moves
    it as much as it moves the reference; the scaled figure divides it by
    the reference time measured right around it.
    """
    from harness import Reference, Stopwatch

    ref = Reference()
    for _ in range(SETUP_REF_SAMPLES):
        ref.sample()
    with Stopwatch() as sw:
        workload.setup()
    for _ in range(SETUP_REF_SAMPLES):
        ref.sample()
    return sw.s, sw.s * NOMINAL_REF_S / ref.s


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Cold ``timed_setup`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_raw_s"], result["setup_s"]


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter; the last
    line maps workload -> its result line."""
    from workloads import WORKLOADS

    results, worst = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode in (0, 1) and lines:
            results[name] = json.loads(lines.pop())
        print(f"## {name}: exit {proc.returncode}", *lines, sep="\n")
        worst = max(worst, proc.returncode)
    print(json.dumps(results))
    return worst


def end_to_end(workload, ledger, setup_samples: list[tuple]) -> dict:
    """The end-to-end metrics of one untraced run: name -> (value, unit).

    Times are in *ref*, multiples of the reference computation's time
    around each op in the same run (:class:`harness.Reference`); the
    share within the latency limit is judged on the raw times.
    """
    from harness import median, peak_rss_mb, percentile
    from spec import metrics as listed

    point = ledger.in_ref("point")
    values = {
        "setup_s": (median([scaled for _, scaled in setup_samples]), "s"),
        "cpu_per_op_ref": (ledger.cpu_per_op_ref(), "ref"),
        "latency_p50_ref": (median(point), "ref"),
        "latency_tail_ref": (percentile(point, workload.tail_pct), "ref"),
        "rollout_p50_ref": (median(ledger.in_ref("rollout")), "ref"),
        "first_window_p50_ref": (median(ledger.in_ref("first")), "ref"),
        "slo_attain": (ledger.slo_met / ledger.attempted, "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {name: values[name] for name, *_ in listed("end_to_end")}


def raw_figures(workload, ledger) -> dict:
    """The same run in plain seconds, printed beside the metrics."""
    from harness import median, percentile

    point = ledger.latency["point"]
    streams = ledger.latency["stream"]
    return {
        "ref_ms": (ledger.ref.s * 1e3, "ms"),
        "ops_per_s": (ledger.completed / ledger.wall_s, "ops/s"),
        "cpu_per_op_ms": (ledger.cpu_s / ledger.completed * 1e3, "ms"),
        "latency_p50_ms": (median(point) * 1e3, "ms"),
        "latency_tail_ms": (percentile(point, workload.tail_pct) * 1e3, "ms"),
        "rollout_p50_ms": (median(ledger.latency["rollout"]) * 1e3, "ms"),
        "first_window_p50_ms": (median(ledger.latency["first"]) * 1e3, "ms"),
        **({"stream_p50_ms": (median(streams) * 1e3, "ms")}
           if streams else {}),
    }


def untraced_run(name: str, seed: int, seconds: float):
    from harness import Ledger, lag_problem
    from workloads import WORKLOADS

    setup_samples = [setup_probe(name, seed)
                     for _ in range(SETUP_SAMPLES - 1)]
    workload = WORKLOADS[name](seed)
    try:
        setup_samples.append(timed_setup(workload))
        workload.references()
        ledger = Ledger(workload.limits_s)
        workload.run(seconds, ledger)
    finally:
        workload.close()
    print(f"# tail percentile: p{workload.tail_pct:g} over "
          f"{len(ledger.latency['point'])} point ops; "
          f"{len(ledger.ref.samples)} reference samples; set-up samples "
          f"{', '.join(f'{s:.3f}' for s, _ in setup_samples)} s, scaled "
          f"{', '.join(f'{s:.3f}' for _, s in setup_samples)} s")
    for name, (value, unit) in raw_figures(workload, ledger).items():
        print(f"# raw {name:<39} {value:>14.6g} {unit}")
    return ledger, end_to_end(workload, ledger, setup_samples), \
        lag_problem(workload, ledger)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import fingerprint
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    if args.setup_only:
        workload = WORKLOADS[args.workload](args.seed)
        try:
            raw, scaled = timed_setup(workload)
        finally:
            workload.close()
        print(json.dumps({"setup_raw_s": raw, "setup_s": scaled}))
        return 0

    print(f"# host: {json.dumps(fingerprint(NPROC), sort_keys=True)}")
    if args.trace:
        from layers import traced_run

        ledger, metrics, problem = traced_run(args.workload, args.seed,
                                              args.seconds)
    else:
        ledger, metrics, problem = untraced_run(args.workload, args.seed,
                                                args.seconds)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: attempted="
          f"{ledger.attempted} succeeded={ledger.completed} "
          f"failed={ledger.failed} (wrong results: {ledger.wrong}) "
          f"error_frac={ledger.failed / max(ledger.attempted, 1):.6f} "
          "fraction")
    for error in ledger.errors:
        print(f"# error: {error}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:<44} {value:>14.6g} {unit}")
    if problem is not None:
        print(f"perfbench: invalid run: {problem}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
