"""Measurement plumbing shared by the workloads and the traced run.

Nothing here touches the program under test except through the
``repro`` public API: percentiles, the per-phase op ledger, the
correctness comparison against the ``loop`` engine, peak memory and
the host fingerprint every result is stamped with.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import resource
import time
from collections import defaultdict

import numpy as np

#: The repo's equivalence contract: every engine matches ``loop`` here.
TOL = dict(rtol=1e-10, atol=1e-10)


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    return float(np.percentile(np.asarray(values, dtype=float), p))


def median(values) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def matches(value, ref) -> bool:
    """Whether ``value`` equals the ``loop`` reference at :data:`TOL`.

    Handles arrays, JSON lists from the socket, and the dataclass
    results (``FDDerivatives``, ``TaskTrajectory``) field by field;
    ``None`` fields must be ``None`` on both sides.
    """
    if dataclasses.is_dataclass(ref):
        return all(
            matches(getattr(value, f.name), getattr(ref, f.name))
            for f in dataclasses.fields(ref)
        )
    if ref is None:
        return value is None
    a = np.asarray(value, dtype=float)
    b = np.asarray(ref, dtype=float)
    return a.shape == b.shape and bool(np.allclose(a, b, **TOL))


class Reference:
    """The benchmark's own fixed reference computation, timed on the
    calling thread between the workload's ops.

    The hosts this runs on share cores with other tenants: the speed of
    single-threaded compute drifts by up to ~2x over stretches of 0.1 s
    to minutes, every op of a run alike.  Timings are therefore reported
    in *ref*, multiples of this computation's time: small-matrix numpy
    arithmetic of the kind the dynamics kernels do, about 1 ms.  It is
    timed in thread CPU time, so waiting for the interpreter lock while
    the service's threads run does not count.  Each op's latency is
    divided by the reference time around the op's start (:meth:`local`),
    not by one figure for the whole run: a run's slow stretches then
    weigh on its tail no more than its fast ones.
    """

    _MATRICES = [np.random.default_rng(i).normal(size=(6, 6))
                 for i in range(8)]
    ROUNDS = 25
    #: Samples around an instant whose median is the local reference.
    LOCAL = 5

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: perf_counter instant at which each sample started.
        self.times: list[float] = []

    def sample(self) -> None:
        """Run the computation once and record its time."""
        self.times.append(time.perf_counter())
        c0 = time.thread_time()
        x = self._MATRICES[0]
        for i in range(self.ROUNDS):
            x = (self._MATRICES[i % 8] @ x) * 0.1 + float(
                np.cross(x[:3, 0], x[3:, 1]).sum())
        self.samples.append(time.thread_time() - c0)

    @property
    def s(self) -> float:
        """Median seconds of one reference computation in this run."""
        return median(self.samples)

    def local(self, at) -> np.ndarray:
        """Reference seconds around each instant in ``at``: the median of
        the :data:`LOCAL` samples taken nearest to it in time."""
        times = np.asarray(self.times)
        samples = np.asarray(self.samples)
        width = min(self.LOCAL, len(times))
        first = np.clip(np.searchsorted(times, at) - width // 2, 0,
                        len(times) - width)
        return np.median(samples[first[:, None] + np.arange(width)], axis=1)


class Ledger:
    """Op records of one timed phase.

    Every op is *attempted*; it *fails* when it raises, is refused, or
    returns a result that does not match its reference.  Latencies are
    kept per op kind (``"point"`` / ``"rollout"`` / ``"stream"``, and
    ``"first"`` for the time to a stream's first window), each with the
    instant the op started, so each median describes one kind of work.
    """

    def __init__(self, limits_s: dict[str, float]) -> None:
        #: Latency limit per op kind; an op that fails misses it too.
        self.limits_s = limits_s
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.slo_met = 0
        #: Seconds per successful op by kind, and when each started.
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.started: dict[str, list[float]] = defaultdict(list)
        #: Reference computation samples taken during the phase.
        self.ref = Reference()
        #: Wall span and process CPU seconds of the phase (see timed).
        self.wall_s = 0.0
        self.cpu_s = 0.0
        #: Open loop: generator lateness per op, seconds, and ops offered.
        self.lag_s: list[float] = []
        self.offered = 0
        self.errors: list[str] = []

    def ok(self, kind: str, at: float, latency_s: float,
           correct: bool) -> None:
        """Book an op of ``kind`` that started (or was due) at ``at``."""
        self.attempted += 1
        if not correct:
            self.failed += 1
            self.wrong += 1
            return
        self.latency[kind].append(latency_s)
        self.started[kind].append(at)
        if latency_s <= self.limits_s[kind]:
            self.slo_met += 1

    def first_window(self, at: float, latency_s: float) -> None:
        """Book the time from ``at`` to a stream's first window."""
        self.latency["first"].append(latency_s)
        self.started["first"].append(at)

    def fail(self, kind: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def timed(self, phase) -> None:
        """Run ``phase()`` and book its wall span and process CPU time
        (all threads), the latter less the reference samples it took."""
        w0, c0 = time.perf_counter(), time.process_time()
        phase()
        self.cpu_s = time.process_time() - c0 - sum(self.ref.samples)
        self.wall_s = time.perf_counter() - w0

    def in_ref(self, kind: str) -> np.ndarray:
        """Each latency of ``kind`` over the reference time around it."""
        return (np.asarray(self.latency[kind])
                / self.ref.local(self.started[kind]))

    def cpu_per_op_ref(self) -> float:
        """Process CPU time per completed op over the mean reference
        time (samples spread over the phase, as the CPU time is)."""
        return self.cpu_s / self.completed / float(np.mean(self.ref.samples))


def lag_problem(workload, ledger: Ledger) -> str | None:
    """Why an open-loop phase is invalid, or None when the generator
    kept up (closed loops have no generator)."""
    if not ledger.lag_s:
        return None
    limit = workload.LAG_LIMIT_SHARE * workload.limits_s["point"]
    lag = percentile(ledger.lag_s, 99.0)
    if lag > limit:
        return (f"load generator fell behind: lag p99 {lag * 1e3:.2f} ms > "
                f"{limit * 1e3:.2f} ms")
    return None


def fingerprint(nproc: int) -> dict:
    """Host stamp printed with every result; ``nproc`` is the number of
    cores the process could use before it pinned itself to one."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "cores_used": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "loadavg_1m": round(os.getloadavg()[0], 2),
        "platform": platform.platform(terse=True),
    }


class Stopwatch:
    """``with Stopwatch() as sw: ...`` then ``sw.s`` (perf_counter)."""

    def __enter__(self) -> "Stopwatch":
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.s = time.perf_counter() - self.t0
