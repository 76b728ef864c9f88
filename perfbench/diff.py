"""Per-layer diff view of two benchmark runs.

    python3 perfbench/run.py --workload mpc_latency --seed 1 --trace 1 > parent.txt
    python3 perfbench/run.py --workload mpc_latency --seed 1 --trace 1 > change.txt
    python3 perfbench/diff.py parent.txt change.txt

Each argument is the saved standard output of one run (the result is
its last JSON line; the ``# host:`` stamp is shown when present).  For
every metric the table gives both values, the ratio change / parent, a
verdict by the metric's direction, and — for per-layer metrics — the
end-to-end metric and workload it should move, so a change can show
where its saving appears.  Several runs per side may be given as
``parent1.txt,parent2.txt change1.txt,change2.txt``; each side's
value is then the median of its runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from spec import MAPS_TO, metrics

#: Ratios within this distance of 1 read as "same": a single run's
#: layer numbers move by a few percent with host noise alone.
SAME_WITHIN = 0.03


def load_side(paths: str) -> tuple[dict, list[str]]:
    """Median metric values over the runs in a comma-separated list."""
    values: dict[str, list[float]] = {}
    hosts = []
    for path in paths.split(","):
        lines = Path(path).read_text().strip().splitlines()
        hosts += [ln[len("# host: "):] for ln in lines
                  if ln.startswith("# host: ")]
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(float(metric["value"]))
    return {k: statistics.median(v) for k, v in values.items()}, hosts


def verdict(better: str | None, ratio: float) -> str:
    if abs(ratio - 1.0) <= SAME_WITHIN:
        return "same"
    improved = ratio < 1.0 if better == "lower" else ratio > 1.0
    return "better" if improved else "worse"


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.4g}"


def render(parent: dict, change: dict) -> str:
    listed = metrics("end_to_end") + metrics("per_layer")
    better = {name: direction for name, _, direction in listed}
    names = [n for n, *_ in listed if n in parent or n in change]
    names += sorted((set(parent) | set(change)) - set(names))
    lines = [f"{'metric':<38} {'parent':>12} {'change':>12} {'ratio':>8} "
             f"{'verdict':<7} maps to"]
    for name in names:
        p, c = parent.get(name), change.get(name)
        if p is None or c is None:
            ratio, mark = float("nan"), "missing"
        elif p == 0:
            ratio = float("nan")
            mark = "same" if c == 0 else "n/a"
        else:
            ratio = c / p
            mark = verdict(better.get(name), ratio)
        lines.append(f"{name:<38} {_fmt(p):>12} {_fmt(c):>12} {ratio:>8.3f} "
                     f"{mark:<7} {MAPS_TO.get(name, '(end to end)')}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (parent, parent_hosts), (change, change_hosts) = map(load_side, argv)
    for label, hosts in (("parent", parent_hosts), ("change", change_hosts)):
        for host in dict.fromkeys(hosts):
            print(f"# {label} host: {host}")
    print(render(parent, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
