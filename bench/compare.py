"""Compare two reports written by bench/run.py.

    python3 bench/compare.py A.json B.json

For every workload and end-to-end metric it prints both medians, the
ratio B / A with A as its base, and a verdict against the bound that
BENCHMARK.json fixes for the metric:

* ``within-bound`` — B is no worse than A by more than the bound;
* ``improved`` — B is better than A by more than the bound;
* ``worse`` — B is worse than A by more than the bound;
* ``unresolved`` — the runs of either side spread wider than the bound
  (interquartile distance over median), so the difference cannot be
  told from noise — unless every run of one side beats every run of the
  other, which settles it.

The exit code is 1 if any pairing is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    gain = sign * (statistics.median(b) - statistics.median(a)) / statistics.median(a)
    separated = (
        min(sign * v for v in b) > max(sign * v for v in a)
        or max(sign * v for v in b) < min(sign * v for v in a)
    )
    if abs(gain) <= bound:
        return "within-bound"
    if max(spread(a), spread(b)) > bound and not separated:
        return "unresolved"
    return "improved" if gain > 0 else "worse"


def report(path_a, path_b) -> bool:
    """Print the comparison; True if nothing is worse or unresolved."""
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in (path_a, path_b))
    print(f"\nA = {path_a} ({a['git_sha'][:12]})\nB = {path_b} ({b['git_sha'][:12]})")
    print(
        f"{'workload':18s} {'metric':24s} {'median A':>14s} {'median B':>14s} "
        f"{'B/A':>7s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict"
    )
    clean = True
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for metric in SPEC["end_to_end"]:
            key = metric["name"]
            values_a, values_b = (
                [run["metrics"][key]["value"] for run in side["workloads"][name]]
                for side in (a, b)
            )
            outcome = verdict(
                values_a, values_b, metric["better"], metric["bound"]
            )
            clean &= outcome in ("within-bound", "improved")
            median_a = statistics.median(values_a)
            median_b = statistics.median(values_b)
            print(
                f"{name:18s} {key:24s} {median_a:14.4f} {median_b:14.4f} "
                f"{median_b / median_a:7.3f} {spread(values_a):9.1%} "
                f"{spread(values_b):9.1%} {metric['bound']:6.0%}  {outcome}"
            )
    return clean


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(0 if report(sys.argv[1], sys.argv[2]) else 1)
