"""Compare two result sets of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

Both files come from ``run.py --repeats N --out FILE`` on the same seeds.
For every (end-to-end metric, workload) row it prints each side's median
and quartiles, the share of seed-matched pairs the change wins (ties
count for neither side), the parent's quartile distance and a verdict
against the metric's bound in ``BENCHMARK.json``:

* ``improved``: the change wins at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's quartile distance;
* ``unresolved``: the parent's runs spread wider than the bound, and not
  every change run reads better than every parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``no-regression``: otherwise.

The exit status is 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Row:
    parent: Tuple[float, float, float]
    change: Tuple[float, float, float]
    wins: float
    parent_iqr: float
    verdict: str


def judge(parent: Dict[int, float], change: Dict[int, float], better: str, bound: float) -> Row:
    """The verdict for one metric on one workload; values keyed by seed."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(a: float, b: float) -> float:
        """How much better ``b`` reads than ``a`` (positive = better)."""
        return sign * (a - b)

    common = sorted(set(parent) & set(change))
    if common:
        pairs = [(parent[s], change[s]) for s in common]
    else:
        pairs = list(zip(sorted(parent.values()), sorted(change.values())))
    wins = sum(gain(a, b) > 0 for a, b in pairs) / len(pairs)
    p = quartiles(list(parent.values()))
    c = quartiles(list(change.values()))
    iqr = p[2] - p[0]
    base = abs(p[1]) or 1.0
    if wins >= 0.9 and gain(p[1], c[1]) > iqr:
        verdict = "improved"
    elif iqr / base > bound and not all(
        gain(a, b) > 0 for a in parent.values() for b in change.values()
    ):
        verdict = "unresolved"
    elif -gain(p[1], c[1]) / base > bound:
        verdict = "regressed"
    else:
        verdict = "no-regression"
    return Row(p, c, wins, iqr, verdict)


def values_by_seed(path: Path) -> Dict[Tuple[str, str], Dict[int, float]]:
    """``{(workload, metric): {seed: value}}`` of a set's untraced runs."""
    out: Dict[Tuple[str, str], Dict[int, float]] = {}
    for run in json.loads(Path(path).read_text("utf-8"))["runs"]:
        if run["trace"] or not run["result"]:
            continue
        for name, metric in run["result"]["metrics"].items():
            out.setdefault((run["workload"], name), {})[run["seed"]] = metric["value"]
    return out


def compare(parent_path: Path, change_path: Path) -> Tuple[List[str], bool]:
    contract = json.loads(BENCHMARK.read_text("utf-8"))
    parent = values_by_seed(parent_path)
    change = values_by_seed(change_path)
    lines = [f"{'workload':14s} {'metric':16s} {'parent q1/med/q3':>32s} "
             f"{'change q1/med/q3':>32s} {'wins':>5s} {'p.iqr':>9s}  verdict"]
    regressed = False
    for workload in [w["name"] for w in contract["workloads"]]:
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in parent or key not in change:
                lines.append(f"{workload:14s} {metric['name']:16s} missing on one side")
                continue
            row = judge(parent[key], change[key], metric["better"], metric["bound"])
            regressed |= row.verdict == "regressed"
            lines.append(
                f"{workload:14s} {metric['name']:16s} "
                f"{'/'.join(f'{v:.4g}' for v in row.parent):>32s} "
                f"{'/'.join(f'{v:.4g}' for v in row.change):>32s} "
                f"{row.wins:5.0%} {row.parent_iqr:9.3g}  {row.verdict}"
            )
    return lines, regressed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, regressed = compare(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
