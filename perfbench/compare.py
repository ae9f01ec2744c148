"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records run.py appends (``--results``), one per run,
for one commit.  Run both commits with the same ``--seconds``, alternating
which side goes first, ten runs or more each; the i-th run of one file is
paired with the i-th run of the other.  For every workload and metric the
table gives each side's median and quartiles, the change's median as a
ratio of the parent's (the base), the pairs each side won, and a verdict:

* ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance;
* ``unresolved``: the spread of either side, quartile distance over
  median, is wider than the metric's bound, and not every run of the
  change beats every run of the parent;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unchanged``: otherwise.

Per-layer metrics have no bound: they are ``worse`` by the mirror of the
``improved`` rule, ``unchanged`` when both medians are equal (exact
counts), and ``unresolved`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool,
            bound: float | None) -> tuple[str, int, int]:
    """(verdict, pairs the change won, pairs the parent won)."""
    def better(x, y):
        return x < y if lower_is_better else x > y

    pairs = list(zip(parent, change))
    change_wins = sum(better(c, p) for p, c in pairs)
    parent_wins = sum(better(p, c) for p, c in pairs)
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    clear = abs(c_med - p_med) > p3 - p1
    if change_wins >= 0.9 * len(pairs) and clear:
        return "improved", change_wins, parent_wins
    if bound is None:
        if parent_wins >= 0.9 * len(pairs) and clear:
            return "worse", change_wins, parent_wins
        return ("unchanged" if c_med == p_med else "unresolved"), change_wins, parent_wins
    spread = max(_share(p3 - p1, p_med), _share(c3 - c1, c_med))
    if spread > bound and not all(better(c, p) for c in change for p in parent):
        return "unresolved", change_wins, parent_wins
    worse_by = _share(c_med - p_med if lower_is_better else p_med - c_med, p_med)
    return ("worse" if worse_by > bound else "unchanged"), change_wins, parent_wins


def _share(x: float, base: float) -> float:
    if base == 0:
        return 0.0 if x == 0 else float("inf")
    return x / abs(base)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two commits' benchmark results")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK)
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text(encoding="utf-8"))
    defined = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    for side, records in (("parent", parent), ("change", change)):
        commits = sorted({f"{r['commit']}{'+dirty' if r['dirty'] else ''}" for r in records})
        print(f"{side}: {args.parent if side == 'parent' else args.change}: "
              f"{len(records)} runs of commit(s) {', '.join(map(str, commits))}")

    groups = sorted({(r["workload"], r["trace"]) for r in parent} &
                    {(r["workload"], r["trace"]) for r in change})
    print("workload  trace  metric  unit  parent median [q1, q3]  change median [q1, q3]  "
          "change/parent  pairs won change:parent  verdict")
    for workload, trace in groups:
        a = [r for r in parent if (r["workload"], r["trace"]) == (workload, trace)]
        b = [r for r in change if (r["workload"], r["trace"]) == (workload, trace)]
        for side, runs in (("parent", a), ("change", b)):
            bad = [r["seed"] for r in runs if not r["correct"]]
            inexact = [r["seed"] for r in runs if not r["bit_exact"]]
            print(f"{workload} trace {trace} {side}: {len(runs)} runs, "
                  f"incorrect at seeds {bad or 'none'}, not bit-exact at seeds {inexact or 'none'}")
        for name in a[0]["metrics"]:
            if name not in defined or not all(name in r["metrics"] for r in a + b):
                continue
            meta = defined[name]
            xs = [r["metrics"][name] for r in a]
            ys = [r["metrics"][name] for r in b]
            label, won, lost = verdict(xs, ys, meta["better"] == "lower", meta.get("bound"))
            p1, pm, p3 = quartiles(xs)
            c1, cm, c3 = quartiles(ys)
            ratio = f"{cm / pm:.4f} (base {pm:.6g})" if pm else "n/a (base 0)"
            print(f"{workload}  {trace}  {name}  {meta['unit']}  {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                  f"{cm:.6g} [{c1:.6g}, {c3:.6g}]  {ratio}  {won}:{lost} of "
                  f"{min(len(xs), len(ys))}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
