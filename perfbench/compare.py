#!/usr/bin/env python3
"""Compare benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json [BASE.json ...] --vs NEW.json [...]

All records must be of one workload and trace mode, and all must have the
same mpmath backend: results from different arithmetic backends are not
comparable, so the comparison is refused (exit code 2).  For each metric it
prints the median and quartiles of each side and the change of the median.
An end-to-end metric whose median got worse by more than its bound in
BENCHMARK.json is marked WORSE, and one whose base quartiles lie further
apart than the bound is marked UNRESOLVED.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from summary import quartile_spread

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="+")
    parser.add_argument("--vs", nargs="+", required=True, dest="new")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    records = base + new
    backends = {r["stamp"]["mpmath_backend"] for r in records}
    if len(backends) > 1:
        print(f"compare: refusing to compare mpmath backends "
              f"{sorted(backends)}", file=sys.stderr)
        return 2
    kinds = {(r["workload"], r["trace"]) for r in records}
    if len(kinds) > 1:
        print(f"compare: records mix workloads or trace modes: "
              f"{sorted(kinds)}", file=sys.stderr)
        return 2
    for key in ("nproc", "python", "mpmath"):
        seen = {str(r["stamp"][key]) for r in records}
        if len(seen) > 1:
            print(f"# note: {key} differs: {sorted(seen)}")
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {records[0]['workload']}, trace {records[0]['trace']}: "
          f"{len(base)} base and {len(new)} new runs")
    for name in base[0]["result"]["metrics"]:
        b = [r["result"]["metrics"][name]["value"] for r in base]
        n = [r["result"]["metrics"][name]["value"] for r in new]
        bq, nq = quartiles(b), quartiles(n)
        change = (nq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
        worse = change if better.get(name) == "lower" else -change
        flag = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            if len(b) > 1 and bq[1] and quartile_spread(b) > bound:
                flag = "  UNRESOLVED (base spread exceeds the bound)"
            elif worse > bound:
                flag = "  WORSE"
        print(f"{name}: base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
              f"new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]  "
              f"change {change:+.1%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
