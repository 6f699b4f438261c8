#!/usr/bin/env python3
"""Compare two sets of benchmark results.

Usage: python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines that `perfbench/run.py --out FILE` appends, one
per run.  One row per (workload, metric) present in both: median and
quartiles of each side and a verdict.  With the bound that BENCHMARK.json
fixes for an end-to-end metric (none for a per-layer one):
  unresolved  the quartile spread of either side, as a share of its median,
              exceeds the bound, unless every new run beats every base run
  worse       the new median is worse than the base median by more than
              the bound (for a per-layer metric: by more than the base's
              quartile spread)
  improved    the new median is better by more than the base's quartile
              spread
  unchanged   otherwise
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, new, better: str, bound) -> str:
    sign = 1 if better == "lower" else -1
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (n3 - n1) / abs(nm) if nm else 0.0)
    all_better = all(sign * (x - y) < 0 for x in new for y in base)
    if bound is not None and spread > bound and not all_better:
        return "unresolved"
    worse_by = sign * (nm - bm)
    limit = bound * abs(bm) if bound is not None else b3 - b1
    if worse_by > limit:
        return "worse"
    if -worse_by > b3 - b1:
        return "improved"
    return "unchanged"


def load(path):
    runs = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if line.strip():
            r = json.loads(line)
            for name, m in r["metrics"].items():
                runs[r["workload"]][name].append(m["value"])
    return runs


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    meta = {m["name"]: (m["better"], m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(argv[0]), load(argv[1])
    print(f"{'workload':<8} {'metric':<46} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32}  verdict")
    for wl in sorted(set(base) & set(new)):
        for name in sorted(set(base[wl]) & set(new[wl])):
            better, bound = meta.get(name, ("lower", None))
            b, n = base[wl][name], new[wl][name]
            fmt = "/".join(["{:.4g}"] * 3)
            print(f"{wl:<8} {name:<46} {fmt.format(*quartiles(b)):>32} "
                  f"{fmt.format(*quartiles(n)):>32}  "
                  f"{verdict(b, n, better, bound)} (n={len(b)}/{len(n)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
