#!/usr/bin/env python3
"""Summarise or compare run records written by run.py.

    python3 perfbench/compare.py perfbench/out/*-trace0.json
    python3 perfbench/compare.py --base OLD/*.json --new NEW/*.json

With one group of records: per workload and metric, the median, the
quartiles and the spread (quartile distance over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them), next to the metric's
bound from BENCHMARK.json.  With two groups: also the change of the new
median against the base median as a share of it, signed so that positive
means worse.  Exits 1 when a spread (other than setup_s's) or a change
exceeds its bound, and 2, comparing nothing, when the records were made
with different ``-O`` settings: with asserts off the decoder does less
work, so such runs measure different programs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> dict:
    """(workload, trace) -> metric -> list of values, plus units and optimize flags."""
    groups: dict = defaultdict(lambda: defaultdict(list))
    units, optimize = {}, set()
    for path in paths:
        record = json.loads(Path(path).read_text())
        meta = record["meta"]
        optimize.add(meta["optimize"])
        for name, m in record["result"]["metrics"].items():
            groups[(meta["workload"], meta["trace"])][name].append(m["value"])
            units[name] = m["unit"]
    return {"groups": groups, "units": units, "optimize": optimize}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="*", help="records of one group")
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--new", nargs="+", default=[])
    args = parser.parse_args(argv)
    base = load(args.base or args.records)
    new = load(args.new) if args.new else None
    flags = base["optimize"] | (new["optimize"] if new else set())
    if len(flags) > 1:
        print(f"compare: records mix -O settings {sorted(flags)}; refusing to compare",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    bad = False
    for key in sorted(base["groups"]):
        print(f"{key[0]} (trace={key[1]})")
        for name, values in base["groups"][key].items():
            med, q1, q3, sp = spread(values)
            bound, better = bounds.get(name, (None, None))
            line = (f"  {name:<36} n={len(values):<3} median={med:<14.6g} q1={q1:<14.6g} "
                    f"q3={q3:<14.6g} spread={sp:.4f}")
            if bound is not None:
                over = sp > bound and name != "setup_s"
                bad |= over
                line += f" bound={bound}{' OVER' if over else ''}"
            if new and name in new["groups"].get(key, {}):
                new_med = spread(new["groups"][key][name])[0]
                change = (new_med - med) / med if med else 0.0
                worse = change if better == "lower" else -change
                line += f" new_median={new_med:.6g} worse_by={worse:+.4f}"
                if bound is not None and worse > bound:
                    bad = True
                    line += " REGRESSION"
            print(line + f" {base['units'][name]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
