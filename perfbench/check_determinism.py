#!/usr/bin/env python3
"""The benchmark's own test: determinism of inputs and traced counts.

    python3 perfbench/check_determinism.py [workload ...]

For each workload, two traced runs with the same seed must report the same
input digest and exactly the same counts: every per-layer metric whose unit
is ``count`` (calls, coefficient operations, gcd iterations, list scan
length) and the list useful ratio, which is a ratio of counts.  Another
seed must give another input digest.  The metric names and units run.py
reports must be the ones BENCHMARK.json lists.  Exits 0 when all of this
holds and 1 otherwise; takes about a minute per workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run        # noqa: E402
import workloads  # noqa: E402

SEED = 7


def traced_record(workload: str, seed: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=900)
    return json.loads((run.OUT / f"{workload}-seed{seed}-trace1.json").read_text())


def deterministic(record: dict) -> dict:
    return {name: m["value"] for name, m in record["result"]["metrics"].items()
            if m["unit"] == "count" or name == "decoder.list_useful_ratio"}


def main(names: list[str]) -> int:
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            problems.append(f"BENCHMARK.json {key} differs from run.py: {listed} != {units}")

    for name in names or run.WORKLOADS:
        first, second = traced_record(name, SEED), traced_record(name, SEED)
        for record in (first, second):
            if not record["result"]["correct"]:
                problems.append(f"{name}: traced run reported incorrect output")
        if first["input_sha256"] != second["input_sha256"]:
            problems.append(f"{name}: same seed, different input digests")
        a, b = deterministic(first), deterministic(second)
        for metric in sorted(a):
            if a[metric] != b[metric]:
                problems.append(f"{name}: {metric} differs across runs: {a[metric]} != {b[metric]}")
        wl = workloads.WORKLOADS[name]
        if run.input_digest(wl.make_inputs(SEED + 1)) == first["input_sha256"]:
            problems.append(f"{name}: seeds {SEED} and {SEED + 1} give the same inputs")
        print(f"{name}: {len(a)} counts compared, digest {first['input_sha256'][:16]}")

    for p in problems:
        print("FAIL", p)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
