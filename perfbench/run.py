#!/usr/bin/env python3
"""Layered benchmark for remcode.

    python3 perfbench/run.py --workload rs255_decode --seed 1 --seconds 30 --trace 0

Runs one workload (``rs255_decode``, ``ladder_list_sim``, ``gf9_erasure``, or
``all`` for each in turn in its own interpreter) as a closed loop with one
client: the next item starts when the previous one returns.  Inputs are
made from ``--seed`` before timing starts.  With ``--trace 0`` it reports
the end-to-end metrics, their times scaled to a reference host speed
measured between items (see ``reference.py``); with ``--trace 1`` a
separate traced run reports the per-layer metrics.  A readable report comes first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run also writes a record with its
metadata to ``perfbench/out/`` (see ``compare.py``); a traced run also
writes its spans there.  See ``perfbench/README.md`` for what each metric
means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from reference import REFERENCE_MS, probe_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("rs255_decode", "ladder_list_sim", "gf9_erasure")
MIN_ITEMS = 100        # so that at least 10 latency samples lie beyond p90
LOOP_CAP_S = 120.0     # the timed loop stops here even short of MIN_ITEMS
SETUP_REPEATS = 5      # fresh interpreters timed per run; setup_s is their median

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "field.build_ms": "ms",
    "field.mul_calls": "count",
    "field.addsub_calls": "count",
    "poly.mul_calls": "count",
    "poly.mul_coeff_ops": "count",
    "poly.mul_self_ms": "ms",
    "poly.divmod_calls": "count",
    "poly.divmod_coeff_ops": "count",
    "poly.divmod_self_ms": "ms",
    "poly.gcd_calls": "count",
    "poly.gcd_ms": "ms",
    "code.spec_build_s": "s",
    "code.spec_gcd_calls": "count",
    "code.encode_ms": "ms",
    "code.encode_calls_per_item": "count",
    "code.psi_inverse_ms": "ms",
    "code.psi_inverse_calls_per_item": "count",
    "interpolate.pattern_ms": "ms",
    "interpolate.fixed_transform_self_ms": "ms",
    "decoder.gcd_full_ms": "ms",
    "decoder.gcd_upper_ms": "ms",
    "decoder.gcd_iterations": "count",
    "decoder.recovery_quotient_ms": "ms",
    "decoder.recovery_ratio_ms": "ms",
    "decoder.recovery_error_ms": "ms",
    "decoder.decode_calls_per_item": "count",
    "decoder.list_decode_self_ms": "ms",
    "decoder.list_scan_len": "count",
    "decoder.list_useful_ratio": "ratio",
    "sim.corrupt_ms": "ms",
    "sim.simulate_self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


# -- run metadata ------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "remcode").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "optimize": sys.flags.optimize,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def input_digest(inputs) -> str:
    return hashlib.sha256(json.dumps(inputs, separators=(",", ":")).encode()).hexdigest()


# -- measuring -----------------------------------------------------------------------


class Outcomes:
    """Items attempted and the set of item indices that failed, with a reason."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[int, str] = {}

    def fail(self, index: int, reason: str) -> None:
        self.failed.setdefault(index, reason)


def timed_loop(wl, ctx, items, outcomes: Outcomes, seconds: float, min_items: int,
               before_item=None, probes: list | None = None) -> tuple[list[float], float]:
    """Closed loop over the input pool (starting over if it runs out).

    Returns per-item latencies and the loop's wall time.  Each output is
    checked between items, outside the per-item latency.  With ``probes``,
    the reference kernel is timed before the first item and after each
    item, also outside the latency, and its times (ms) appended there.
    """
    latencies = []
    if probes is not None:
        probes.append(probe_ms())
    start = perf_counter()
    i = 0
    while True:
        item = items[i % len(items)]
        if before_item is not None:
            before_item(i)
        t0 = perf_counter()
        try:
            out = wl.run(ctx, item)
        except Exception:
            latencies.append(perf_counter() - t0)
            outcomes.fail(outcomes.attempted, traceback.format_exc(limit=3))
        else:
            latencies.append(perf_counter() - t0)
            if not wl.check(ctx, item, out):
                outcomes.fail(outcomes.attempted, "output differs from the message sent")
        if probes is not None:
            probes.append(probe_ms())
        outcomes.attempted += 1
        i += 1
        elapsed = perf_counter() - start
        if (elapsed >= seconds and i >= min_items) or elapsed >= LOOP_CAP_S:
            return latencies, elapsed


def cross_check(wl, ctx, items, n_done: int, outcomes: Outcomes, first_index: int) -> int:
    """Check the first few completed items that want it against slow references."""
    done = 0
    for i in range(min(n_done, len(items))):
        if done == wl.cross_checks:
            break
        if not wl.wants_cross_check(items[i]):
            continue
        done += 1
        try:
            ok = wl.cross_check(ctx, items[i])
        except Exception:
            outcomes.fail(first_index + i, "cross-check raised: " + traceback.format_exc(limit=3))
        else:
            if not ok:
                outcomes.fail(first_index + i, "disagrees with the slow reference")
    return done


def setup_in_fresh_interpreters(workload: str) -> list[dict]:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, *["-O"] * sys.flags.optimize, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def host_scaled(latencies: list[float], probes: list[float]) -> list[float]:
    """Each latency scaled to the reference host's speed.

    ``probes[i]`` was taken just before item ``i`` and ``probes[i + 1]``
    just after it; their mean is the host's speed at the item.  Of the
    estimators tried (the fastest probe call, medians over windows of up
    to six probes) this one left the least spread between runs.
    """
    return [t * REFERENCE_MS * 2 / (probes[i] + probes[i + 1])
            for i, t in enumerate(latencies)]


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def untraced_run(wl, args, report: list[str]) -> tuple[dict, Outcomes, dict]:
    setup_runs = setup_in_fresh_interpreters(wl.name)
    setup_samples = [r["setup_scaled_s"] for r in setup_runs]
    ctx = wl.setup()
    inputs = wl.make_inputs(args.seed)
    digest = input_digest(inputs)
    items = wl.prepare(ctx, inputs)
    gc.freeze()     # keep the benchmark's input pool out of the collector's work
    outcomes = Outcomes()
    probes: list[float] = []
    latencies, wall = timed_loop(wl, ctx, items, outcomes, args.seconds, MIN_ITEMS,
                                 probes=probes)
    scaled = host_scaled(latencies, probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked = cross_check(wl, ctx, items, len(latencies), outcomes, 0)

    n = len(latencies)
    ordered = sorted(scaled)
    raw = sorted(latencies)
    values = {
        "items_per_s": n / sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1000,
        "latency_p90_ms": percentile(ordered, 0.9) * 1000,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    beyond_p90 = n - math.ceil(0.9 * n)
    samples = {"items_per_s": n, "latency_p50_ms": n, "latency_p90_ms": n,
               "setup_s": len(setup_samples), "peak_rss_mb": 1}
    setup_wall = ", ".join(f"{r['setup_s']:.4f}" for r in setup_runs)
    report += [
        f"  inputs: pool of {len(items)} items, sha256 {digest}",
        f"  loop: {n} items in {wall:.2f} s, {checked} cross-checked against references",
        f"  reference kernel: median {statistics.median(probes):.4f} ms over {len(probes)} "
        f"probes (min {min(probes):.4f}, max {max(probes):.4f}); times below are scaled "
        f"to {REFERENCE_MS} ms",
        f"  setup_s samples (fresh interpreters, scaled): "
        f"{', '.join(f'{s:.4f}' for s in setup_samples)}",
        f"  setup_s samples (fresh interpreters, wall):   {setup_wall}",
        f"  {'items_per_s':<16}{values['items_per_s']:>12.4f} 1/s   over {n} items "
        f"(wall: {n / sum(latencies):.4f})",
        f"  {'latency_p50_ms':<16}{values['latency_p50_ms']:>12.4f} ms    n={n} "
        f"(wall: {statistics.median(latencies) * 1000:.4f})",
        f"  {'latency_p90_ms':<16}{values['latency_p90_ms']:>12.4f} ms    n={n}, "
        f"{beyond_p90} beyond (wall: {percentile(raw, 0.9) * 1000:.4f})",
        f"  {'setup_s':<16}{values['setup_s']:>12.4f} s     median of {len(setup_samples)}",
        f"  {'fail_frac':<16}{len(outcomes.failed) / n:>12.4f} ratio "
        f"{len(outcomes.failed)} of {n}",
        f"  {'peak_rss_mb':<16}{values['peak_rss_mb']:>12.4f} MB",
    ]
    extra = {"input_sha256": digest, "items": n, "loop_s": wall, "cross_checked": checked,
             "setup_runs": setup_runs, "sample_counts": samples,
             "fail_frac": len(outcomes.failed) / n,
             "latencies_ms": [x * 1000 for x in latencies], "probes_ms": probes,
             "wall_values": {"items_per_s": n / sum(latencies),
                             "latency_p50_ms": statistics.median(latencies) * 1000,
                             "latency_p90_ms": percentile(raw, 0.9) * 1000,
                             "setup_s": statistics.median(r["setup_s"] for r in setup_runs)}}
    return values, outcomes, extra


def traced_run(wl, args, report: list[str]) -> tuple[dict, Outcomes, dict]:
    """Untraced pass over the first items, then a traced pass from the start."""
    from tracing import KERNELS, Tracer

    tracer = Tracer()
    tracer.count_spec_gcds()
    ctx = wl.setup()
    tracer.uninstall()
    inputs = wl.make_inputs(args.seed)
    digest = input_digest(inputs)
    items = wl.prepare(ctx, inputs)
    gc.freeze()
    first = wl.trace_items
    outcomes = Outcomes()

    plain_probes: list[float] = []
    plain, plain_wall = timed_loop(wl, ctx, items, outcomes, 0, first, probes=plain_probes)
    first_counts = {}

    def before_item(i):
        tracer.item_id = i
        if i == first:
            first_counts.update(tracer.counts)

    traced_probes: list[float] = []
    tracer.install()
    try:
        traced, traced_wall = timed_loop(wl, ctx, items, outcomes, args.seconds - plain_wall,
                                         first, before_item, traced_probes)
    finally:
        tracer.uninstall()
    if not first_counts:
        first_counts.update(tracer.counts)
    checked = cross_check(wl, ctx, items, len(traced), outcomes, len(plain))

    n = len(traced)
    rows = tracer.aggregate(first)
    empty = {"calls_first": 0, "calls": 0, "incl_s": 0.0, "self_s": 0.0, "kernel_s": 0.0}

    def row(name):
        return rows.get(name, empty)

    def count(key):        # per item, over the first items
        return first_counts.get(key, 0) / first

    def calls(*names):     # per item, over the first items
        return sum(row(x)["calls_first"] for x in names) / first

    def ms(name, key):     # per item, over all traced items
        return row(name)[key] * 1000 / n

    def per_call_ms(name, key):
        r = row(name)
        return r[key] * 1000 / r["calls"] if r["calls"] else 0.0

    decodes = [x for x in rows if x.startswith("decoder.decode:")]
    recoveries = first_counts.get("decoder.list_recoveries", 0)
    tested = first_counts.get("decoder.list_tested", 0)
    overhead = (sum(host_scaled(traced, traced_probes)[:first])
                / sum(host_scaled(plain, plain_probes)))
    values = {
        "field.build_ms": ctx.timings["field_s"] * 1000,
        "field.mul_calls": count("field.mul_calls"),
        "field.addsub_calls": count("field.addsub_calls"),
        "poly.mul_calls": calls("poly.mul"),
        "poly.mul_coeff_ops": count("poly.mul_coeff_ops"),
        "poly.mul_self_ms": ms("poly.mul", "self_s"),
        "poly.divmod_calls": calls("poly.divmod"),
        "poly.divmod_coeff_ops": count("poly.divmod_coeff_ops"),
        "poly.divmod_self_ms": ms("poly.divmod", "self_s"),
        "poly.gcd_calls": calls("poly.gcd"),
        "poly.gcd_ms": ms("poly.gcd", "incl_s"),
        "code.spec_build_s": ctx.timings["spec_s"],
        "code.spec_gcd_calls": tracer.counts["code.spec_gcd_calls"],
        "code.encode_ms": ms("code.encode", "incl_s"),
        "code.encode_calls_per_item": calls("code.encode"),
        "code.psi_inverse_ms": ms("code.psi_inverse", "incl_s"),
        "code.psi_inverse_calls_per_item": calls("code.psi_inverse"),
        "interpolate.pattern_ms": ms("interpolate.pattern", "incl_s"),
        "interpolate.fixed_transform_self_ms": ms("interpolate.fixed_transform", "self_s"),
        "decoder.gcd_full_ms": ms("decoder.gcd_full", "incl_s"),
        "decoder.gcd_upper_ms": ms("decoder.gcd_upper", "incl_s"),
        "decoder.gcd_iterations": count("decoder.gcd_iterations"),
        "decoder.recovery_quotient_ms": per_call_ms("decoder.decode:quotient", "self_s"),
        "decoder.recovery_ratio_ms": per_call_ms("decoder.decode:ratio", "self_s"),
        "decoder.recovery_error_ms": per_call_ms("decoder.decode:error", "self_s"),
        "decoder.decode_calls_per_item": calls(*decodes),
        "decoder.list_decode_self_ms": ms("decoder.list_decode", "self_s"),
        "decoder.list_scan_len": (first_counts.get("decoder.list_scan_total", 0) / recoveries
                                  if recoveries else 0.0),
        "decoder.list_useful_ratio": recoveries / tested if tested else 0.0,
        "sim.corrupt_ms": ms("sim.corrupt", "incl_s"),
        "sim.simulate_self_ms": ms("sim.simulate", "self_s"),
        "trace.overhead_ratio": overhead,
    }

    spans_path = OUT / f"spans-{wl.name}.tsv.gz"
    tracer.write(spans_path)
    unattributed = sum(traced) - tracer.root_seconds()
    report += [
        f"  inputs: pool of {len(items)} items, sha256 {digest}",
        f"  untraced: first {first} items in {sum(plain):.3f} s "
        f"({first / sum(plain):.3f} items/s)",
        f"  traced:   {n} items in {traced_wall:.2f} s; first {first} in "
        f"{sum(traced[:first]):.3f} s ({first / sum(traced[:first]):.3f} items/s)",
        f"  tracing overhead: traced/untraced time on the first {first} items, both scaled "
        f"to the reference host's speed = {overhead:.3f}",
        f"  {checked} cross-checked against references; spans: {spans_path.relative_to(ROOT)}",
        "",
        f"  {'span (per item; calls over the first ' + str(first) + ')':<40}"
        f"{'calls':>10}{'incl_ms':>12}{'self_ms':>12}{'kernel_ms':>12}",
    ]
    for name in sorted(x for x in rows if rows[x]["calls"]):
        r = rows[name]
        report.append(f"  {name:<40}{r['calls_first'] / first:>10.1f}{r['incl_s'] * 1000 / n:>12.3f}"
                      f"{r['self_s'] * 1000 / n:>12.3f}{r['kernel_s'] * 1000 / n:>12.3f}")
    report.append(f"  {'(benchmark, outside any span)':<40}{'':>10}{unattributed * 1000 / n:>12.3f}")
    report.append("")
    for name, unit in PER_LAYER_UNITS.items():
        report.append(f"  {name:<40}{values[name]:>16.4f} {unit}")
    report.append(f"  (self = span minus child spans other than {' and '.join(KERNELS)}; "
                  "counts are per item over the first items, times per item over all)")
    extra = {"input_sha256": digest, "items": len(plain) + n, "traced_items": n,
             "first_items": first, "cross_checked": checked, "span_rows": rows,
             "setup_timings": ctx.timings}
    return values, outcomes, extra


# -- entry points -------------------------------------------------------------------------


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    meta = metadata(args)
    report = [f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}",
              f"  python {meta['python']} optimize={meta['optimize']} nproc={meta['nproc']} "
              f"commit={meta['git_commit']} src_sha256={meta['src_sha256'][:16]}"]
    runner = traced_run if args.trace else untraced_run
    values, outcomes, extra = runner(wl, args, report)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for index, reason in sorted(outcomes.failed.items())[:3]:
        report.append(f"  FAILED item {index}: {reason.strip()}")
    result = {
        "correct": not outcomes.failed,
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result, **extra}, indent=1) + "\n")
    print("\n".join(report))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, then one table of the results."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, *["-O"] * sys.flags.optimize, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:<40}{v['value']:>16.4f} {v['unit']}")
        print(f"  {'fail_frac':<40}{res['failed'] / res['attempted']:>16.4f} ratio")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "remcode" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC / 'remcode'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
