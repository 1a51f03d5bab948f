"""Time one workload's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload>

Prints one JSON object: ``setup_s`` (wall time), ``setup_scaled_s`` (the
same scaled to the reference host's speed, see ``reference.py``), the
reference kernel's time around the set-up, and the time of each set-up
stage.  The clock starts before the library is imported, so work moved into
import time is still counted.  ``run.py`` starts this several times per
run, because a second set-up in the same process would find the
irreducible-polynomial cache and the field tables already built.
"""

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

from reference import REFERENCE_MS, probe_ms

PROBES = 5      # reference probes on each side of the set-up


def main() -> None:
    before = [probe_ms() for _ in range(PROBES)]
    t0 = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    ctx = workloads.WORKLOADS[sys.argv[1]].setup()
    setup_s = perf_counter() - t0
    after = [probe_ms() for _ in range(PROBES)]
    reference_ms = statistics.median(before + after)
    print(json.dumps({"setup_s": setup_s, "setup_scaled_s": setup_s * REFERENCE_MS / reference_ms,
                      "reference_ms": reference_ms, **ctx.timings}))


if __name__ == "__main__":
    main()
