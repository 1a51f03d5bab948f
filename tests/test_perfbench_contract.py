"""The library names the benchmark patches and calls.

`perfbench/tracing.py` wraps library functions where they are looked up at
call time (`remcode.sim.decode`, `remcode.decoder.encode`, ...), and
`perfbench/workloads.py` calls the library through module attributes.  A
refactor that renames, inlines or stops calling one of them breaks the
benchmark's traced run without failing any library test; these tests fail
instead.  They load perfbench's modules by path and leave its files as they
are.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import remcode.code as rcode
from remcode import Field, Poly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 20240601


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def _prepared(name: str, count: int = 3):
    """The workload, its setup() context and its first `count` items for SEED."""
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup()
    return workload, ctx, workload.prepare(ctx, workload.make_inputs(SEED)[:count])


def _patched_attributes() -> dict:
    pairs = [(owner, attr) for owner, attr, _ in tracing.LAYER_PATCHES]
    pairs += [(Poly, "__mul__"), (Poly, "__divmod__"), (Field, "mul"), (Field, "add"),
              (Field, "sub"), (rcode, "poly_gcd")]
    return {(owner, attr): getattr(owner, attr) for owner, attr in pairs}


def test_every_layer_patch_names_a_callable():
    for owner, attr, span in tracing.LAYER_PATCHES:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({span})"


def test_tracer_wraps_and_restores_every_patched_attribute():
    """install() and count_spec_gcds() replace each attribute, traced
    ladder_list_sim items record simulate's own decode call and the list
    decoder's recovery, and uninstall() puts every original back."""
    workload, ctx, items = _prepared("ladder_list_sim")
    gcd_item = next(item for item in items if not workload.wants_cross_check(item))
    list_item = next(item for item in items if workload.wants_cross_check(item))
    before = _patched_attributes()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.count_spec_gcds()
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in before.items())
        assert workload.check(ctx, gcd_item, workload.run(ctx, gcd_item))
        decode_spans = sum(tracer.names[i].startswith("decoder.decode:") for i in tracer.name)
        assert workload.check(ctx, list_item, workload.run(ctx, list_item))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for (owner, attr), original in before.items())
    assert decode_spans == 1
    assert {"sim.simulate", "sim.corrupt", "code.encode", "decoder.list_decode"} <= set(
        tracer.names)
    assert tracer.counts["decoder.list_recoveries"] == 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_items_run_and_check(name):
    workload, ctx, items = _prepared(name)
    for item in items:
        assert workload.check(ctx, item, workload.run(ctx, item))
        if workload.wants_cross_check(item):
            assert workload.cross_check(ctx, item)
