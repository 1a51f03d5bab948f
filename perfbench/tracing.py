"""Spans and counters for the traced run, recorded from outside the library.

``Tracer.install()`` replaces library functions with wrappers where they are
looked up at call time (``from .x import y`` binds a name per module, so each
importing module is patched), plus the class attributes ``Poly.__mul__``,
``Poly.__divmod__`` and ``Field.mul``/``add``/``sub``.  ``uninstall()``
puts the originals back.

A span is (name, start, end, parent span, item id), kept in memory in flat
arrays and written out once the run ends.  ``poly.mul`` and ``poly.divmod``
are *kernel* spans: the self time of any other span is its duration minus
its child spans that are not kernels, so a layer's self time includes the
polynomial arithmetic it does itself, and the kernels are reported under
their own names.  Field operations are only counted.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import remcode.code as rcode
import remcode.decoder as rdec
import remcode.interpolate as rint
import remcode.sim as rsim
from remcode import DecodeOptions, DecodeStatus, Field, Poly

KERNELS = ("poly.mul", "poly.divmod")

# (owner, attribute, span name) for every layer function wrapped in a span
LAYER_PATCHES = (
    (rcode, "encode", "code.encode"),
    (rdec, "encode", "code.encode"),
    (rsim, "encode", "code.encode"),
    (rdec, "psi_inverse", "code.psi_inverse"),
    (rint, "psi_inverse", "code.psi_inverse"),
    (rdec, "poly_gcd", "poly.gcd"),
    (rdec, "partial_gcd_full", "decoder.gcd_full"),
    (rdec, "partial_gcd_upper", "decoder.gcd_upper"),
    (rdec, "upper_parts", "decoder.upper_parts"),
    (rdec, "decode", "decoder.decode"),
    (rsim, "decode", "decoder.decode"),
    (rdec, "list_decode", "decoder.list_decode"),
    (rsim, "list_decode", "decoder.list_decode"),
    (rsim, "corrupt", "sim.corrupt"),
    (rsim, "simulate", "sim.simulate"),
    (rint, "ErasurePattern", "interpolate.pattern"),
    (rint, "interpolate_fixed_transform", "interpolate.fixed_transform"),
)


def _decode_span_name(args, kwargs) -> str:
    """decode spans are named by recovery method: decoder.decode:<recovery>."""
    options = args[2] if len(args) > 2 else kwargs.get("options", DecodeOptions())
    return "decoder.decode:" + options.recovery.value


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.stack = [-1]
        self.item_id = -1
        self.counts: Counter = Counter()
        self._candidate_index: dict[int, tuple[list, dict]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _enter(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.item.append(self.item_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _exit(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    def _layer(self, fn, name: str):
        fixed = self._name_id(name) if name != "decoder.decode" else None
        hook = {
            "decoder.gcd_full": self._on_gcd,
            "decoder.gcd_upper": self._on_gcd,
            "decoder.list_decode": self._on_list_decode,
        }.get(name)

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(_decode_span_name(args, kwargs))
            sid = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(sid)
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def _kernel(self, fn, name: str, ops):
        nid = self._name_id(name)
        counts, key = self.counts, name + "_coeff_ops"

        def wrapper(a, b):
            counts[key] += ops(len(a.coeffs), len(b.coeffs))
            sid = self._enter(nid)
            try:
                return fn(a, b)
            finally:
                self._exit(sid)
        return wrapper

    def _counter(self, fn, key: str):
        counts = self.counts

        def wrapper(field, a, b):
            counts[key] += 1
            return fn(field, a, b)
        return wrapper

    def _on_gcd(self, args, result) -> None:
        self.counts["decoder.gcd_iterations"] += result.iterations

    def _on_list_decode(self, args, outcome) -> None:
        """Scan length and useful ratio from list_decode's public output."""
        candidates = args[2]
        cached = self._candidate_index.get(id(candidates))
        if cached is None or cached[0] is not candidates:
            cached = (candidates, {g: i for i, g in enumerate(candidates)})
            self._candidate_index[id(candidates)] = cached
        index = cached[1].get(outcome.factor_poly)
        if index is not None:
            self.counts["decoder.list_recoveries"] += 1
            self.counts["decoder.list_scan_total"] += index + 1
            self.counts["decoder.list_tested"] += index + 1
        elif outcome.status is DecodeStatus.FAILURE:
            self.counts["decoder.list_tested"] += len(candidates)

    # -- patching ------------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def count_spec_gcds(self) -> None:
        """Count CodeSpec's pairwise gcds; used around set-up only."""
        counts = self.counts
        original = rcode.poly_gcd

        def wrapper(a, b):
            counts["code.spec_gcd_calls"] += 1
            return original(a, b)
        self._patch(rcode, "poly_gcd", wrapper)

    def install(self) -> None:
        for owner, attr, name in LAYER_PATCHES:
            self._patch(owner, attr, self._layer(getattr(owner, attr), name))
        self._patch(Poly, "__mul__", self._kernel(Poly.__mul__, "poly.mul", lambda a, b: a * b))
        self._patch(Poly, "__divmod__", self._kernel(
            Poly.__divmod__, "poly.divmod", lambda a, b: (a - b + 1) * b if a >= b else 0))
        self._patch(Field, "mul", self._counter(Field.mul, "field.mul_calls"))
        self._patch(Field, "add", self._counter(Field.add, "field.addsub_calls"))
        self._patch(Field, "sub", self._counter(Field.sub, "field.addsub_calls"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------------

    def aggregate(self, first: int) -> dict:
        """Per span name: calls in items < first, and over all items the
        inclusive, self and kernel-within-self seconds."""
        kernel_ids = {self._ids[k] for k in KERNELS if k in self._ids}
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        kernel_in = [0.0] * len(dur)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                if self.name[sid] in kernel_ids:
                    kernel_in[p] += dur[sid]
                else:
                    own[p] -= dur[sid]
        rows = {name: {"calls_first": 0, "calls": 0, "incl_s": 0.0, "self_s": 0.0,
                       "kernel_s": 0.0} for name in self.names}
        for sid, nid in enumerate(self.name):
            row = rows[self.names[nid]]
            row["calls"] += 1
            if self.item[sid] < first:
                row["calls_first"] += 1
            row["self_s"] += own[sid]
            row["kernel_s"] += kernel_in[sid]
            row["incl_s"] += dur[sid]
        return rows

    def root_seconds(self) -> float:
        """Time inside spans that have no parent span."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV: span id, name, start, end, parent span, item."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_s\tend_s\tparent\titem\n")
            names = self.names
            for sid, (nid, s, e, p, i) in enumerate(
                    zip(self.name, self.start, self.end, self.parent, self.item)):
                out.write(f"{sid}\t{names[nid]}\t{s:.9f}\t{e:.9f}\t{p}\t{i}\n")
