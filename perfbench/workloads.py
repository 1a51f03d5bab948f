"""The benchmark's three workloads.

Each workload is one class with the same five steps:

* ``setup()`` builds the field (forcing its lazy tables), the moduli, the
  ``CodeSpec`` and, where used, the candidate list; it is what ``setup_s``
  times.
* ``make_inputs(seed)`` turns the seed into plain data (ints and tuples
  only), so the same seed gives the same inputs and the inputs can be
  digested.  It does not touch the library.
* ``prepare(ctx, inputs)`` converts that data into library objects before
  timing starts.
* ``run(ctx, item)`` is one item of user work, the only timed step.
* ``check(ctx, item, out)`` compares the item's output with what was sent;
  ``cross_check(ctx, item)`` compares a sampled item against the slow
  reference implementations kept in the library.  Both run untimed.

Items call the library through module attributes (``rcode.encode``,
``rdec.decode``, ...) so that the tracer in ``tracing.py`` can wrap them.
Error weights, error supports and erasure budgets are drawn with
``spread_draws``: every value is equally likely, but each run covers the
range evenly, which keeps run-to-run spread small at a fixed run length.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from time import perf_counter

import remcode.code as rcode
import remcode.decoder as rdec
import remcode.interpolate as rint
import remcode.sim as rsim
from remcode import (
    GF,
    Algorithm,
    CodeSpec,
    DecodeOptions,
    Poly,
    Recovery,
    Stopping,
    build_candidate_list,
    error_locator_poly,
    extended_gcd,
    interpolate_direct,
    list_decode,
    partial_gcd_full,
    partial_gcd_upper,
    psi_inverse,
    upper_parts,
)
from remcode.poly import irreducible_polys
from remcode.sim import ChannelModel, corrupt


@dataclass
class Context:
    """What ``setup`` built, with the time each stage took (seconds)."""

    spec: CodeSpec
    candidates: list = dc_field(default_factory=list)
    timings: dict = dc_field(default_factory=dict)


_GOLDEN = (5 ** 0.5 - 1) / 2


def spread_draws(rng: random.Random, size: int, count: int) -> list[int]:
    """`count` draws from range(size) along a golden-ratio (Weyl) sequence.

    The sequence starts at a random offset, so every draw is uniform over
    range(size); successive draws fill the range evenly, so any prefix of
    the list (a run stops after a number of items set by the clock) holds
    every part of the range in nearly equal shares.
    """
    offset = rng.random()
    return [int((offset + j * _GOLDEN) % 1.0 * size) for j in range(count)]


def _timed_setup(build_field, build_moduli, k: int, with_candidates: bool = False) -> Context:
    t0 = perf_counter()
    field = build_field()
    t1 = perf_counter()
    moduli = build_moduli(field)
    t2 = perf_counter()
    spec = CodeSpec(field, moduli, k)
    t3 = perf_counter()
    candidates = build_candidate_list(spec) if with_candidates else []
    t4 = perf_counter()
    return Context(spec, candidates, {"field_s": t1 - t0, "moduli_s": t2 - t1,
                                      "spec_s": t3 - t2, "candidates_s": t4 - t3})


def _moduli_by_degree(field, degrees: tuple[int, ...]) -> list[Poly]:
    """For each degree d, the first degrees.count(d) irreducibles in the
    sieve's order; `degrees` must be nondecreasing."""
    out: list[Poly] = []
    for d in sorted(set(degrees)):
        out.extend(irreducible_polys(field, d)[:degrees.count(d)])
    return out


def _gf256():
    field = GF(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1])   # x^8+x^4+x^3+x^2+1
    field.mul(1, 1)                                  # force the log/exp tables
    return field


def _gf9():
    field = GF(3, 2, [1, 0, 1])                      # x^2+1
    field.mul(1, 1)
    return field


class Rs255Decode:
    """RS(255,223) over GF(2^8): encode, add <= 16 symbol errors, decode."""

    name = "rs255_decode"
    pool = 2000
    trace_items = 10            # one item per DecodeOptions combination
    cross_checks = 3
    n, K, t = 255, 223, 16
    OPTIONS = tuple(
        DecodeOptions(a, s, r)
        for a in Algorithm for s in Stopping for r in Recovery
        if not (r is Recovery.RATIO and a is not Algorithm.FULL))

    def setup(self) -> Context:
        return _timed_setup(_gf256, lambda f: irreducible_polys(f, 1)[:self.n], self.K)

    def make_inputs(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        weights = spread_draws(rng, self.t + 1, self.pool)
        items = []
        for i, w in enumerate(weights):
            message = tuple(rng.randbytes(self.K))
            errors = tuple(sorted((p, rng.randrange(1, 256))
                                  for p in rng.sample(range(self.n), w)))
            items.append((message, errors, i % len(self.OPTIONS)))
        return items

    def prepare(self, ctx: Context, inputs: list) -> list:
        f = ctx.spec.field
        return [(Poly(f, m), tuple((p, Poly(f, [v])) for p, v in e), self.OPTIONS[o])
                for m, e, o in inputs]

    def run(self, ctx: Context, item):
        message, errors, options = item
        symbols = list(rcode.encode(ctx.spec, message).symbols)
        for p, e in errors:
            symbols[p] = symbols[p] + e
        return rdec.decode(ctx.spec, symbols, options)

    def check(self, ctx: Context, item, out) -> bool:
        return out.message == item[0]

    def wants_cross_check(self, item) -> bool:
        return bool(item[1])

    def cross_check(self, ctx: Context, item) -> bool:
        """The partial run's t equals the reference run's t on the true error."""
        spec = ctx.spec
        message, errors, options = item
        zero = Poly.zero(spec.field)
        error_word = [zero] * spec.n
        for p, e in errors:
            error_word[p] = e
        received = [s + e for s, e in zip(rcode.encode(spec, message).symbols, error_word)]
        ref = extended_gcd(spec.modulus_product, psi_inverse(spec, error_word))
        y = psi_inverse(spec, received)
        if options.algorithm is Algorithm.FULL:
            run = partial_gcd_full(spec.modulus_product, y, spec.K, options.stopping)
        else:
            m_upper, e_upper = upper_parts(spec, y)
            run = partial_gcd_upper(m_upper, e_upper, spec.N, spec.K, options.stopping)
        return run.t == ref.t and run.iterations == ref.iterations


class LadderListSim:
    """GF(2) code with moduli of degrees 1..7: one simulate() trial per item.

    Two of every three items draw a degree weight the gcd decoder corrects;
    the third puts errors on a support only the list decoder can recover.
    Latency is bimodal; with this mix the median lies inside the gcd mode
    and p90 inside the list mode, not on the gap between them.
    """

    name = "ladder_list_sim"
    pool = 3000
    trace_items = 15
    cross_checks = 2
    DEGREES = (1, 1, 2, 3, 3, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7)
    k = 8

    def __init__(self):
        n = len(self.DEGREES)
        self.t_hamming = (n - self.k) // 2
        self.t_degree = (sum(self.DEGREES) - sum(self.DEGREES[:self.k])) // 2

    def setup(self) -> Context:
        return _timed_setup(lambda: GF(2), lambda f: _moduli_by_degree(f, self.DEGREES),
                            self.k, with_candidates=True)

    def list_supports(self) -> list[tuple[int, ...]]:
        """Supports beyond the gcd radius but within the list decoder's reach,
        in canonical order: by size, then lexicographic."""
        d, n = self.DEGREES, len(self.DEGREES)
        cap = sum(sorted(d)[n - self.t_hamming:])
        return [s for size in range(1, self.t_hamming + 1)
                for s in itertools.combinations(range(n), size)
                if self.t_degree < sum(d[i] for i in s) <= cap]

    def make_inputs(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        third = self.pool // 3
        supports = self.list_supports()
        weights = spread_draws(rng, self.t_degree, 2 * third)
        picks = spread_draws(rng, len(supports), third)
        items = []
        for i, s in enumerate(picks):
            for w in weights[2 * i:2 * i + 2]:
                items.append(("random_degree_weight", w + 1, rng.getrandbits(64)))
            items.append(("fixed_positions", supports[s], rng.getrandbits(64)))
        return items

    def prepare(self, ctx: Context, inputs: list) -> list:
        if ctx.spec.degrees != self.DEGREES:
            raise RuntimeError(f"unexpected modulus degrees {ctx.spec.degrees}")
        return [ChannelModel(kind, param, seed) for kind, param, seed in inputs]

    def run(self, ctx: Context, item):
        return rsim.simulate(ctx.spec, item, 1, decoders=("gcd", "list"),
                             candidates=ctx.candidates)

    def check(self, ctx: Context, item, out) -> bool:
        """simulate() compares each decoder's message with the one it sent."""
        if out.counts["list"]["success"] != 1:
            return False
        return item.kind != "random_degree_weight" or out.counts["gcd"]["success"] == 1

    def wants_cross_check(self, item) -> bool:
        return item.kind == "fixed_positions"

    def cross_check(self, ctx: Context, item) -> bool:
        """The list decoder's locator equals the true error's locator."""
        spec = ctx.spec
        message = Poly.from_int(spec.field, item.master_seed % spec.field.q ** spec.K)
        received, error = corrupt(spec, rcode.encode(spec, message), item, 0)
        out = list_decode(spec, received, ctx.candidates)
        return out.message == message and out.factor_poly == error_locator_poly(spec, error)


class Gf9Erasure:
    """GF(9) code with linear, quadratic and cubic moduli: erasure recovery."""

    name = "gf9_erasure"
    pool = 4000
    trace_items = 20
    cross_checks = 5
    DEGREES = (1,) * 9 + (2,) * 36 + (3,) * 20
    k = 40

    def __init__(self):
        self.K = sum(self.DEGREES[:self.k])
        self.redundancy = sum(self.DEGREES) - self.K

    def setup(self) -> Context:
        return _timed_setup(_gf9, lambda f: _moduli_by_degree(f, self.DEGREES), self.k)

    def make_inputs(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        n = len(self.DEGREES)
        budgets = spread_draws(rng, self.redundancy + 1, self.pool)
        items = []
        for budget in budgets:
            message = tuple(rng.choices(range(9), k=self.K))
            erased, weight = [], 0
            for p in rng.sample(range(n), n):
                if weight + self.DEGREES[p] <= budget:
                    erased.append(p)
                    weight += self.DEGREES[p]
            items.append((message, tuple(sorted(erased))))
        return items

    def prepare(self, ctx: Context, inputs: list) -> list:
        if ctx.spec.degrees != self.DEGREES:
            raise RuntimeError(f"unexpected modulus degrees {ctx.spec.degrees}")
        f, n = ctx.spec.field, ctx.spec.n
        return [(Poly(f, m), e, frozenset(range(n)) - frozenset(e)) for m, e in inputs]

    def run(self, ctx: Context, item):
        message, erased, known = item
        symbols = list(rcode.encode(ctx.spec, message).symbols)
        zero = Poly.zero(ctx.spec.field)
        for p in erased:
            symbols[p] = zero
        pattern = rint.ErasurePattern(ctx.spec, known)
        return rint.interpolate_fixed_transform(ctx.spec, symbols, pattern)

    def check(self, ctx: Context, item, out) -> bool:
        return out == item[0]

    def wants_cross_check(self, item) -> bool:
        return True

    def cross_check(self, ctx: Context, item) -> bool:
        """Direct recombination over the known support gives the same message."""
        message, _, known = item
        symbols = rcode.encode(ctx.spec, message).symbols
        pattern = rint.ErasurePattern(ctx.spec, known)
        return interpolate_direct(ctx.spec, {i: symbols[i] for i in known}, pattern) == message


WORKLOADS = {w.name: w for w in (Rs255Decode(), LadderListSim(), Gf9Erasure())}
