"""The Euclid loop on packed values against the `Poly` loop it replaced.

`decoder._euclid_loop` holds r, r~, s, s~, t and t~ as the kernel's packed
values and its stop rules take degrees as ints, -1 for zero.  The
reference here is the loop as it was written on `Poly` operators, with its
stop rules on polynomials, where the zero polynomial's degree is
`NEG_DEGREE`.  Every public run (`extended_gcd`, `partial_gcd_full`,
`partial_gcd_upper`) must return the same t, s, r, r_tilde and iteration
count as the same run on the reference loop: on every kernel (the specs of
`test_char2_decode.py` and `test_odd_decode.py`, and RS(4,2) over GF(5)),
under both stopping rules, with s tracked and not, on words within the
decoding radius and beyond it, on remainders that reach zero, on the runs
that take no pass, and on bounds below any decoder's, where only r = 0
stops the run.

The loop's cost is pinned too: with s untracked it calls no `Poly`
operator, and under `python -O` it births only its result's polynomials.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from remcode.code import CodeSpec, encode, psi_inverse
from remcode.decoder import (
    GcdResult, Stopping, extended_gcd, partial_gcd_full, partial_gcd_upper)
from remcode.field import Field
from remcode.poly import Poly

from conftest import random_message, random_preimage
import test_char2_decode
import test_odd_decode
from test_odd_decode import _error


def _reference_loop(in1: Poly, in2: Poly, stop, track_s: bool) -> GcdResult:
    """The cofactor-tracking loop on `Poly` operators; `stop(r, t)` reads
    polynomials."""
    field = in1.field
    r, rt = in1, in2
    s, st = (Poly.one(field), Poly.zero(field)) if track_s else (None, None)
    t, tt = Poly.zero(field), Poly.one(field)
    iterations = 0
    while True:
        q, r = divmod(r, rt)
        if track_s:
            s = s - q * st
        t = t - q * tt
        iterations += 1
        if stop(r, t):
            return GcdResult(t=t, s=s, r=r, r_tilde=rt, iterations=iterations)
        r, rt = rt, r
        if track_s:
            s, st = st, s
        t, tt = tt, t


def _no_pass(field, track_s, r, r_tilde) -> GcdResult:
    return GcdResult(t=Poly.one(field), s=Poly.zero(field) if track_s else None,
                     r=r, r_tilde=r_tilde, iterations=0)


def _reference_extended(in1: Poly, in2: Poly, track_s: bool) -> GcdResult:
    if in2.is_zero:
        return _no_pass(in1.field, track_s, None, in1)
    return replace(_reference_loop(in1, in2, lambda r, t: r.is_zero, track_s), r=None)


def _reference_partial(in1: Poly, in2: Poly, offset: int, bound: int,
                       stopping: Stopping, track_s: bool) -> GcdResult:
    if in2.degree < offset:
        return _no_pass(in1.field, track_s, in2, in1)
    if stopping is Stopping.RELATIVE:
        stop = lambda r, t: r.degree < t.degree + offset
    else:
        stop = lambda r, t: 2 * r.degree < bound
    return _reference_loop(in1, in2, stop, track_s)


def _runs(m: Poly, y: Poly, big_n: int, k: int):
    """(name, packed run, reference run) for every run on (M_n, Y), N and K."""
    m_upper = Poly._raw(m.field, m.coeffs[k:])
    y_upper = Poly._raw(m.field, y.coeffs[k:])
    for track_s in (True, False):
        yield (f"extended s={track_s}", lambda: extended_gcd(m, y, track_s),
               lambda: _reference_extended(m, y, track_s))
        for stopping in Stopping:
            name = f"{stopping.name} s={track_s}"
            yield ("full " + name,
                   lambda: partial_gcd_full(m, y, k, stopping, track_s),
                   lambda: _reference_partial(m, y, k, m.degree + k, stopping, track_s))
            yield ("upper " + name,
                   lambda: partial_gcd_upper(m_upper, y_upper, big_n, k, stopping, track_s),
                   lambda: replace(_reference_partial(m_upper, y_upper, 0, big_n - k,
                                                      stopping, track_s),
                                   r=None, r_tilde=None))


def _check(m: Poly, y: Poly, big_n: int, k: int) -> tuple[int, bool]:
    """Every run on (M_n, Y) equals its reference: (the most passes any run
    took, whether some run stopped at r = 0)."""
    most, zero_stop = 0, False
    for name, packed, reference in _runs(m, y, big_n, k):
        got, want = packed(), reference()
        assert got == want, name
        most = max(most, got.iterations)
        zero_stop |= got.r is not None and got.r.is_zero and got.iterations > 0
    return most, zero_stop


def _preimages(rng: random.Random, spec: CodeSpec):
    """Received preimages: errors of degree weight 1, t_degree / 2 and
    t_degree, beyond the radius up to N - K, and a uniform preimage."""
    t, redundancy = spec.t_degree, spec.N - spec.K
    for weight in (1, t // 2, t, t + 1, redundancy):
        word = encode(spec, random_message(rng, spec)) + _error(rng, spec, weight)
        yield psi_inverse(spec, word)
    yield random_preimage(rng, spec)


def _rs42() -> CodeSpec:
    f = Field(5)
    return CodeSpec(f, [Poly(f, [(-b) % 5, 1]) for b in (1, 2, 3, 4)], 2)


# every kernel: BitKernel, ByteKernel, Char2Kernel, OddKernel and PrimeKernel
SPECS = {**{name: lambda name=name: test_char2_decode._spec(name)
            for name in test_char2_decode.SPECS},
         **{name: lambda name=name: test_odd_decode._spec(name)
            for name in test_odd_decode.SPECS},
         "GF(5)": _rs42}


@pytest.mark.parametrize("name", list(SPECS))
def test_packed_loop_equals_the_poly_loop(name):
    spec = SPECS[name]()
    m = spec.modulus_product
    rng = random.Random(name + " packed loop")
    most = 0
    for y in _preimages(rng, spec):
        most = max(most, _check(m, y, spec.N, spec.K)[0])
        # the reference run on the true error, as decoders are checked
        error = psi_inverse(spec, _error(rng, spec, spec.t_degree))
        for track_s in (True, False):
            assert extended_gcd(m, error, track_s) == _reference_extended(m, error, track_s)
    assert most > 1


@pytest.mark.parametrize("name", list(SPECS))
def test_remainders_that_reach_zero(name):
    """Y = M_n / (a product of moduli) divides M_n, and so does the window
    of M_n into its multiples by x^j: the first pass of the full run and of
    the windows' run leaves r = 0, degree -1 for the packed rules, and
    every rule stops there."""
    spec = SPECS[name]()
    m, k = spec.modulus_product, spec.K
    window = Poly._raw(m.field, m.coeffs[k:])
    stopped_at_zero = 0
    for count in (1, 2, 3):
        y = m // spec.product(range(count))
        if y.degree < k:
            continue
        assert _check(m, y, spec.N, k)[1]
        for stopping in Stopping:
            for track_s in (True, False):
                got = partial_gcd_upper(window.shift(count), window, spec.N, k, stopping, track_s)
                want = _reference_partial(window.shift(count), window, 0, spec.N - k,
                                          stopping, track_s)
                assert want.r.is_zero and want.iterations == 1
                assert got == replace(want, r=None, r_tilde=None)
        stopped_at_zero += 1
    assert stopped_at_zero


@pytest.mark.parametrize("name", list(SPECS))
def test_runs_that_take_no_pass(name):
    """A zero error, a Y of degree below K and a zero window return t = 1,
    s = 0 (None untracked) with no pass, as the reference does."""
    spec = SPECS[name]()
    f, m, k = spec.field, spec.modulus_product, spec.K
    m_upper, zero = Poly._raw(f, m.coeffs[k:]), Poly.zero(f)
    message = random_message(random.Random(name), spec)
    for track_s in (True, False):
        for stopping in Stopping:
            assert (partial_gcd_full(m, message, k, stopping, track_s)
                    == _reference_partial(m, message, k, m.degree + k, stopping, track_s))
            assert (partial_gcd_upper(m_upper, zero, spec.N, k, stopping, track_s)
                    == replace(_no_pass(f, track_s, zero, m_upper), r=None, r_tilde=None))
        assert extended_gcd(m, zero, track_s) == _reference_extended(m, zero, track_s)
        assert extended_gcd(m, zero, track_s).iterations == 0


@pytest.mark.parametrize("name", ["GF(2)", "GF(17)"])
def test_bounds_below_any_decoders_stop_at_zero(name):
    """An offset or bound below every decoder's may not fire at deg r = -1:
    the windows' THRESHOLD run with K = N + 5 (bound -5) and the full
    RELATIVE run with K = -(N + 5).  The loop still stops at r = 0, where
    the reference's rules, reading `NEG_DEGREE`, fire, so both run out to
    `extended_gcd`'s t and pass count."""
    spec = SPECS[name]()
    m, big_n = spec.modulus_product, spec.N
    m_upper = Poly._raw(m.field, m.coeffs[spec.K:])
    rng = random.Random(name + " low bounds")
    for _ in range(4):
        y = random_preimage(rng, spec)
        y_upper = Poly._raw(m.field, y.coeffs[spec.K:])
        for track_s in (True, False):
            got = partial_gcd_upper(m_upper, y_upper, big_n, big_n + 5, Stopping.THRESHOLD, track_s)
            want = _reference_partial(m_upper, y_upper, 0, -5, Stopping.THRESHOLD, track_s)
            assert got == replace(want, r=None, r_tilde=None) and want.r.is_zero
            ran_out = extended_gcd(m_upper, y_upper, track_s)
            assert (got.t, got.iterations) == (ran_out.t, ran_out.iterations)
            got = partial_gcd_full(m, y, -(big_n + 5), Stopping.RELATIVE, track_s)
            assert got == _reference_partial(m, y, -(big_n + 5), 0, Stopping.RELATIVE, track_s)
            ran_out = extended_gcd(m, y, track_s)
            assert got.r.is_zero and (got.t, got.iterations) == (ran_out.t, ran_out.iterations)


LOOP_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import remcode.decoder as decoder
import remcode.poly as poly
from remcode import CodeSpec, Codeword, GF, Poly, encode
from remcode.code import psi_inverse
from remcode.decoder import Stopping, extended_gcd, partial_gcd_full, partial_gcd_upper, upper_parts
from remcode.poly import irreducible_polys

def refused(*args):
    raise AssertionError("a Poly operator ran in the loop")

births, inside, passes = [0], [False], []
new, loop = poly._new, decoder._euclid_loop
def counting_new(cls):
    births[0] += inside[0]
    return new(cls)
def counting_loop(*args, **kwargs):
    inside[0] = True
    try:
        run = loop(*args, **kwargs)
    finally:
        inside[0] = False
    passes.append(run.iterations)
    return run
poly._new, decoder._euclid_loop = counting_new, counting_loop

f2 = GF(2)
gf256 = GF(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1])
specs = [CodeSpec(f2, [g for d in range(1, 6) for g in irreducible_polys(f2, d)], 6),
         CodeSpec(gf256, [Poly(gf256, [r, 1]) for r in range(64)], 48)]
for name in ("__divmod__", "__mul__", "__sub__"):
    setattr(Poly, name, refused)
report = []
for spec in specs:
    error = [Poly.zero(spec.field)] * spec.n
    error[-1] = error[-2] = Poly.one(spec.field)
    word = encode(spec, Poly.from_int(spec.field, 12345))
    y = psi_inverse(spec, word + Codeword(spec, tuple(error)))
    m, (m_upper, y_upper) = spec.modulus_product, upper_parts(spec, y)
    runs = [lambda: extended_gcd(m, y, track_s=False)]
    for stopping in Stopping:
        runs.append(lambda stopping=stopping: partial_gcd_full(m, y, spec.K, stopping, False))
        runs.append(lambda stopping=stopping:
                    partial_gcd_upper(m_upper, y_upper, spec.N, spec.K, stopping, False))
    for run in runs:
        births[0] = 0
        run()
        report.append([births[0], passes[-1]])
print(json.dumps({"debug": __debug__, "runs": report}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "-O"])
def test_the_untracked_loop_calls_no_poly_operator(flags):
    """With s untracked, a loop run on GF(2) and on GF(2^8) calls no
    `Poly.__divmod__`, `__mul__` or `__sub__` (they raise in the probe), in
    a fresh interpreter in both modes.  Under -O it births three
    polynomials, the result's t, r and r_tilde.  With asserts on it births
    the views of t and t~ and gcd0 once, then the views of r and t and the
    gcd check's result each pass, and the result's three."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, *flags, "-c", LOOP_PROBE, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["debug"] is not bool(flags)
    assert len(report["runs"]) == 2 * 5
    for births, passes in report["runs"]:
        assert passes > 0
        assert births == (3 if flags else 3 + 3 * passes + 3), (births, passes)
