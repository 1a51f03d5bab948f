"""The kernels' one gcd loop and its memo of the last remainder chain.

`_Kernel.gcd` runs Euclid on states (x, y) of packed values (`to_packed`):
coefficient tuples where the kernel packs nothing, bit or byte row ints in
`BitKernel` and `ByteKernel`.  A state steps to (y, `poly_mod(x, y)`), and
the last x is made monic by `poly_monic`; the kernel keeps the states of
its last run that missed, each mapped to that run's monic result.  These
tests hold `poly_mod` and `poly_monic` to the table-free reference, with
the dividend shorter than, as long as and longer than the divisor.  On
every kernel kind they check that a gcd call returns what a fresh run (a
new kernel, whose memo is empty) and the reference return: on random pairs
in both orders, on every state of one chain (so that calls hit), and with
a zero operand.  They also check that the memo holds exactly the states of
the last run that missed, that neither a hit nor a call that takes no step
replaces it, that a hit is exact under any fixed step, and that the memo
compares states, not their hashes.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from remcode.field import Field
from remcode.kernels import PrimeKernel, _strip, kernel_for

from test_kernels import coeff_lists, elements, ref_divmod, ref_gcd, ref_mul

FIELDS = {
    "GF(2)": lambda: Field(2),
    "GF(7)": lambda: Field(7),
    "GF(9)": lambda: Field(3, 2, [1, 0, 1]),
    "GF(25)": lambda: Field(5, 2, [2, 1, 1]),
    "GF(2^8)": lambda: Field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
    "GF(2^16)": lambda: Field(2, 16, [1, 1, 0, 1] + [0] * 8 + [1, 0, 0, 0, 1]),
}


@pytest.fixture(scope="module", params=list(FIELDS))
def field(request) -> Field:
    return FIELDS[request.param]()


def chain(f: Field, a, b) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every state (r_i, r_i+1) of Euclid from (a, b), by the reference
    division, up to the last, whose second entry is zero."""
    a, b = tuple(a), tuple(b)
    out = [(a, b)]
    while b:
        a, b = b, ref_divmod(f, a, b)[1]
        out.append((a, b))
    return out


def packed(kernel, coeffs):
    """Coefficients with no top zeros as the kernel's packed value."""
    return kernel.to_packed(tuple(coeffs))


def kernel_gcd(kernel, a, b) -> tuple[int, ...]:
    """The kernel's gcd of two coefficient lists, as coefficients."""
    return kernel.from_packed(kernel.gcd(packed(kernel, a), packed(kernel, b)))


def fresh_gcd(f: Field, a, b) -> tuple[int, ...]:
    """gcd from a new kernel for the field, whose memo is empty."""
    return kernel_gcd(kernel_for(f), a, b)


def pair_with_common_factor(f: Field, data):
    """Two coefficient lists with a drawn common factor, so that gcds of
    positive degree are frequent; either may be zero."""
    a, b, c = (data.draw(coeff_lists(f)) for _ in range(3))
    c = c or [1]
    return ref_mul(f, a, c), ref_mul(f, b, c)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poly_mod_and_poly_monic_match_the_reference(field, data):
    """`poly_mod(x, y)` is the remainder of x by y, also when x is shorter
    than y or as long, and `poly_monic(x)` is x over its lead."""
    kernel = field.kernel
    a = _strip(data.draw(coeff_lists(field, 12)))
    b = _strip(data.draw(coeff_lists(field, 6))) or (data.draw(elements(field)) or 1,)
    for x in (a, a[:len(b)], a[:len(b) - 1]):
        x = _strip(x)
        got = kernel.from_packed(kernel.poly_mod(packed(kernel, x), packed(kernel, b)))
        assert got == ref_divmod(field, x, b)[1]
    if a:
        assert kernel.from_packed(kernel.poly_monic(packed(kernel, a))) == ref_gcd(field, a, ())


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_memoised_gcd_matches_fresh_run_and_reference(field, data):
    """Calls on the states of one chain hit the memo that the first call
    left; each result equals the fresh run's and the reference's."""
    kernel = field.kernel
    a, b = pair_with_common_factor(field, data)
    if not (a or b):
        return
    expected = ref_gcd(field, a, b)
    if field.q == 2:
        assert PrimeKernel(field).gcd(tuple(a), tuple(b)) == expected
    for x, y in ((a, b), (b, a)):
        assert kernel_gcd(kernel, x, y) == expected == fresh_gcd(field, x, y)
    for u, v in chain(field, a, b):
        for x, y in ((u, v), (v, u)):
            if x or y:
                assert kernel_gcd(kernel, x, y) == expected == fresh_gcd(field, x, y)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_memo_holds_only_the_last_missing_run(field, data):
    kernel = kernel_for(field)

    def keys(a, b):
        return [(packed(kernel, u), packed(kernel, v)) for u, v in chain(field, a, b)]

    def gcd(a, b):
        return kernel.gcd(packed(kernel, a), packed(kernel, b))

    a, b = pair_with_common_factor(field, data)
    if not b:
        b = [1]
    g = gcd(a, b)                                 # the memo is empty: a miss
    memo = kernel._memo
    assert memo == dict.fromkeys(keys(a, b), g)
    before = dict(memo)

    for u, v in chain(field, a, b):
        # (u, v) is remembered, or takes no step; (v, u) with deg v < deg u
        # steps to (u, v) first
        for x, y in [(u, v)] + [(v, u)] * (len(v) < len(u)):
            assert gcd(x, y) == g
            assert kernel._memo is memo and memo == before

    c, d = pair_with_common_factor(field, data)
    if not (c or d):
        return
    later = keys(c, d)
    h = gcd(c, d)
    if not d or any(k in before for k in later):
        assert kernel._memo is memo and memo == before
    else:
        assert kernel._memo == dict.fromkeys(later, h)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_hit_returns_what_the_run_would_under_any_fixed_step(field, data):
    """The memo is exact because a run's continuation from a state is fixed,
    not because the step computes a gcd: with a `poly_mod` that skips a
    remainder at some states, a warm memo still returns what a fresh run
    returns."""
    step = field.kernel.poly_mod

    def skipping(x, y):
        r = step(x, y)
        return step(y, r) if r and hash((x, y)) % 2 == 0 else r

    warm, cold = kernel_for(field), kernel_for(field)
    warm.poly_mod = cold.poly_mod = skipping
    a, b = pair_with_common_factor(field, data)
    if not b:
        return
    x, y = packed(warm, a), packed(warm, b)
    states = [(x, y)]
    while y:
        x, y = y, skipping(x, y)
        states.append((x, y))
    warm.gcd(*states[0])
    for x, y in states:
        for u, v in ((x, y), (y, x)):
            if u or v:
                cold._memo = {}
                assert warm.gcd(u, v) == cold.gcd(u, v)


@pytest.mark.parametrize("name", ["GF(2)", "GF(2^8)"])
def test_memo_compares_states_not_hashes(name):
    """Bit-row and byte-row packed values are ints, and CPython hashes an int
    n >= 0 to n mod M, M = sys.hash_info.modulus, so the states (a, x) and
    (a + M, x) share a hash.  With a(0) = 0 and M odd, gcd(a, x) = x and
    gcd(a + M, x) = 1; a memo keyed by hash would answer the second call
    with the first's result."""
    kernel = FIELDS[name]().kernel
    a = 1 << 72
    a_plus_m, x = a + sys.hash_info.modulus, packed(kernel, (0, 1))
    assert hash((a, x)) == hash((a_plus_m, x))
    assert kernel.from_packed(kernel.gcd(a, x)) == (0, 1)
    assert kernel.from_packed(kernel.gcd(a_plus_m, x)) == (1,)
