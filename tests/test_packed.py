"""Packed polynomials: `Poly` over GF(2) and GF(2^m), m <= 8, on its
kernel's packed int.

`BitKernel` (GF(2), a bit row) and `ByteKernel` (2 < q <= 256, a
little-endian byte row) set `packs`: a polynomial over their fields is a
`_LazyPoly`, born with its packed int; one born packed fills its
coefficient tuple on its first read.  These tests hold

* every packed entry point (`poly_add`, `poly_sub`, `poly_mul`,
  `poly_divmod`, `gcd`, `combine_packed`) to the same entry point of a
  kernel that packs nothing: `PrimeKernel` over GF(2), and `Char2Kernel`'s
  per-coefficient list loops over GF(2^4) and GF(2^8), on divisors on both
  sides of `ROW_MIN`;
* polynomials born either way, mixed, to one value: equality, hash, `copy`,
  `pickle`, `repr` and `serialize`, and equality with the same polynomial
  over a GF(2) that runs `PrimeKernel`;
* every birth path to a packed value set at birth;
* the GF(2) decoder's Euclid loop to no unpacking: no polynomial's
  coefficients are read from its packed value inside it.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import remcode.decoder as rdec
from remcode.code import Codeword, encode, psi_inverse
from remcode.decoder import DecodeStatus, decode, upper_parts
from remcode.field import Field
from remcode.kernels import ROW_MIN, BitKernel, Char2Kernel, PrimeKernel, _from_bits, _strip
from remcode.poly import Poly, _born, _LazyPoly, poly_gcd

from test_decoder_checks import ALL_OPTIONS
from test_kernels import FIELDS, _prime_gf2, elements

# each packing field with a kernel that packs nothing, over the same field
REFERENCES = {
    "GF(2)": (FIELDS["GF(2)"](), PrimeKernel),
    "GF(2^4)": (FIELDS["GF(2^4)"](), Char2Kernel),
    "GF(2^8)": (FIELDS["GF(2^8)"](), Char2Kernel),
}


def coeffs(f: Field, max_len: int):
    """Coefficient tuples with no top zeros, of lengths drawn evenly up to
    about `max_len`."""
    return st.integers(0, max_len).flatmap(
        lambda n: st.lists(elements(f), min_size=n, max_size=n)).map(_strip)


def _is_set(p: Poly, name: str) -> bool:
    """Whether a slot holds a value, read without `__getattr__`'s fill."""
    try:
        object.__getattribute__(p, name)
    except AttributeError:
        return False
    return True


@pytest.mark.parametrize("name", list(REFERENCES))
def test_packed_ops_match_a_kernel_that_packs_nothing(name):
    f, kind = REFERENCES[name]
    kernel, ref = f.kernel, kind(f)
    assert kernel.packs and not ref.packs
    pack, unpack = kernel.to_packed, kernel.from_packed

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def check(data):
        # divisors of up to 4 * ROW_MIN coefficients: both sides of the row rule
        a, b, c = data.draw(coeffs(f, 120)), data.draw(coeffs(f, 4 * ROW_MIN)), data.draw(coeffs(f, 12))
        for x, y in ((a, b), (b, a), (a, c), (c, b), (c, c)):
            px, py = pack(x), pack(y)
            assert isinstance(px, int) and unpack(px) == x and kernel.packed_len(px) == len(x)
            assert unpack(kernel.poly_add(px, py)) == ref.poly_add(x, y)
            assert unpack(kernel.poly_sub(px, py)) == ref.poly_sub(x, y)
            if x and y:
                assert unpack(kernel.poly_mul(px, py)) == ref.poly_mul(x, y)
            if y and len(x) >= len(y):
                q, r = kernel.poly_divmod(px, py)
                assert (unpack(q), unpack(r)) == ref.poly_divmod(x, y)
            if x or y:
                assert unpack(kernel.gcd(px, py)) == ref.gcd(x, y)
        if a and b and c:
            ac, bc = ref.poly_mul(a, c), ref.poly_mul(b, c)
            g = unpack(kernel.gcd(pack(ac), pack(bc)))
            assert g == ref.gcd(ac, bc) and len(g) >= len(c)

        length = data.draw(st.integers(1, 40))
        rows = [list(data.draw(coeffs(f, length))) for _ in range(data.draw(st.integers(1, 8)))]
        rows = [row + [0] * (length - len(row)) for row in rows]
        weights = list(data.draw(coeffs(f, len(rows))))
        packed = kernel.combine_packed(kernel.pack(rows), weights)
        assert unpack(packed) == ref.combine_packed(ref.pack(rows), weights)

    check()


@pytest.mark.parametrize("name", ["GF(2)", "GF(2^8)"])
def test_packed_and_coefficient_born_polys_are_one_value(name):
    """A polynomial born from its coefficients, which packs them at birth,
    and one born packed, its coefficients not read yet, compare equal both
    ways round, hash alike, copy, pickle, print and serialize alike, and so
    do the results of arithmetic that mixes them; over GF(2) each also
    equals the same polynomial over a GF(2) that runs `PrimeKernel`, whose
    polynomials pack nothing."""
    f = REFERENCES[name][0]
    prime = _prime_gf2()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def check(data):
        c, d = data.draw(coeffs(f, 60)), data.draw(coeffs(f, 20))

        def both(t):
            """(coefficient-born, packed-born) polynomials of the tuple t."""
            by_coeffs, by_packed = Poly(f, t), _born(f, f.kernel.to_packed(t))
            assert type(by_coeffs) is type(by_packed) is _LazyPoly
            assert _is_set(by_coeffs, "packed") and not _is_set(by_packed, "coeffs")
            return by_coeffs, by_packed

        for x, y in (both(c), both(c)[::-1]):
            assert x == y and y == x and hash(x) == hash(y)
            assert not (x != y)
            assert repr(x) == repr(y) == f"Poly({f!r}, {list(c)})"
            assert x.serialize() == y.serialize() and str(x) == str(y)
            assert (x.degree, x.is_zero, bool(x)) == (y.degree, y.is_zero, bool(y))
            for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert twin == y and y == twin and hash(twin) == hash(y)
                assert twin.coeffs == c and twin.packed == y.packed
        for x, y in zip(both(c), both(d)[::-1]):
            expected = Poly(f, c), Poly(f, d)
            assert x + y == expected[0] + expected[1]
            assert x * y == expected[0] * expected[1]
            assert (x * y + x) - x == x * y
            if not y.is_zero:
                assert divmod(x, y) == divmod(*expected)
            if not (x.is_zero and y.is_zero):
                assert poly_gcd(x, y) == poly_gcd(*expected)
        if f.q == 2:
            other = Poly(prime, c)
            assert type(other) is Poly and other.packed is other.coeffs
            for x in both(c):
                assert x == other and other == x and hash(x) == hash(other)
                assert x * x == other * other and other * other == x * x

    check()


@pytest.mark.parametrize("spec_name", ["ladder5", "rs12_gf256"])
def test_every_birth_sets_packed(spec_name, request):
    """Over GF(2) and GF(2^8) a polynomial is born with its packed value,
    equal to its coefficients packed, by every path: `Poly(...)`, `zero`,
    `one`, `x`, `monomial`, `from_int`, `copy`, `deepcopy` and `pickle`,
    the symbols of `Codeword.symbols` and the windows of `upper_parts`."""
    spec = request.getfixturevalue(spec_name)
    f = spec.field
    rng = random.Random(spec_name)
    a = Poly(f, [rng.randrange(f.q) for _ in range(spec.K - 1)] + [1])
    births = [a, Poly.zero(f), Poly.one(f), Poly.x(f), Poly.monomial(f, f.q - 1, 9),
              Poly.from_int(f, a.to_int()), copy.copy(a), copy.deepcopy(a),
              pickle.loads(pickle.dumps(a))]
    word = encode(spec, a)
    births += word.symbols
    births += upper_parts(spec, psi_inverse(spec, word))
    for p in births:
        assert type(p) is _LazyPoly and _is_set(p, "packed"), p
        assert object.__getattribute__(p, "packed") == f.kernel.to_packed(p.coeffs), p


def test_gf2_euclid_loop_unpacks_nothing(monkeypatch, ladder5):
    """Every decode option on words with errors within the degree budget:
    inside `_euclid_loop` nothing reads a polynomial's coefficients from
    its packed value (`from_packed`) or unpacks a bit row (`_unpack`), so
    the loop runs on bit rows from its inputs to its result.  Outside it
    both are called, so the count is live."""
    spec, inside, calls = ladder5, [False], {"inside": 0, "outside": 0}

    def count():
        calls["inside" if inside[0] else "outside"] += 1

    from_packed, loop = BitKernel.from_packed, rdec._euclid_loop

    def counting_loop(*args, **kwargs):
        inside[0] = True
        try:
            return loop(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(BitKernel, "from_packed", lambda self, x: count() or from_packed(self, x))
    monkeypatch.setattr(BitKernel, "_unpack", staticmethod(lambda x, n: count() or _from_bits(x, n)))
    monkeypatch.setattr(rdec, "_euclid_loop", counting_loop)
    passes = 0
    for code in range(0, 2 ** spec.K, 7):
        message = Poly.from_int(spec.field, code)
        word = encode(spec, message)
        # degree weight 4 = t_degree: position 3 (x^4 + x + 1) with a nonzero symbol
        symbol = tuple(int(j == 0 or (code >> j) & 1) for j in range(4))
        error = Codeword._of_row(spec, (0,) * 6 + symbol + (0,) * 5)
        for options in ALL_OPTIONS:
            outcome = decode(spec, word + error, options)
            assert outcome.status is DecodeStatus.SUCCESS and outcome.message == message
            passes += 1
    assert passes and calls["inside"] == 0 and calls["outside"] > 0
