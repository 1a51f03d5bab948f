from __future__ import annotations

import random

import pytest

from remcode.errors import DegreeMismatch, NonPrimeCharacteristic, ReducibleModulus, ZeroInverse
from remcode.field import Field, _prime_factors
from remcode.tables import count_table


def test_gf2_add_is_xor(gf2):
    assert gf2.add(1, 1) == 0
    assert gf2.add(0, 1) == 1
    assert gf2.inv(1) == 1


def test_gf5_basics(gf5):
    assert gf5.mul(3, 4) == 2  # 12 mod 5
    assert gf5.inv(2) == 3     # 2*3 = 6 = 1
    assert gf5.sub(1, 3) == 3
    assert gf5.neg(2) == 3


def test_gf16_frozen_products(gf16):
    # alpha * alpha^3 = alpha^4 = alpha + 1 with reduction x^4+x+1
    assert gf16.mul(2, 8) == 3
    assert gf16.inv(2) == 9


def test_gf16_table_mul_matches_basis_mul(gf16):
    for a in range(16):
        for b in range(16):
            assert gf16.mul(a, b) == gf16._mul_basis(a, b)


@pytest.mark.parametrize("make", [
    lambda: Field(3, 2, [1, 0, 1]),
    lambda: Field(5, 2, [2, 1, 1]),
])
def test_table_arithmetic_matches_basis_reference(make):
    # exhaustive: table mul and inv against _mul_basis, add/sub against _digitwise
    f = make()
    for a in range(f.q):
        for b in range(f.q):
            assert f.mul(a, b) == f._mul_basis(a, b)
            assert f.add(a, b) == f._digitwise(a, b, 1)
            assert f.sub(a, b) == f._digitwise(a, b, -1)
        if a:
            assert f._mul_basis(a, f.inv(a)) == 1


@pytest.mark.parametrize("make", [
    lambda: Field(5),
    lambda: Field(3, 2, [1, 0, 1]),
    lambda: Field(2, 4, [1, 1, 0, 0, 1]),
    lambda: Field(5, 2, [2, 1, 1]),
], ids=["GF(5)", "GF(9)", "GF(16)", "GF(25)"])
def test_digits_round_trip(make):
    """Every element splits into m base-p digits, lowest first, that join
    back to it."""
    f = make()
    for a in f.elements():
        digits = f._to_digits(a)
        assert len(digits) == f.m and all(0 <= d < f.p for d in digits)
        assert sum(d * f.p ** i for i, d in enumerate(digits)) == a
        assert f._from_digits(digits) == a


@pytest.mark.parametrize("make, sample", [
    (lambda: Field(3, 2, [1, 0, 1]), None),
    (lambda: Field(5, 2, [2, 1, 1]), None),
    (lambda: Field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]), None),
    (lambda: Field(2, 16, [1, 1, 0, 1] + [0] * 8 + [1, 0, 0, 0, 1]), 3000),
], ids=["GF(9)", "GF(25)", "GF(2^8)", "GF(2^16)"])
def test_tables_are_the_generator_powers_by_basis_multiplication(make, sample):
    """exp[i + 1] = exp[i] * g by `_mul_basis` and log inverts exp, at every
    exponent (a seeded sample of them for GF(2^16)); exp runs through every
    nonzero element once."""
    f = make()
    exp, log = f._tables
    n, g = f.q - 1, f._find_generator()
    exponents = range(n) if sample is None else random.Random(16).sample(range(n), sample)
    for i in exponents:
        assert exp[i + 1] == f._mul_basis(exp[i], g) == f._times(g)(exp[i])
        assert log[exp[i]] == i
    assert sorted(exp[:n]) == list(range(1, f.q))


@pytest.mark.parametrize("n, factors", [
    (0, []), (1, []), (2, [2]), (4, [2]), (9, [3]), (12, [2, 3]),
    (1 << 16, [2]), (65537, [65537]),
])
def test_prime_factors(n, factors):
    assert _prime_factors(n) == factors


@pytest.mark.parametrize("p", [0, 1, 4, 9, 1 << 16])
def test_non_prime_characteristic_rejected_by_factorization(p):
    with pytest.raises(NonPrimeCharacteristic):
        Field(p)


@pytest.mark.parametrize("q, ok", [
    (0, False), (1, False), (2, True), (4, True), (6, False), (9, True),
    (1 << 16, True), (65537, False),
])
def test_count_table_accepts_prime_powers_only(q, ok):
    if ok:
        assert count_table(q, 1)[0][1] == q
    else:
        with pytest.raises(ValueError):
            count_table(q, 1)


@pytest.mark.parametrize("make", [
    lambda: Field(2),
    lambda: Field(3),
    lambda: Field(5),
    lambda: Field(7),
    lambda: Field(2, 2, [1, 1, 1]),
    lambda: Field(3, 2, [1, 0, 1]),
    lambda: Field(2, 4, [1, 1, 0, 0, 1]),
    lambda: Field(2, 8, [1, 1, 0, 1, 1, 0, 0, 0, 1]),
])
def test_inverse_involution_and_identity(make):
    f = make()
    assert f.q <= 256
    for a in range(1, f.q):
        inv = f.inv(a)
        assert f.mul(a, inv) == 1
        assert f.inv(inv) == a


@pytest.mark.parametrize("make", [
    lambda: Field(2),
    lambda: Field(5),
    lambda: Field(2, 2, [1, 1, 1]),
    lambda: Field(13),
    lambda: Field(2, 4, [1, 1, 0, 0, 1]),
])
def test_field_axioms_exhaustive(make):
    f = make()
    assert f.q <= 16
    elems = list(f.elements())
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(f.sub(a, b), b) == a
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("make", [
    lambda: Field(2),
    lambda: Field(5),
    lambda: Field(251),
    lambda: Field(2, 2, [1, 1, 1]),
    lambda: Field(2, 4, [1, 1, 0, 0, 1]),
    lambda: Field(2, 8, [1, 1, 0, 1, 1, 0, 0, 0, 1]),
])
def test_multiplicative_group_order(make):
    f = make()
    assert f.q <= 256
    for a in range(1, f.q):
        assert f.pow(a, f.q - 1) == 1


def test_nonprime_characteristic_rejected():
    with pytest.raises(NonPrimeCharacteristic):
        Field(4)
    with pytest.raises(NonPrimeCharacteristic):
        Field(6)


def test_large_characteristic_rejected_before_factoring(monkeypatch):
    """2^61 - 1 is prime: trial division would run for minutes before the
    size check, so the size check comes first and nothing is factored."""
    def factoring(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr("remcode.field._prime_factors", factoring)
    with pytest.raises(DegreeMismatch, match="exceeds"):
        Field(2 ** 61 - 1)


def test_reducible_reduction_poly_rejected():
    # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ReducibleModulus):
        Field(2, 2, [1, 0, 1])


def test_reduction_poly_shape_checked():
    with pytest.raises(DegreeMismatch):
        Field(2, 2)                    # missing
    with pytest.raises(DegreeMismatch):
        Field(2, 1, [1, 1])            # supplied for a prime field
    with pytest.raises(DegreeMismatch):
        Field(2, 2, [1, 1])            # wrong length
    with pytest.raises(DegreeMismatch):
        Field(5, 2, [1, 0, 2])         # not monic
    with pytest.raises(DegreeMismatch):
        Field(2, 17, [1] + [0] * 16 + [1])  # q over the supported limit


def test_zero_inverse_raises(gf5, gf16):
    with pytest.raises(ZeroInverse):
        gf5.inv(0)
    with pytest.raises(ZeroInverse):
        gf16.inv(0)


def test_element_range_check(gf5):
    with pytest.raises(ValueError):
        gf5.check(5)
    with pytest.raises(ValueError):
        gf5.check(-1)


def test_field_equality_and_hash(gf16):
    same = Field(2, 4, [1, 1, 0, 0, 1])
    other = Field(2, 4, [1, 0, 0, 1, 1])  # x^4+x^3+1, also irreducible
    assert same == gf16 and hash(same) == hash(gf16)
    assert other != gf16
