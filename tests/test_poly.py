from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest

from remcode.errors import BothZero, ConstantInput, DivisionByZeroPoly, SpecMismatch
from remcode.field import Field
from remcode.poly import (
    NEG_DEGREE,
    Poly,
    _mobius,
    count_irreducible,
    is_irreducible,
    irreducible_polys,
    monic_polys,
    poly_gcd,
    poly_mod_inverse,
    poly_xgcd,
    sieve_count_irreducible,
)

from conftest import P


def test_normalization_strips_leading_zeros(gf5):
    assert Poly(gf5, [1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly(gf5, [0, 0, 0]).coeffs == ()


def test_poly_is_immutable(gf2, gf5):
    """No attribute can be assigned or deleted, whichever constructor built
    the polynomial, and a refused change leaves it unchanged."""
    for p in (Poly(gf5, [1, 2]), Poly._raw(gf5, (1, 2)), Poly.zero(gf5), P(gf5, 1, 2) * P(gf5, 3)):
        before = (p.field, p.coeffs)
        with pytest.raises(AttributeError):
            p.field = gf2
        with pytest.raises(AttributeError):
            p.coeffs = (4,)
        with pytest.raises(AttributeError):
            p.degree = 7
        with pytest.raises(AttributeError):
            setattr(p, "coeffs", ())
        with pytest.raises(AttributeError):
            del p.coeffs
        with pytest.raises(AttributeError):
            del p.field
        assert (p.field, p.coeffs) == before
    assert Poly(gf5, [1, 2]).coeffs == (1, 2) and Poly(gf5, [1, 2]).field is gf5


def test_zero_degree_sentinel_below_every_int(gf2):
    z = Poly.zero(gf2)
    assert z.degree == NEG_DEGREE
    assert z.degree < -(10 ** 9)
    assert z.degree < 0
    assert Poly.one(gf2).degree == 0


def test_mul_frozen_examples(gf2):
    x1 = P(gf2, 1, 1)
    assert x1 * x1 == P(gf2, 1, 0, 1)  # (x+1)^2 = x^2+1 in characteristic 2
    assert P(gf2, 0, 1, 1) * P(gf2, 1, 1, 1) == P(gf2, 0, 1, 0, 0, 1)


def test_additive_identity(gf5):
    p = P(gf5, 3, 1, 4)
    assert p + Poly.zero(gf5) == p
    assert p - p == Poly.zero(gf5)


def test_mixed_field_operands_rejected(gf2, gf5):
    with pytest.raises(SpecMismatch):
        P(gf2, 1) + P(gf5, 1)


def test_divmod_frozen_examples(gf2, gf5):
    q, r = divmod(P(gf2, 0, 1, 0, 1), P(gf2, 1, 1, 1))
    assert q == P(gf2, 1, 1) and r == P(gf2, 1, 1)
    a = P(gf5, 1, 2, 3)
    assert divmod(a, a) == (Poly.one(gf5), Poly.zero(gf5))
    q, r = divmod(P(gf5, 0, 1), P(gf5, 3, 1))  # x by (x - 2)
    assert q == Poly.one(gf5) and r == P(gf5, 2)


def test_divmod_round_trip_random(gf5, gf16):
    rng = random.Random(11)
    for field in (gf5, gf16):
        for _ in range(300):
            a = Poly.from_int(field, rng.randrange(field.q ** 7))
            b = Poly.from_int(field, rng.randrange(1, field.q ** 4))
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


def test_division_by_zero(gf2):
    with pytest.raises(DivisionByZeroPoly):
        divmod(P(gf2, 1, 1), Poly.zero(gf2))


def test_gcd_frozen_examples(gf2, gf5):
    assert poly_gcd(P(gf2, 0, 1, 0, 0, 1), P(gf2, 0, 0, 1, 1)) == P(gf2, 0, 1, 1)
    assert poly_gcd(P(gf5, 2, 4), Poly.zero(gf5)) == P(gf5, 3, 1)  # monic-normalized
    assert poly_gcd(P(gf5, 4, 1), P(gf5, 3, 1)) == Poly.one(gf5)
    with pytest.raises(BothZero):
        poly_gcd(Poly.zero(gf2), Poly.zero(gf2))


def test_gcd_divides_both_and_is_greatest(gf5):
    rng = random.Random(23)
    for _ in range(100):
        g = Poly.from_int(gf5, rng.randrange(1, 5 ** 3))
        a = g * Poly.from_int(gf5, rng.randrange(1, 5 ** 3))
        b = g * Poly.from_int(gf5, rng.randrange(1, 5 ** 3))
        d = poly_gcd(a, b)
        assert (a % d).is_zero and (b % d).is_zero
        assert (d % poly_gcd(g, d)).is_zero  # the common divisor g divides d
        assert d.is_monic


def test_xgcd_bezout_identity(gf2, gf16):
    rng = random.Random(37)
    for field in (gf2, gf16):
        for _ in range(150):
            a = Poly.from_int(field, rng.randrange(field.q ** 5))
            b = Poly.from_int(field, rng.randrange(field.q ** 5))
            if a.is_zero and b.is_zero:
                continue
            g, u, v = poly_xgcd(a, b)
            assert u * a + v * b == g
            assert g.is_monic


def test_mod_inverse(gf5):
    m = P(gf5, 2, 0, 1)  # x^2 + 2: 3 is a non-square mod 5, so irreducible
    a = P(gf5, 0, 1)
    inv = poly_mod_inverse(a, m)
    assert (a * inv) % m == Poly.one(gf5)


def test_eval(gf2, gf5):
    assert P(gf5, 0, 1).evaluate(3) == 3
    assert P(gf2, 1, 1, 1).evaluate(1) == 1
    # a(beta) is the remainder modulo (x - beta)
    rng = random.Random(5)
    for _ in range(50):
        a = Poly.from_int(gf5, rng.randrange(5 ** 5))
        beta = rng.randrange(5)
        rem = a % P(gf5, (-beta) % 5, 1)
        assert a.evaluate(beta) == (rem.coeffs[0] if rem.coeffs else 0)


def test_is_irreducible(gf2):
    assert is_irreducible(P(gf2, 1, 1, 1))
    assert not is_irreducible(P(gf2, 1, 0, 1))      # root at 1
    assert is_irreducible(P(gf2, 1, 1))             # degree 1
    assert is_irreducible(P(gf2, 1, 1, 0, 0, 1))    # x^4+x+1
    assert not is_irreducible(P(gf2, 1, 0, 0, 1))   # x^3+1 = (x+1)(x^2+x+1)
    with pytest.raises(ConstantInput):
        is_irreducible(Poly.one(gf2))
    with pytest.raises(ConstantInput):
        is_irreducible(Poly.zero(gf2))


@pytest.mark.parametrize("p, m, reduction, max_degree", [
    (2, 1, None, 9), (3, 1, None, 5), (2, 2, [1, 1, 1], 4), (5, 1, None, 4),
    (3, 2, [1, 0, 1], 3),
], ids=["GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(9)"])
def test_is_irreducible_agrees_with_the_sieve(p, m, reduction, max_degree):
    """Rabin's test against `irreducible_polys` on every monic polynomial of
    degree 1..max_degree, and on a non-monic multiple of each one up to
    degree 3."""
    field = Field(p, m, reduction)
    for d in range(1, max_degree + 1):
        irreducible = set(irreducible_polys(field, d))
        for f in monic_polys(field, d):
            assert is_irreducible(f) == (f in irreducible), f
            if d <= 3 and field.q > 2:
                assert is_irreducible(f.scale(field.q - 1)) == (f in irreducible), f


def test_degree3_binary_irreducibles(gf2):
    # exactly x^3+x+1 and x^3+x^2+1
    irr = [p.coeffs for p in irreducible_polys(gf2, 3)]
    assert sorted(irr) == [(1, 0, 1, 1), (1, 1, 0, 1)]


def test_count_irreducible_frozen_values():
    assert count_irreducible(2, 16) == 4080
    assert count_irreducible(2, 2) == 1
    assert count_irreducible(256, 2) == 32640


def test_mobius_frozen_values():
    expect = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1,
              0, -1, 0, -1, 0, 1, 1, -1, 0, 0, 1, 0, 0, -1, -1]
    assert [_mobius(n) for n in range(1, 31)] == expect


def test_count_matches_sieve(gf2, gf4, gf5):
    for d in range(1, 9):
        assert sieve_count_irreducible(gf2, d) == count_irreducible(2, d)
    for d in range(1, 5):
        assert sieve_count_irreducible(gf4, d) == count_irreducible(4, d)
    for d in range(1, 4):
        assert sieve_count_irreducible(gf5, d) == count_irreducible(5, d)


def test_monic_enumeration_size(gf5):
    assert sum(1 for _ in monic_polys(gf5, 2)) == 25


def test_serialize(gf2):
    assert P(gf2, 0, 1, 1).serialize() == "[0,1,1]"
    assert Poly.zero(gf2).serialize() == "[]"


def test_int_round_trip(gf16):
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(16 ** 4)
        assert Poly.from_int(gf16, n).to_int() == n


def test_shift_and_monomial(gf5):
    assert P(gf5, 1, 2).shift(2) == P(gf5, 0, 0, 1, 2)
    assert Poly.monomial(gf5, 3, 4) == P(gf5, 0, 0, 0, 0, 3)
    assert Poly.monomial(gf5, 0, 4).is_zero


def test_negative_shift_and_monomial_degree_are_refused(gf5):
    """x^k for k < 0 is no polynomial: both used to return a wrong answer
    (the input unchanged, and the constant 3)."""
    with pytest.raises(ValueError):
        P(gf5, 1, 2).shift(-1)
    with pytest.raises(ValueError):
        Poly.zero(gf5).shift(-1)
    with pytest.raises(ValueError):
        Poly.monomial(gf5, 3, -1)
    with pytest.raises(ValueError):
        Poly.monomial(gf5, 0, -1)


def test_negative_code_is_refused():
    """`from_int` of a negative code used to loop forever, since -1 // q is
    -1; it runs in a subprocess so that a regression fails, not hangs."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = ("import sys; sys.path.insert(0, sys.argv[1]); from remcode import Field, Poly\n"
              "try:\n    Poly.from_int(Field(5), -1)\nexcept ValueError:\n    sys.exit(0)\n"
              "sys.exit(3)")
    done = subprocess.run([sys.executable, "-c", script, str(src)],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
