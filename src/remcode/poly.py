"""Dense polynomials over a finite field.

Coefficients are stored lowest degree first (index l holds the coefficient
of x^l) with no trailing zeros; the zero polynomial has an empty coefficient
tuple and degree NEG_DEGREE, a sentinel strictly below every integer so that
every bound of the form `deg r < limit` is automatically satisfied by r = 0.

Arithmetic (`+`, `-`, `*`, `divmod`, `scale`) and `poly_gcd` hand the
coefficient tuples to the field's kernel (`remcode.kernels`), which works on
plain lists with no `Field` method call per coefficient; `Poly` checks the
operands and strips the result.  `evaluate(beta)` is the remainder of
division by x - beta.

Also provides Rabin's irreducibility test, the sieve that serves as its
reference: every monic polynomial of a degree that is not a product of a
monic irreducible of degree at most half of it and a monic cofactor (capped
at `MAX_SIEVE_CANDIDATES` candidates), and the closed-form count of monic
irreducible polynomials.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import prod
from typing import Iterable, Iterator

from .errors import (
    BothZero,
    ConstantInput,
    DivisionByZeroPoly,
    SearchSpaceTooLarge,
    SpecMismatch,
)
from .field import Field, _power, _prime_factors

NEG_DEGREE = float("-inf")  # degree of the zero polynomial

# `irreducible_polys` refuses a degree with more monic candidates than this;
# the largest sieve in the tests, GF(2) at degree 12, has 4096
MAX_SIEVE_CANDIDATES = 1 << 13


def _strip(coeffs: list[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class Poly:
    """Immutable dense polynomial over a `Field`."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[int] = ()):
        _set_field(self, field)
        _set_coeffs(self, _strip([field.check(int(c)) for c in coeffs]))

    @classmethod
    def _raw(cls, field: Field, coeffs: tuple[int, ...]) -> "Poly":
        """Internal constructor for already-normalized coefficients."""
        p = object.__new__(cls)
        _set_field(p, field)
        _set_coeffs(p, coeffs)
        return p

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        """`copy` and `pickle` rebuild the polynomial from its coefficients."""
        return Poly._raw, (self.field, self.coeffs)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls._raw(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls._raw(field, (1,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls._raw(field, (0, 1))

    @classmethod
    def monomial(cls, field: Field, coeff: int, degree: int) -> "Poly":
        if degree < 0:
            raise ValueError(f"monomial degree {degree} is negative")
        if coeff == 0:
            return cls.zero(field)
        return cls._raw(field, (0,) * degree + (field.check(coeff),))

    @classmethod
    def from_int(cls, field: Field, code: int) -> "Poly":
        """Decode a base-q digit string, lowest digit = constant term."""
        if code < 0:
            raise ValueError(f"polynomial code {code} is negative")
        q = field.q
        coeffs = []
        while code:
            coeffs.append(code % q)
            code //= q
        return cls._raw(field, tuple(coeffs))

    def to_int(self) -> int:
        q = self.field.q
        out = 0
        for c in reversed(self.coeffs):
            out = out * q + c
        return out

    # -- structure ----------------------------------------------------------------

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_DEGREE

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Poly)
                and self.field == other.field and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def serialize(self) -> str:
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    def __str__(self) -> str:
        return self.serialize()

    def __repr__(self) -> str:
        return f"Poly({self.field!r}, {list(self.coeffs)})"

    # -- arithmetic -------------------------------------------------------------------

    def _check_field(self, other: "Poly") -> None:
        if self.field is not other.field and self.field != other.field:
            raise SpecMismatch(f"operands over {self.field!r} and {other.field!r}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_field(other)
        return Poly._raw(self.field, _strip(self.field.kernel.add(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_field(other)
        return Poly._raw(self.field, _strip(self.field.kernel.sub(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Poly":
        return Poly._raw(self.field, tuple(self.field.kernel.sub((), self.coeffs)))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_field(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.field)
        return Poly._raw(self.field, _strip(self.field.kernel.mul(a, b)))

    def scale(self, c: int) -> "Poly":
        if c == 0:
            return Poly.zero(self.field)
        if c == 1:
            return self
        return Poly._raw(self.field, tuple(self.field.kernel.scale(self.coeffs, c)))

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k (k >= 0)."""
        if k < 0:
            raise ValueError(f"shift {k} is negative")
        if self.is_zero or k == 0:
            return self
        return Poly._raw(self.field, (0,) * k + self.coeffs)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check_field(other)
        if other.is_zero:
            raise DivisionByZeroPoly("polynomial division by zero")
        if len(self.coeffs) < len(other.coeffs):
            return Poly.zero(self.field), self
        quot, rem = self.field.kernel.divmod(self.coeffs, other.coeffs)
        return Poly._raw(self.field, _strip(quot)), Poly._raw(self.field, _strip(rem))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        """Scale by the inverse of the leading coefficient (zero stays zero)."""
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def evaluate(self, beta: int) -> int:
        """The value at a field element: the remainder of division by x - beta."""
        field = self.field
        return (self % Poly._raw(field, (field.neg(field.check(beta)), 1))).coeff(0)


# The slots' own setters: they bypass `Poly.__setattr__`, and cost less than
# `object.__setattr__`, which looks the slot up by name on every call.
_set_field = Poly.__dict__["field"].__set__
_set_coeffs = Poly.__dict__["coeffs"].__set__


# -- gcd machinery ------------------------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    a._check_field(b)
    if a.is_zero and b.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    return Poly._raw(a.field, tuple(a.field.kernel.gcd(a.coeffs, b.coeffs)))


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (g, u, v) with u*a + v*b = g and g the monic gcd."""
    a._check_field(b)
    if a.is_zero and b.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    field = a.field
    r0, r1 = a, b
    u0, u1 = Poly.one(field), Poly.zero(field)
    v0, v1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.coeffs[-1] != 1:
        c = field.inv(r0.coeffs[-1])
        r0, u0, v0 = r0.scale(c), u0.scale(c), v0.scale(c)
    return r0, u0, v0


def poly_mod_inverse(a: Poly, modulus: Poly) -> Poly:
    """Inverse of a in the residue ring modulo `modulus` (must be coprime)."""
    g, u, _ = poly_xgcd(a % modulus, modulus)
    if g.degree != 0:
        raise ValueError(f"{a} is not invertible modulo {modulus}")
    return u % modulus


# -- irreducibility ----------------------------------------------------------------


def monic_polys(field: Field, degree: int) -> Iterator[Poly]:
    """All monic polynomials of the exact degree, in lexicographic code order:
    `product` steps its last entry fastest, and that is the constant term."""
    for digits in product(field.elements(), repeat=degree):
        yield Poly._raw(field, digits[::-1] + (1,))


def is_irreducible(a: Poly) -> bool:
    """Rabin's irreducibility test (Rabin, 1980).

    A monic f of degree d over GF(q) is irreducible iff x^(q^d) == x mod f
    and gcd(x^(q^(d/r)) - x, f) = 1 for every prime r dividing d.  The
    powers frobenius[i] = x^(q^i) mod f, i <= d, are repeated q-th powers,
    each by square-and-multiply (`remcode.field._power`): about
    2 * d * log2(q) products mod f.
    """
    d = a.degree
    if a.is_zero or d < 1:
        raise ConstantInput("irreducibility requires degree >= 1")
    if d == 1:
        return True
    f, x = a.monic(), Poly.x(a.field)
    frobenius = [x]
    mul_mod = lambda u, v: u * v % f
    for _ in range(d):
        frobenius.append(_power(mul_mod, frobenius[-1], a.field.q, Poly.one(a.field)))
    return frobenius[d] == x and all(
        poly_gcd(frobenius[d // r] - x, f).degree == 0 for r in _prime_factors(d))


@cache
def irreducible_polys(field: Field, degree: int) -> tuple[Poly, ...]:
    """All monic irreducible polynomials of the given degree, by sieve.

    A monic f of degree d is reducible exactly when f = g * h for a monic
    irreducible g of some degree e in 1..d/2 and a monic h of degree d - e.
    The sieve builds every such product, on the kernel's coefficient lists,
    and keeps the candidates of `monic_polys` that are none of them, in
    that order; the products are keyed by their coefficients, which hash
    faster than a `Poly`.  Results are cached per (field, degree), by
    `functools.cache`.  A degree below 1 raises `ConstantInput`, as
    `is_irreducible` does, and more than `MAX_SIEVE_CANDIDATES` candidates
    (q^degree) raise `SearchSpaceTooLarge`, both before any candidate is
    built.
    """
    if degree < 1:
        raise ConstantInput("irreducibility requires degree >= 1")
    if field.q ** degree > MAX_SIEVE_CANDIDATES:
        raise SearchSpaceTooLarge(
            f"{field.q}^{degree} candidates exceed the sieve cap {MAX_SIEVE_CANDIDATES}")
    mul, reducible = field.kernel.mul, set()
    for e in range(1, degree // 2 + 1):
        cofactors = [h.coeffs for h in monic_polys(field, degree - e)]
        # monic times monic: the kernel's product has no top zeros to strip
        reducible.update(tuple(mul(g.coeffs, h)) for g in irreducible_polys(field, e)
                         for h in cofactors)
    return tuple(f for f in monic_polys(field, degree) if f.coeffs not in reducible)


def sieve_count_irreducible(field: Field, degree: int) -> int:
    """Irreducible count by exhaustive sieve (test oracle for the closed form)."""
    return len(irreducible_polys(field, degree))


def _mobius(n: int) -> int:
    """Moebius function: 0 unless n is squarefree, else (-1)^(number of primes)."""
    factors = _prime_factors(n)
    return 0 if prod(factors) != n else (-1) ** len(factors)


def count_irreducible(q: int, degree: int) -> int:
    """Number of monic irreducible polynomials of the degree over GF(q).

    Closed form: (1/i) * sum over divisors d of i of mobius(d) * q^(i/d).
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    total = 0
    for d in range(1, degree + 1):
        if degree % d == 0:
            total += _mobius(d) * q ** (degree // d)
    assert total % degree == 0
    return total // degree
