"""Dense polynomials over a finite field.

Coefficients are stored lowest degree first (index l holds the coefficient
of x^l) with no trailing zeros; the zero polynomial has an empty coefficient
tuple and degree NEG_DEGREE, a sentinel strictly below every integer so that
every bound of the form `deg r < limit` is automatically satisfied by r = 0.

A polynomial also has a packed value, the form its field's kernel
(`remcode.kernels`) computes on: over GF(2) its bit row as an int, over
GF(2^m) with q <= 256 its byte row as a little-endian int (`BitKernel` and
`ByteKernel` set `packs`), and elsewhere the coefficient tuple itself.
Every polynomial is born with its packed value: one born from its
coefficients packs them at birth (`_raw`).  `+`, `-`, `*`, `divmod` and
`poly_gcd` check the operands, hand their packed values to the kernel's
entry points and return polynomials born packed, with their coefficient
count, so `degree`, `is_zero` and `bool` read no coefficients; `monic` is
the kernel's `poly_monic`, the one its `gcd` ends with.  Over a packing
field such a result is a `_LazyPoly`, lazy in one direction: it unpacks
its coefficients on their first read, so a chain of arithmetic unpacks
only what is read.  Equality compares packed values over one `Field`
object, so it never packs, and coefficients otherwise; hashing, `repr`,
`serialize`, `copy` and `pickle` read the coefficients.  `scale` and
`shift` work on coefficients, and `evaluate(beta)` is the remainder of
division by x - beta.

Also provides Rabin's irreducibility test, the sieve that serves as its
reference: every monic polynomial of a degree that is not a product of a
monic irreducible of degree at most half of it and a monic cofactor (capped
at `MAX_SIEVE_CANDIDATES` candidates), and the closed-form count of monic
irreducible polynomials.
"""

from __future__ import annotations

import operator
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
from .kernels import _strip

NEG_DEGREE = float("-inf")  # degree of the zero polynomial

# `irreducible_polys` refuses a degree with more monic candidates than this;
# the largest sieve in the tests, GF(2) at degree 12, has 4096
MAX_SIEVE_CANDIDATES = 1 << 13


class Poly:
    """Immutable dense polynomial over a `Field`.

    Four slots: the field, the coefficient count `_n`, and two forms of the
    coefficients: `coeffs`, the tuple, and `packed`, the value the field's
    kernel computes on (see the module docstring).  `packed` is set at every
    birth; `coeffs` too, except in a `_LazyPoly` born packed.  Where the
    kernel packs nothing the two are one tuple.
    """

    __slots__ = ("field", "_n", "coeffs", "packed")

    def __new__(cls, field: Field, coeffs: Iterable[int] = ()):
        return Poly._raw(field, _strip([field.check(c) for c in coeffs]))

    @staticmethod
    def _raw(field: Field, coeffs: tuple[int, ...]) -> "Poly":
        """Internal constructor for already-normalized coefficients, packed
        at birth (a static method: calling it costs less than a class
        method)."""
        if field.kernel.packs:
            p = _new(_LazyPoly)
            _set_packed(p, field.kernel.to_packed(coeffs))
        else:
            p = _new(Poly)
            _set_packed(p, coeffs)
        _set_field(p, field)
        _set_n(p, len(coeffs))
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
        coeff = field.check(coeff)
        if coeff == 0:
            return cls.zero(field)
        return cls._raw(field, (0,) * degree + (coeff,))

    @classmethod
    def from_int(cls, field: Field, code: int) -> "Poly":
        """Decode a base-q digit string, lowest digit = constant term."""
        code = operator.index(code)
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
        return self._n - 1 if self._n else NEG_DEGREE

    @property
    def is_zero(self) -> bool:
        return not self._n

    @property
    def is_monic(self) -> bool:
        return bool(self._n) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < self._n else 0

    def __eq__(self, other: object) -> bool:
        """By value.  Over one `Field` object the packed values compare, so
        neither side unpacks; over equal fields the coefficients do, since
        the two kernels may pack differently."""
        if not isinstance(other, Poly):
            return False
        if self.field is other.field:
            return self._n == other._n and self.packed == other.packed
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __bool__(self) -> bool:
        return self._n != 0

    def serialize(self) -> str:
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    def __str__(self) -> str:
        return self.serialize()

    def __repr__(self) -> str:
        return f"Poly({self.field!r}, {list(self.coeffs)})"

    # -- arithmetic -------------------------------------------------------------------

    def _check_field(self, other: "Poly") -> None:
        """Operands over equal fields; the operators test identity first,
        inline, and call this only when it fails."""
        if self.field is not other.field and self.field != other.field:
            raise SpecMismatch(f"operands over {self.field!r} and {other.field!r}")

    def __add__(self, other: "Poly") -> "Poly":
        field = self.field
        if other.field is not field:
            self._check_field(other)
        return _born(field, field.kernel.poly_add(self.packed, other.packed))

    def __sub__(self, other: "Poly") -> "Poly":
        field = self.field
        if other.field is not field:
            self._check_field(other)
        return _born(field, field.kernel.poly_sub(self.packed, other.packed))

    def __neg__(self) -> "Poly":
        return Poly.zero(self.field) - self

    def __mul__(self, other: "Poly") -> "Poly":
        field = self.field
        if other.field is not field:
            self._check_field(other)
        if not self._n or not other._n:
            return Poly.zero(field)
        return _born(field, field.kernel.poly_mul(self.packed, other.packed))

    def scale(self, c: int) -> "Poly":
        c = self.field.check(c)
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
        field = self.field
        if other.field is not field:
            self._check_field(other)
        if not other._n:
            raise DivisionByZeroPoly("polynomial division by zero")
        if self._n < other._n:
            return Poly.zero(field), self
        quot, rem = field.kernel.poly_divmod(self.packed, other.packed)
        return _born(field, quot), _born(field, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        """Scale by the inverse of the leading coefficient, by the kernel's
        `poly_monic`; zero, whose packed value is falsy, stays zero."""
        packed = self.packed and self.field.kernel.poly_monic(self.packed)
        return self if packed == self.packed else _born(self.field, packed)

    def evaluate(self, beta: int) -> int:
        """The value at a field element: the remainder of division by x - beta."""
        field = self.field
        return (self % Poly._raw(field, (field.neg(field.check(beta)), 1))).coeff(0)


# The slots' own setters: they bypass `Poly.__setattr__`, and cost less than
# `object.__setattr__`, which looks the slot up by name on every call.
_set_field = Poly.__dict__["field"].__set__
_set_n = Poly.__dict__["_n"].__set__
_set_coeffs = Poly.__dict__["coeffs"].__set__
_set_packed = Poly.__dict__["packed"].__set__
_new = object.__new__


class _LazyPoly(Poly):
    """A `Poly` over a field whose kernel packs.  One born packed (`_born`)
    fills `coeffs` from `packed` on their first read, by `__getattr__`,
    which Python calls only when a slot is unset; `packed` is never unset.
    Only this class has a `__getattr__`, since with one every attribute
    read of an instance takes a slower path."""

    __slots__ = ()

    def __getattr__(self, name: str):
        if name != "coeffs":
            raise AttributeError(name)
        value = self.field.kernel.from_packed(self.packed)
        _set_coeffs(self, value)
        return value


def _born(field: Field, packed) -> Poly:
    """A polynomial born packed: a kernel's result, with no top zeros."""
    kernel = field.kernel
    if kernel.packs:
        p = _new(_LazyPoly)
    else:
        p = _new(Poly)
        _set_coeffs(p, packed)
    _set_field(p, field)
    _set_n(p, kernel.packed_len(packed))
    _set_packed(p, packed)
    return p


# -- gcd machinery ------------------------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    a._check_field(b)
    if a.is_zero and b.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    return _born(a.field, a.field.kernel.gcd(a.packed, b.packed))


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
