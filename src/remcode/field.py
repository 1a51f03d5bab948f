"""Arithmetic in GF(p) and GF(p^m).

Field elements are plain ints in [0, p^m).  For m > 1 the int is the base-p
encoding of the polynomial-basis coefficient vector (c_0, ..., c_{m-1}),
i.e. sum(c_i * p^i); this fixes serialization exactly.  A `Field` object
carries the arithmetic; it never wraps the elements themselves, so the zero
and one of every field are the ints 0 and 1.

Supported field sizes are q = p^m <= 2**16.  Prime fields reduce mod p
directly.  Extension fields multiply through log/exp tables, a
`functools.cached_property` built on first read, not at construction; no
kernel reads them for a prime field.
Each field also picks, when it is built, the coefficient kernel
(`remcode.kernels`) that runs polynomial arithmetic for its kind:
characteristic 2 at any m, odd prime, or odd p with m > 1.
`_mul_basis` and `_digitwise` compute products and sums without tables;
they serve the tests as the slow reference, and `_mul_basis` gives the m
images g * x^i from which the tables are built.  `_to_digits` and
`_from_digits` are the one split of an element into its base-p digits and
the one join; the per-entry loops of `_times` and the kernels' digit planes
keep their arithmetic inline.
"""

from __future__ import annotations

from functools import cached_property

from .errors import DegreeMismatch, NonPrimeCharacteristic, ReducibleModulus, ZeroInverse
from .kernels import kernel_for

MAX_FIELD_SIZE = 1 << 16


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, increasing, by trial division.

    Empty for n < 2, so n is prime iff the result is [n], and a prime power
    iff it has one entry.
    """
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class Field:
    """GF(p^m), validated at construction.

    For m > 1 a reduction polynomial must be given as a coefficient list
    over GF(p), lowest degree first, length m+1, monic, irreducible.
    """

    def __init__(self, p: int, m: int = 1, reduction: tuple[int, ...] | list[int] | None = None):
        # bound p before factoring it: trial division takes time growing as sqrt(p)
        if p > MAX_FIELD_SIZE:
            raise DegreeMismatch(f"characteristic {p} exceeds supported field size {MAX_FIELD_SIZE}")
        if _prime_factors(p) != [p]:
            raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
        if m < 1:
            raise DegreeMismatch(f"extension degree must be >= 1, got {m}")
        if m == 1:
            if reduction is not None:
                raise DegreeMismatch("reduction polynomial only applies to extension fields")
        else:
            if reduction is None:
                raise DegreeMismatch("extension field requires a reduction polynomial")
            reduction = tuple(int(c) % p for c in reduction)
            if len(reduction) != m + 1 or reduction[-1] != 1:
                raise DegreeMismatch(
                    f"reduction polynomial must be monic of degree {m}")
        q = p ** m
        if q > MAX_FIELD_SIZE:
            raise DegreeMismatch(f"field size {q} exceeds supported limit {MAX_FIELD_SIZE}")

        self.p = p
        self.m = m
        self.q = q
        self.reduction = tuple(reduction) if reduction is not None else None

        if m > 1:
            self._check_reduction_irreducible()
        self.kernel = kernel_for(self)

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Field)
                and (self.p, self.m, self.reduction) == (other.p, other.m, other.reduction))

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.reduction))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    # -- element arithmetic -----------------------------------------------------

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of {self!r}")
        return a

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._digitwise(a, b, 1)

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        return self._digitwise(a, b, -1)

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self._digitwise(0, a, -1)

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        exp, log = self._tables
        return exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse(f"zero has no inverse in {self!r}")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        exp, log = self._tables
        return exp[self.q - 1 - log[a]]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def elements(self) -> range:
        return range(self.q)

    # -- internals -----------------------------------------------------------------

    def _to_digits(self, a: int) -> list[int]:
        """The m base-p digits of a, lowest first."""
        p, out = self.p, []
        for _ in range(self.m):
            a, d = divmod(a, p)
            out.append(d)
        return out

    def _from_digits(self, ds) -> int:
        """The element whose base-p digits, lowest first, are ds."""
        out = 0
        for d in reversed(ds):
            out = out * self.p + d
        return out

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        p = self.p
        return self._from_digits([(x + sign * y) % p
                                  for x, y in zip(self._to_digits(a), self._to_digits(b))])

    def _mul_basis(self, a: int, b: int) -> int:
        """Schoolbook polynomial-basis product reduced by the modulus.

        Used to build the log tables (and as an independent check in tests).
        """
        p, m, red = self.p, self.m, self.reduction
        da, db = self._to_digits(a), self._to_digits(b)
        prod = [0] * (2 * m - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    if cb:
                        prod[i + j] = (prod[i + j] + ca * cb) % p
        # reduce by the monic modulus
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(m):
                    prod[i - m + j] = (prod[i - m + j] - c * red[j]) % p
        return self._from_digits(prod[:m])

    def _pow_basis(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_basis(r, a)
            a = self._mul_basis(a, a)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        """Least generator of the multiplicative group.

        1 generates only when the group is trivial, q = 2; for q > 2 it fails
        the test, since 1^(order/f) = 1 for every prime factor f of order.
        """
        order = self.q - 1
        factors = _prime_factors(order)
        for c in range(1, self.q):
            if all(self._pow_basis(c, order // f) != 1 for f in factors):
                return c
        raise AssertionError("multiplicative group of a finite field is cyclic")

    @cached_property
    def _tables(self) -> tuple[list[int], list[int]]:
        """(exp, log) of an extension field or GF(2), built on first read.

        With n = q - 1 and generator g: exp[k] = g^(k mod n) for k < 3n and
        0 for 3n <= k < 5n; log[a] is in [0, n) for a != 0 and log[0] = 3n.
        So exp[log a + e] = a * g^e for every e in [0, 2n), zero included,
        and a sum of up to three logs needs no reduction mod n.  For GF(2),
        n = 1 and g = 1: exp = [1, 1, 1, 0, 0] and log = [3, 0].
        """
        n = self.q - 1
        times_g = self._times(self._find_generator())
        exp = [0] * (5 * n)
        log = [3 * n] * self.q
        x = 1
        for i in range(n):
            exp[i] = exp[i + n] = exp[i + 2 * n] = x
            log[x] = i
            x = times_g(x)
        return exp, log

    def _times(self, g: int):
        """The map x -> x * g, through the m images g * x^i (the element x^i
        is the int p^i), each computed once by `_mul_basis`.

        For p = 2 the product is the xor of the images that x's bits select;
        otherwise each base-p digit of x weights its image's digits, summed
        and reduced mod p.
        """
        p, m = self.p, self.m
        images = [self._mul_basis(p ** i, g) for i in range(m)]
        if p == 2:
            def times(x: int) -> int:
                acc = 0
                while x:
                    low = x & -x
                    acc ^= images[low.bit_length() - 1]
                    x ^= low
                return acc
            return times
        digits = [self._to_digits(y) for y in images]

        def times(x: int) -> int:
            acc = [0] * m
            for image in digits:
                x, d = divmod(x, p)
                if d:
                    for a, y in enumerate(image):
                        acc[a] += d * y
            out = 0
            for v in reversed(acc):
                out = out * p + v % p
            return out
        return times

    def _check_reduction_irreducible(self) -> None:
        from .poly import Poly, is_irreducible

        base = Field(self.p)
        rp = Poly(base, self.reduction)
        if not is_irreducible(rp):
            raise ReducibleModulus(
                f"reduction polynomial {list(self.reduction)} factors over GF({self.p})")


def GF(p: int, m: int = 1, reduction=None) -> Field:
    """Shorthand constructor."""
    return Field(p, m, reduction)
