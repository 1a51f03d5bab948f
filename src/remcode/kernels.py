"""Coefficient kernels: dense polynomial arithmetic on plain coefficient lists.

A `Field` picks one kernel when it is built, from the kind of field it is:

* `PrimeKernel` (m = 1) -- plain int multiply-accumulate; a coefficient is
  reduced mod p once per output coefficient or division row, not per term;
* `Char2Kernel` (p = 2, m > 1) -- add is xor; multiply is a lookup in the
  field's log/exp tables, whose exp table repeats so that sums of logs need
  no reduction mod q - 1;
* `OddKernel` (odd p, m > 1) -- log/exp multiply, add through a Zech
  logarithm table of O(q) size, built on first use.

Coefficient lists are lowest degree first.  Inputs carry no trailing zeros;
outputs may, and `Poly` strips them.  Every table is built on first use,
never when the field is constructed.  No inner loop calls a `Field` method
per coefficient; `Field._mul_basis` and `Field._digitwise` stay as the
table-free reference the tests compare these kernels with.
"""

from __future__ import annotations

from typing import Sequence

Coeffs = Sequence[int]


class _Kernel:
    """Operations shared by every kernel, built on its `_divide`."""

    def __init__(self, field):
        self.field = field

    def divmod(self, a: Coeffs, b: Coeffs) -> tuple[list[int], list[int]]:
        """Quotient and remainder; needs len(a) >= len(b) >= 1."""
        rem = list(a)
        db = len(b) - 1
        quot = [0] * (len(rem) - db)
        self._divide(rem, b, quot)
        del rem[db:]
        return quot, rem

    def gcd(self, a: Coeffs, b: Coeffs) -> list[int]:
        """Monic gcd by Euclid, run in place on two lists (not both empty)."""
        a, b = list(a), list(b)
        while b:
            if len(a) >= len(b):
                self._divide(a, b, None)
                del a[len(b) - 1:]
                while a and not a[-1]:
                    a.pop()
            a, b = b, a
        lead = a[-1]
        return a if lead == 1 else self.scale(a, self.field.inv(lead))

    def _divide(self, rem: list[int], b: Coeffs, quot: list[int] | None) -> None:
        """Divide `rem` by `b` in place; needs len(rem) >= len(b).

        Afterwards rem[:len(b) - 1] holds the remainder and the entries
        above it are stale.  The quotient is written to `quot` unless None.
        """
        raise NotImplementedError


class PrimeKernel(_Kernel):
    """GF(p): coefficients are ints mod p."""

    def __init__(self, field):
        super().__init__(field)
        self.p = field.p

    def add(self, a: Coeffs, b: Coeffs) -> list[int]:
        if len(a) < len(b):
            a, b = b, a
        p = self.p
        out = [(x + y) % p for x, y in zip(a, b)]
        out += a[len(b):]
        return out

    def sub(self, a: Coeffs, b: Coeffs) -> list[int]:
        p = self.p
        out = [(x - y) % p for x, y in zip(a, b)]
        if len(a) > len(b):
            out += a[len(b):]
        else:
            out += [(p - y) % p for y in b[len(a):]]
        return out

    def mul(self, a: Coeffs, b: Coeffs) -> list[int]:
        if len(a) > len(b):
            a, b = b, a
        pairs = [(j, y) for j, y in enumerate(b) if y]
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, y in pairs:
                    out[i + j] += c * y
        p = self.p
        return [x % p for x in out]

    def scale(self, a: Coeffs, c: int) -> list[int]:
        p = self.p
        return [x * c % p for x in a]

    def evaluate(self, a: Coeffs, x: int) -> int:
        p = self.p
        acc = 0
        for c in reversed(a):
            acc = (acc * x + c) % p
        return acc

    def _divide(self, rem: list[int], b: Coeffs, quot: list[int] | None) -> None:
        # entries of rem stay unreduced until read as a row's top or returned
        p = self.p
        db = len(b) - 1
        pairs = [(j, y) for j, y in enumerate(b[:db]) if y]
        inv = pow(b[-1], p - 2, p)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i] % p
            if c:
                f = c * inv % p
                if quot is not None:
                    quot[i - db] = f
                g = p - f                         # rem -= f * b, as += (p - f) * b
                base = i - db
                for j, y in pairs:
                    rem[base + j] += g * y
        rem[:db] = [x % p for x in rem[:db]]


class _TableKernel(_Kernel):
    """Extension fields: multiply through the field's log/exp tables.

    See `Field._tables` for the layout: exp[log a + e] is a * g^e for any
    e in [0, 2(q-1)), and 0 when a = 0.
    """

    def scale(self, a: Coeffs, c: int) -> list[int]:
        exp, log = self.field._tables()
        lc = log[c]
        return [exp[lc + log[x]] for x in a]


class Char2Kernel(_TableKernel):
    """GF(2^m), m > 1: add is xor."""

    def add(self, a: Coeffs, b: Coeffs) -> list[int]:
        if len(a) < len(b):
            a, b = b, a
        out = [x ^ y for x, y in zip(a, b)]
        out += a[len(b):]
        return out

    sub = add

    def mul(self, a: Coeffs, b: Coeffs) -> list[int]:
        exp, log = self.field._tables()
        if len(a) > len(b):
            a, b = b, a
        pairs = [(j, log[c]) for j, c in enumerate(b) if c]
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                lc = log[c]
                for j, l in pairs:
                    out[i + j] ^= exp[lc + l]
        return out

    def evaluate(self, a: Coeffs, x: int) -> int:
        if not x:
            return a[0] if a else 0
        exp, log = self.field._tables()
        lx = log[x]
        acc = 0
        for c in reversed(a):
            acc = exp[log[acc] + lx] ^ c
        return acc

    def _divide(self, rem: list[int], b: Coeffs, quot: list[int] | None) -> None:
        exp, log = self.field._tables()
        db = len(b) - 1
        pairs = [(j, log[c]) for j, c in enumerate(b[:db]) if c]
        inv = self.field.q - 1 - log[b[-1]]   # log of 1 / lead
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                f = log[c] + inv                  # log of c / lead, below 2(q-1)
                if quot is not None:
                    quot[i - db] = exp[f]
                base = i - db
                for j, l in pairs:
                    rem[base + j] ^= exp[f + l]


class OddKernel(_TableKernel):
    """GF(p^m), odd p, m > 1: add through Zech logarithms.

    With n = q - 1 and g the field's generator, x + g^t for t in [0, 2n) is
    exp[t + zech[zlog[x] - t]], where

    * zlog[x] = log x + 2n for x != 0, and 5n for x = 0;
    * zech[k] = log(1 + g^(k mod n)) for 0 < k < 3n; that is log 0 = 3n,
      an index in exp's zero run, where 1 + g^k = 0;
    * zech[k] = 0 for k > 3n, so that 0 + g^t = g^t.

    Subtraction adds n/2 to t, since -1 = g^(n/2) in odd characteristic.
    """

    def __init__(self, field):
        super().__init__(field)
        self._zech: tuple[list[int], list[int]] | None = None

    def _zech_tables(self) -> tuple[list[int], list[int], list[int], list[int]]:
        exp, log = self.field._tables()
        if self._zech is None:
            field, n = self.field, self.field.q - 1
            zlog = [5 * n] + [log[x] + 2 * n for x in range(1, n + 1)]
            zech = [0] * (5 * n + 1)
            for d in range(n):
                zech[d] = zech[d + n] = zech[d + 2 * n] = log[field.add(1, exp[d])]
            self._zech = zlog, zech
        return (exp, log) + self._zech

    def _add_into(self, out: list[int], b: Coeffs, shift: int) -> list[int]:
        """out[i] += g^shift * b[i]; out must be at least as long as b."""
        exp, log, zlog, zech = self._zech_tables()
        for i, y in enumerate(b):
            if y:
                t = log[y] + shift
                out[i] = exp[t + zech[zlog[out[i]] - t]]
        return out

    def add(self, a: Coeffs, b: Coeffs) -> list[int]:
        if len(a) < len(b):
            a, b = b, a
        return self._add_into(list(a), b, 0)

    def sub(self, a: Coeffs, b: Coeffs) -> list[int]:
        out = list(a) + [0] * (len(b) - len(a))
        return self._add_into(out, b, (self.field.q - 1) // 2)

    def mul(self, a: Coeffs, b: Coeffs) -> list[int]:
        exp, log, zlog, zech = self._zech_tables()
        if len(a) > len(b):
            a, b = b, a
        pairs = [(j, log[c]) for j, c in enumerate(b) if c]
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                lc = log[c]
                for j, l in pairs:
                    t = lc + l
                    out[i + j] = exp[t + zech[zlog[out[i + j]] - t]]
        return out

    def evaluate(self, a: Coeffs, x: int) -> int:
        if not x:
            return a[0] if a else 0
        exp, log, zlog, zech = self._zech_tables()
        lx = log[x]
        acc = 0
        for c in reversed(a):
            acc = exp[log[acc] + lx]
            if c:
                t = log[c]
                acc = exp[t + zech[zlog[acc] - t]]
        return acc

    def _divide(self, rem: list[int], b: Coeffs, quot: list[int] | None) -> None:
        exp, log, zlog, zech = self._zech_tables()
        n = self.field.q - 1
        db = len(b) - 1
        pairs = [(j, log[c]) for j, c in enumerate(b[:db]) if c]
        inv = n - log[b[-1]]
        neg = inv + n // 2                        # log of -1 / lead
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                lc = log[c]
                if quot is not None:
                    quot[i - db] = exp[lc + inv]
                f = (lc + neg) % n                # log of -c / lead
                base = i - db
                for j, l in pairs:
                    t = f + l
                    k = base + j
                    rem[k] = exp[t + zech[zlog[rem[k]] - t]]


def kernel_for(field) -> _Kernel:
    """The kernel for the field's kind."""
    if field.m == 1:
        return PrimeKernel(field)
    if field.p == 2:
        return Char2Kernel(field)
    return OddKernel(field)
