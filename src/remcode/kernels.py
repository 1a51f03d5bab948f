"""Coefficient kernels: dense polynomial arithmetic on plain coefficient lists.

A `Field` picks one kernel when it is built, from the kind of field it is:

* `Char2Kernel` (p = 2, any m, GF(2) included) -- add is xor; multiply is a
  lookup in the field's log/exp tables, whose exp table repeats so that sums
  of logs need no reduction mod q - 1.  For q <= 256 rows are handled
  whole, as bytes: `bytes.translate` through 256-byte tables scales a row,
  and xor of `int.from_bytes` values adds rows, so a product, division or
  gcd takes a few C-level calls per row instead of a Python step per
  coefficient.
  Division by fewer than `ROW_MIN` coefficients, and all of GF(2^16), keep
  the per-coefficient loops;
* `PrimeKernel` (odd p, m = 1) -- plain int multiply-accumulate; a
  coefficient is reduced mod p once per output coefficient or division row,
  not per term;
* `OddKernel` (odd p, m > 1) -- log/exp multiply, add through a Zech
  logarithm table of O(q) size, built on first use.

`combine(rows, coeffs)` returns sum_j coeffs[j] * rows[j] over a fixed set
of rows of one length, which `pack` converts once into the form each kernel
reads; the code's residue transform and its inverse are such sums.
`Char2Kernel` with q <= 256 keeps each row as log bytes, so a term is one
`bytes.translate` and an int xor.  The odd-characteristic kernels keep each
row as int slots: for k < m, the m base-p digit planes of x^k * row, each
plane one int whose little-endian slots hold one digit per coefficient, so
a term is m^2 int multiply-adds, one per digit of the coefficient and
plane.  A slot is sized (1, 2, 4 or 8 bytes) for the largest sum it can
receive, rows * m * (p-1)^2, so no digit carries into the next; each slot
is reduced mod p once, when `combine` unpacks it with `struct`'s explicit
little-endian format.  `Char2Kernel` with q > 256 (up to GF(2^16)) adds
`scale`d rows in a plain loop.

Coefficient lists are lowest degree first (for byte rows, so are the bytes
of an int: "little" byte order).  Inputs carry no trailing zeros; outputs
may, and `Poly` strips them.  Every table -- the field's `_tables`,
`Char2Kernel._rows` and `OddKernel._zech` -- is a `functools.cached_property`:
built on first read, never when the field is constructed, and a plain
attribute read after that.  No inner loop calls a `Field` method per
coefficient; `Field._mul_basis` and `Field._digitwise` stay as the
table-free reference the tests compare these kernels with.
"""

from __future__ import annotations

import itertools
import struct
from functools import cached_property
from typing import Sequence

Coeffs = Sequence[int]

# Char2Kernel: divisors of fewer coefficients keep the list loop.  A byte-row
# quotient term shifts and xors the whole remainder, so dividing a long row by
# a short one costs O(len(rem)) per term against O(len(b)) in the list loop;
# rs255_decode's set-up divides M_n by each of its 255 linear moduli.
ROW_MIN = 12


class _Kernel:
    """Operations shared by every kernel: `divmod` and `gcd` built on its
    `_divide`, and the table-based `scale` of the extension-field kernels."""

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
        return self._monic(a)

    def scale(self, a: Coeffs, c: int) -> list[int]:
        """c * a for c != 0 (`Poly.scale` handles c = 0), by table lookup.

        See `Field._tables` for the layout: exp[log a + e] is a * g^e for
        any e in [0, 2(q-1)), and 0 when a = 0.  `PrimeKernel` overrides it.
        """
        exp, log = self.field._tables
        lc = log[c]
        return [exp[lc + log[x]] for x in a]

    def pack(self, rows: Sequence[Coeffs]) -> list:
        """One or more rows, all of one length, in the form `combine` reads:
        here plain lists."""
        return [list(row) for row in rows]

    def combine(self, rows, coeffs: Coeffs) -> list[int]:
        """sum_j coeffs[j] * rows[j] over `pack`ed rows; needs len(coeffs) <= len(rows).

        The result has the rows' length, or fewer entries when its top ones
        are zero.  Here a plain loop of `scale` and `add`.
        """
        assert len(coeffs) <= len(rows)
        acc = [0] * len(rows[0])
        for c, row in zip(coeffs, rows):
            if c:
                acc = self.add(acc, self.scale(row, c))
        return acc

    def _monic(self, a: list[int]) -> list[int]:
        lead = a[-1]
        return a if lead == 1 else self.scale(a, self.field.inv(lead))

    def _divide(self, rem: list[int], b: Coeffs, quot: list[int] | None) -> None:
        """Divide `rem` by `b` in place; needs len(rem) >= len(b).

        Afterwards rem[:len(b) - 1] holds the remainder and the entries
        above it are stale.  The quotient is written to `quot` unless None.
        """
        raise NotImplementedError


def _slot_layout(p: int, m: int, count: int, length: int) -> struct.Struct:
    """Little-endian slots for `length` digits, each wide enough for a sum of
    `count` terms of m products of two digits below p."""
    bound = count * m * (p - 1) ** 2
    size = 1
    while bound >> (8 * size):
        size *= 2
    assert size <= 8 and bound < 1 << (8 * size), "slot would overflow"
    return struct.Struct(f"<{length}{'BHIQ'[size.bit_length() - 1]}")


class _SlotKernel(_Kernel):
    """`pack` and `combine` on int slots, for odd characteristic (see the
    module docstring for the layout)."""

    def pack(self, rows: Sequence[Coeffs]) -> tuple[struct.Struct, list[tuple[int, ...]]]:
        p, m = self.field.p, self.field.m
        layout = _slot_layout(p, m, len(rows), len(rows[0]))
        packed = []
        for row in rows:
            planes = []
            for k in range(m):
                shifted = self.scale(row, p ** k)     # x^k * row: the element x^k is the int p^k
                for a in range(m):
                    pa = p ** a
                    digits = [x // pa % p for x in shifted]
                    planes.append(int.from_bytes(layout.pack(*digits), "little"))
            packed.append(tuple(planes))
        return layout, packed

    def combine(self, rows, coeffs: Coeffs) -> list[int]:
        layout, planes = rows
        assert len(coeffs) <= len(planes)
        p, m = self.field.p, self.field.m
        acc = [0] * m
        for c, row in zip(coeffs, planes):
            k = 0                                 # digit i of c weights row[k:k + m], k = i * m,
            while c:                              # the planes of x^i * row
                c, d = divmod(c, p)
                if d:
                    for a in range(m):
                        acc[a] += d * row[k + a]
                k += m
        out = itertools.repeat(0)
        for plane in reversed(acc):
            digits = layout.unpack(plane.to_bytes(layout.size, "little"))
            out = [x * p + d % p for x, d in zip(out, digits)]
        return out


class PrimeKernel(_SlotKernel):
    """GF(p), odd p: coefficients are ints mod p.

    GF(2) runs `Char2Kernel`; this kernel still computes over it, and the
    tests use it there as a reference.
    """

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


class Char2Kernel(_Kernel):
    """GF(2^m), m >= 1: add is xor.

    When q <= 256 every coefficient fits in a byte, and rows are handled
    whole.  A row's logs come from one `bytes.translate` (zero goes to the
    spare index 255); one more translate scales it by g^f; rows are added as
    xor of `int.from_bytes` values.  Division by at least `ROW_MIN`
    coefficients, and gcd, keep their remainders as ints, so each quotient
    term costs a few C-level calls instead of a Python step per coefficient.
    For q > 256 the per-coefficient loops run.  In GF(2) the only nonzero
    scalar is 1, so every scaling table is the identity on it.
    """

    def __init__(self, field):
        super().__init__(field)
        self._bytes = field.q <= 256

    @cached_property
    def _rows(self) -> tuple[bytes, list[bytes]]:
        """(to_log, times), built on first read from the log/exp tables.

        to_log[x] is log x for 0 < x < q, and 255 for x = 0 and the unused
        bytes q..255.  For f in [0, 2(q-1)), times[f] maps log x to g^f * x
        and every index from q - 1 up, 255 included, to 0.
        """
        exp, log = self.field._tables
        q = self.field.q
        to_log = bytes([255]) + bytes(log[1:]) + bytes([255]) * (256 - q)
        times = [bytes(exp[f:f + q - 1]) + bytes(257 - q) for f in range(q - 1)]
        return to_log, times + times

    def add(self, a: Coeffs, b: Coeffs) -> list[int]:
        if len(a) < len(b):
            a, b = b, a
        if self._bytes:
            x = int.from_bytes(bytes(a), "little") ^ int.from_bytes(bytes(b), "little")
            return list(x.to_bytes(len(a), "little"))
        out = [x ^ y for x, y in zip(a, b)]
        out += a[len(b):]
        return out

    sub = add

    def mul(self, a: Coeffs, b: Coeffs) -> list[int]:
        if len(a) > len(b):
            a, b = b, a
        if self._bytes:
            to_log, times = self._rows
            row = bytes(b).translate(to_log)
            acc = 0
            for i, c in enumerate(a):
                if c:
                    acc ^= int.from_bytes(row.translate(times[to_log[c]]), "little") << (8 * i)
            return list(acc.to_bytes(len(a) + len(b) - 1, "little"))
        exp, log = self.field._tables
        pairs = [(j, log[c]) for j, c in enumerate(b) if c]
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                lc = log[c]
                for j, l in pairs:
                    out[i + j] ^= exp[lc + l]
        return out

    def scale(self, a: Coeffs, c: int) -> list[int]:
        if self._bytes:
            to_log, times = self._rows
            return list(bytes(a).translate(to_log).translate(times[to_log[c]]))
        return super().scale(a, c)

    def pack(self, rows: Sequence[Coeffs]) -> list:
        """Log bytes (zero as 255, see `_rows`) when q <= 256."""
        if not self._bytes:
            return super().pack(rows)
        to_log = self._rows[0]
        return [bytes(row).translate(to_log) for row in rows]

    def combine(self, rows, coeffs: Coeffs) -> list[int]:
        if not self._bytes:
            return super().combine(rows, coeffs)
        assert len(coeffs) <= len(rows)
        to_log, times = self._rows
        acc = 0
        for c, row in zip(coeffs, rows):
            if c:
                acc ^= int.from_bytes(row.translate(times[to_log[c]]), "little")
        return list(acc.to_bytes(len(rows[0]), "little"))

    def evaluate(self, a: Coeffs, x: int) -> int:
        if not x:
            return a[0] if a else 0
        exp, log = self.field._tables
        lx = log[x]
        acc = 0
        for c in reversed(a):
            acc = exp[log[acc] + lx] ^ c
        return acc

    def gcd(self, a: Coeffs, b: Coeffs) -> list[int]:
        # Euclid on ints: the base loop through `_divide` converts each
        # remainder between list and int, which costs rs255_decode 28 % of
        # its items per second
        if not self._bytes:
            return super().gcd(a, b)
        x, y = int.from_bytes(bytes(a), "little"), int.from_bytes(bytes(b), "little")
        while y:
            x, y = y, self._reduce(x, y.to_bytes((y.bit_length() + 7) >> 3, "little"), None)
        return self._monic(list(x.to_bytes((x.bit_length() + 7) >> 3, "little")))

    def _reduce(self, r: int, b: bytes, quot: list[int] | None) -> int:
        """r mod b, rows packed into ints little-endian; quotient as in `_divide`.

        Subtracting c/lead * b, lead included, clears the top byte of r, so
        each quotient term costs a few C-level calls on the whole row.
        """
        exp = self.field._tables[0]
        to_log, times = self._rows
        db = len(b) - 1
        row = b.translate(to_log)
        inv = self.field.q - 1 - to_log[b[-1]]    # log of 1 / lead
        while (bits := r.bit_length()) > 8 * db:
            i = (bits - 1) >> 3
            f = to_log[r >> (8 * i)] + inv        # log of c / lead, below 2(q-1)
            if quot is not None:
                quot[i - db] = exp[f]
            r ^= int.from_bytes(row.translate(times[f]), "little") << (8 * (i - db))
        return r

    def _divide(self, rem: list[int], b: Coeffs, quot: list[int] | None) -> None:
        db = len(b) - 1
        if self._bytes and len(b) >= ROW_MIN:
            r = self._reduce(int.from_bytes(bytes(rem), "little"), bytes(b), quot)
            rem[:db] = r.to_bytes(db, "little")
            return
        exp, log = self.field._tables
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


class OddKernel(_SlotKernel):
    """GF(p^m), odd p, m > 1: add through Zech logarithms.

    With n = q - 1 and g the field's generator, x + g^t for t in [0, 2n) is
    exp[t + zech[zlog[x] - t]], where

    * zlog[x] = log x + 2n for x != 0, and 5n for x = 0;
    * zech[k] = log(1 + g^(k mod n)) for 0 < k < 3n; that is log 0 = 3n,
      an index in exp's zero run, where 1 + g^k = 0;
    * zech[k] = 0 for k > 3n, so that 0 + g^t = g^t.

    Subtraction adds n/2 to t, since -1 = g^(n/2) in odd characteristic.
    """

    @cached_property
    def _zech(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """(exp, log, zlog, zech), built on first read."""
        field, n = self.field, self.field.q - 1
        exp, log = field._tables
        zlog = [5 * n] + [log[x] + 2 * n for x in range(1, n + 1)]
        zech = [0] * (5 * n + 1)
        for d in range(n):
            zech[d] = zech[d + n] = zech[d + 2 * n] = log[field.add(1, exp[d])]
        return exp, log, zlog, zech

    def _add_into(self, out: list[int], b: Coeffs, shift: int) -> list[int]:
        """out[i] += g^shift * b[i]; out must be at least as long as b."""
        exp, log, zlog, zech = self._zech
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
        exp, log, zlog, zech = self._zech
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
        exp, log, zlog, zech = self._zech
        lx = log[x]
        acc = 0
        for c in reversed(a):
            acc = exp[log[acc] + lx]
            if c:
                t = log[c]
                acc = exp[t + zech[zlog[acc] - t]]
        return acc

    def _divide(self, rem: list[int], b: Coeffs, quot: list[int] | None) -> None:
        exp, log, zlog, zech = self._zech
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
    if field.p == 2:
        return Char2Kernel(field)
    if field.m == 1:
        return PrimeKernel(field)
    return OddKernel(field)
