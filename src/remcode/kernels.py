"""Coefficient kernels: dense polynomial arithmetic on plain coefficient lists.

A `Field` picks one kernel when it is built, from the kind of field it is:

* `Char2Kernel` (p = 2, any m, GF(2) included) -- add is xor.  For
  q <= 256, GF(2) included, every coefficient fits in a byte, and `add` is
  one xor of `int.from_bytes` values.  In GF(2) the other operations run on
  ints with one bit per coefficient: a product xors shifted copies of one
  operand, a division or gcd step xors the shifted divisor under the
  remainder's top bit, and no table is read.  For 2 < q <= 256 multiply is
  a lookup in the field's log/exp tables, whose exp table repeats so that
  sums of logs need no reduction mod q - 1, and rows are handled whole, as
  bytes: `bytes.translate` through 256-byte tables scales a row, so a
  product, division or gcd takes a few C-level calls per row instead of a
  Python step per coefficient.  There, division by fewer than `ROW_MIN`
  coefficients keeps the per-coefficient loop, as does all of GF(2^16);
* `PrimeKernel` (odd p, m = 1) -- plain int multiply-accumulate; a
  coefficient is reduced mod p once per output coefficient or division row,
  not per term;
* `OddKernel` (odd p, m > 1) -- log/exp multiply, add through a Zech
  logarithm table of O(q) size, built on first use.

Both odd-characteristic kernels share `_SlotKernel.mul`: a product whose
shorter operand has at least `KRONECKER_MIN` coefficients is a Kronecker
product.  Each operand splits into its m base-p digit planes, each plane
packed into one int of little-endian slots; the m^2 plane products are int
multiplies, the planes for alpha^c, c >= m, fold into planes 0..m-1 through
the digits of alpha^c (alpha the element x, the int p), and each slot is
reduced mod p once.  Shorter products keep the per-coefficient loops
(`_mul_loop`), and so do add, sub, division and evaluation: over GF(p^m)
those read the Zech table.

`gcd` is one Euclid loop for every kernel, on per-kernel hooks (`_euclid`):
pack coefficients into a state, take the remainder of one state by another,
and unpack the last one monic.  A state is an int in `Char2Kernel` for
GF(2) (a bit row) and for 2 < q <= 256 (a byte row), and otherwise one
`bytes` of 1-byte (q <= 256) or 2-byte machine ints.  Each kernel remembers
the states (x, y) of its last run that missed, each mapped to that run's
result; a run that reaches one of them returns it.  From a given state the
rest of a run is fixed, so a hit returns exactly what a fresh run would.
Only a run that misses replaces the memo; a hit, or a call that takes no
step, leaves it.  The memo holds one chain: about sum_i len(r_i)
coefficient bytes for its remainders r_i (an eighth of that in GF(2),
twice that for q > 256), plus a tuple and a dict entry per state.  The
decoder checks gcd(r, r~) == gcd0 on every pass of one remainder chain, so
after its first gcd each check is a lookup.

`combine(rows, coeffs)` returns sum_j coeffs[j] * rows[j] over a fixed set
of rows of one length, which `pack` converts once into the form each kernel
reads; the code's residue transform and its inverse are such sums.  GF(2)
keeps each row as one bit-packed int, so a term is one int xor;
`Char2Kernel` with 2 < q <= 256 keeps each row as log bytes, so a term is
one `bytes.translate` and an int xor.  The odd-characteristic kernels keep
each row as int slots: for k < m, the m base-p digit planes of x^k * row,
each plane one int whose little-endian slots hold one digit per
coefficient, so a term is m^2 int multiply-adds, one per digit of the
coefficient and plane.  A slot is sized (1, 2, 4 or 8 bytes) for the
largest sum it can receive, rows * m * (p-1)^2, so no digit carries into
the next; each slot is reduced mod p once, when `combine` unpacks it (a few
`bytes.translate`s per plane for q <= 256 and 1- or 2-byte slots, else
`struct`'s explicit little-endian format and a mod p per slot); products
are unpacked the same way.  `Char2Kernel` with q > 256 (up
to GF(2^16)) adds `scale`d rows in a plain loop.  `combine_length` is the
length of such a sum without its top zeros, which the list decoder's
degree test reads: GF(2) takes the bit length of the xor, with no
unpacking, and the other kernels strip the result of `combine`.

Coefficient lists are lowest degree first (for byte rows, so are the bytes
of an int: "little" byte order; for bit rows, the bits).  Inputs carry no
trailing zeros; outputs may, and `Poly` strips them.  `add`, `sub` and
`scale` keep their operands' full length, since the row builders in
`remcode.code` read a row's top entry by position.  Every table -- the
field's `_tables`, `Char2Kernel._rows` and `OddKernel._zech` -- is a
`functools.cached_property`: built on first read, never when the field is
constructed, and a plain attribute read after that.  No prime field builds
one, and no Kronecker product reads one: `_SlotKernel`'s fold digits (from
`Field._mul_basis`) and byte maps are plain attributes, built with the
kernel.  No inner loop calls a `Field` method per coefficient;
`Field._mul_basis` and `Field._digitwise` stay as the table-free reference
the tests compare these kernels with.
"""

from __future__ import annotations

import itertools
import struct
from array import array
from functools import cached_property, reduce
from operator import xor
from typing import Sequence

Coeffs = Sequence[int]

# Char2Kernel, 2 < q <= 256: divisors of fewer coefficients keep the list loop.  A byte-row
# quotient term shifts and xors the whole remainder, so dividing a long row by
# a short one costs O(len(rem)) per term against O(len(b)) in the list loop;
# rs255_decode's set-up divides M_n by each of its 255 linear moduli.
ROW_MIN = 12

# PrimeKernel and OddKernel: a product whose shorter operand has at least this many
# coefficients is a Kronecker product on packed digit planes (`_SlotKernel.mul`);
# shorter ones keep the per-coefficient loop, which is faster there.
KRONECKER_MIN = 4


class _Kernel:
    """Operations shared by every kernel: `divmod` built on its `_divide`,
    `gcd` on its `_euclid` hooks, and the table-based `scale` of the
    extension-field kernels."""

    def __init__(self, field):
        self.field = field
        self._memo = {}

    def divmod(self, a: Coeffs, b: Coeffs) -> tuple[list[int], list[int]]:
        """Quotient and remainder; needs len(a) >= len(b) >= 1."""
        rem = list(a)
        db = len(b) - 1
        quot = [0] * (len(rem) - db)
        self._divide(rem, b, quot)
        del rem[db:]
        return quot, rem

    def gcd(self, a: Coeffs, b: Coeffs) -> tuple[int, ...]:
        """Monic gcd of a and b (not both empty), by Euclid on packed states.

        A state (x, y) steps to (y, x mod y) until y = 0.  `_memo` maps each
        state of the last run that missed to that run's result, and a run
        that reaches one of them returns it there (the module docstring says
        why that is exact).  A hit, or a call that takes no step (b = 0),
        leaves the memo as it is.
        """
        pack, step, finish = self._euclid()
        x, y = pack(a), pack(b)
        if not y:
            return finish(x)
        memo, chain = self._memo, []
        state = (x, y)
        while state not in memo:
            chain.append(state)
            if not y:
                self._memo = memo = dict.fromkeys(chain, finish(x))
                break
            x, y = state = (y, step(x, y))
        return memo[state]

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

    def combine_length(self, rows, coeffs: Coeffs) -> int:
        """len of `combine(rows, coeffs)` without its top zeros: the degree
        of the combination plus one, and 0 when it is zero."""
        out = self.combine(rows, coeffs)
        n = len(out)
        while n and not out[n - 1]:
            n -= 1
        return n

    def _monic(self, a: list[int]) -> list[int]:
        lead = a[-1]
        return a if lead == 1 else self.scale(a, self.field.inv(lead))

    def _euclid(self):
        """`gcd`'s (pack, step, finish), with the tables read once: pack
        coefficients into a state, the remainder of one state by another,
        and a state's monic coefficients.  Here a state is the coefficients
        as one `bytes` of 1- or 2-byte machine ints, with no top zeros."""
        code = "B" if self.field.q <= 256 else "H"
        divide, monic = self._divide, self._monic

        def pack(a: Coeffs) -> bytes:
            return array(code, a).tobytes()

        def step(x: bytes, y: bytes) -> bytes:
            rem, b = memoryview(x).cast(code).tolist(), memoryview(y).cast(code).tolist()
            if len(rem) < len(b):
                return x
            divide(rem, b, None)
            del rem[len(b) - 1:]
            while rem and not rem[-1]:
                rem.pop()
            return pack(rem)

        return pack, step, lambda x: tuple(monic(memoryview(x).cast(code).tolist()))

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


def _slot_width(layout: struct.Struct) -> int:
    """Bytes per slot of a `_slot_layout`."""
    return struct.calcsize("<" + layout.format[-1])


class _SlotKernel(_Kernel):
    """`pack`, `combine` and long products on int slots, for odd
    characteristic (see the module docstring for the layout).

    What the products read is built here, with no table of the field's (the
    fold digits by `Field._mul_basis`):

    * `_folds[c - m]`: the digits of alpha^c mod the reduction polynomial,
      for m <= c <= 2m - 2, alpha the element x (the int p);
    * for q <= 256, `_digits[a]` maps each byte x to its base-p digit a
      (so `_digits[0]` is x mod p), and `_high` maps x to 256 x mod p.  Each
      repeats with period p^(a+1) or p, so it is one short cycle repeated.
    """

    def __init__(self, field):
        super().__init__(field)
        p, m, q = field.p, field.m, field.q
        self.p = p
        self._powers = [p ** a for a in range(m)]
        folds, alpha = [], p ** (m - 1)
        for _ in range(m - 1):
            alpha = field._mul_basis(alpha, p)
            folds.append(field._to_digits(alpha))
        self._folds = folds
        self._digits = self._high = None
        if q <= 256:
            cycles = [b"".join(bytes([d]) * pa for d in range(p)) for pa in self._powers]
            self._digits = [(cycle * (256 // len(cycle) + 1))[:256] for cycle in cycles]
            self._high = (bytes(x * 256 % p for x in range(p)) * (256 // p + 1))[:256]

    def _planes(self, row: Coeffs, layout: struct.Struct) -> list[int]:
        """The m base-p digit planes of `row`, each one int whose
        little-endian slots, as wide as `layout`'s, hold one digit per
        coefficient."""
        size = _slot_width(layout)
        if self._digits is not None:              # q <= 256: a translate per plane
            raw, planes = bytes(row), []
            for table in self._digits:
                digits = raw.translate(table)
                if size > 1:
                    spread = bytearray(size * len(digits))
                    spread[::size] = digits
                    digits = spread
                planes.append(int.from_bytes(digits, "little"))
            return planes
        layout = struct.Struct(f"<{len(row)}{layout.format[-1]}")
        if self.field.m == 1:
            return [int.from_bytes(layout.pack(*row), "little")]
        p = self.p
        return [int.from_bytes(layout.pack(*[x // pa % p for x in row]), "little")
                for pa in self._powers]

    def _unpack(self, planes: Sequence[int], layout: struct.Struct) -> list[int]:
        """The coefficients, one per slot of `layout`, whose digit a is the
        slot of planes[a] reduced mod p.

        For q <= 256 and slots of 1 byte, or of 2 bytes when p < 128, this is
        a few `bytes.translate`s per plane: a 2-byte slot lo + 256 hi reduces
        as lo mod p + 256 hi mod p, which stays below 256, and the digits
        recombine as bytes below q.  Otherwise each slot is reduced in a loop.
        """
        p, size = self.p, _slot_width(layout)
        length = layout.size // size
        if self._digits is not None and (size == 1 or size == 2 and p < 128):
            mod_p, acc = self._digits[0], 0
            for pa, plane in zip(self._powers, planes):
                raw = plane.to_bytes(layout.size, "little")
                if size == 2:
                    raw = (int.from_bytes(raw[::2].translate(mod_p), "little")
                           + int.from_bytes(raw[1::2].translate(self._high), "little")
                           ).to_bytes(length, "little")
                acc += pa * int.from_bytes(raw.translate(mod_p), "little")
            return list(acc.to_bytes(length, "little"))
        out = itertools.repeat(0)
        for plane in reversed(planes):
            digits = layout.unpack(plane.to_bytes(layout.size, "little"))
            out = [x * p + d % p for x, d in zip(out, digits)]
        return out

    def pack(self, rows: Sequence[Coeffs]) -> tuple[struct.Struct, list[tuple[int, ...]]]:
        p, m = self.p, self.field.m
        layout = _slot_layout(p, m, len(rows), len(rows[0]))
        packed = []
        for row in rows:
            planes = []
            for k in range(m):                    # x^k * row: the element x^k is the int p^k
                planes += self._planes(self.scale(row, p ** k) if k else row, layout)
            packed.append(tuple(planes))
        return layout, packed

    def combine(self, rows, coeffs: Coeffs) -> list[int]:
        layout, planes = rows
        assert len(coeffs) <= len(planes)
        p, m = self.p, self.field.m
        acc = [0] * m
        for c, row in zip(coeffs, planes):
            k = 0                                 # digit i of c weights row[k:k + m], k = i * m,
            while c:                              # the planes of x^i * row
                c, d = divmod(c, p)
                if d:
                    for a in range(m):
                        acc[a] += d * row[k + a]
                k += m
        return self._unpack(acc, layout)

    def mul(self, a: Coeffs, b: Coeffs) -> list[int]:
        """a * b; a Kronecker product on digit planes when the shorter operand
        has at least `KRONECKER_MIN` coefficients, else `_mul_loop`.

        With a = sum_i alpha^i A_i and b = sum_k alpha^k B_k over their digit
        planes, a * b = sum_c alpha^c C_c, C_c = sum_{i+k=c} A_i B_k, each
        A_i B_k one int product of packed planes.  Planes c >= m fold into
        planes 0..m-1 through the digits of alpha^c; a folded slot then holds
        at most min(len a, len b) * (1 + (m-1)(p-1)) sums of m products of two
        digits, which `_slot_layout` sizes for, so no slot carries.
        """
        if len(a) > len(b):
            a, b = b, a
        if len(a) < KRONECKER_MIN:
            return self._mul_loop(a, b)
        p, m = self.p, self.field.m
        length = len(a) + len(b) - 1
        layout = _slot_layout(p, m, len(a) * (1 + (m - 1) * (p - 1)), length)
        pa, pb = self._planes(a, layout), self._planes(b, layout)
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(pa):
            for k, y in enumerate(pb):
                conv[i + k] += x * y
        for c, digits in zip(range(m, 2 * m - 1), self._folds):
            for j, d in enumerate(digits):
                if d:
                    conv[j] += d * conv[c]
        return self._unpack(conv[:m], layout)

    def _mul_loop(self, a: Coeffs, b: Coeffs) -> list[int]:
        """a * b, len(a) <= len(b), one coefficient at a time: the kernel's
        short products, and the reference the tests hold `mul` to."""
        raise NotImplementedError


class PrimeKernel(_SlotKernel):
    """GF(p), odd p: coefficients are ints mod p.

    Products whose shorter operand has at least `KRONECKER_MIN`
    coefficients are Kronecker products on slot planes (`_SlotKernel.mul`);
    `_mul_loop` multiplies shorter ones and reduces each output coefficient
    once.

    GF(2) runs `Char2Kernel`; this kernel still computes over it, and the
    tests use it there as a reference.
    """

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

    def _mul_loop(self, a: Coeffs, b: Coeffs) -> list[int]:
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


# GF(2) rows: coefficients 0/1 as the digits "0"/"1", and back
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _to_bits(a: Coeffs) -> int:
    """A GF(2) coefficient list as an int, bit i the coefficient of x^i."""
    return int(bytes(a).translate(_TO_DIGITS)[::-1], 2) if a else 0


def _xor_mod(x: int, y: int) -> int:
    """x mod y for bit rows, y != 0: xor the shifted y under x's top bit."""
    dy = y.bit_length()
    while (top := x.bit_length()) >= dy:
        x ^= y << (top - dy)
    return x


def _from_bits(x: int, length: int) -> list[int]:
    """The coefficient list of x, padded with zeros to at least `length`."""
    if not x:
        return [0] * length
    return list(bin(x)[:1:-1].encode().translate(_FROM_DIGITS).ljust(length, b"\0"))


class Char2Kernel(_Kernel):
    """GF(2^m), m >= 1: add is xor.

    `_bytes` is q <= 256: every coefficient fits in a byte, and `add` (and
    so `sub`) xors the rows as `int.from_bytes` values, GF(2) included.
    There that is faster than bit rows at every length measured.

    `_bits` is q = 2, and every other operation checks it first: there a
    row is an int with one bit per coefficient, bit i holding the
    coefficient of x^i (see `_to_bits`).  The only nonzero scalar is 1, so
    `scale` is the identity; a product xors shifted copies of one operand,
    one per nonzero coefficient of the other; a division or gcd step xors
    the shifted divisor into the remainder until its bit length drops below
    the divisor's, so each quotient term is one xor.  Evaluation at 1 is the
    parity.  GF(2) reads no table.

    When 2 < q <= 256 rows are handled whole, as bytes.  A row's logs come
    from one `bytes.translate` (zero goes to the spare index 255); one more
    translate scales it by g^f.  Division by at least `ROW_MIN`
    coefficients, and gcd, keep their remainders as ints, so each quotient
    term costs a few C-level calls instead of a Python step per coefficient.
    For q > 256 the per-coefficient loops run.
    """

    def __init__(self, field):
        super().__init__(field)
        self._bits = field.q == 2
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
        if self._bits:
            row, acc = _to_bits(b), 0
            for i, c in enumerate(a):
                if c:
                    acc ^= row << i
            return _from_bits(acc, len(a) + len(b) - 1)
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
        if self._bits:
            return list(a)
        if self._bytes:
            to_log, times = self._rows
            return list(bytes(a).translate(to_log).translate(times[to_log[c]]))
        return super().scale(a, c)

    def pack(self, rows: Sequence[Coeffs]):
        """(row length, one int per row) in GF(2); log bytes (zero as 255,
        see `_rows`) when 2 < q <= 256."""
        if self._bits:
            return len(rows[0]), [_to_bits(row) for row in rows]
        if not self._bytes:
            return super().pack(rows)
        to_log = self._rows[0]
        return [bytes(row).translate(to_log) for row in rows]

    def combine(self, rows, coeffs: Coeffs) -> list[int]:
        if self._bits:
            length, ints = rows
            assert len(coeffs) <= len(ints)
            return _from_bits(reduce(xor, itertools.compress(ints, coeffs), 0), length)
        if not self._bytes:
            return super().combine(rows, coeffs)
        assert len(coeffs) <= len(rows)
        to_log, times = self._rows
        acc = 0
        for c, row in zip(coeffs, rows):
            if c:
                acc ^= int.from_bytes(row.translate(times[to_log[c]]), "little")
        return list(acc.to_bytes(len(rows[0]), "little"))

    def combine_length(self, rows, coeffs: Coeffs) -> int:
        if self._bits:                            # the bit length, with no unpacking
            assert len(coeffs) <= len(rows[1])
            return reduce(xor, itertools.compress(rows[1], coeffs), 0).bit_length()
        return super().combine_length(rows, coeffs)

    def evaluate(self, a: Coeffs, x: int) -> int:
        if not x:
            return a[0] if a else 0
        if self._bits:
            return a.count(1) & 1                 # x = 1: the parity
        exp, log = self.field._tables
        lx = log[x]
        acc = 0
        for c in reversed(a):
            acc = exp[log[acc] + lx] ^ c
        return acc

    def divmod(self, a: Coeffs, b: Coeffs) -> tuple[list[int], list[int]]:
        if not self._bits:
            return super().divmod(a, b)
        r, y, nb = _to_bits(a), _to_bits(b), len(b)
        quot = [0] * (len(a) - nb + 1)
        while (top := r.bit_length()) >= nb:
            quot[top - nb] = 1                    # x^(top - nb) * b clears r's top bit
            r ^= y << (top - nb)
        return quot, _from_bits(r, nb - 1)

    def _euclid(self):
        """A state is an int: the bit row in GF(2), the byte row when
        2 < q <= 256, both little-endian; for q > 256, `_Kernel`'s bytes."""
        if self._bits:
            # monic: GF(2) has no other lead
            return _to_bits, _xor_mod, lambda x: tuple(_from_bits(x, x.bit_length()))
        if not self._bytes:
            return super()._euclid()
        reduce_row, monic = self._reducer(), self._monic

        def step(x: int, y: int) -> int:
            return reduce_row(x, y.to_bytes((y.bit_length() + 7) >> 3, "little"), None)

        def finish(x: int) -> tuple[int, ...]:
            return tuple(monic(list(x.to_bytes((x.bit_length() + 7) >> 3, "little"))))

        return (lambda a: int.from_bytes(bytes(a), "little")), step, finish

    def _reducer(self):
        """`reduce_row(r, b, quot)`: r mod b, r an int and b `bytes`, rows
        packed little-endian; the quotient as in `_divide`.  The tables are
        read here, once, and not per call of `reduce_row`.

        Subtracting c/lead * b, lead included, clears the top byte of r, so
        each quotient term costs a few C-level calls on the whole row.
        """
        exp = self.field._tables[0]
        to_log, times = self._rows
        n = self.field.q - 1

        def reduce_row(r: int, b: bytes, quot: list[int] | None) -> int:
            db = len(b) - 1
            row = b.translate(to_log)
            inv = n - to_log[b[-1]]               # log of 1 / lead
            while (bits := r.bit_length()) > 8 * db:
                i = (bits - 1) >> 3
                f = to_log[r >> (8 * i)] + inv    # log of c / lead, below 2(q-1)
                if quot is not None:
                    quot[i - db] = exp[f]
                r ^= int.from_bytes(row.translate(times[f]), "little") << (8 * (i - db))
            return r

        return reduce_row

    def _divide(self, rem: list[int], b: Coeffs, quot: list[int] | None) -> None:
        db = len(b) - 1
        if self._bytes and len(b) >= ROW_MIN:
            r = self._reducer()(int.from_bytes(bytes(rem), "little"), bytes(b), quot)
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

    Products whose shorter operand has at least `KRONECKER_MIN`
    coefficients are Kronecker products on slot planes (`_SlotKernel.mul`)
    and read no table.  The Zech table below is for add, sub, division,
    evaluation and the short products of `_mul_loop`.

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

    def _mul_loop(self, a: Coeffs, b: Coeffs) -> list[int]:
        exp, log, zlog, zech = self._zech
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
