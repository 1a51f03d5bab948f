"""Coefficient kernels: dense polynomial arithmetic on packed values and
on plain coefficient lists.

A `Field` gets one kernel when it is built, from `kernel_for`, the one
place that compares p and q; no kernel tests the field again.  There is one
class per row representation:

* `BitKernel` (GF(2)) -- a row is an int with one bit per coefficient: a
  product xors shifted copies of one operand, a division or gcd step xors
  the shifted divisor under the remainder's top bit, and no table is read.
  `add` and `sub` are `ByteKernel`'s byte-row xor, which is faster here.
* `ByteKernel` (GF(2^m), 2 < q <= 256) -- every coefficient fits in a byte,
  add is one xor of `int.from_bytes` values, and multiply is a lookup in
  the field's log/exp tables, whose exp table repeats so that sums of logs
  need no reduction mod q - 1.  Rows are handled whole, as bytes:
  `bytes.translate` through 256-byte tables scales a row, so a product,
  division or gcd takes a few C-level calls per row instead of a Python
  step per coefficient.  Division by fewer than `ROW_MIN` coefficients
  keeps `Char2Kernel`'s per-coefficient loop.
* `Char2Kernel` (GF(2^m), 256 < q <= 2^16) -- add is a per-coefficient
  xor, and multiply and division are per-coefficient log/exp loops.  It
  is the base of the other two characteristic-2 kernels, for `combine`
  and for `ByteKernel`'s division by short divisors.
* `PrimeKernel` (odd p, m = 1) -- plain int multiply-accumulate; a
  coefficient is reduced mod p once per output coefficient or division row,
  not per term.
* `OddKernel` (odd p, m > 1) -- log/exp multiply, add through a Zech
  logarithm table of O(q) size, built on first use.

`Poly` computes only through the kernel's entry points on packed values,
which take and return values with no top zeros: `to_packed`,
`from_packed` and `packed_len` (a value from coefficients, its
coefficients, its coefficient count), `poly_add`, `poly_sub`, `poly_mul`,
`poly_divmod`, `poly_mod`, `poly_monic`, `gcd` and `combine_packed`.
`CodeSpec` reads three more: `combine_onto`, a base row plus a `combine`,
packed; and `product(packed, positions)`, the product of the factors at
`positions` among a fixed set that `pack_factors` converts once, 1 for no
position.  `_Kernel`'s `pack_factors` is the identity on packed values and
its `product` the chain of `poly_mul`, which every characteristic-2 kernel
keeps and the tests hold the odd kernels' products to.  The erasure
decoder reads one more, `exact_quotient(x, y)`: x / y when y divides x,
else None; `_Kernel`'s is `poly_divmod` and a test of the remainder.
`BitKernel` and `ByteKernel` set `packs`: there a packed value is one int,
the bit row or the little-endian byte row, so a
polynomial is packed once, when it is born, results are born packed,
and coefficients are unpacked only when read.  Every other
kernel packs nothing: a packed value is the coefficient tuple, and the
entry points strip the results of the list operations.  Those, `add`,
`sub`, `mul` and `scale` on coefficient lists, serve the row builders in
`remcode.code`, `Field`'s scalar operations and the irreducible sieve.

The odd-characteristic kernels share one plane form (`_SlotKernel`).  A
row is split into its m base-p digit planes, each plane one int of
little-endian slots with one digit per coefficient, and every plane
computation is a sum of such ints weighted by small ints or by other plane
ints.  Multiplying by alpha^a (alpha the element x, the int p) mixes the
digits, so each row that is multiplied is first formed as its multiples
row * alpha^a, a < m, by one function, `_multiples`, through m - 1 maps
x -> x * alpha^a built from `Field._times(p)` (`_alpha`): one
`bytes.translate` each for q <= 256, above that one list lookup per
coefficient.  `pack` holds each multiple's planes end to end in one int;
`mul`, `product` and `_divide_planes` read them as an m x m table of
plane ints, entry [dst][src] plane dst of row * alpha^src (`_table`, which
keeps the last table it built, so that a division by the operand `mul`
just tabled, at the same slot size, builds none).  For
a = sum_src alpha^src A_src over its planes, plane dst of a * row is
sum_src A_src * table[dst][src] (`_step`: m^2 int products, the one
Kronecker step).  `mul` takes that step once, a product whose shorter
operand has at least `KRONECKER_MIN` coefficients tabling the shorter one;
shorter products keep the per-coefficient loops (`_mul_loop`).  `product`,
over the factors that `pack_factors` tables once, reduces its planes mod p
(`_reduce_plane`) before each step after the first.  A division by
at least `PLANE_DIVIDE_MIN` coefficients runs on planes too
(`_divide_planes`): each quotient term reads the top slot of each plane of
the remainder mod p, then adds small-int multiples of the divisor's table
columns, joined end to end, shifted into place.  `poly_divmod` unpacks the
remainder's low slots; `exact_quotient` only tests that each is 0 mod p,
by one `_reduce_plane` over them where byte maps reduce the slots, and
unpacks them elsewhere.  Shorter divisors keep the list
`_divide`, and add and sub keep their per-coefficient loops: over GF(p^m)
those read the Zech table.

The slot rule, for every plane sum: a sum of `count` terms, each at most m
products of two digits below p, gets the narrowest slot of 1, 2, 4 or 8
bytes that holds count * m * (p-1)^2 (`_slot_size`), so no slot carries
into the next.  `count` is the number of rows for `combine`, the shorter
operand's length for `mul`, the longest factor's for `product` and the
quotient terms plus one for `_divide_planes`.  Each slot is reduced mod p
once, when `_unpack` joins the digits into coefficients: a few
`bytes.translate`s per plane for q <= 256 and 1-byte slots, or 2-byte
slots when p < 128; otherwise `struct`'s explicit little-endian format and
a mod p per slot.  `product`, which must reduce between factors, runs
on planes only where the translates reduce its slots, and otherwise keeps
the chain of `poly_mul`.

`gcd` is one Euclid loop for every kernel, on packed values: a state is a
pair (x, y) of them, which steps to (y, `poly_mod(x, y)`), and the last x
is made monic by `poly_monic`, once per run.  Each kernel remembers the
states of its last run that missed, each mapped to that run's result; a
run that reaches one of them returns it.  From a given state the rest of a
run is fixed, so a hit returns exactly what a fresh run would.  Only a run
that misses replaces the memo; a hit, or a call that takes no step, leaves
it.  The memo holds one chain of packed remainders r_i: about
sum_i len(r_i) bytes of int in `ByteKernel` (an eighth of that in
`BitKernel`), and elsewhere one coefficient tuple per remainder, 8 bytes
of pointer per coefficient; plus a tuple and a dict entry per state.  The
decoder checks gcd(r, r~) == gcd0 on every pass of one remainder chain, so
after its first gcd each check is a lookup.

`combine(rows, coeffs)` returns sum_j coeffs[j] * rows[j] over a fixed set
of rows of one length, which `pack` converts once into the form each kernel
reads; the code's residue transform and its inverse are such sums.  The
characteristic-2 kernels share one `combine` (`Char2Kernel`'s).  A packed
row is one int: a bit row in `BitKernel`, a little-endian byte row in
`ByteKernel` and 2-byte little-endian slots in `Char2Kernel`.  Since
multiplying by c = sum_b c_b alpha^b (alpha the element x) is GF(2)-linear
in the bits c_b, the sum is sum_b alpha^b * (the xor of the rows whose
coefficient has bit b set): for each bit b < m, one C-level
`reduce(xor, compress(rows, selector))`, the selector being bit b of every
coefficient as bytes (one `bytes.translate` through `_BIT_OF[b]`), and
then one scaling by alpha^b unless b = 0.  That is m xor reductions and at
most m - 1 scalings, whatever the number of rows, and no Python step per
row.  The odd-characteristic kernels keep, for each k < m, the column of
x^k * row over the rows.  Each entry is one int that holds the row's m
base-p digit planes end to end, each plane a run of little-endian slots
with one digit per coefficient.  Digit i of a coefficient weights the
column i entry, and multiplying by a digit d = sum_b d_b 2^b is linear in
its bits, so the sum is sum over the classes (i, b) of 2^b * (the sum of
the column i entries whose coefficient has bit b of digit i set): for
q <= 256, one C-level `sum(compress(column, selector))` per class, the
selector one or two `bytes.translate`s of the coefficients (through
`_digits[i]`, skipped for m = 1, then `_BIT_OF[b]`).  That is m times the
digit's bit count of sums, and no Python step per row.  A class sum adds a
row once per set bit of its digit, so digits of more than `CLASS_BITS`
bits, and the fields with q > 256, which have no byte digit tables, keep a
loop of one multiply-add per nonzero digit.  Each slot ends with the same
sum on both paths and no partial sum exceeds the slot rule's bound, so no
digit carries into the next slot or plane.  `combine_onto` adds its base
row's digits into the slot sum before it is unpacked, where the slots have
room for one more digit below p, and otherwise adds the base to the
unpacked sum.  The
list decoder's degree test (`locator_survivors`) reads the `packed_len`
of such a sum's `combine_packed`: in `ByteKernel` the packed sum's byte
length, with no unpacking.  Over GF(2) the
same linearity runs sideways: `BitKernel.locator_survivors` holds one bit
per candidate in each mask and tests every candidate's degree at once, the
xor of the masks that each coefficient selects read from one table of up
to 256 entries per run of 8 locator rows.

Coefficient lists are lowest degree first (for byte rows, so are the bytes
of an int: "little" byte order; for bit rows, the bits).  The list
operations' outputs may carry trailing zeros: `add`, `sub` and
`scale` keep their operands' full length, since the row builders in
`remcode.code` read a row's top entry by position, and a `Codeword`'s row
keeps its N entries through `+` and `-`.  Every table -- the
field's `_tables`, `ByteKernel._rows`, `OddKernel._zech` and
`_SlotKernel._alpha` -- is a `functools.cached_property`: built on first
read, never when the field is constructed, and a plain attribute read
after that; the selector tables `_BIT_OF` depend on no field and are
module constants, shared by both characteristics' `combine`.  No prime
field builds a field table, and no plane product, `pack` or `combine`
reads one: the alpha maps come from `Field._times`, and the digit maps are
plain attributes, built with the kernel (the plane division reads the
log/exp tables once per distinct quotient term).  No inner loop calls a
`Field` method per coefficient; `Field._mul_basis` and `Field._digitwise`
stay as the table-free reference the tests compare these kernels with.
"""

from __future__ import annotations

import itertools
import struct
from functools import cached_property, partial, reduce
from operator import and_, lshift, or_, xor
from typing import Sequence

Coeffs = Sequence[int]


def _strip(coeffs: Sequence[int]) -> tuple[int, ...]:
    """The coefficients without their top zeros, as a tuple."""
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])

# ByteKernel: divisors of fewer coefficients keep the list loop.  A byte-row
# quotient term costs about the same at any divisor length, a few C-level calls
# on the whole row; a list-loop term costs one Python step per divisor
# coefficient.  Over GF(2^8) the two met at 7 divisor coefficients for 255-
# and 64-coefficient dividends (rs255_decode's (t * Y mod M_n) / t), at 8 for
# 128 and at 5 to 6 for 17 to 32; at 7 neither side loses more than about 10 %.
ROW_MIN = 7

# PrimeKernel and OddKernel: a product whose shorter operand has at least this many
# coefficients is a Kronecker product on packed digit planes (`_SlotKernel.mul`);
# shorter ones keep the per-coefficient loop, which is faster there.
KRONECKER_MIN = 4

# PrimeKernel and OddKernel: division by at least this many coefficients runs on
# packed digit planes (`_SlotKernel._divide_planes`); shorter divisors keep the
# list `_divide`.  A plane quotient term costs about the same at any divisor
# length, a list term one Python step per divisor coefficient, but packing and
# unpacking cost about as much as ten plane terms.  With 71-term quotients (the
# erasure decoder's division by the erased product) planes won over GF(9) from
# 20 divisor coefficients and lost at 14 or fewer; over GF(7) they met at 10 to
# 16.  One-term quotients gain only from about 40 coefficients on.
PLANE_DIVIDE_MIN = 20

# PrimeKernel and OddKernel over q <= 256: `combine` sums rows by (digit, bit)
# classes when p - 1 has at most this many bits, and otherwise keeps one
# multiply-add per digit.  A class sum adds a row once per set bit of its digit:
# on square row sets of 64 to 255 rows, class sums won by 1.2-1.5x at 4 bits
# (GF(11), GF(13), GF(121)), were even to 15 % slower at 5 (GF(17) to GF(31))
# and lost at 6 or more (GF(61) 0.37 vs 0.23 ms at 255 rows).
CLASS_BITS = 4

# _BIT_OF[b] maps each byte to its bit b, as a byte 0 or 1: a selector for
# `itertools.compress` (every `combine` that sums rows by bits)
_BIT_OF = [bytes((x >> b) & 1 for x in range(256)) for b in range(8)]


class _Kernel:
    """Operations shared by every kernel: `Poly`'s entry points for the
    kernels that pack nothing, `poly_divmod` and `poly_mod` built on
    `_divide`, `poly_monic` and `gcd` on the packed entry points, and the
    table-based `scale` of the extension-field kernels."""

    def __init__(self, field):
        self.field = field
        self._memo = {}

    # -- `Poly`'s entry points: on packed values, with no top zeros ------------
    # A packed value is the coefficient tuple itself here, and one int in
    # `ByteKernel` and `BitKernel`, which override these and set `packs`.

    packs = False

    def to_packed(self, coeffs: tuple[int, ...]):
        return coeffs

    def from_packed(self, x) -> tuple[int, ...]:
        return x

    packed_len = staticmethod(len)

    def poly_add(self, x, y):
        return _strip(self.add(x, y))

    def poly_sub(self, x, y):
        return _strip(self.sub(x, y))

    def poly_mul(self, x, y):
        """x * y, both nonzero."""
        return _strip(self.mul(x, y))

    def poly_divmod(self, x, y):
        """Quotient and remainder; needs len(x) >= len(y) >= 1."""
        rem = list(x)
        db = len(y) - 1
        quot = [0] * (len(rem) - db)
        self._divide(rem, y, quot)
        del rem[db:]
        return _strip(quot), _strip(rem)

    def poly_mod(self, x, y):
        """x mod y, y nonzero."""
        return self.poly_divmod(x, y)[1] if len(x) >= len(y) else x

    def exact_quotient(self, x, y):
        """x / y when the nonzero y divides x, else None: here `poly_divmod`
        and a test that the remainder is zero, the reference for
        `_SlotKernel.exact_quotient`."""
        if self.packed_len(x) < self.packed_len(y):
            return None if x else x
        quot, rem = self.poly_divmod(x, y)
        return None if rem else quot

    def poly_monic(self, x):
        """x scaled by the inverse of its lead, x nonzero."""
        lead = self.from_packed(x)[-1]
        return x if lead == 1 else self.poly_mul(x, self.to_packed((self.field.inv(lead),)))

    def combine_packed(self, rows, coeffs: Coeffs):
        """`combine(rows, coeffs)` packed, without its top zeros."""
        return _strip(self.combine(rows, coeffs))

    def combine_onto(self, rows, coeffs: Coeffs, base: Coeffs):
        """base + `combine(rows, coeffs)`, packed, without its top zeros, for a
        coefficient row `base` no longer than the rows."""
        return self.poly_add(self.to_packed(_strip(base)), self.combine_packed(rows, coeffs))

    def pack_factors(self, factors: Sequence[tuple[int, ...]]):
        """Nonzero polynomials, as coefficient tuples with no top zeros, in
        the form `product` reads: here their packed values."""
        return tuple(map(self.to_packed, factors))

    def product(self, packed, positions):
        """The product of the `pack_factors` factors at `positions`, packed;
        1 when there are none.  Here the chain of `poly_mul`, left to right:
        the reference for `_SlotKernel.product`."""
        out = None
        for i in positions:
            out = packed[i] if out is None else self.poly_mul(out, packed[i])
        return self.to_packed((1,)) if out is None else out

    def gcd(self, a, b):
        """Monic gcd of the packed values a and b (not both zero), packed,
        by Euclid on states.

        A state (a, b) steps to (b, a mod b) until b = 0.  `_memo` maps each
        state of the last run that missed to that run's result, and a run
        that reaches one of them returns it there (the module docstring says
        why that is exact).  A hit, or a call that takes no step (b = 0),
        leaves the memo as it is.
        """
        if not b:
            return self.poly_monic(a)
        memo, chain = self._memo, []
        state = (a, b)
        while state not in memo:
            chain.append(state)
            if not b:
                self._memo = memo = dict.fromkeys(chain, self.poly_monic(a))
                break
            a, b = state = (b, self.poly_mod(a, b))
        return memo[state]

    def locator_survivors(self, spec, y, candidates, cap: int):
        """The list decoder's rows and degree test, for the received
        preimage `y` (a `Poly`) and locator degree cap `cap`: (rows, survivors).

        `rows` are x^j * Y mod M_n, j <= cap, `pack`ed.  `survivors` yields,
        in list order, every candidate over another field (the scan raises
        on it) and every candidate g with 0 <= deg g <= cap and
        deg Z < K + deg g, for Z = g * Y mod M_n the `combine` of the rows
        by g; each test is the `packed_len` of one `combine_packed`, made
        only when the scan asks for the next survivor.
        """
        rows = self.pack(spec._shift_rows(y.coeffs, cap + 1))
        field, k, length = self.field, spec.K, self.packed_len
        return rows, (g for g in candidates
                      if (g.field is not field and g.field != field)
                      or (0 < len(g.coeffs) <= cap + 1
                          and length(self.combine_packed(rows, g.coeffs)) < k + len(g.coeffs)))

    def scale(self, a: Coeffs, c: int) -> list[int]:
        """c * a for c != 0 (`Poly.scale` handles c = 0), by table lookup.

        See `Field._tables` for the layout: exp[log a + e] is a * g^e for
        any e in [0, 2(q-1)), and 0 when a = 0.  `PrimeKernel`, `ByteKernel`
        and `BitKernel` override it.
        """
        exp, log = self.field._tables
        lc = log[c]
        return [exp[lc + log[x]] for x in a]

    def _divide(self, rem: list[int], b: Coeffs, quot: list[int] | bytearray) -> None:
        """Divide `rem` by `b` in place; needs len(rem) >= len(b).

        Afterwards rem[:len(b) - 1] holds the remainder and the entries
        above it are stale.  The quotient is written to `quot`.
        """
        raise NotImplementedError


def _slot_size(p: int, m: int, count: int) -> int:
    """Bytes per little-endian slot, 1, 2, 4 or 8: the fewest that hold a sum
    of `count` terms of m products of two digits below p."""
    bound = count * m * (p - 1) ** 2
    size = 1
    while bound >> 8 * size:
        size *= 2
    if size > 8:
        raise OverflowError(f"a slot sum up to {bound} needs more than 8 bytes")
    return size


def _slot_struct(length: int, size: int) -> struct.Struct:
    """The `struct` format of `length` slots of `size` bytes, for the planes
    that byte maps do not split or reduce."""
    return struct.Struct(f"<{length}{'BHIQ'[size.bit_length() - 1]}")


def _spread(digits: bytes, size: int) -> bytes:
    """One byte per slot as little-endian slots of `size` bytes."""
    if size == 1:
        return digits
    spread = bytearray(size * len(digits))
    spread[::size] = digits
    return spread


def _join(planes: Sequence[int], bits: int) -> int:
    """Plane ints of `bits` bits each, end to end, as one int."""
    acc = 0
    for x in reversed(planes):
        acc = acc << bits | x
    return acc


def _step(planes: Sequence[int], table) -> list[int]:
    """The Kronecker step: the planes of a * row, for a = sum_src alpha^src
    planes[src] and `row`'s `_SlotKernel._table`.  a * row = sum_src
    planes[src] * (alpha^src row), so plane dst is sum_src planes[src] *
    table[dst][src]: m^2 int products.  A slot of the result sums
    min(len a, len row) terms of m products of two digits below p."""
    out = []
    for row in table:           # a loop: a comprehension's own call costs each product factor
        out.append(sum(map(int.__mul__, planes, row)))
    return out


class _SlotKernel(_Kernel):
    """`pack`, `combine`, long products and division by long divisors on
    int slots, for odd characteristic (see the module docstring for the
    plane form and the slot rule).

    Everything here reads one form: a row's m base-p digit planes, each one
    int of little-endian slots (`_planes`), and the row's multiples by
    alpha^a, a < m (`_multiples`; alpha the element x, the int p).  `pack`
    packs those multiples end to end (`_packed`); `mul` and `product` read
    them as an m x m table of plane ints (`_table`) in one Kronecker step
    (`_step`), and `_divide_planes` joins the table's columns.  What they
    read is built here, with no table of the field's:

    * `_alpha[a - 1]`, for 1 <= a < m: the map x -> x * alpha^a, built on
      first read from `Field._times(p)`; a 256-byte map for
      `bytes.translate` for q <= 256, else a list;
    * for q <= 256, `_digits[a]` maps each byte x to its base-p digit a
      (so `_digits[0]` is x mod p), and `_high` maps x to 256 x mod p.  Each
      repeats with period p^(a+1) or p, so it is one short cycle repeated;
    * `_class_bits`: the bits of a digit, (p - 1).bit_length(), when
      `combine` sums rows by (digit, bit) classes, that is for q <= 256 and
      at most `CLASS_BITS` bits; else 0, and `combine` keeps its loop.
    """

    def __init__(self, field):
        super().__init__(field)
        p, m, q = field.p, field.m, field.q
        self.p = p
        self._powers = [p ** a for a in range(m)]
        self._digits = self._high = None
        if q <= 256:
            cycles = [b"".join(bytes([d]) * pa for d in range(p)) for pa in self._powers]
            self._digits = [(cycle * (256 // len(cycle) + 1))[:256] for cycle in cycles]
            self._high = (bytes(x * 256 % p for x in range(p)) * (256 // p + 1))[:256]
        bits = (p - 1).bit_length()
        self._class_bits = bits if q <= 256 and bits <= CLASS_BITS else 0
        self._last_table = 0, (), ()

    @cached_property
    def _alpha(self) -> list:
        """For 1 <= a < m, the map x -> x * alpha^a, indexed by x: a 256-byte
        map for `bytes.translate` for q <= 256, else a list.  x * alpha comes
        from `Field._times(p)`, one call per element, and each further map is
        x * alpha^(a+1) = (x * alpha^a) * alpha, one C-level `map`."""
        field, maps = self.field, []
        for _ in self._powers[1:]:
            maps.append(list(map(maps[0].__getitem__, maps[-1]) if maps
                             else map(field._times(self.p), range(field.q))))
        return maps if self._digits is None else [bytes(x).ljust(256, b"\0") for x in maps]

    def _multiples(self, row: Coeffs) -> list[Coeffs]:
        """row * alpha^a for each a < m, through `_alpha`: for q <= 256 as
        bytes, one `bytes.translate` per a >= 1; else one lookup per coefficient."""
        if self._digits is None:
            return [row] + [list(map(times.__getitem__, row)) for times in self._alpha]
        raw = bytes(row)
        return [raw] + [raw.translate(times) for times in self._alpha]

    def _planes(self, row: Coeffs, size: int) -> list[int]:
        """The m base-p digit planes of `row`, each one int of `size`-byte
        little-endian slots that hold one digit per coefficient."""
        if self._digits is not None:              # q <= 256: a translate per plane
            raw = bytes(row)
            return [int.from_bytes(_spread(raw.translate(table), size), "little")
                    for table in self._digits]
        p, m, bits = self.p, self.field.m, 8 * size * len(row)
        acc = int.from_bytes(_slot_struct(m * len(row), size).pack(
            *[x // pa % p for pa in self._powers for x in row]), "little")
        return [acc >> a * bits & (1 << bits) - 1 for a in range(m)]

    def _packed(self, row: Coeffs, size: int) -> int:
        """The m planes of `row` end to end, as one int."""
        return _join(self._planes(row, size), 8 * size * len(row))

    def _table(self, row: Coeffs, size: int) -> tuple[tuple[int, ...], ...]:
        """The m x m table of `row`: entry [dst][src] is plane dst of
        row * alpha^src.  The last table built is kept with its row and slot
        size, so that a division by the row just multiplied tables it once."""
        row = tuple(row)
        last_size, last_row, table = self._last_table
        if size == last_size and row == last_row:
            return table
        table = tuple(zip(*[self._planes(x, size) for x in self._multiples(row)]))
        self._last_table = size, row, table
        return table

    def _unpack(self, acc: int, size: int, length: int) -> list[int]:
        """The `length` coefficients held by `acc`, m planes of `size`-byte
        slots end to end, whose digit a is the slot of plane a reduced mod p.

        Where `_translates` holds, each plane is reduced by `_reduce_plane`
        and the digits recombine as bytes below q.  Otherwise each slot is
        reduced in a loop.
        """
        p, span = self.p, size * length
        planes = acc.to_bytes(self.field.m * span, "little")
        if self._translates(size):
            out = 0
            for a, pa in enumerate(self._powers):
                digits = self._reduce_plane(planes[a * span:(a + 1) * span], size)
                out += pa * int.from_bytes(digits, "little")
            return list(out.to_bytes(length, "little"))
        layout, out = _slot_struct(length, size), itertools.repeat(0)
        for a in reversed(range(self.field.m)):
            out = [x * p + d % p for x, d in zip(out, layout.unpack_from(planes, a * span))]
        return out

    def _translates(self, size: int) -> bool:
        """Whether `_reduce_plane` reduces slots of `size` bytes: for
        q <= 256, slots of 1 byte, or of 2 bytes when p < 128."""
        return self._digits is not None and (size == 1 or size == 2 and self.p < 128)

    def _reduce_plane(self, raw: bytes, size: int) -> bytes:
        """One plane of `size`-byte slots reduced mod p, one byte per slot, by
        a few `bytes.translate`s; needs `_translates(size)`.  A 2-byte slot
        lo + 256 hi reduces as lo mod p + 256 hi mod p, which stays below 256."""
        mod_p = self._digits[0]
        if size == 2:
            raw = (int.from_bytes(raw[::2].translate(mod_p), "little")
                   + int.from_bytes(raw[1::2].translate(self._high), "little")
                   ).to_bytes(len(raw) >> 1, "little")
        return raw.translate(mod_p)

    def pack(self, rows: Sequence[Coeffs]) -> tuple[int, int, list[tuple[int, ...]]]:
        """One or more rows, all of one length, in the form `combine` reads:
        (slot size, row length, for each k < m the column of x^k * row over
        the rows), each column entry the `_packed` int of x^k * row."""
        size = _slot_size(self.p, self.field.m, len(rows))
        columns = zip(*[[self._packed(x, size) for x in self._multiples(row)] for row in rows])
        return size, len(rows[0]), list(columns)

    def combine(self, rows, coeffs: Coeffs) -> list[int]:
        """sum_j coeffs[j] * rows[j] over `pack`ed rows; needs len(coeffs) <= len(rows).

        The result has the rows' length, top zeros included, in every
        kernel: a `Codeword`'s row is a `combine` taken as it is.  Digit i of
        coeffs[j] weights the column entry of x^i * rows[j], so the sum is
        sum over (i, b) of 2^b * (the sum of the column i entries whose
        coefficient has bit b of digit i set).  Where `_class_bits` is set, each
        such class sum is one C-level `sum(compress(...))`, the selector
        built by `bytes.translate`; elsewhere each digit is one multiply-add.
        Either way each slot ends with the same sum, and no partial sum
        exceeds it, so no slot carries into the next.
        """
        return self._unpack(self._slot_sum(rows, coeffs), *rows[:2])

    def combine_onto(self, rows, coeffs: Coeffs, base: Coeffs):
        """base + `combine(rows, coeffs)`: base's digits are added to the slot
        sum before it is unpacked, where the slots have room for them, a
        digit below p on top of len(coeffs) * m * (p-1)^2; else `_Kernel`'s."""
        size, length, _ = rows
        if len(coeffs) * self.field.m * (self.p - 1) ** 2 + self.p - 1 >> 8 * size:
            return super().combine_onto(rows, coeffs, base)
        acc = self._slot_sum(rows, coeffs) + self._packed(
            tuple(base) + (0,) * (length - len(base)), size)
        return _strip(self._unpack(acc, size, length))

    def _slot_sum(self, rows, coeffs: Coeffs) -> int:
        """The sum `combine` unpacks: one int of m planes of unreduced slots."""
        columns = rows[2]
        assert len(coeffs) <= len(columns[0])
        p, m, acc = self.p, self.field.m, 0
        if self._class_bits:
            raw = bytes(coeffs)
            for i, column in enumerate(columns):
                digits = raw if m == 1 else raw.translate(self._digits[i])
                for b in range(self._class_bits):
                    acc += sum(itertools.compress(column, digits.translate(_BIT_OF[b]))) << b
        else:
            for j, c in enumerate(coeffs):
                i = 0
                while c:
                    c, d = divmod(c, p)
                    if d:
                        acc += d * columns[i][j]
                    i += 1
        return acc

    def pack_factors(self, factors: Sequence[tuple[int, ...]]):
        """The factors in the form `product` reads: (slot size, one
        (length, `_table`) per factor), the slots sized for a product by the
        longest factor; where `_translates` does not hold for that size,
        (None, the factors) instead, for the chain."""
        size = _slot_size(self.p, self.field.m, max(map(len, factors), default=1))
        if not self._translates(size):
            return None, tuple(factors)
        return size, tuple((len(f), self._table(f, size)) for f in factors)

    def product(self, packed, positions):
        """The product of the `pack_factors` factors at `positions`; 1 when
        there are none.  On digit planes, unless `pack_factors` chose the
        chain.

        The accumulator is its m digit planes.  Each factor after the first
        reduces them mod p (`_reduce_plane`; for 1-byte slots its one
        translate per plane, inline, which saves a few calls per factor), so
        that every slot holds a digit below p, and takes one `_step` by its
        table.  The last step's planes are reduced once, by the `_unpack` at
        the end.
        """
        size, factors = packed
        if size is None:
            return super().product(factors, positions)
        acc, mod_p = None, self._digits[0]
        for i in positions:
            n, table = factors[i]
            if acc is None:                       # 1 * f: f's own planes
                acc, length = [row[0] for row in table], n
                continue
            if size == 1:                         # `_reduce_plane` inlined: one translate
                planes = [int.from_bytes(x.to_bytes(length, "little").translate(mod_p), "little")
                          for x in acc]
            else:
                planes = [int.from_bytes(_spread(self._reduce_plane(
                    x.to_bytes(size * length, "little"), size), size), "little") for x in acc]
            acc, length = _step(planes, table), length + n - 1
        return tuple(self._unpack(_join(acc, 8 * size * length), size, length)) if acc else (1,)

    def mul(self, a: Coeffs, b: Coeffs) -> list[int]:
        """a * b; a Kronecker product on digit planes when the shorter operand
        has at least `KRONECKER_MIN` coefficients, else `_mul_loop`: one
        `_step` of b's planes by the shorter a's table, with slots sized for
        len(a) terms, then one `_unpack`."""
        if len(a) > len(b):
            a, b = b, a
        if len(a) < KRONECKER_MIN:
            return self._mul_loop(a, b)
        size, length = _slot_size(self.p, self.field.m, len(a)), len(a) + len(b) - 1
        planes = _step(self._planes(b, size), self._table(a, size))
        return self._unpack(_join(planes, 8 * size * length), size, length)

    def _mul_loop(self, a: Coeffs, b: Coeffs) -> list[int]:
        """a * b, len(a) <= len(b), one coefficient at a time: the kernel's
        short products, and the reference the tests hold `mul` to."""
        raise NotImplementedError

    def poly_divmod(self, x, y):
        """Quotient and remainder; needs len(x) >= len(y) >= 1.  On packed
        digit planes (`_divide_planes`) when y has at least
        `PLANE_DIVIDE_MIN` coefficients, else by the list `_divide`."""
        if len(y) < PLANE_DIVIDE_MIN:
            return super().poly_divmod(x, y)
        quot, low, size = self._divide_planes(x, y)
        rem = self._unpack(int.from_bytes(low, "little"), size, len(y) - 1)
        return _strip(quot), _strip(rem)

    def exact_quotient(self, x, y):
        """x / y when the nonzero y divides x, else None.  From
        `PLANE_DIVIDE_MIN` divisor coefficients on, `_divide_planes` and a
        test that every remainder slot of every plane is 0 mod p: one
        `_reduce_plane` over them where `_translates` holds, so no
        remainder is unpacked, else their `_unpack`.  Below that, `_Kernel`'s."""
        if len(y) < PLANE_DIVIDE_MIN or len(x) < len(y):
            return super().exact_quotient(x, y)
        quot, low, size = self._divide_planes(x, y)
        if self._translates(size):
            digits = self._reduce_plane(low, size)
            exact = digits.count(0) == len(digits)
        else:
            exact = not any(self._unpack(int.from_bytes(low, "little"), size, len(y) - 1))
        return _strip(quot) if exact else None

    def _divide_planes(self, x: Coeffs, y: Coeffs) -> tuple[list[int], bytes, int]:
        """The quotient of x by y, len(x) >= len(y) >= 1, on packed digit
        planes, with the remainder unreduced: (quotient, remainder, slot
        size), the remainder its m planes of len(y) - 1 slots end to end, as
        bytes, each slot congruent mod p to its digit.

        The remainder is one int that holds x's m planes end to end, in
        slots sized for (quotient terms + 1) * m * (p-1)^2, and y * alpha^a
        for each a < m is one int of the same layout, joined from y's
        `_table`.  For the quotient term of x^j, digit a of the remainder's
        coefficient c at x^(j + deg y) is that slot of plane a mod p.
        Subtracting c/lead * x^j * y adds, for each digit g_a of -c/lead,
        g_a * y * alpha^a shifted up j slots: at most m (p-1)^2 per slot, on
        top of x's digit, so no slot carries.  That sum is formed once per
        distinct c.
        """
        p, m = self.p, self.field.m
        n, db = len(x), len(y) - 1
        size = _slot_size(p, m, n - db + 1)
        bits, span = 8 * size, 8 * size * n
        columns = [_join(column, span) for column in zip(*self._table(y, size))]
        rem, mask, quot = self._packed(x, size), (1 << bits) - 1, []
        over_lead, terms, top = self._over_lead(y[-1]), {}, db * bits
        high = list(zip(range(span, m * span, span), self._powers[1:]))
        for s in range((n - db - 1) * bits, -1, -bits):     # the term of x^j, s = j * bits
            t = rem >> (s + top)                  # from slot j + db up
            c = (t & mask) % p
            for off, pa in high:
                c += (t >> off & mask) % p * pa
            if c:
                term = terms.get(c)
                if term is None:                  # (c / lead, -c / lead * y packed)
                    f, g = over_lead(c)
                    term = terms[c] = f, sum(g // pa % p * column
                                             for column, pa in zip(columns, self._powers))
                f, multiple = term
                rem += multiple << s
                quot.append(f)
            else:
                quot.append(0)
        quot.reverse()
        plane, low = size * n, size * db
        raw = rem.to_bytes(m * plane, "little")
        return quot, b"".join([raw[a:a + low] for a in range(0, m * plane, plane)]), size

    def _over_lead(self, lead: int):
        """The map c -> (c / lead, -c / lead) on nonzero elements, for a
        divisor's lead: a quotient term, and what `_divide_planes` weights
        the divisor by."""
        raise NotImplementedError


class PrimeKernel(_SlotKernel):
    """GF(p), odd p: coefficients are ints mod p.

    Products whose shorter operand has at least `KRONECKER_MIN`
    coefficients are Kronecker products on slot planes (`_SlotKernel.mul`);
    `_mul_loop` multiplies shorter ones and reduces each output coefficient
    once.  Likewise `_divide` divides by fewer than `PLANE_DIVIDE_MIN`
    coefficients, and `_SlotKernel._divide_planes` by more.

    GF(2) runs `BitKernel`; this kernel still computes over it, and the
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

    def _over_lead(self, lead: int):
        p = self.p
        inv = pow(lead, p - 2, p)
        return lambda c: (c * inv % p, -c * inv % p)

    def _divide(self, rem: list[int], b: Coeffs, quot: list[int] | bytearray) -> None:
        # entries of rem stay unreduced until read as a row's top or returned
        p = self.p
        db = len(b) - 1
        pairs = [(j, y) for j, y in enumerate(b[:db]) if y]
        inv = pow(b[-1], p - 2, p)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i] % p
            if c:
                f = c * inv % p
                quot[i - db] = f
                g = p - f                         # rem -= f * b, as += (p - f) * b
                base = i - db
                for j, y in pairs:
                    rem[base + j] += g * y
        rem[:db] = [x % p for x in rem[:db]]


class Char2Kernel(_Kernel):
    """GF(2^m), 256 < q <= 2^16: add is a per-coefficient xor; multiply and
    division are per-coefficient loops through the field's log/exp tables.

    `scale` and the packed entry points are `_Kernel`'s, on lists and
    tuples.  `pack` and `combine` are written here once for every
    characteristic-2 kernel, on hooks that each of them sets for its row
    form: `_to_int` and `_unpack`, a row to its int and back; `_bit_planes`,
    the selectors of the coefficients' bits; and `_times_alpha`, a packed
    row times alpha^b.  Here a row is 2-byte little-endian slots.
    Polynomials are not packed here.  `ByteKernel` derives from this class
    for its `_divide`, which it runs on divisors of fewer than `ROW_MIN`
    coefficients, and `BitKernel` from `ByteKernel`.
    """

    def _to_int(self, a: Coeffs) -> int:
        return int.from_bytes(struct.pack(f"<{len(a)}H", *a), "little")

    def _unpack(self, x: int, length: int) -> list[int]:
        return list(struct.unpack(f"<{length}H", x.to_bytes(2 * length, "little")))

    def _bit_planes(self, coeffs: Coeffs) -> list[bytes]:
        """For each bit b < m, one byte per coefficient: bit b of it."""
        raw = struct.pack(f"<{len(coeffs)}H", *coeffs)
        low, high = raw[::2], raw[1::2]
        return [(high if b >> 3 else low).translate(_BIT_OF[b & 7]) for b in range(self.field.m)]

    def _times_alpha(self, x: int, b: int, length: int) -> int:
        """alpha^b * x, x a packed row: here one table lookup per slot."""
        return self._to_int(self.scale(self._unpack(x, length), 1 << b))

    def pack(self, rows: Sequence[Coeffs]) -> tuple[int, list[int]]:
        """One or more rows, all of one length, in the form `combine` reads:
        (row length, one `_to_int` per row)."""
        return len(rows[0]), [self._to_int(row) for row in rows]

    def combine(self, rows, coeffs: Coeffs) -> list[int]:
        """sum_j coeffs[j] * rows[j] over `pack`ed rows; needs len(coeffs) <= len(rows).

        The result has the rows' length, top zeros included, in every
        kernel: a `Codeword`'s row is a `combine` taken as it is.
        """
        return self._unpack(self._xor_sum(rows, coeffs), rows[0])

    def _xor_sum(self, rows, coeffs: Coeffs) -> int:
        """`combine` as a packed int: for each bit b < m, the xor of the rows
        whose coefficient has bit b set, scaled once by alpha^b (alpha the
        element x, the int 2) unless b = 0.  Multiplying by c = sum_b c_b
        alpha^b is GF(2)-linear in the bits c_b, so that is the sum."""
        length, ints = rows
        assert len(coeffs) <= len(ints)
        acc = 0
        for b, plane in enumerate(self._bit_planes(coeffs)):
            part = reduce(xor, itertools.compress(ints, plane), 0)
            acc ^= self._times_alpha(part, b, length) if b and part else part
        return acc

    def add(self, a: Coeffs, b: Coeffs) -> list[int]:
        if len(a) < len(b):
            a, b = b, a
        out = [x ^ y for x, y in zip(a, b)]
        out += a[len(b):]
        return out

    sub = add

    def mul(self, a: Coeffs, b: Coeffs) -> list[int]:
        if len(a) > len(b):
            a, b = b, a
        exp, log = self.field._tables
        pairs = [(j, log[c]) for j, c in enumerate(b) if c]
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                lc = log[c]
                for j, l in pairs:
                    out[i + j] ^= exp[lc + l]
        return out

    def _divide(self, rem: list[int], b: Coeffs, quot: list[int] | bytearray) -> None:
        db = len(b) - 1
        exp, log = self.field._tables
        pairs = [(j, log[c]) for j, c in enumerate(b[:db]) if c]
        inv = self.field.q - 1 - log[b[-1]]   # log of 1 / lead
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                f = log[c] + inv                  # log of c / lead, below 2(q-1)
                quot[i - db] = exp[f]
                base = i - db
                for j, l in pairs:
                    rem[base + j] ^= exp[f + l]


class ByteKernel(Char2Kernel):
    """GF(2^m), 2 < q <= 256: rows handled whole, as bytes.

    A polynomial's packed value is its byte row as one little-endian int,
    so its sum and difference are one int xor.  A row's logs come from one
    `bytes.translate` (zero goes to the spare index 255); one more translate
    scales it by g^f.  A product, a division by at least `ROW_MIN`
    coefficients and a gcd step (`poly_mod`) keep their rows as ints, so
    each term costs a few C-level calls instead of a Python step per
    coefficient; shorter divisors run `Char2Kernel._divide` on the unpacked
    remainder.  The list `mul` is the packed one, packed and unpacked.
    `pack` and `combine` are `Char2Kernel`'s, on byte rows (a packed row is
    a packed value), and alpha^b scales one by the translate pair.
    """

    def _to_int(self, a: Coeffs) -> int:
        return int.from_bytes(bytes(a), "little")

    def _unpack(self, x: int, length: int) -> list[int]:
        return list(x.to_bytes(length, "little"))

    def _bit_planes(self, coeffs: Coeffs) -> list[bytes]:
        raw = bytes(coeffs)
        return [raw.translate(_BIT_OF[b]) for b in range(self.field.m)]

    def _times_alpha(self, x: int, b: int, length: int) -> int:
        """Here a translate to logs and one by alpha^b."""
        to_log, times = self._rows
        row = x.to_bytes(length, "little").translate(to_log)
        return int.from_bytes(row.translate(times[to_log[1 << b]]), "little")

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
        x = int.from_bytes(bytes(a), "little") ^ int.from_bytes(bytes(b), "little")
        return list(x.to_bytes(len(a), "little"))

    sub = add

    def mul(self, a: Coeffs, b: Coeffs) -> list[int]:
        return self._unpack(self.poly_mul(self._to_int(a), self._to_int(b)), len(a) + len(b) - 1)

    def scale(self, a: Coeffs, c: int) -> list[int]:
        to_log, times = self._rows
        return list(bytes(a).translate(to_log).translate(times[to_log[c]]))

    # -- `Poly`'s entry points: a packed value is the byte row as an int ------

    packs = True

    to_packed = _to_int

    def from_packed(self, x: int) -> tuple[int, ...]:
        return tuple(self._unpack(x, self.packed_len(x)))

    @staticmethod
    def packed_len(x: int) -> int:
        return (x.bit_length() + 7) >> 3

    poly_add = poly_sub = staticmethod(xor)

    def poly_mul(self, x: int, y: int) -> int:
        """x * y: for each nonzero byte c of the shorter row, the longer
        row's logs translated to c times it, shifted into place."""
        a, b = x.to_bytes(self.packed_len(x), "little"), y.to_bytes(self.packed_len(y), "little")
        if len(a) > len(b):
            a, b = b, a
        to_log, times = self._rows
        row = b.translate(to_log)
        acc = 0
        for i, c in enumerate(a):
            if c:
                acc ^= int.from_bytes(row.translate(times[to_log[c]]), "little") << (8 * i)
        return acc

    def poly_divmod(self, x: int, y: int) -> tuple[int, int]:
        """By byte rows (`poly_mod`, the quotient written as it goes) when
        the divisor has at least `ROW_MIN` coefficients, else by
        `Char2Kernel`'s per-coefficient loop."""
        nx, ny = self.packed_len(x), self.packed_len(y)
        quot = bytearray(nx - ny + 1)
        if ny >= ROW_MIN:
            r = self.poly_mod(x, y, quot)
        else:
            rem = list(x.to_bytes(nx, "little"))
            self._divide(rem, y.to_bytes(ny, "little"), quot)
            r = int.from_bytes(bytes(rem[:ny - 1]), "little")
        return int.from_bytes(quot, "little"), r

    def combine_packed(self, rows, coeffs: Coeffs) -> int:
        return self._xor_sum(rows, coeffs)

    @cached_property
    def poly_mod(self):
        """`poly_mod(x, y, quot=None)`: x mod y by byte rows, y nonzero; the
        quotient, unless None, written to `quot` as by `_divide`.  A closure
        built on first read, so the tables are read once, and a Euclid step
        is one Python call.

        Subtracting c/lead * y, lead included, clears the top byte of x, so
        each quotient term costs a few C-level calls on the whole row.
        """
        exp = self.field._tables[0]
        to_log, times = self._rows
        n = self.field.q - 1

        def poly_mod(x: int, y: int, quot=None) -> int:
            b = y.to_bytes((y.bit_length() + 7) >> 3, "little")
            db = len(b) - 1
            row = b.translate(to_log)
            inv = n - to_log[b[-1]]               # log of 1 / lead
            while (bits := x.bit_length()) > 8 * db:
                i = (bits - 1) >> 3
                f = to_log[x >> (8 * i)] + inv    # log of c / lead, below 2(q-1)
                if quot is not None:
                    quot[i - db] = exp[f]
                x ^= int.from_bytes(row.translate(times[f]), "little") << (8 * (i - db))
            return x

        return poly_mod


# GF(2) rows: coefficients 0/1 as the digits "0"/"1", and back
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _to_bits(a: Coeffs) -> int:
    """A GF(2) coefficient list as an int, bit i the coefficient of x^i."""
    return int(bytes(a).translate(_TO_DIGITS)[::-1], 2) if a else 0


def _from_bits(x: int, length: int) -> list[int]:
    """The coefficient list of x, padded with zeros to at least `length`."""
    if not x:
        return [0] * length
    return list(bin(x)[:1:-1].encode().translate(_FROM_DIGITS).ljust(length, b"\0"))


def _bit_bytes(x: int) -> int:
    """The bit row x with one byte per coefficient: byte i is bit i of x."""
    return int.from_bytes(bin(x)[2:].encode().translate(_FROM_DIGITS), "big")


def _walk(items: tuple, mask: int):
    """The items at the set bits of `mask`, lowest bit first."""
    while mask:
        low = mask & -mask
        yield items[low.bit_length() - 1]
        mask ^= low


class BitKernel(ByteKernel):
    """GF(2): a row is an int with one bit per coefficient, bit i holding the
    coefficient of x^i (see `_to_bits`), and no table is read.

    A polynomial's packed value is its bit row.  The only nonzero scalar is
    1, so `scale` is the identity; a product xors shifted copies of one
    operand, one per set bit of the other; a division or gcd step xors the
    shifted divisor into the remainder until its bit length drops below the
    divisor's, so each quotient term is one xor.  The sum of two packed
    values is their xor (`ByteKernel.poly_add`); the list `add` and `sub`
    are `ByteKernel.add`, the byte-row xor, which is faster than bit rows
    at every length measured.  `combine` is
    `Char2Kernel`'s on bit rows, with `_xor_sum` its m = 1 case: one xor of
    the rows whose coefficient is 1, with no selector built and no scaling.
    The list scan forms no sum to test a degree here: `locator_survivors`
    runs the degree test of every candidate at once, on masks with one bit
    per candidate read from per-list tables, with no Python step per row
    and coefficient, and `combine_packed` runs only for its few survivors.
    No other inherited code runs here: `poly_divmod` and `poly_mod` work on
    bit rows, and every nonzero lead is 1, so `poly_monic` is the identity
    and a gcd unpacks nothing.
    """

    _to_int = staticmethod(_to_bits)
    _unpack = staticmethod(_from_bits)
    # (key, tables and masks) of the last candidate list scanned; see `locator_survivors`
    _scan_memo: tuple = (None, None)

    def _xor_sum(self, rows, coeffs: Coeffs) -> int:
        """m = 1: the coefficients are their own bit plane, and nothing is scaled."""
        assert len(coeffs) <= len(rows[1])
        return reduce(xor, itertools.compress(rows[1], coeffs), 0)

    def locator_survivors(self, spec, y, candidates, cap: int):
        """`_Kernel.locator_survivors` with one degree test for every
        candidate at once, bit-sliced: bit i of a mask stands for candidate i.

        Row j is x^j * Y mod M_n, built by shift and xor with M_n twice
        over: as a bit row (for `combine_packed`) and spread, one byte per
        coefficient (`_bit_bytes`; the next row is the previous one shifted
        left a byte, xored with the spread M_n when its byte N is set).
        With G_j the mask of the candidates that have an x^j term,
        coefficient k of every candidate's Z is one mask, W_k = the xor of
        the G_j whose row has coefficient k set.  The rows come in runs of
        8, and each run has a table of the xors of its G_j, by selector
        (`_scan_masks`): the spread rows of a run, each shifted by its
        place in the run and ORed, hold in byte k the selector of
        coefficient k, so each run's part of W_k is one table lookup, and
        W_k the xor of the runs' lookups, all by C-level `map`s.
        Candidate i fails exactly when some W_k with k >= K + deg g_i has
        bit i set, so with S_d the OR of W_k for k >= K + d (the suffix
        ORs, by `accumulate` from the top coefficient down), the failures
        are the OR over d of (the mask of the candidates of degree d) &
        S_d.  The survivors, and the candidates over another field, are
        yielded lowest index first.

        The tables depend on the candidate list alone; they are built on
        the first scan of a list and kept for the next scan while
        `(cap, tuple(candidates))` stays equal, so an edited list, or a
        generator, is read afresh.
        """
        n, k = spec.N, spec.K
        m, top, r = spec.modulus_product.packed, 1 << n, y.packed
        spread_m, s = _bit_bytes(m), _bit_bytes(r)
        ints, spread = [r], [s]
        for _ in range(cap):
            r <<= 1
            s <<= 8
            if r & top:
                r ^= m
                s ^= spread_m
            ints.append(r)
            spread.append(s)
        key = (cap, tuple(candidates))
        memo_key, masks = self._scan_memo
        if memo_key != key:
            masks = self._scan_masks(key[1], cap)
            self._scan_memo = key, masks
        tables, by_degree, valid, foreign = masks
        # W_k for k = N-1 down to K: row i + b of a run sets bit b of each selector byte
        w = reduce(partial(map, xor), [
            map(table.__getitem__,
                (sum(map(lshift, spread[i:i + 8], range(8))) >> 8 * k).to_bytes(n - k, "big"))
            for i, table in zip(range(0, cap + 1, 8), tables)])
        suffix = list(itertools.accumulate(w, or_))                 # S_d, d descending
        fail = reduce(or_, map(and_, by_degree, reversed(suffix)), 0)
        return (n, ints), _walk(key[1], valid & ~fail | foreign)

    def _scan_masks(self, candidates: tuple, cap: int) -> tuple:
        """(the selector tables of each run of 8 rows, the mask of each
        degree d <= cap, the valid mask, the foreign mask): a candidate is
        valid when it is over this field with 0 <= deg <= cap, and foreign
        when it is over another.  Entry `sel` of a run's table is the xor
        of the G_j of the run whose bit is set in `sel` (bit i for the
        run's i-th row), built by doubling, one list per G_j; the last run
        may have fewer than 8 rows, and its table 2^rows entries."""
        field, width = self.field, cap + 1
        by_degree, padded, foreign = [0] * width, [], 0
        for i, g in enumerate(candidates):
            c = g.coeffs
            if g.field is not field and g.field != field:
                foreign |= 1 << i
            elif 0 < len(c) <= width:
                by_degree[len(c) - 1] |= 1 << i
                padded.append(bytes(c).ljust(width, b"\0"))
                continue
            padded.append(bytes(width))
        # an empty list has no columns, and its tables are all zero
        g_masks = [_to_bits(column) for column in zip(*padded)] or [0] * width
        tables = []
        for i in range(0, width, 8):
            table = [0]
            for g in g_masks[i:i + 8]:
                table += [t ^ g for t in table]
            tables.append(table)
        return tables, by_degree, reduce(or_, by_degree), foreign

    def scale(self, a: Coeffs, c: int) -> list[int]:
        return list(a)

    # -- `Poly`'s entry points: a packed value is the bit row ----------------

    to_packed = _to_int
    packed_len = staticmethod(int.bit_length)

    @staticmethod
    def poly_mul(x: int, y: int) -> int:
        """x * y: y shifted to each set bit of the shorter x, lowest first."""
        if x.bit_length() > y.bit_length():
            x, y = y, x
        acc = 0
        while x:
            low = x & -x
            acc ^= y << (low.bit_length() - 1)
            x ^= low
        return acc

    @staticmethod
    def poly_divmod(x: int, y: int) -> tuple[int, int]:
        ny, quot = y.bit_length(), 0
        while (top := x.bit_length()) >= ny:
            quot |= 1 << (top - ny)               # x^(top - ny) * y clears x's top bit
            x ^= y << (top - ny)
        return quot, x

    @staticmethod
    def poly_monic(x: int) -> int:
        return x

    @staticmethod
    def poly_mod(x: int, y: int) -> int:
        """x mod y, y nonzero: xor the shifted y under x's top bit."""
        ny = y.bit_length()
        while (top := x.bit_length()) >= ny:
            x ^= y << (top - ny)
        return x


class OddKernel(_SlotKernel):
    """GF(p^m), odd p, m > 1: add through Zech logarithms.

    Products whose shorter operand has at least `KRONECKER_MIN`
    coefficients are Kronecker products on slot planes (`_SlotKernel.mul`)
    and read no table.  The Zech table below is for add, sub, division by
    fewer than `PLANE_DIVIDE_MIN` coefficients and the short products of
    `_mul_loop`; division by more (`_SlotKernel._divide_planes`) reads the
    log/exp tables once per distinct quotient term.

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
        """(exp, log, zlog, zech), built on first read.

        1 + x raises only x's lowest base-p digit, its constant coefficient.
        """
        field, p, n = self.field, self.field.p, self.field.q - 1
        exp, log = field._tables
        zlog = [5 * n] + [log[x] + 2 * n for x in range(1, n + 1)]
        zech = [0] * (5 * n + 1)
        for d in range(n):
            x = exp[d]
            zech[d] = zech[d + n] = zech[d + 2 * n] = log[x - x % p + (x + 1) % p]
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

    def _over_lead(self, lead: int):
        exp, log = self.field._tables
        n = self.field.q - 1
        inv = n - log[lead]                       # log of 1 / lead
        neg = (inv + n // 2) % n                  # log of -1 / lead
        return lambda c: (exp[log[c] + inv], exp[log[c] + neg])

    def _divide(self, rem: list[int], b: Coeffs, quot: list[int] | bytearray) -> None:
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
                quot[i - db] = exp[lc + inv]
                f = (lc + neg) % n                # log of -c / lead
                base = i - db
                for j, l in pairs:
                    t = f + l
                    k = base + j
                    rem[k] = exp[t + zech[zlog[rem[k]] - t]]


def kernel_for(field) -> _Kernel:
    """The kernel for the field's kind and row representation: the one
    place that compares p and q to choose one."""
    if field.q == 2:
        return BitKernel(field)
    if field.p == 2:
        return ByteKernel(field) if field.q <= 256 else Char2Kernel(field)
    if field.m == 1:
        return PrimeKernel(field)
    return OddKernel(field)
