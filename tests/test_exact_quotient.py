"""Differential tests for the kernels' `exact_quotient`: x / y when y divides
x, else None.

Each is held to `_Kernel.poly_divmod`, the list division kept in the tree
(on the odd kernels it runs the list `_divide` at every divisor length):
over GF(9), GF(27) and GF(17), whose kernels divide on digit planes from
`PLANE_DIVIDE_MIN` divisor coefficients on and test the remainder by
`bytes.translate`, over GF(251) and GF(3^6), whose slots no byte map
reduces, so that the remainder is unpacked, and over GF(2^8), whose kernel
packs its values into ints and runs `_Kernel`'s generic entry.  Divisors
lie on both sides of `PLANE_DIVIDE_MIN`.  Each divisor divides exact
products and the same products plus a remainder: a random one, one nonzero
only in its lowest or only in its highest coefficient, and, over the
extension fields, one nonzero in a single digit plane.
"""

from __future__ import annotations

import random

import pytest

from remcode.field import Field
from remcode.kernels import PLANE_DIVIDE_MIN, Char2Kernel, _Kernel, _strip

FIELDS = {
    "GF(9)": Field(3, 2, [1, 0, 1]),
    "GF(27)": Field(3, 3, [1, 2, 0, 1]),
    "GF(17)": Field(17),
    "GF(251)": Field(251),
    "GF(3^6)": Field(3, 6, [2, 1, 0, 0, 0, 0, 1]),
    "GF(2^8)": Field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
}
DIVISOR_LENGTHS = (1, 5, PLANE_DIVIDE_MIN - 1, PLANE_DIVIDE_MIN, PLANE_DIVIDE_MIN + 1, 40)
QUOTIENT_LENGTHS = (1, 2, 30, 71)


def _reference(f: Field):
    """A kernel over `f` that packs nothing, whose `_Kernel.poly_divmod`
    runs the list `_divide`: `Char2Kernel` for GF(2^m), else the field's."""
    return Char2Kernel(f) if f.p == 2 else f.kernel


def _remainders(rng: random.Random, f: Field, db: int) -> list[list[int]]:
    """Remainders of fewer than db + 1 coefficients: zero, random, nonzero
    only in the lowest or in the highest coefficient, and for each digit
    plane a < m, one coefficient whose only nonzero base-p digit is a."""
    if not db:
        return [[]]
    out = [[], [rng.randrange(f.q) for _ in range(db - 1)] + [rng.randrange(1, f.q)]]
    for where in (0, db - 1):
        row = [0] * db
        row[where] = rng.randrange(1, f.q)
        out.append(row)
    if f.m > 1:
        for a in range(f.m):
            row = [0] * db
            row[rng.randrange(db)] = rng.randrange(1, f.p) * f.p ** a
            out.append(row)
    return out


def _cases(f: Field, rng: random.Random):
    """(x, y, exact) triples as coefficient tuples with no top zeros."""
    ref = _reference(f)
    for ny in DIVISOR_LENGTHS:
        for lead in (1, None):
            y = [rng.randrange(f.q) for _ in range(ny - 1)] + [lead or rng.randrange(1, f.q)]
            for na in QUOTIENT_LENGTHS:
                a = [rng.randrange(f.q) for _ in range(na - 1)] + [rng.randrange(1, f.q)]
                if rng.random() < 0.3:            # every digit p - 1: the most each slot takes
                    a, y = [f.q - 1] * na, [f.q - 1] * (ny - 1) + [y[-1]]
                product = ref.mul(a, y)
                for rem in _remainders(rng, f, ny - 1):
                    x = _strip(ref.add(product, rem) if rem else product)
                    yield x, tuple(y), not any(rem)
            # dividends shorter than the divisor: exact only when zero
            yield (), tuple(y), True
            if ny > 1:
                yield _strip([rng.randrange(f.q) for _ in range(ny - 2)] + [1]), tuple(y), False


@pytest.mark.parametrize("name", list(FIELDS))
def test_exact_quotient_matches_the_list_division(name, monkeypatch):
    """`exact_quotient` returns the list division's quotient when its
    remainder is zero, and None otherwise.  On the odd kernels the divisors
    from `PLANE_DIVIDE_MIN` coefficients on take `_divide_planes`, whose
    remainder is tested on its planes, and unpacked only where no byte map
    reduces its slots."""
    f = FIELDS[name]
    kernel, ref = f.kernel, _reference(f)
    planes, unpacks = [], []
    if f.p != 2:
        divide, unpack = kernel._divide_planes, kernel._unpack
        monkeypatch.setattr(kernel, "_divide_planes",
                            lambda x, y: planes.append(len(y)) or divide(x, y))
        monkeypatch.setattr(kernel, "_unpack", lambda *a: unpacks.append(1) or unpack(*a))
    rng = random.Random(f.q)
    count = 0
    for x, y, exact in _cases(f, rng):
        quot, rem = _Kernel.poly_divmod(ref, x, y) if len(x) >= len(y) else ((), x)
        assert (rem == ()) == exact, (x, y)       # the case is what it claims to be
        planes.clear()
        unpacks.clear()
        got = kernel.exact_quotient(kernel.to_packed(x), kernel.to_packed(y))
        assert (None if got is None else kernel.from_packed(got)) == (quot if exact else None)
        if f.p != 2 and len(y) >= PLANE_DIVIDE_MIN and len(x) >= len(y):
            assert planes == [len(y)] and len(unpacks) == (name in ("GF(251)", "GF(3^6)"))
            count += 1
        else:
            assert planes == []
    assert count or f.p == 2
