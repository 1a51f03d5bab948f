"""Differential tests: the coefficient kernels against a table-free schoolbook reference.

The reference below uses only `Field._mul_basis` and `Field._digitwise`, so
it shares no table, no kernel and no `Poly` arithmetic with the code under
test.  Each field kind is covered: prime (GF(2), GF(5)), characteristic 2
(GF(2^4), GF(2^8), GF(2^16)) and odd characteristic (GF(9), GF(25)).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from remcode.field import Field
from remcode.kernels import Char2Kernel, OddKernel, PrimeKernel
from remcode.poly import Poly, poly_gcd

FIELDS = {
    "GF(2)": lambda: Field(2),
    "GF(5)": lambda: Field(5),
    "GF(2^4)": lambda: Field(2, 4, [1, 1, 0, 0, 1]),
    "GF(2^8)": lambda: Field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
    "GF(9)": lambda: Field(3, 2, [1, 0, 1]),
    "GF(25)": lambda: Field(5, 2, [2, 1, 1]),
    "GF(2^16)": lambda: Field(2, 16, [1, 1, 0, 1] + [0] * 8 + [1, 0, 0, 0, 1]),
}


@pytest.fixture(scope="session", params=list(FIELDS))
def field(request) -> Field:
    """Each field is built once per pytest run; GF(2^16) builds 64k-entry tables."""
    return FIELDS[request.param]()


# -- the schoolbook reference ---------------------------------------------------------


def _strip(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _at(c, i: int) -> int:
    return c[i] if i < len(c) else 0


def ref_add(f: Field, a, b, sign: int = 1) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return _strip([f._digitwise(_at(a, i), _at(b, i), sign) for i in range(n)])


def ref_mul(f: Field, a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = f._digitwise(out[i + j], f._mul_basis(x, y), 1)
    return _strip(out)


def ref_inv(f: Field, a: int) -> int:
    return f._pow_basis(a, f.q - 2)


def ref_divmod(f: Field, a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    rem = list(a)
    db = len(b) - 1
    quot = [0] * max(len(rem) - db, 0)
    lead_inv = ref_inv(f, b[-1])
    for i in range(len(rem) - 1, db - 1, -1):
        c = f._mul_basis(rem[i], lead_inv)
        quot[i - db] = c
        for j, y in enumerate(b):
            rem[i - db + j] = f._digitwise(rem[i - db + j], f._mul_basis(c, y), -1)
    return _strip(quot), _strip(rem[:db])


def ref_gcd(f: Field, a, b) -> tuple[int, ...]:
    while b:
        a, b = b, ref_divmod(f, a, b)[1]
    c = ref_inv(f, a[-1])
    return tuple(f._mul_basis(c, x) for x in a)


# -- strategies ---------------------------------------------------------------------


def coeff_lists(f: Field, max_len: int = 9):
    # zeros, one and -1 are drawn often: they take the kernels' special cases
    elem = st.one_of(st.sampled_from([0, 0, 1, f.q - 1]), st.integers(0, f.q - 1))
    return st.lists(elem, max_size=max_len)


def polys(f: Field):
    return coeff_lists(f).map(lambda c: Poly(f, c))


# -- tests ------------------------------------------------------------------------------


def test_kernel_choice_and_lazy_tables():
    kinds = {"GF(2)": PrimeKernel, "GF(5)": PrimeKernel, "GF(2^4)": Char2Kernel,
             "GF(9)": OddKernel, "GF(25)": OddKernel}
    for name, kind in kinds.items():
        f = FIELDS[name]()
        assert type(f.kernel) is kind
        assert f._log is None
    f = FIELDS["GF(9)"]()
    assert f.kernel._zech is None
    Poly(f, [1, 2]) + Poly(f, [2, 2])
    assert f._log is not None and f.kernel._zech is not None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_add_sub_mul_match_reference(field, data):
    a, b = data.draw(polys(field)), data.draw(polys(field))
    assert (a + b).coeffs == ref_add(field, a.coeffs, b.coeffs, 1)
    assert (a - b).coeffs == ref_add(field, a.coeffs, b.coeffs, -1)
    assert (-a).coeffs == ref_add(field, (), a.coeffs, -1)
    assert (a * b).coeffs == ref_mul(field, a.coeffs, b.coeffs)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_divmod_matches_reference(field, data):
    a = data.draw(polys(field))
    b = data.draw(polys(field).filter(lambda p: not p.is_zero))
    q, r = divmod(a, b)
    assert (q.coeffs, r.coeffs) == ref_divmod(field, a.coeffs, b.coeffs)
    assert r.degree < b.degree
    assert q * b + r == a


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gcd_matches_reference(field, data):
    a, b, c = (data.draw(polys(field)) for _ in range(3))
    if (a * c).is_zero and (b * c).is_zero:
        return
    g = poly_gcd(a * c, b * c)
    assert g.coeffs == ref_gcd(field, (a * c).coeffs, (b * c).coeffs)
    assert g.is_monic
    assert ((a * c) % g).is_zero and ((b * c) % g).is_zero


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scale_and_evaluate_match_reference(field, data):
    a = data.draw(polys(field))
    c = data.draw(st.integers(1, field.q - 1))
    x = data.draw(st.one_of(st.just(0), st.integers(0, field.q - 1)))
    assert a.scale(c).coeffs == tuple(field._mul_basis(c, y) for y in a.coeffs)
    acc = 0
    for y in reversed(a.coeffs):
        acc = field._digitwise(field._mul_basis(acc, x), y, 1)
    assert a.evaluate(x) == acc
