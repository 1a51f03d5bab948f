"""Derived values are built on first read, once, and cached by `functools`.

The field's log/exp tables, `ByteKernel._rows` and `OddKernel._zech` are
`cached_property`s, as are `ErasurePattern.known_product`,
`CodeSpec.message_modulus` and `CodeSpec.irreducible`; `irreducible_polys`
is a `functools.cache`.
These tests pin that nothing is built early and nothing is built twice.
"""

from __future__ import annotations

import random
from math import prod

import pytest

import remcode.code
from remcode.code import CodeSpec
from remcode.field import Field
from remcode.interpolate import ErasurePattern
from remcode.poly import Poly, irreducible_polys, is_irreducible, poly_gcd

from conftest import random_spec
from test_kernels import FIELDS

# the kernel's own table, built from the field's; prime fields have none
KERNEL_TABLE = {"GF(2)": None, "GF(5)": None, "GF(2^4)": "_rows", "GF(2^8)": "_rows",
                "GF(9)": "_zech", "GF(25)": "_zech"}

SPECS = ["rs42", "three_mod", "ladder5", "gf4_mixed", "reducible_spec"]


def _arithmetic(f: Field) -> None:
    """One pass through every kernel operation and the scalar ones."""
    rng = random.Random(f.q)
    a = Poly(f, [rng.randrange(f.q) for _ in range(14)] + [1])
    b = Poly(f, [rng.randrange(f.q) for _ in range(13)] + [f.q - 1])
    c = Poly(f, [1, f.q - 1])
    a + b, a - b, a * b, divmod(a * b, c), divmod(a * b, b)
    poly_gcd(a * c, b * c), a.scale(f.q - 1), a.evaluate(f.q - 1)
    f.mul(f.q - 1, f.q - 1), f.inv(f.q - 1)


@pytest.mark.parametrize("name", list(KERNEL_TABLE))
def test_field_tables_built_once_on_first_read(name, monkeypatch):
    f, own = FIELDS[name](), KERNEL_TABLE[name]
    assert "_tables" not in vars(f)
    assert not {"_rows", "_zech"} & set(vars(f.kernel))

    builds = []
    find_generator = Field._find_generator
    monkeypatch.setattr(Field, "_find_generator",
                        lambda self: builds.append(self) or find_generator(self))
    _arithmetic(f)
    if own is None:
        # prime fields never build a table: odd p reduces mod p, GF(2) runs bit rows
        assert "_tables" not in vars(f) and builds == []
        return
    tables = vars(f)["_tables"]
    kernel_table = vars(f.kernel)[own]
    _arithmetic(f)
    assert builds == [f]
    assert f._tables is tables and vars(f)["_tables"] is tables
    assert getattr(f.kernel, own) is kernel_table and vars(f.kernel)[own] is kernel_table


@pytest.mark.parametrize("spec_name", SPECS)
def test_pattern_build_divides_nothing(spec_name, request, monkeypatch):
    spec = request.getfixturevalue(spec_name)
    rng = random.Random(spec.n)
    known_sets = [frozenset(rng.sample(range(spec.n), rng.randint(1, spec.n)))
                  for _ in range(10)]

    divisions = []
    poly_divmod = Poly.__divmod__
    monkeypatch.setattr(Poly, "__divmod__",
                        lambda a, b: divisions.append(1) or poly_divmod(a, b))
    patterns = [ErasurePattern(spec, known) for known in known_sets]
    assert divisions == []
    for count, pattern in enumerate(patterns, 1):
        assert "known_product" not in vars(pattern)
        known_product = pattern.known_product
        assert len(divisions) == count
        assert pattern.known_product is known_product
        assert len(divisions) == count
        expected = Poly.one(spec.field)
        for i in sorted(pattern.known):
            expected = expected * spec.moduli[i]
        assert known_product == expected
        assert known_product * pattern.erased_product == spec.modulus_product


def _test_specs(request) -> list[CodeSpec]:
    rng = random.Random(7)
    fields = [Field(2), Field(3), Field(5), Field(2, 2, [1, 1, 1]), Field(3, 2, [1, 0, 1])]
    return ([request.getfixturevalue(name) for name in SPECS]
            + [random_spec(rng, f, (1, 6), reducible=rng.random() < 0.5)
               for f in fields for _ in range(4)])


def test_spec_build_leaves_message_modulus_unbuilt(request):
    for spec in _test_specs(request):
        fresh = CodeSpec(spec.field, spec.moduli, spec.k)
        assert "message_modulus" not in vars(fresh)
        m_k = prod(spec.moduli[1:spec.k], start=spec.moduli[0])
        assert fresh.K == int(m_k.degree) == sum(fresh.degrees[:fresh.k])
        assert fresh.message_modulus == m_k
        assert vars(fresh)["message_modulus"] is fresh.message_modulus


def test_spec_build_leaves_irreducible_unbuilt(request, monkeypatch):
    calls = []
    monkeypatch.setattr(remcode.code, "is_irreducible",
                        lambda m: calls.append(m) or is_irreducible(m))
    flags = set()
    for spec in _test_specs(request):
        calls.clear()
        fresh = CodeSpec(spec.field, spec.moduli, spec.k)
        assert calls == [] and "irreducible" not in vars(fresh)
        flag = fresh.irreducible
        assert flag == all(is_irreducible(m) for m in spec.moduli)
        count = len(calls)
        assert 1 <= count <= fresh.n
        assert fresh.irreducible is flag and vars(fresh)["irreducible"] is flag
        assert len(calls) == count
        flags.add(flag)
    assert flags == {True, False}


@pytest.mark.parametrize("q, m, reduction, degree", [
    (2, 1, None, 4), (3, 1, None, 2), (2, 2, [1, 1, 1], 2), (3, 2, [1, 0, 1], 1)])
def test_irreducible_polys_is_cached(q, m, reduction, degree):
    f = Field(q, m, reduction)
    first = irreducible_polys(f, degree)
    assert irreducible_polys(f, degree) is first
    # equal fields share the cache entry
    assert irreducible_polys(Field(q, m, reduction), degree) is first
