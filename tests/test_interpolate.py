from __future__ import annotations

import random

import pytest

from remcode.code import CodeSpec, Codeword, encode, psi_inverse
from remcode.decoder import error_locator_test
from remcode.errors import (
    ErasureBudgetExceeded,
    InconsistentResidues,
    InfeasibleWeight,
    InsufficientSupport,
)
from remcode.field import Field
from remcode.interpolate import ErasurePattern, interpolate_direct, interpolate_fixed_transform
from remcode.poly import Poly, irreducible_polys

from conftest import P, random_message, random_spec


def _as_map(word: Codeword) -> dict[int, Poly]:
    return dict(enumerate(word.symbols))


def _poly_chain(spec: CodeSpec, positions) -> Poly:
    """The product of the moduli at `positions` by `Poly.__mul__`, left to right."""
    out = Poly.one(spec.field)
    for i in positions:
        out = out * spec.moduli[i]
    return out


def test_full_support_recovers_preimage(rs42):
    a = P(rs42.field, 0, 1)
    cw = encode(rs42, a)
    pattern = ErasurePattern(rs42, frozenset(range(rs42.n)))
    assert pattern.erased_product == Poly.one(rs42.field)
    assert interpolate_direct(rs42, _as_map(cw), pattern) == a
    assert interpolate_fixed_transform(rs42, cw, pattern) == a


def test_direct_rs42_three_points(rs42):
    cw = encode(rs42, P(rs42.field, 0, 1))
    pattern = ErasurePattern(rs42, frozenset({0, 1, 3}))
    assert interpolate_direct(rs42, _as_map(cw), pattern) == P(rs42.field, 0, 1)


def test_direct_three_mod_two_congruences(three_mod):
    gf2 = three_mod.field
    cw = encode(three_mod, P(gf2, 0, 1))
    pattern = ErasurePattern(three_mod, frozenset({0, 2}))
    assert pattern.known_weight == 3 >= three_mod.K
    assert interpolate_direct(three_mod, _as_map(cw), pattern) == P(gf2, 0, 1)


def test_fixed_transform_rs42_erase_one(rs42):
    gf5 = rs42.field
    cw = encode(rs42, P(gf5, 0, 1))
    filled = list(cw.symbols)
    filled[2] = Poly.zero(gf5)
    pattern = ErasurePattern(rs42, frozenset({0, 1, 3}))
    a = interpolate_fixed_transform(rs42, Codeword(rs42, tuple(filled)), pattern)
    assert a == P(gf5, 0, 1)
    assert a == interpolate_direct(rs42, _as_map(cw), pattern)


def test_fixed_transform_three_mod_full_budget(three_mod):
    gf2 = three_mod.field
    cw = encode(three_mod, P(gf2, 0, 1))
    pattern = ErasurePattern(three_mod, frozenset({0, 1}))
    assert pattern.erased_weight == three_mod.N - three_mod.K  # = 2, at the limit
    filled = list(cw.symbols)
    filled[2] = Poly.zero(gf2)
    assert interpolate_fixed_transform(three_mod, tuple(filled), pattern) == P(gf2, 0, 1)
    assert interpolate_direct(three_mod, _as_map(cw), pattern) == P(gf2, 0, 1)


def test_fill_independence(rs42):
    rng = random.Random(7)
    gf5 = rs42.field
    cw = encode(rs42, P(gf5, 3, 2))
    pattern = ErasurePattern(rs42, frozenset({1, 2, 3}))
    results = set()
    for _ in range(10):
        filled = list(cw.symbols)
        filled[0] = Poly.from_int(gf5, rng.randrange(5))
        results.add(interpolate_fixed_transform(rs42, tuple(filled), pattern))
    assert results == {P(gf5, 3, 2)}


def test_methods_agree_on_random_codes(gf2, gf4, gf5, gf16):
    rng = random.Random(55)
    for field in (gf2, gf4, gf5, gf16):
        for _ in range(15):
            spec = random_spec(rng, field)
            a = random_message(rng, spec)
            cw = encode(spec, a)
            budget = spec.N - spec.K
            known = set(range(spec.n))
            order = list(range(spec.n))
            rng.shuffle(order)
            erased_weight = 0
            for i in order:
                if erased_weight + spec.degrees[i] <= budget and rng.random() < 0.7:
                    known.discard(i)
                    erased_weight += spec.degrees[i]
            pattern = ErasurePattern(spec, frozenset(known))
            direct = interpolate_direct(spec, _as_map(cw), pattern)
            filled = [
                s if i in known else Poly.from_int(field, rng.randrange(field.q ** spec.degrees[i]))
                for i, s in enumerate(cw.symbols)
            ]
            fixed = interpolate_fixed_transform(spec, tuple(filled), pattern)
            assert direct == fixed == a


def test_insufficient_support_rejected(rs42):
    cw = encode(rs42, P(rs42.field, 0, 1))
    pattern = ErasurePattern(rs42, frozenset({0}))
    with pytest.raises(InsufficientSupport):
        interpolate_direct(rs42, _as_map(cw), pattern)
    with pytest.raises(ErasureBudgetExceeded):
        interpolate_fixed_transform(rs42, cw, pattern)
    with pytest.raises(InsufficientSupport):
        ErasurePattern(rs42, frozenset())


class Index:
    """An integer that is not an int, as `operator.index` admits."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


def test_positions_are_checked_as_integers(rs42):
    """A position is an integer below n.  1.5 used to be kept in the known
    set, so positions 2 and 3 were erased; 1.0 in `error_locator_test` raised
    a raw `TypeError` from a tuple index; and an erasure pattern's position
    out of range raised `ValueError`, where `check_positions` raises
    `InfeasibleWeight`, as it does for a repeated position."""
    y = psi_inverse(rs42, encode(rs42, P(rs42.field, 0, 1)))
    for bad in (1.5, 1.0, "1", None):
        with pytest.raises(TypeError, match="integer"):
            ErasurePattern(rs42, [0, 1, bad])
        with pytest.raises(TypeError, match="interpreted as an integer"):
            error_locator_test(rs42, y, [bad])
        with pytest.raises(TypeError, match="integer"):
            rs42.check_positions([0, bad])
    for bad in (-1, 4, 1, Index(1)):
        with pytest.raises(InfeasibleWeight):
            ErasurePattern(rs42, [0, 1, bad])
    pattern = ErasurePattern(rs42, [Index(0), 1, 3])
    assert pattern.known == {0, 1, 3} and pattern.erased_weight == 1
    assert all(type(i) is int for i in pattern.known)
    assert rs42.check_positions((Index(2), True)) == (2, 1)
    assert error_locator_test(rs42, y, [Index(2)]) == error_locator_test(rs42, y, [2])


def test_inconsistent_residues_detected(rs42):
    gf5 = rs42.field
    cw = encode(rs42, P(gf5, 0, 1))
    bad = list(cw.symbols)
    bad[3] = P(gf5, (bad[3].coeff(0) + 1) % 5)  # break one known symbol
    pattern = ErasurePattern(rs42, frozenset({0, 1, 3}))
    with pytest.raises(InconsistentResidues):
        interpolate_direct(rs42, _as_map(Codeword(rs42, tuple(bad))), pattern)
    # E divides E * Y mod M_n for every Y, so the fixed transform cannot
    # raise NonDivisible here: the broken symbol shows in the quotient
    with pytest.raises(InconsistentResidues):
        interpolate_fixed_transform(rs42, tuple(bad), pattern)


def test_reduced_product_is_multiple_on_consistent_input(ladder5):
    # the divisibility inside the fixed transform never fails for true codewords
    rng = random.Random(19)
    for _ in range(30):
        a = random_message(rng, ladder5)
        cw = encode(ladder5, a)
        pattern = ErasurePattern(ladder5, frozenset({0, 1, 2, 4}))  # erase degree 4 <= N-K
        filled = list(cw.symbols)
        filled[3] = Poly.from_int(ladder5.field, rng.randrange(2 ** 4))
        assert interpolate_fixed_transform(ladder5, tuple(filled), pattern) == a


def test_pattern_products_split_modulus_product(ladder5, gf4_mixed):
    rng = random.Random(23)
    for spec in (ladder5, gf4_mixed):
        for _ in range(20):
            known = frozenset(rng.sample(range(spec.n), rng.randint(1, spec.n)))
            pattern = ErasurePattern(spec, known)
            assert pattern.known_product == _poly_chain(spec, sorted(known))
            assert pattern.known_product * pattern.erased_product == spec.modulus_product
            assert pattern.erased_weight == sum(
                d for i, d in enumerate(spec.degrees) if i not in known)


def test_fixed_transform_divides_once_by_the_erased_product(monkeypatch, gf2, gf5, gf16):
    """The transform reduces E * psi^-1(y) mod M_n by the spec's reduction
    rows (`CodeSpec._reduce`), so its one division is the exact one by the
    erased product E: one call of the kernel's `exact_quotient`, with E's
    own packed value as the divisor, and no `Poly` division; the erased
    positions are filled so that the product reaches degree N and over."""
    gf9 = Field(3, 2, [1, 0, 1])
    divisors, polys = [], []
    divide = Poly.__divmod__
    monkeypatch.setattr(Poly, "__divmod__", lambda a, b: polys.append(b) or divide(a, b))
    rng = random.Random(29)
    for field in (gf2, gf5, gf16, gf9):
        quotient = field.kernel.exact_quotient
        monkeypatch.setattr(field.kernel, "exact_quotient",
                            lambda x, y, quotient=quotient: divisors.append(y) or quotient(x, y))
        for _ in range(10):
            spec = random_spec(rng, field, (3, 6))
            a = random_message(rng, spec)
            symbols = list(encode(spec, a).symbols)
            erased, weight = [], 0
            for i in rng.sample(range(spec.n), spec.n):
                if weight + spec.degrees[i] <= spec.N - spec.K:
                    erased.append(i)
                    weight += spec.degrees[i]
            for i in erased:
                symbols[i] = Poly.from_int(field, rng.randrange(1, field.q ** spec.degrees[i]))
            pattern = ErasurePattern(spec, set(range(spec.n)) - set(erased))
            divisors.clear()
            polys.clear()
            assert interpolate_fixed_transform(spec, symbols, pattern) == a
            assert len(divisors) == 1 and divisors[0] is pattern.erased_product.packed
            assert polys == []


def _moduli_by_degree(f: Field, degrees: tuple[int, ...]) -> list[Poly]:
    """For each degree d, the first degrees.count(d) irreducibles in the
    sieve's order; `degrees` nondecreasing."""
    return [m for d in sorted(set(degrees)) for m in irreducible_polys(f, d)[:degrees.count(d)]]


# the benchmark's three spec shapes: RS(255,223) over GF(2^8), GF(2) moduli
# of degrees 1 to 7, and GF(9) moduli of degrees 1 to 3
WORKLOAD_SPECS = {
    "GF(2^8) linear": lambda: CodeSpec(
        (f := Field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1])), irreducible_polys(f, 1)[:255], 223),
    "GF(2) ladder": lambda: CodeSpec((f := Field(2)), _moduli_by_degree(
        f, (1, 1, 2, 3, 3, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7)), 8),
    "GF(9) degrees 1-3": lambda: CodeSpec(
        (f := Field(3, 2, [1, 0, 1])), _moduli_by_degree(f, (1,) * 9 + (2,) * 36 + (3,) * 20), 40),
}


@pytest.mark.parametrize("name", list(WORKLOAD_SPECS))
def test_fixed_transform_division_is_exact_on_random_rows(name):
    """E divides M_n, so E * Y mod M_n = E * (Y mod M_S), M_S = M_n / E:
    on random rows (every row is a residue vector) and random known sets
    within the erasure budget, the reduced product leaves no remainder by
    E, and the kernel's `exact_quotient` is Y mod M_S.  So the transform
    raises `InconsistentResidues` exactly when deg(Y mod M_S) >= K, and
    never `NonDivisible`; on codewords with junk at the erased positions it
    returns the message."""
    spec = WORKLOAD_SPECS[name]()
    f, kernel = spec.field, spec.field.kernel
    rng = random.Random(37)
    raised = 0
    for trial in range(16):
        budget = rng.randint(0, spec.N - spec.K)
        erased, weight = [], 0
        for i in rng.sample(range(spec.n), spec.n):
            if weight + spec.degrees[i] <= budget and len(erased) < spec.n - 1:
                erased.append(i)
                weight += spec.degrees[i]
        pattern = ErasurePattern(spec, set(range(spec.n)) - set(erased))
        if trial % 2:
            message = random_message(rng, spec)
            symbols = list(encode(spec, message).symbols)
            for i in erased:
                symbols[i] = Poly.from_int(f, rng.randrange(f.q ** spec.degrees[i]))
        else:
            message = None
            symbols = [Poly.from_int(f, rng.randrange(f.q ** d)) for d in spec.degrees]
        y = psi_inverse(spec, symbols)
        e = pattern.erased_product
        z = spec._reduce(e * y)
        expected = y % pattern.known_product
        assert divmod(z, e) == (expected, Poly.zero(f))
        assert kernel.from_packed(kernel.exact_quotient(z.packed, e.packed)) == expected.coeffs
        if expected.degree < spec.K:
            assert interpolate_fixed_transform(spec, symbols, pattern) == expected
            assert message is None or expected == message
        else:
            assert message is None
            with pytest.raises(InconsistentResidues):
                interpolate_fixed_transform(spec, symbols, pattern)
            raised += 1
    assert raised


def _gf9_spec() -> CodeSpec:
    """A GF(9) code with 3 linear, 4 quadratic and 3 cubic moduli."""
    f = Field(3, 2, [1, 0, 1])
    moduli = [m for d, count in ((1, 3), (2, 4), (3, 3)) for m in irreducible_polys(f, d)[:count]]
    return CodeSpec(f, moduli, 4)


def test_erasure_pattern_multiplies_no_polynomial(monkeypatch):
    """Over GF(9) `CodeSpec.product` multiplies the moduli on digit planes,
    so building an `ErasurePattern` makes no `Poly.__mul__` call and no call
    of the kernel's `poly_mul` or `mul`; E still equals the `Poly` chain.
    Over GF(2), GF(2^8) and GF(2^16), whose kernels multiply by the chain,
    `spec.product` equals it too."""
    rng = random.Random(31)
    gf256 = Field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1])
    gf65536 = Field(2, 16, [1, 1, 0, 1] + [0] * 8 + [1, 0, 0, 0, 1])
    specs = [_gf9_spec(), random_spec(rng, Field(2), (4, 7)),
             CodeSpec(gf256, [Poly(gf256, [b, 1]) for b in range(12)], 6),
             CodeSpec(gf65536, [Poly(gf65536, [b, 1]) for b in range(0, 12 * 4099, 4099)], 6)]
    gf9 = specs[0]
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append("Poly") or mul(a, b))
    for name in ("poly_mul", "mul"):
        method = getattr(gf9.field.kernel, name)
        monkeypatch.setattr(gf9.field.kernel, name,
                            lambda *a, method=method, name=name: calls.append(name) or method(*a))
    for _ in range(20):
        known = frozenset(rng.sample(range(gf9.n), rng.randint(1, gf9.n)))
        pattern = ErasurePattern(gf9, known)
        assert calls == []
        erased = sorted(set(range(gf9.n)) - known)
        assert pattern.erased_product == _poly_chain(gf9, erased)
        calls.clear()
    for spec in specs:
        for _ in range(10):
            positions = [rng.randrange(spec.n) for _ in range(rng.randint(0, spec.n))]
            assert spec.product(positions) == _poly_chain(spec, positions)
        assert spec.modulus_product == _poly_chain(spec, range(spec.n))
        assert spec.message_modulus == _poly_chain(spec, range(spec.k))
