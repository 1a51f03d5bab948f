from __future__ import annotations

import random

import pytest

from remcode.code import Codeword, encode
from remcode.errors import (
    ErasureBudgetExceeded,
    InconsistentResidues,
    InsufficientSupport,
    NonDivisible,
)
from remcode.interpolate import ErasurePattern, interpolate_direct, interpolate_fixed_transform
from remcode.poly import Poly

from conftest import P, random_message, random_spec


def _as_map(word: Codeword) -> dict[int, Poly]:
    return dict(enumerate(word.symbols))


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


def test_inconsistent_residues_detected(rs42):
    gf5 = rs42.field
    cw = encode(rs42, P(gf5, 0, 1))
    bad = list(cw.symbols)
    bad[3] = P(gf5, (bad[3].coeff(0) + 1) % 5)  # break one known symbol
    pattern = ErasurePattern(rs42, frozenset({0, 1, 3}))
    with pytest.raises(InconsistentResidues):
        interpolate_direct(rs42, _as_map(Codeword(rs42, tuple(bad))), pattern)
    with pytest.raises((NonDivisible, InconsistentResidues)):
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
            known_product = Poly.one(spec.field)
            for i in sorted(known):
                known_product = known_product * spec.moduli[i]
            assert pattern.known_product == known_product
            assert pattern.known_product * pattern.erased_product == spec.modulus_product
            assert pattern.erased_weight == sum(
                d for i, d in enumerate(spec.degrees) if i not in known)
