from __future__ import annotations

import itertools
import random

import pytest

from remcode.code import CodeSpec, Codeword, degree_weight, encode, min_degree_distance
from remcode.decoder import DecodeStatus, decode
from remcode.errors import SearchSpaceTooLarge
from remcode.field import Field
from remcode.oracle import CodeScanReport, all_messages, brute_force_decode, exhaustive_scan
from remcode.poly import Poly, irreducible_polys

from conftest import P, random_message, random_spec


def test_codeword_decodes_to_itself(rs42):
    rng = random.Random(31)
    for _ in range(10):
        a = random_message(rng, rs42)
        for metric in ("hamming", "degree"):
            assert brute_force_decode(rs42, encode(rs42, a), metric) == {a}


def test_brute_force_rs42_single_error(rs42):
    gf5 = rs42.field
    y = Codeword(rs42, tuple(Poly.from_int(gf5, v) for v in (1, 2, 0, 4)))
    a = P(gf5, 0, 1)
    assert brute_force_decode(rs42, y, "hamming") == {a}
    assert brute_force_decode(rs42, y, "degree") == {a}


def test_degree_metric_handles_two_light_errors(gf4_mixed):
    """Two errors on the degree-1 symbols stay within the degree radius."""
    rng = random.Random(17)
    gf4 = gf4_mixed.field
    for _ in range(15):
        a = random_message(rng, gf4_mixed)
        i, j = rng.sample(range(3), 2)
        symbols = [Poly.zero(gf4)] * gf4_mixed.n
        symbols[i] = Poly.from_int(gf4, rng.randrange(1, 4))
        symbols[j] = Poly.from_int(gf4, rng.randrange(1, 4))
        e = Codeword(gf4_mixed, tuple(symbols))
        assert degree_weight(e) == 2 <= gf4_mixed.t_degree
        y = encode(gf4_mixed, a) + e
        assert brute_force_decode(gf4_mixed, y, "degree") == {a}


def test_exhaustive_scan_reference_codes(rs42, ladder5, gf4_mixed):
    scan = exhaustive_scan(rs42)
    assert scan == CodeScanReport(3, 3, 25, 25, 2)
    scan = exhaustive_scan(ladder5)
    assert scan.dmin_hamming == 3 == ladder5.n - ladder5.k + 1
    assert scan.dmin_degree == 10
    assert scan.codeword_count == 64
    scan = exhaustive_scan(gf4_mixed)
    assert scan.dmin_hamming == 3
    assert scan.dmin_degree == 5


def test_scan_matches_subset_sum_distance(rs42, three_mod, ladder5, gf4_mixed, reducible_spec):
    for spec in (rs42, three_mod, ladder5, gf4_mixed, reducible_spec):
        scan = exhaustive_scan(spec)
        assert scan.dmin_degree == min_degree_distance(spec)
        assert scan.dmin_degree > spec.N - spec.K
        assert scan.codeword_count == spec.field.q ** spec.K


def test_singleton_degree_bound_is_tight(rs42, three_mod, ladder5, gf4_mixed, reducible_spec):
    for spec in (rs42, three_mod, ladder5, gf4_mixed, reducible_spec):
        assert exhaustive_scan(spec).singleton_degree_rhs == spec.K


def test_singleton_hamming_bound(rs42, three_mod, ladder5, gf4_mixed, reducible_spec):
    for spec in (rs42, three_mod, ladder5, gf4_mixed, reducible_spec):
        scan = exhaustive_scan(spec)
        assert scan.codeword_count <= scan.singleton_hamming_rhs
        if spec.ordered_degree:
            assert scan.codeword_count == scan.singleton_hamming_rhs


def _bound_rhs_by_enumeration(spec, dmin_hamming: int, dmin_degree: int) -> tuple[int, int]:
    """Both bound right-hand sides by scanning all 2^n supports."""
    q = spec.field.q
    size_rhs = weight_rhs = None
    for r in range(spec.n + 1):
        for support in itertools.combinations(range(spec.n), r):
            wd = sum(spec.degrees[i] for i in support)
            if r > spec.n - dmin_hamming and (size_rhs is None or q ** wd < size_rhs):
                size_rhs = q ** wd
            if wd > spec.N - dmin_degree and (weight_rhs is None or wd < weight_rhs):
                weight_rhs = wd
    return size_rhs, weight_rhs


def test_scan_bounds_match_enumeration(gf2, gf4, gf5):
    rng = random.Random(41)
    fields = (gf2, Field(3), gf4, gf5)
    checked = 0
    while checked < 40:
        spec = random_spec(rng, rng.choice(fields), n_range=(2, 6), shuffle=rng.random() < 0.5)
        if spec.field.q ** spec.K > 2000:
            continue
        scan = exhaustive_scan(spec)
        assert scan.dmin_degree == min_degree_distance(spec)
        expect = _bound_rhs_by_enumeration(spec, scan.dmin_hamming, scan.dmin_degree)
        assert (scan.singleton_hamming_rhs, scan.singleton_degree_rhs) == expect
        checked += 1


def test_scan_many_moduli(gf2):
    """All 23 binary irreducibles of degree 1..6 with k = 1: 2 messages, 2^23 supports."""
    moduli = [m for d in range(1, 7) for m in irreducible_polys(gf2, d)]
    spec = CodeSpec(gf2, moduli, 1)
    assert (spec.n, spec.N, spec.K) == (23, 106, 1)
    assert exhaustive_scan(spec) == CodeScanReport(
        dmin_hamming=23, dmin_degree=106, codeword_count=2,
        singleton_hamming_rhs=2, singleton_degree_rhs=1)


def test_search_space_cap(rs42):
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_scan(rs42, cap=10)
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_decode(rs42, rs42.zero_word(), "degree", cap=10)


def test_decode_agrees_with_brute_force_inside_guarantee(three_mod):
    """Exhaustive: whenever the degree weight stays within the radius, the gcd
    decoder and the brute-force degree decoder name the same single message."""
    gf2 = three_mod.field
    for code in range(4):
        a = Poly.from_int(gf2, code)
        c = encode(three_mod, a)
        for vals in itertools.product(range(2), range(2), range(4)):
            e = Codeword(three_mod, tuple(
                Poly.from_int(gf2, v) for v in vals))
            if degree_weight(e) > three_mod.t_degree:
                continue
            y = c + e
            argmin = brute_force_decode(three_mod, y, "degree")
            assert argmin == {a}
            out = decode(three_mod, y)
            assert out.status in (DecodeStatus.SUCCESS, DecodeStatus.NO_ERROR)
            assert out.message == a


def test_all_messages_enumeration(three_mod):
    msgs = list(all_messages(three_mod))
    assert len(msgs) == 4
    assert len(set(msgs)) == 4
    assert all(m.degree < three_mod.K for m in msgs)
