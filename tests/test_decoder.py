from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import remcode.code
import remcode.decoder as decoder
from remcode.code import CodeSpec, Codeword, degree_weight, encode, psi_inverse
from remcode.decoder import (
    Algorithm,
    DecodeOptions,
    DecodeStatus,
    FailureReason,
    Recovery,
    Stopping,
    build_candidate_list,
    count_zero_residues,
    decode,
    error_factor_poly,
    error_factor_test,
    error_locator_poly,
    error_locator_test,
    extended_gcd,
    factor_interpolate,
    list_decode,
    partial_gcd_full,
    partial_gcd_upper,
    upper_parts,
    _locator_conditions,
    _locator_degree_cap,
    _locator_scan,
)
from remcode.errors import (
    CandidateExplosion,
    DegreePreconditionViolated,
    MessageDegreeOverflow,
    NonDivisible,
    SpecMismatch,
    UnorderedDegrees,
    ZeroG,
)
from remcode.field import Field
from remcode.poly import Poly, irreducible_polys, poly_gcd, poly_mod_inverse

from conftest import DEGREE10_MODULI, GF256_REDUCTION, P, random_message, random_preimage
from test_kernels import coprime_specs

ALL_OPTIONS = [
    DecodeOptions(a, s, r)
    for a in Algorithm for s in Stopping for r in Recovery
    if not (r is Recovery.RATIO and a is not Algorithm.FULL)
]


def _random_error(rng: random.Random, spec, max_degree_weight: int) -> Codeword:
    """Random error word with degree weight at most the bound."""
    symbols = [Poly.zero(spec.field)] * spec.n
    budget = max_degree_weight
    order = list(range(spec.n))
    rng.shuffle(order)
    for i in order:
        if spec.degrees[i] <= budget and rng.random() < 0.6:
            symbols[i] = Poly.from_int(
                spec.field, rng.randrange(1, spec.field.q ** spec.degrees[i]))
            budget -= spec.degrees[i]
    return Codeword(spec, tuple(symbols))


# -- extended gcd ---------------------------------------------------------------


def test_extended_gcd_zero_error(three_mod):
    mn = three_mod.modulus_product
    res = extended_gcd(mn, Poly.zero(three_mod.field))
    assert res.r_tilde == mn
    assert res.s == Poly.zero(three_mod.field)
    assert res.t == Poly.one(three_mod.field)
    assert res.iterations == 0


def test_extended_gcd_frozen_binary_example(gf2):
    res = extended_gcd(P(gf2, 0, 1, 0, 0, 1), P(gf2, 0, 0, 1, 1))
    assert res.r_tilde == P(gf2, 0, 1, 1)      # gcd(x^4+x, x^3+x^2) = x^2+x
    assert res.t == P(gf2, 1, 1, 1)            # (x^4+x) / (x^2+x)


def test_extended_gcd_output_contract(rs42, ladder5, reducible_spec):
    rng = random.Random(101)
    for spec in (rs42, ladder5, reducible_spec):
        mn = spec.modulus_product
        for _ in range(40):
            e = _random_error(rng, spec, spec.N)
            big_e = psi_inverse(spec, e)
            res = extended_gcd(mn, big_e)
            assert (res.s * mn + res.t * big_e).is_zero
            assert res.t.monic() == error_factor_poly(big_e, mn)
            if not big_e.is_zero:
                assert mn.degree == res.r_tilde.degree + res.t.degree


def test_extended_gcd_degree_precondition(gf2):
    with pytest.raises(DegreePreconditionViolated):
        extended_gcd(P(gf2, 1, 1), P(gf2, 1, 1, 1))


# -- partial runs -------------------------------------------------------------------


def test_partial_full_early_exit(three_mod):
    gf2 = three_mod.field
    y = P(gf2, 1, 1)  # degree 1 < K = 2
    res = partial_gcd_full(three_mod.modulus_product, y, three_mod.K)
    assert res.r == y
    assert res.s == Poly.zero(gf2)
    assert res.t == Poly.one(gf2)
    assert res.iterations == 0


def test_partial_full_rs42_single_error(rs42):
    gf5 = rs42.field
    a = P(gf5, 0, 1)
    y = list(encode(rs42, a).symbols)
    y[2] = P(gf5, (y[2].coeff(0) + 2) % 5)
    big_y = psi_inverse(rs42, Codeword(rs42, tuple(y)))
    res = partial_gcd_full(rs42.modulus_product, big_y, rs42.K)
    assert res.t.monic() == P(gf5, 2, 1)  # x - 3
    assert res.r == res.t * a


def test_cofactor_tracking_can_be_skipped(rs42):
    gf5 = rs42.field
    a = P(gf5, 0, 1)
    y = list(encode(rs42, a).symbols)
    y[2] = Poly.zero(gf5)
    big_y = psi_inverse(rs42, Codeword(rs42, tuple(y)))
    lean = partial_gcd_full(rs42.modulus_product, big_y, rs42.K, track_s=False)
    full = partial_gcd_full(rs42.modulus_product, big_y, rs42.K)
    assert lean.s is None
    assert lean.t == full.t and lean.r == full.r
    assert lean.iterations == full.iterations


def test_partial_upper_zero_window(rs42):
    m_upper, e_upper = upper_parts(rs42, P(rs42.field, 3, 1))
    assert e_upper.is_zero
    res = partial_gcd_upper(m_upper, e_upper, rs42.N, rs42.K)
    assert res.s == Poly.zero(rs42.field) and res.t == Poly.one(rs42.field)
    assert res.iterations == 0


def test_upper_parts_frozen(rs42, three_mod):
    m_upper, _ = upper_parts(rs42, Poly.zero(rs42.field))
    assert m_upper == P(rs42.field, 0, 0, 1)      # x^2 from x^4 - 1, K = 2
    m_upper2, _ = upper_parts(three_mod, Poly.zero(three_mod.field))
    assert m_upper2 == P(three_mod.field, 0, 0, 1)  # x^2 from x^4 + x, K = 2
    rng = random.Random(3)
    for _ in range(30):
        y = Poly.from_int(rs42.field, rng.randrange(5 ** 4))
        _, e_upper = upper_parts(rs42, y)
        assert e_upper.coeffs == tuple(y.coeffs[rs42.K:])


def test_partial_runs_match_reference(rs42, ladder5, gf4_mixed, reducible_spec):
    """Within budget, both partial runs reproduce the reference s, t and
    iteration count exactly, under both stopping rules."""
    rng = random.Random(303)
    checked = 0
    while checked < 120:
        spec = rng.choice((rs42, ladder5, gf4_mixed, reducible_spec))
        e = _random_error(rng, spec, spec.N)
        big_e = psi_inverse(spec, e)
        factor = error_factor_poly(big_e, spec.modulus_product)
        if 2 * factor.degree > spec.N - spec.K:
            continue
        checked += 1
        a = random_message(rng, spec)
        big_y = (big_e + a) % spec.modulus_product
        ref = extended_gcd(spec.modulus_product, big_e)
        m_upper, e_upper = upper_parts(spec, big_y)
        for stop in Stopping:
            full = partial_gcd_full(spec.modulus_product, big_y, spec.K, stop)
            upper = partial_gcd_upper(m_upper, e_upper, spec.N, spec.K, stop)
            assert full.s == ref.s and full.t == ref.t
            assert upper.s == ref.s and upper.t == ref.t
            assert full.iterations == ref.iterations == upper.iterations
            assert full.r == full.t * a


def test_stopping_rules_agree(rs42, ladder5):
    rng = random.Random(404)
    for _ in range(100):
        spec = rng.choice((rs42, ladder5))
        e = _random_error(rng, spec, spec.t_degree)
        big_y = (psi_inverse(spec, e) + random_message(rng, spec)) % spec.modulus_product
        if big_y.degree < spec.K:
            continue
        runs = [partial_gcd_full(spec.modulus_product, big_y, spec.K, stop)
                for stop in Stopping]
        assert runs[0].s == runs[1].s and runs[0].t == runs[1].t
        assert runs[0].iterations == runs[1].iterations


# -- factor / locator polynomials -------------------------------------------------------


def test_error_factor_poly_zero(rs42):
    assert error_factor_poly(Poly.zero(rs42.field), rs42.modulus_product) == Poly.one(rs42.field)


def test_factor_equals_locator_for_irreducible_moduli(rs42, ladder5, gf4_mixed):
    rng = random.Random(505)
    for spec in (rs42, ladder5, gf4_mixed):
        assert spec.irreducible
        for _ in range(40):
            e = _random_error(rng, spec, spec.N)
            factor = error_factor_poly(psi_inverse(spec, e), spec.modulus_product)
            assert factor == error_locator_poly(spec, e)


def test_spec_with_a_degree_10_modulus_builds_and_decodes(monkeypatch):
    """Neither the spec build nor decoding tests irreducibility: a GF(2^8)
    spec whose last modulus has two quintic factors and no root builds with
    `is_irreducible` refused, and every option corrects one symbol error."""
    def refuse(m):
        raise AssertionError(f"is_irreducible({m}) called")

    monkeypatch.setattr(remcode.code, "is_irreducible", refuse)
    f = Field(2, 8, GF256_REDUCTION)
    spec = CodeSpec(f, [Poly(f, c) for c in DEGREE10_MODULI], 2)
    assert (spec.N, spec.K, spec.t_degree) == (14, 2, 6)
    message = P(f, 7, 200)
    error = Codeword(spec, [P(f, 9) if i == 1 else Poly.zero(f) for i in range(spec.n)])
    received = encode(spec, message) + error
    for options in ALL_OPTIONS:
        out = decode(spec, received, options)
        assert out.status is DecodeStatus.SUCCESS
        assert out.message == message and out.error_word == error
    monkeypatch.undo()
    assert spec.irreducible is False


def test_reducible_moduli_factor_below_locator(reducible_spec):
    gf2 = reducible_spec.field
    zero = Poly.zero(gf2)
    e = Codeword(reducible_spec, (P(gf2, 0, 1), zero, zero))
    big_e = psi_inverse(reducible_spec, e)
    assert big_e == P(gf2, 0, 1, 0, 0, 1)  # x^4 + x
    factor = error_factor_poly(big_e, reducible_spec.modulus_product)
    locator = error_locator_poly(reducible_spec, e)
    assert factor == P(gf2, 0, 1)       # x
    assert locator == P(gf2, 0, 0, 1)   # x^2
    assert locator.degree == degree_weight(e)
    assert (locator % factor).is_zero


def test_error_locator_examples(ladder5):
    zero_word = ladder5.zero_word()
    assert error_locator_poly(ladder5, zero_word) == Poly.one(ladder5.field)
    e = list(zero_word.symbols)
    e[4] = Poly.one(ladder5.field)
    locator = error_locator_poly(ladder5, Codeword(ladder5, tuple(e)))
    assert locator == ladder5.moduli[4]
    assert locator.degree == 5


# -- factor-based interpolation and the tests -----------------------------------------------


def test_factor_interpolate_trivial(rs42):
    a = P(rs42.field, 3, 2)
    assert factor_interpolate(rs42, a, Poly.one(rs42.field)) == a


def test_factor_interpolate_rs42(rs42):
    gf5 = rs42.field
    a = P(gf5, 0, 1)
    y = list(encode(rs42, a).symbols)
    y[2] = Poly.zero(gf5)
    big_y = psi_inverse(rs42, Codeword(rs42, tuple(y)))
    assert factor_interpolate(rs42, big_y, P(gf5, 2, 1)) == a


def test_factor_interpolate_beyond_weight_budget(reducible_spec):
    """An error whose degree weight exceeds N-K can still be inverted when
    its factor polynomial stays within N-K (reducible moduli only)."""
    gf2 = reducible_spec.field
    spec = reducible_spec
    e = Codeword(spec, (P(gf2, 0, 1), Poly.zero(gf2), Poly.one(gf2)))
    big_e = psi_inverse(spec, e)
    factor = error_factor_poly(big_e, spec.modulus_product)
    assert degree_weight(e) == 4 > spec.N - spec.K == 3
    assert factor == P(gf2, 0, 1, 1, 1) and factor.degree == 3  # x^3+x^2+x
    for code in range(4):
        a = Poly.from_int(gf2, code)
        y = encode(spec, a) + e
        big_y = psi_inverse(spec, y)
        assert factor_interpolate(spec, big_y, factor) == a
        assert decode(spec, y).status is DecodeStatus.FAILURE  # beyond gcd budget


def test_factor_interpolate_broken_promise(rs42):
    gf5 = rs42.field
    a = P(gf5, 0, 1)
    y = list(encode(rs42, a).symbols)
    y[2] = Poly.zero(gf5)
    big_y = psi_inverse(rs42, Codeword(rs42, tuple(y)))
    with pytest.raises((NonDivisible, MessageDegreeOverflow)):
        factor_interpolate(rs42, big_y, P(gf5, 4, 1))  # x - 1: wrong support
    with pytest.raises(ZeroG):
        factor_interpolate(rs42, big_y, Poly.zero(gf5))
    with pytest.raises(DegreePreconditionViolated):
        factor_interpolate(rs42, big_y, rs42.modulus_product)


def test_error_factor_test(rs42):
    gf5 = rs42.field
    a = P(gf5, 0, 1)
    y = list(encode(rs42, a).symbols)
    y[2] = Poly.zero(gf5)
    big_y = psi_inverse(rs42, Codeword(rs42, tuple(y)))
    verdict, z = error_factor_test(rs42, big_y, P(gf5, 2, 1))
    assert verdict and z == P(gf5, 2, 1) * a
    assert not error_factor_test(rs42, big_y, rs42.modulus_product)[0]  # degree too big
    assert not error_factor_test(rs42, big_y, P(gf5, 4, 1))[0]          # wrong support
    with pytest.raises(ZeroG):
        error_factor_test(rs42, big_y, Poly.zero(gf5))


def test_error_locator_test(ladder5, rs42, reducible_spec):
    gf2 = ladder5.field
    rng = random.Random(606)
    for _ in range(20):
        a = random_message(rng, ladder5)
        c = encode(ladder5, a)
        e = list(ladder5.zero_word().symbols)
        e[4] = Poly.from_int(gf2, rng.randrange(1, 32))
        y = c + Codeword(ladder5, tuple(e))
        big_y = psi_inverse(ladder5, y)
        verdict, z = error_locator_test(ladder5, big_y, {4})
        assert verdict
        assert z == ladder5.moduli[4] * a
    # two positions exceed t_hamming = 1 on the equal-degree rs42 code
    a = P(rs42.field, 0, 1)
    y = list(encode(rs42, a).symbols)
    y[2] = Poly.zero(rs42.field)
    big_y = psi_inverse(rs42, Codeword(rs42, tuple(y)))
    assert not error_locator_test(rs42, big_y, {0, 1})[0]
    assert count_zero_residues(rs42, rs42.moduli[0] * rs42.moduli[1]) == 2
    with pytest.raises(UnorderedDegrees):
        error_locator_test(reducible_spec, big_y, {0})


# -- decode ------------------------------------------------------------------------


def test_decode_clean_word_reports_no_error(rs42):
    rng = random.Random(707)
    for _ in range(20):
        a = random_message(rng, rs42)
        out = decode(rs42, encode(rs42, a))
        assert out.status is DecodeStatus.NO_ERROR
        assert out.message == a
        assert all(s.is_zero for s in out.error_word.symbols)
        assert out.factor_poly == Poly.one(rs42.field)


def test_decode_rs42_single_error_all_options(rs42):
    gf5 = rs42.field
    a = P(gf5, 0, 1)
    y = list(encode(rs42, a).symbols)
    y[2] = Poly.zero(gf5)  # 3 + 2 = 0 (mod 5)
    word = Codeword(rs42, tuple(y))
    for options in ALL_OPTIONS:
        out = decode(rs42, word, options)
        assert out.status is DecodeStatus.SUCCESS
        assert out.message == a
        assert out.factor_poly == P(gf5, 2, 1)
        assert out.error_word.symbols[2] == P(gf5, 2)
        assert sum(1 for s in out.error_word.symbols if not s.is_zero) == 1


def test_decode_success_reconstructs_received(rs42, ladder5):
    rng = random.Random(808)
    for spec in (rs42, ladder5):
        for _ in range(30):
            a = random_message(rng, spec)
            e = _random_error(rng, spec, spec.t_degree)
            y = encode(spec, a) + e
            out = decode(spec, y, rng.choice(ALL_OPTIONS))
            assert out.status in (DecodeStatus.SUCCESS, DecodeStatus.NO_ERROR)
            assert out.message == a
            assert encode(spec, out.message) + out.error_word == y
            assert out.error_word == e


def test_decode_deep_words_fail(rs42):
    """Every word at Hamming distance >= 2 from all codewords is rejected."""
    from remcode.oracle import all_messages
    from remcode.code import distances
    codewords = [encode(rs42, a) for a in all_messages(rs42)]
    deep = []
    for vals in itertools.product(range(5), repeat=4):
        y = Codeword(rs42, tuple(Poly.from_int(rs42.field, v) for v in vals))
        if min(distances(y, c)[0] for c in codewords) >= 2:
            deep.append(y)
    assert len(deep) == 200
    for y in deep[::7]:  # sampled here; the acceptance suite covers the claim
        for options in ALL_OPTIONS:
            assert decode(rs42, y, options).status is DecodeStatus.FAILURE


def test_decode_failure_reason_exposed(rs42):
    y = Codeword(rs42, tuple(Poly.from_int(rs42.field, v) for v in (1, 2, 0, 0)))
    out = decode(rs42, y)
    if out.status is DecodeStatus.FAILURE:
        assert out.failure_reason in set(FailureReason)


def test_decode_options_validation():
    with pytest.raises(ValueError):
        DecodeOptions(Algorithm.UPPER, Stopping.RELATIVE, Recovery.RATIO)


def test_decode_never_raises_on_valid_words(rs42, three_mod, reducible_spec):
    rng = random.Random(909)
    for spec in (rs42, three_mod, reducible_spec):
        for _ in range(200):
            symbols = tuple(
                Poly.from_int(spec.field, rng.randrange(spec.field.q ** d))
                for d in spec.degrees)
            out = decode(spec, Codeword(spec, symbols), rng.choice(ALL_OPTIONS))
            assert out.status in set(DecodeStatus)
            if out.status is not DecodeStatus.FAILURE:
                rebuilt = encode(spec, out.message) + out.error_word
                assert rebuilt.symbols == symbols


# -- list decoding -----------------------------------------------------------------------


def test_candidate_lists(ladder5, gf4_mixed, rs42, gf5):
    from remcode.code import CodeSpec

    assert build_candidate_list(ladder5) == [ladder5.moduli[4]]
    assert build_candidate_list(gf4_mixed) == []
    full = CodeSpec(gf5, list(rs42.moduli), 4)  # k = n means t_hamming = 0
    assert build_candidate_list(full) == []
    with pytest.raises(CandidateExplosion):
        build_candidate_list(ladder5, cap=3)


def test_list_decode_matches_decode_within_budget(ladder5):
    rng = random.Random(111)
    cands = build_candidate_list(ladder5)
    for _ in range(30):
        a = random_message(rng, ladder5)
        e = _random_error(rng, ladder5, ladder5.t_degree)
        y = encode(ladder5, a) + e
        assert list_decode(ladder5, y, cands) == decode(ladder5, y)


def test_list_decode_recovers_heavy_tail_symbol(ladder5):
    rng = random.Random(222)
    gf2 = ladder5.field
    cands = build_candidate_list(ladder5)
    for _ in range(40):
        a = random_message(rng, ladder5)
        e = list(ladder5.zero_word().symbols)
        e[4] = Poly.from_int(gf2, rng.randrange(1, 32))
        y = encode(ladder5, a) + Codeword(ladder5, tuple(e))
        assert decode(ladder5, y).status is DecodeStatus.FAILURE
        out = list_decode(ladder5, y, cands)
        assert out.status is DecodeStatus.SUCCESS
        assert out.message == a
        assert out.factor_poly == ladder5.moduli[4]


def test_list_decode_empty_candidates_keeps_failure(ladder5):
    gf2 = ladder5.field
    e = list(ladder5.zero_word().symbols)
    e[4] = Poly.one(gf2)
    y = encode(ladder5, P(gf2, 1, 1)) + Codeword(ladder5, tuple(e))
    out = list_decode(ladder5, y, [])
    assert out.status is DecodeStatus.FAILURE


def test_list_decode_requires_ordered_degrees(reducible_spec):
    with pytest.raises(UnorderedDegrees):
        list_decode(reducible_spec, reducible_spec.zero_word(), [])


# -- list decoding: the row-map scan and the gcd outcome handed over ------------------


def _first_hit_by_reference(spec, y: Poly, candidates) -> tuple[Poly, Poly] | None:
    """The first (g, Z / g) whose `_locator_conditions` verdict is true, or None."""
    for g in candidates:
        verdict, z = _locator_conditions(spec, y, g)
        if verdict:
            return g, z // g
    return None


def _planted_preimage(rng: random.Random, spec, g0: Poly) -> Poly:
    """Y with g0 * Y = Z0 mod M_n for a chosen Z0, g0 a unit mod M_n.

    Z0 is g0 times a message (a hit), g0 times a polynomial of degree
    exactly K (deg Z = K + deg g0, the degree test's bound), or a random
    polynomial below that bound, which g0 rarely divides."""
    f, K = spec.field, spec.K
    kind = rng.randrange(3)
    if kind == 0:
        z0 = g0 * random_message(rng, spec)
    elif kind == 1:
        z0 = g0 * (random_message(rng, spec) + Poly.monomial(f, rng.randrange(1, f.q), K))
    else:
        z0 = Poly.from_int(f, rng.randrange(f.q ** (K + int(g0.degree))))
    return (z0 * poly_mod_inverse(g0, spec.modulus_product)) % spec.modulus_product


def _scan_probes(rng: random.Random, spec, count: int):
    """(Y, candidates) pairs for the scan-against-reference tests.

    Y is a codeword plus an error on a random support, a random preimage,
    or planted for one candidate g0 (`_planted_preimage`).  The candidates,
    shuffled, are the zero polynomial, constants, polynomials of degree up
    to N + 1 (so also above the locator degree cap), products of the moduli
    on random supports and on the error's support, g0, and part of
    `build_candidate_list`."""
    f, m = spec.field, spec.modulus_product
    cap = _locator_degree_cap(spec)
    listed = build_candidate_list(spec)
    for _ in range(count):
        support = [i for i in range(spec.n) if rng.random() < 0.3]
        candidates = [Poly.zero(f), Poly.from_int(f, rng.randrange(1, f.q)),
                      spec.product(support)]
        candidates += [Poly.from_int(f, rng.randrange(1, f.q ** rng.randrange(1, spec.N + 2)))
                       for _ in range(4)]
        candidates += [spec.product(i for i in range(spec.n) if rng.random() < 0.3)
                       for _ in range(3)]
        candidates += rng.sample(listed, min(len(listed), 6))
        kind = rng.randrange(3)
        if kind == 0:
            error = [Poly.zero(f)] * spec.n
            for i in support:
                error[i] = Poly.from_int(f, rng.randrange(1, f.q ** spec.degrees[i]))
            y = psi_inverse(spec, encode(spec, random_message(rng, spec))
                            + Codeword(spec, tuple(error)))
        elif kind == 1:
            y = random_preimage(rng, spec)
        else:
            g0 = Poly.from_int(f, rng.randrange(1, f.q ** (cap + 1)))
            while poly_gcd(g0, m).degree:
                g0 = Poly.from_int(f, rng.randrange(1, f.q ** (cap + 1)))
            y = _planted_preimage(rng, spec, g0)
            candidates.append(g0)
        rng.shuffle(candidates)
        yield y, candidates


def _gf9_spec() -> CodeSpec:
    """GF(9) code with 6 linear and 3 quadratic moduli, k = 4."""
    gf9 = Field(3, 2, [1, 0, 1])
    quads = list(itertools.islice(irreducible_polys(gf9, 2), 3))
    return CodeSpec(gf9, [P(gf9, b, 1) for b in range(6)] + quads, 4)


def test_locator_scan_matches_the_reference_on_fixed_specs(ladder5, gf4_mixed):
    """The row scan's first hit (g, Z), or its miss, equals a loop of
    `_locator_conditions`; the probes reach hits, misses, candidates with
    deg Z = K + deg g that g divides, and candidates that pass the degree
    test but do not divide Z."""
    rng = random.Random(12)
    seen = set()
    for spec in (ladder5, gf4_mixed, _gf9_spec()):
        m = spec.modulus_product
        for y, candidates in _scan_probes(rng, spec, 60):
            expected = _first_hit_by_reference(spec, y, candidates)
            assert _locator_scan(spec, y, candidates) == expected
            seen.add(expected is not None)
            for g in candidates:
                if g:
                    z = (g * y) % m
                    if z.degree == spec.K + g.degree and (z % g).is_zero:
                        seen.add("boundary")
                    if z.degree < spec.K + g.degree and not (z % g).is_zero:
                        seen.add("non-divisor")
    assert seen == {True, False, "boundary", "non-divisor"}


@settings(max_examples=30, deadline=None)
@given(spec=st.one_of(coprime_specs(Field(2), 4, (3, 8), ordered=True),
                      coprime_specs(Field(3), 3, (3, 7), ordered=True),
                      coprime_specs(Field(3, 2, [1, 0, 1]), 2, (3, 6), ordered=True)),
       seed=st.integers(0, 2 ** 32))
def test_locator_scan_matches_the_reference_on_random_specs(spec, seed):
    for y, candidates in _scan_probes(random.Random(seed), spec, 4):
        expected = _first_hit_by_reference(spec, y, candidates)
        assert _locator_scan(spec, y, candidates) == expected


def test_list_decode_takes_the_handed_gcd_outcome(ladder5, monkeypatch):
    """With `gcd_outcome` given, list_decode decodes nothing itself: a
    success comes back as it is, and a failure is scanned as without it."""
    rng = random.Random(333)
    cands = build_candidate_list(ladder5)
    words = []
    for position in (None, 0, 4):
        error = list(ladder5.zero_word().symbols)
        if position is not None:
            error[position] = Poly.from_int(
                ladder5.field, rng.randrange(1, 2 ** ladder5.degrees[position]))
        words.append(encode(ladder5, random_message(rng, ladder5))
                     + Codeword(ladder5, tuple(error)))
    expected = [(decode(ladder5, w), list_decode(ladder5, w, cands)) for w in words]
    assert [gcd.status for gcd, _ in expected] == [
        DecodeStatus.NO_ERROR, DecodeStatus.SUCCESS, DecodeStatus.FAILURE]
    # on the error-free word the candidate m_4 would pass the locator test
    assert _locator_conditions(ladder5, psi_inverse(ladder5, words[0]), cands[0])[0]

    def no_decode(*args, **kwargs):
        raise AssertionError("list_decode decoded the word again")

    monkeypatch.setattr(decoder, "decode", no_decode)
    for word, (gcd, listed) in zip(words, expected):
        out = list_decode(ladder5, word, cands, gcd_outcome=gcd)
        assert out == listed
        if gcd.ok:
            assert out is gcd


def test_list_decode_refuses_a_candidate_over_another_field(ladder5, gf4):
    """A candidate over GF(4) raises SpecMismatch when the scan reaches it,
    alone or after candidates that are rejected, and not after a hit."""
    gf2 = ladder5.field
    error = list(ladder5.zero_word().symbols)
    error[4] = Poly.one(gf2)
    word = encode(ladder5, P(gf2, 1, 1)) + Codeword(ladder5, tuple(error))
    assert decode(ladder5, word).status is DecodeStatus.FAILURE
    m = ladder5.moduli
    foreign = P(gf4, 2, 1)
    rejected = [Poly.zero(gf2), m[0], m[1] * m[2], m[4] * m[0]]
    for candidates in ([foreign], rejected + [foreign]):
        with pytest.raises(SpecMismatch):
            list_decode(ladder5, word, candidates)
    assert list_decode(ladder5, word, [m[4], foreign]).factor_poly == m[4]


# -- the locator test's degree rejection ---------------------------------------------


def _locator_by_division(spec, y: Poly, g: Poly) -> tuple[bool, Poly]:
    """Reference locator verdict that always divides Z = g * Y mod M_n by g."""
    z = (g * y) % spec.modulus_product
    q, rem = divmod(z, g)
    if not rem.is_zero or q.degree >= spec.K:
        return False, z
    return (count_zero_residues(spec, g) <= spec.t_hamming
            and g.degree <= _locator_degree_cap(spec)), z


def _locator_probes(rng: random.Random, spec, count: int):
    """(Y, g) pairs.  Y is mostly a codeword plus an error on a random
    support, else a random preimage.  g is the product of the moduli on that
    support, or on another random support, or an arbitrary nonzero
    polynomial of degree up to N, so also above the locator degree cap."""
    f = spec.field
    for _ in range(count):
        support = [i for i in range(spec.n) if rng.random() < 0.4]
        error = [Poly.zero(f)] * spec.n
        for i in support:
            error[i] = Poly.from_int(f, rng.randrange(1, f.q ** spec.degrees[i]))
        word = encode(spec, random_message(rng, spec)) + Codeword(spec, tuple(error))
        y = psi_inverse(spec, word) if rng.random() < 0.8 else random_preimage(rng, spec)
        yield y, spec.product(support)
        yield y, spec.product([i for i in range(spec.n) if rng.random() < 0.4])
        yield y, Poly.from_int(f, rng.randrange(1, f.q ** (spec.N + 1)))


def test_locator_degree_rejection_matches_division(ladder5, gf4_mixed):
    rng = random.Random(2024)
    verdicts = set()
    for spec in (ladder5, gf4_mixed):
        for y, g in _locator_probes(rng, spec, 150):
            got = _locator_conditions(spec, y, g)
            assert got == _locator_by_division(spec, y, g)
            verdicts.add(got[0])
    assert verdicts == {True, False}


@settings(max_examples=40, deadline=None)
@given(spec=st.one_of(coprime_specs(Field(2), 4, (3, 8), ordered=True),
                      coprime_specs(Field(3), 3, (3, 7), ordered=True)),
       seed=st.integers(0, 2 ** 32))
def test_locator_degree_rejection_matches_division_on_random_specs(spec, seed):
    for y, g in _locator_probes(random.Random(seed), spec, 5):
        assert _locator_conditions(spec, y, g) == _locator_by_division(spec, y, g)


def test_locator_degree_rejection_does_not_divide_by_g(ladder5, monkeypatch):
    """A candidate with deg Z >= K + deg g is rejected after the one
    reduction mod M_n, with no division by g."""
    m = ladder5.modulus_product
    probes = [(y, g) for y, g in _locator_probes(random.Random(5), ladder5, 30)
              if ((g * y) % m).degree >= ladder5.K + g.degree]
    assert probes
    divisors = []
    divmod_ = Poly.__divmod__

    def recording_divmod(a, b):
        divisors.append(b)
        return divmod_(a, b)

    monkeypatch.setattr(Poly, "__divmod__", recording_divmod)
    for y, g in probes:
        divisors.clear()
        assert _locator_conditions(ladder5, y, g)[0] is False
        assert divisors == [m]
