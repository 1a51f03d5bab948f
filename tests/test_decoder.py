from __future__ import annotations

import copy
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import remcode.code
import remcode.decoder as decoder
import remcode.kernels as kernels
from remcode.code import CodeSpec, Codeword, degree_weight, distances, encode, psi_inverse
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
    InfeasibleWeight,
    MessageDegreeOverflow,
    NonDivisible,
    RemcodeError,
    ResidueDegreeViolation,
    SpecMismatch,
    UnorderedDegrees,
    ZeroG,
)
from remcode.field import Field
from remcode.fileio import dumps_codeword, loads_codeword
from remcode.interpolate import ErasurePattern, interpolate_direct, interpolate_fixed_transform
from remcode.oracle import brute_force_decode
from remcode.poly import Poly, irreducible_polys, poly_gcd, poly_mod_inverse
from remcode.sim import ChannelModel, corrupt

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


def test_upper_cofactor_tracking_can_be_skipped(rs42):
    """The window run without s gives the same t and pass count, under both
    stopping rules, on a zero window too."""
    gf5 = rs42.field
    y = list(encode(rs42, P(gf5, 0, 1)).symbols)
    y[2] = Poly.zero(gf5)
    big_y = psi_inverse(rs42, Codeword(rs42, tuple(y)))
    m_upper, e_upper = upper_parts(rs42, big_y)
    for window in (e_upper, Poly.zero(gf5)):
        for stopping in Stopping:
            lean = partial_gcd_upper(m_upper, window, rs42.N, rs42.K, stopping, track_s=False)
            full = partial_gcd_upper(m_upper, window, rs42.N, rs42.K, stopping)
            assert lean.s is None and full.s is not None
            assert lean.t == full.t
            assert lean.iterations == full.iterations == (0 if window.is_zero else 1)
            assert lean.r is lean.r_tilde is full.r is full.r_tilde is None


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


@pytest.mark.parametrize("options", ALL_OPTIONS, ids=str)
def test_decode_checks_no_coefficient_it_computed(options, rs42, ladder5, gf4_mixed,
                                                  rs12_gf256, monkeypatch):
    """`decode` builds its windows of y from the kernel's coefficients with
    `Poly._raw`, so a decode runs no `Poly.__new__` and no `Field.check`."""
    rng = random.Random(26)
    cases = []
    for spec in (rs42, ladder5, gf4_mixed, rs12_gf256):
        a = random_message(rng, spec)
        received = list(encode(spec, a).symbols)
        received[0] += Poly.one(spec.field)   # deg m_0 = 1, so y has degree N - 1
        cases.append((spec, a, Codeword(spec, tuple(received))))
    calls = []
    checked_new = Poly.__new__

    def counting_new(cls, *args):
        calls.append(args)
        return checked_new(cls, *args)

    monkeypatch.setattr(Poly, "__new__", staticmethod(counting_new))
    for spec, a, received in cases:
        outcome = decode(spec, received, options)
        assert outcome.ok and outcome.message == a
    assert calls == []


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


def _factor_test_by_definition(spec, y: Poly, g: Poly) -> tuple[bool, Poly]:
    """`error_factor_test` spelled out: deg g <= t_degree, and g divides
    Z = g * Y mod M_n with a quotient of degree below K."""
    z = (g * y) % spec.modulus_product
    q, rem = divmod(z, g)
    return g.degree <= spec.t_degree and rem.is_zero and q.degree < spec.K, z


def _factor_probes(rng: random.Random, spec):
    """(Y, g) pairs: g0, a unit mod M_n of degree at most t_degree, on Y = 0
    (so Z = 0), on a random Y, and on Y planted so that Z = g0 * q for a
    message q or for a q of degree K or more; and a random g of degree
    above t_degree."""
    f, m, K = spec.field, spec.modulus_product, spec.K
    g0 = Poly.from_int(f, rng.randrange(1, f.q ** (spec.t_degree + 1)))
    while poly_gcd(g0, m).degree:
        g0 = Poly.from_int(f, rng.randrange(1, f.q ** (spec.t_degree + 1)))
    inverse = poly_mod_inverse(g0, m)
    yield Poly.zero(f), g0
    yield random_preimage(rng, spec), g0
    yield (g0 * random_message(rng, spec) * inverse) % m, g0
    top = spec.N - 1 - K - int(g0.degree)
    if top >= 0:
        q = random_message(rng, spec) + Poly.monomial(f, rng.randrange(1, f.q),
                                                      K + rng.randrange(top + 1))
        yield (g0 * q * inverse) % m, g0
    if spec.t_degree < spec.N:
        g = Poly.from_int(f, rng.randrange(f.q ** (spec.t_degree + 1), f.q ** (spec.N + 1)))
        yield random_preimage(rng, spec), g


def test_error_factor_test_matches_its_definition(rs42, ladder5, gf4_mixed, reducible_spec):
    rng = random.Random(1515)
    seen = set()
    for spec in (rs42, ladder5, gf4_mixed, reducible_spec):
        for _ in range(40):
            for y, g in _factor_probes(rng, spec):
                got = error_factor_test(spec, y, g)
                assert got == _factor_test_by_definition(spec, y, g)
                z = got[1]
                if g.degree > spec.t_degree:
                    seen.add("heavy g")
                elif z.is_zero:
                    seen.add("zero Z")
                elif not (z % g).is_zero:
                    seen.add("non-divisor")
                else:
                    seen.add("hit" if got[0] else "quotient of degree K or more")
    assert seen == {"heavy g", "zero Z", "non-divisor", "hit", "quotient of degree K or more"}


@settings(max_examples=40, deadline=None)
@given(spec=st.one_of(coprime_specs(Field(2), 4, (3, 8)),
                      coprime_specs(Field(3), 3, (3, 7)),
                      coprime_specs(Field(3, 2, [1, 0, 1]), 2, (3, 6))),
       seed=st.integers(0, 2 ** 32))
def test_error_factor_test_matches_its_definition_on_random_specs(spec, seed):
    for y, g in _factor_probes(random.Random(seed), spec):
        assert error_factor_test(spec, y, g) == _factor_test_by_definition(spec, y, g)


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


@pytest.mark.parametrize("positions", [[9], [-1], [0, 0]],
                         ids=["past n", "negative", "repeated"])
def test_error_locator_test_refuses_positions_that_name_no_support(ladder5, positions):
    """A position past n, a negative one (not read as n - 1) and a repeated
    one (whose product m_0^2 locates no support) raise InfeasibleWeight."""
    y = psi_inverse(ladder5, encode(ladder5, P(ladder5.field, 1, 1)))
    with pytest.raises(InfeasibleWeight):
        error_locator_test(ladder5, y, positions)


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


def test_decode_checks_a_raw_word_as_codeword_does(rs42, gf4):
    """A raw symbol list with the wrong count, a symbol of too high degree or
    a symbol over another field raises what `Codeword` raises on it."""
    gf5 = rs42.field
    symbols = list(encode(rs42, P(gf5, 0, 1)).symbols)
    bad = [symbols[:-1], symbols + symbols[:1],
           [P(gf5, 1, 1)] + symbols[1:], symbols[:2] + [P(gf4, 1)] + symbols[3:]]
    kinds = set()
    for word in bad:
        with pytest.raises(Exception) as expected:
            Codeword(rs42, tuple(word))
        kinds.add(expected.type)
        for options in ALL_OPTIONS:
            with pytest.raises(Exception) as got:
                decode(rs42, word, options)
            assert got.type is expected.type
    assert kinds == {ResidueDegreeViolation, SpecMismatch}


@pytest.fixture(scope="module")
def three_gf5_specs() -> dict[str, CodeSpec]:
    """a = RS(4,2) over GF(5), roots 1..4; b, the quadratics x^2 + 2 and
    x^2 + 3 with k = 1 (N = 4 and K = 2, as for a); c, a's shape with the
    root 0 in place of 4, so that a word of c is a valid symbol list of a."""
    gf5 = Field(5)
    linear = lambda roots: [P(gf5, (-r) % 5, 1) for r in roots]
    return {"a": CodeSpec(gf5, linear((1, 2, 3, 4)), 2),
            "b": CodeSpec(gf5, [P(gf5, 2, 0, 1), P(gf5, 3, 0, 1)], 1),
            "c": CodeSpec(gf5, linear((1, 2, 3, 0)), 2)}


def _codeword(spec: CodeSpec) -> Codeword:
    return encode(spec, P(spec.field, 2, 1))


def _word(spec: CodeSpec) -> Codeword:
    """`_codeword` with its first symbol changed."""
    word = _codeword(spec)
    return Codeword(spec, (word.symbols[0] + P(spec.field, 1),) + word.symbols[1:])


def _pattern(spec: CodeSpec) -> ErasurePattern:
    return ErasurePattern(spec, frozenset(range(spec.n - 1)))


# each entry point with an object of b or c in place of one of a's: the
# other spec's name, and the call given a and that spec
SPEC_BOUND_CALLS = {
    "decode(a, word of b)": ("b", lambda a, o: decode(a, _word(o))),
    "decode(a, word of c)": ("c", lambda a, o: decode(a, _word(o))),
    "list_decode(a, word of b)":
        ("b", lambda a, o: list_decode(a, _word(o), build_candidate_list(a))),
    "list_decode(a, word of c)":
        ("c", lambda a, o: list_decode(a, _word(o), build_candidate_list(a))),
    "list_decode(a, word of c, gcd_outcome=decode(c, word))":
        ("c", lambda a, o: list_decode(a, _word(o), build_candidate_list(a),
                                       gcd_outcome=decode(o, _word(o)))),
    "psi_inverse(a, word of b)": ("b", lambda a, o: psi_inverse(a, _word(o))),
    "psi_inverse(a, word of c)": ("c", lambda a, o: psi_inverse(a, _word(o))),
    "error_locator_poly(a, word of b)": ("b", lambda a, o: error_locator_poly(a, _word(o))),
    "error_locator_poly(a, word of c)": ("c", lambda a, o: error_locator_poly(a, _word(o))),
    "interpolate_fixed_transform(a, word of c, pattern of a)":
        ("c", lambda a, o: interpolate_fixed_transform(a, _word(o), _pattern(a))),
    "interpolate_fixed_transform(a, word of a, pattern of b)":
        ("b", lambda a, o: interpolate_fixed_transform(a, _codeword(a), _pattern(o))),
    "interpolate_fixed_transform(a, word of a, pattern of c)":
        ("c", lambda a, o: interpolate_fixed_transform(a, _codeword(a), _pattern(o))),
    "interpolate_direct(a, symbols of a, pattern of b)":
        ("b", lambda a, o: interpolate_direct(a, dict(enumerate(_codeword(a).symbols)), _pattern(o))),
    "interpolate_direct(a, symbols of a, pattern of c)":
        ("c", lambda a, o: interpolate_direct(a, dict(enumerate(_codeword(a).symbols)), _pattern(o))),
}


@pytest.mark.parametrize("case", list(SPEC_BOUND_CALLS))
def test_entry_points_refuse_another_specs_objects(three_gf5_specs, case):
    """Every entry point that takes a spec and a spec-bound object raises
    SpecMismatch for an object of another spec, of the same shape (c) or of
    another (b), instead of reading its symbols as the spec's own."""
    other, call = SPEC_BOUND_CALLS[case]
    with pytest.raises(SpecMismatch):
        call(three_gf5_specs["a"], three_gf5_specs[other])


def test_entry_points_accept_an_equal_spec_built_apart(three_gf5_specs):
    """The check compares specs, not objects: an equal spec built apart is
    the same code."""
    a = three_gf5_specs["a"]
    twin = CodeSpec(a.field, a.moduli, a.k)
    assert twin is not a and twin == a
    message = P(a.field, 2, 1)
    assert decode(a, _word(twin)).message == message
    assert list_decode(a, _word(twin), build_candidate_list(a)).message == message
    assert psi_inverse(a, _codeword(twin)) == message
    assert error_locator_poly(a, _word(twin) - _codeword(twin)) == a.moduli[0]
    assert interpolate_fixed_transform(a, _word(twin), ErasurePattern(twin, {1, 2})) == message
    assert interpolate_direct(a, dict(enumerate(_word(twin).symbols)),
                              ErasurePattern(twin, {1, 2})) == message


def test_words_are_equal_only_under_an_equal_spec(three_gf5_specs):
    """Equality and hash read the spec as well as the row: a's and c's zero
    words have the same row and differ, and an equal spec built apart gives
    an equal word."""
    a, c = three_gf5_specs["a"], three_gf5_specs["c"]
    assert a.zero_word().row == c.zero_word().row
    assert a.zero_word() != c.zero_word()
    twin = CodeSpec(a.field, a.moduli, a.k)
    assert twin.zero_word() == a.zero_word() and hash(twin.zero_word()) == hash(a.zero_word())
    word = _word(a)
    assert copy.copy(word) == word and copy.copy(word).symbols == word.symbols


MISMATCH_FIELDS = (Field(2), Field(5), Field(3, 2, [1, 0, 1]))


def _expect_remcode_error(call) -> None:
    """The call must raise, and only a `RemcodeError`."""
    with pytest.raises(RemcodeError):
        call()


def _result_or_remcode_error(call) -> None:
    """The call may return; if it raises, it raises only a `RemcodeError`."""
    try:
        call()
    except RemcodeError:
        pass


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_public_entry_points_meet_another_specs_objects_with_remcode_errors(data):
    """Spec a (ordered, so that list decoding runs) meets another spec o,
    over the same field or another of GF(2), GF(5), GF(9).  A `Codeword`
    or `ErasurePattern` of o raises a `RemcodeError` at every entry point
    that takes a spec and one; o's symbols, as a list, a position map or a
    codeword file, are decoded or raise a `RemcodeError`, and nothing else."""
    a = data.draw(coprime_specs(data.draw(st.sampled_from(MISMATCH_FIELDS)), 2, (1, 5),
                                ordered=True))
    o = data.draw(coprime_specs(data.draw(st.sampled_from(MISMATCH_FIELDS)), 2, (1, 5)))
    assume(o != a)
    fo = o.field
    word_o = encode(o, Poly.from_int(fo, data.draw(st.integers(0, fo.q ** o.K - 1))))
    symbols_o = list(word_o.symbols)
    symbols_o[0] = Poly.from_int(fo, data.draw(st.integers(0, fo.q ** o.degrees[0] - 1)))
    word_o = Codeword(o, symbols_o)
    word_a = encode(a, Poly.zero(a.field))
    pattern_a = ErasurePattern(a, frozenset(range(a.n)))
    pattern_o = ErasurePattern(o, frozenset(range(o.n)))
    options = data.draw(st.sampled_from(ALL_OPTIONS))
    candidates = build_candidate_list(a)
    channel = ChannelModel("random_hamming_weight", min(1, a.n), 7)

    for call in (
        lambda: decode(a, word_o, options),
        lambda: list_decode(a, word_o, candidates, options),
        lambda: list_decode(a, word_o, candidates, options, gcd_outcome=decode(o, word_o)),
        lambda: psi_inverse(a, word_o),
        lambda: error_locator_poly(a, word_o),
        lambda: interpolate_fixed_transform(a, word_o, pattern_a),
        lambda: interpolate_fixed_transform(a, word_a, pattern_o),
        lambda: interpolate_direct(a, dict(enumerate(word_a.symbols)), pattern_o),
        lambda: corrupt(a, word_o, channel),
        lambda: brute_force_decode(a, word_o, cap=1 << 10),
        lambda: distances(word_a, word_o),
        lambda: word_a + word_o,
        lambda: word_a - word_o,
    ):
        _expect_remcode_error(call)
    for call in (
        lambda: Codeword(a, symbols_o),
        lambda: decode(a, symbols_o, options),
        lambda: list_decode(a, symbols_o, candidates, options),
        lambda: psi_inverse(a, symbols_o),
        lambda: interpolate_fixed_transform(a, symbols_o, pattern_a),
        lambda: interpolate_direct(a, dict(enumerate(symbols_o)), pattern_a),
        lambda: loads_codeword(a, dumps_codeword(word_o)),
    ):
        _result_or_remcode_error(call)


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


def _planted_preimage(rng: random.Random, spec, g0: Poly, kind: int | None = None) -> Poly:
    """Y with g0 * Y = Z0 mod M_n for a chosen Z0, g0 a unit mod M_n.

    Z0 is g0 times a message (a hit, kind 0), g0 times a polynomial of
    degree exactly K (deg Z = K + deg g0, the degree test's bound, kind 1),
    or a random polynomial below that bound, which g0 rarely divides
    (kind 2); the kind is drawn when not given."""
    f, K = spec.field, spec.K
    if kind is None:
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


# -- the bit-sliced GF(2) scan -----------------------------------------------------------

LADDER20_DEGREES = (1, 1, 2, 3, 3, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7)


def _gf2_spec(gf2, degrees: tuple[int, ...], k: int) -> CodeSpec:
    """GF(2) code with the first irreducible moduli of the given degrees."""
    moduli = []
    for d in sorted(set(degrees)):
        moduli += irreducible_polys(gf2, d)[:degrees.count(d)]
    return CodeSpec(gf2, moduli, k)


@pytest.fixture(scope="module")
def ladder20(gf2) -> tuple[CodeSpec, list[Poly]]:
    """GF(2) code with 20 irreducible moduli of degrees 1..7 and k = 8, and
    its 442 list candidates: each scan mask then spans 442 bits, so hits
    lie past bit 63."""
    spec = _gf2_spec(gf2, LADDER20_DEGREES, 8)
    return spec, build_candidate_list(spec)


def _error_on(rng: random.Random, spec, g: Poly) -> Codeword:
    """A codeword plus a random error on the positions whose modulus divides g."""
    f = spec.field
    error = [Poly.zero(f)] * spec.n
    for i, m in enumerate(spec.moduli):
        if (g % m).is_zero:
            error[i] = Poly.from_int(f, rng.randrange(1, f.q ** spec.degrees[i]))
    return encode(spec, random_message(rng, spec)) + Codeword(spec, tuple(error))


def _without(spec, candidates, positions):
    """The candidates that some modulus at `positions` does not divide."""
    return [g for g in candidates if any((g % spec.moduli[i]) for i in positions)]


def test_locator_scan_on_a_workload_sized_list_matches_the_reference(ladder20):
    spec, cands = ladder20
    assert len(cands) >= 400
    rng = random.Random(2101)
    hits = set()
    for index in (0, 63, 64, 200, len(cands) - 1):
        y = psi_inverse(spec, _error_on(rng, spec, cands[index]))
        expected = _first_hit_by_reference(spec, y, cands)
        assert _locator_scan(spec, y, cands) == expected
        hits.add(cands.index(expected[0]))
    assert max(hits) >= 64


def test_locator_scan_takes_the_lowest_index_among_ties_and_duplicates(ladder20):
    """Two passing candidates, a multiple of the locator and the locator
    itself, and an equal copy of the locator: the lowest index wins."""
    spec, cands = ladder20
    y = psi_inverse(spec, _error_on(random.Random(2102), spec, spec.product([16, 17])))
    exact, wider = spec.product([16, 17]), spec.product([0, 16, 17])
    twin = Poly(exact.field, exact.coeffs)
    filler = _without(spec, cands, [16, 17])[:100]
    for ties in ([wider, exact, twin], [twin, exact, wider], [exact, twin]):
        listed = filler + ties + cands
        got = _locator_scan(spec, y, listed)
        assert got == _first_hit_by_reference(spec, y, listed)
        assert got[0] is ties[0]


def test_locator_scan_misses_when_no_candidate_passes(ladder20, ladder5):
    rng = random.Random(2103)
    for spec, cands in (ladder20, (ladder5, build_candidate_list(ladder5))):
        for _ in range(5):
            y = random_preimage(rng, spec)
            assert _first_hit_by_reference(spec, y, cands) is None
            assert _locator_scan(spec, y, cands) is None
        assert _locator_scan(spec, y, []) is None


def test_locator_scan_sees_a_list_edited_in_place(ladder20, monkeypatch):
    """The tables of a list are kept between scans, but never for a list
    whose entries changed since, nor for another cap: `_scan_masks` runs
    once per list and cap, and again after each edit."""
    spec, cands = ladder20
    kernel, cap = spec.field.kernel, _locator_degree_cap(spec)
    builds = []
    scan_masks = kernel._scan_masks

    def counting_scan_masks(candidates, cap):
        builds.append(cap)
        return scan_masks(candidates, cap)

    monkeypatch.setattr(kernel, "_scan_memo", (None, None))
    monkeypatch.setattr(kernel, "_scan_masks", counting_scan_masks)
    g = spec.product([16, 17])
    y = psi_inverse(spec, _error_on(random.Random(2104), spec, g))
    listed = _without(spec, cands, [16, 17])
    assert _locator_scan(spec, y, listed) is None
    assert _locator_scan(spec, y, listed) is None
    assert builds == [cap]
    listed[70] = g
    assert _locator_scan(spec, y, listed) == _first_hit_by_reference(spec, y, listed)
    assert _locator_scan(spec, y, listed)[0] is g
    assert builds == [cap] * 2
    listed[70] = Poly.zero(spec.field)
    assert _locator_scan(spec, y, listed) is None
    assert builds == [cap] * 3
    listed.append(g)
    assert _locator_scan(spec, y, listed)[0] is g
    assert _locator_scan(spec, y, listed)[0] is g
    assert builds == [cap] * 4
    for other in (cap - 1, cap - 1, cap):
        list(kernel.locator_survivors(spec, y, listed, other)[1])
    assert builds == [cap] * 4 + [cap - 1, cap]


def test_locator_scan_takes_a_tuple_or_a_generator(ladder20, gf4_mixed):
    spec, cands = ladder20
    word = _error_on(random.Random(2105), spec, cands[300])
    y = psi_inverse(spec, word)
    assert decode(spec, word).status is DecodeStatus.FAILURE
    expected = _first_hit_by_reference(spec, y, cands)
    listed = list_decode(spec, word, cands)
    assert listed.factor_poly == expected[0]
    for form in (tuple, iter, lambda c: (g for g in c)):
        assert _locator_scan(spec, y, form(cands)) == expected
        assert list_decode(spec, word, form(cands)) == listed
    gf4_cands = list(gf4_mixed.moduli)
    y = psi_inverse(gf4_mixed, _error_on(random.Random(2106), gf4_mixed, gf4_cands[-1]))
    expected = _first_hit_by_reference(gf4_mixed, y, gf4_cands)
    assert expected is not None
    for form in (tuple, iter):
        assert _locator_scan(gf4_mixed, y, form(gf4_cands)) == expected


def test_locator_scan_raises_on_a_foreign_candidate_before_the_hit(ladder20, gf4):
    """A candidate over GF(4) placed before the hit, past bit 63, raises;
    placed after it, it is never reached."""
    spec, cands = ladder20
    word = _error_on(random.Random(2108), spec, cands[300])
    y = psi_inverse(spec, word)
    foreign = P(gf4, 2, 1)
    with pytest.raises(SpecMismatch):
        _locator_scan(spec, y, cands[:100] + [foreign] + cands[100:])
    with pytest.raises(SpecMismatch):
        list_decode(spec, word, [foreign] + cands)
    assert _locator_scan(spec, y, cands + [foreign]) == _locator_scan(spec, y, cands)


def test_locator_scan_survivors_match_the_generic_kernel(gf2, gf4, ladder5, ladder20):
    """`BitKernel.locator_survivors` (runs of 8 rows, one table each) yields
    the same candidate objects in the same order as the generic
    `_Kernel.locator_survivors` on the same kernel, with the same rows, for
    6, 8, 16 and 41 rows: below, at and past one and two runs."""
    specs = [(ladder5, 6), (_gf2_spec(gf2, (1, 1, 2, 3, 3, 4), 2), 8),
             (_gf2_spec(gf2, (1, 1, 2, 3, 3, 4, 5, 5, 5), 3), 16), (ladder20[0], 41)]
    rng = random.Random(3001)
    foreign = P(gf4, 2, 1)
    boundary = 0
    for spec, rows in specs:
        kernel, cap, m = spec.field.kernel, _locator_degree_cap(spec), spec.modulus_product
        assert cap + 1 == rows
        listed = build_candidate_list(spec)
        over_cap = Poly.monomial(gf2, 1, cap + 1) + Poly.one(gf2)
        for trial in range(6):
            g0 = Poly.from_int(gf2, rng.randrange(1, 2 ** (cap + 1)))
            while poly_gcd(g0, m).degree:
                g0 = Poly.from_int(gf2, rng.randrange(1, 2 ** (cap + 1)))
            y = (random_preimage(rng, spec) if trial % 3 == 2
                 else _planted_preimage(rng, spec, g0, kind=trial % 3))
            if ((g0 * y) % m).degree == spec.K + g0.degree:
                boundary += 1
            picks = rng.sample(listed, min(len(listed), 40))
            candidates = [Poly.zero(gf2), over_cap, foreign, g0, *picks, g0,
                          Poly(gf2, g0.coeffs), picks[0]]
            rng.shuffle(candidates)
            for cands in (candidates, listed, []):
                bit_rows, bit = kernel.locator_survivors(spec, y, cands, cap)
                ref_rows, ref = kernels._Kernel.locator_survivors(kernel, spec, y, cands, cap)
                assert bit_rows == ref_rows
                assert list(map(id, bit)) == list(map(id, ref))
    assert boundary >= len(specs)


def test_locator_scan_over_gf2_forms_z_only_for_survivors(ladder20, gf4_mixed, monkeypatch):
    """Over GF(2) the degree test is the sliced one: the scan forms a Z (one
    `combine_packed`) only for each survivor it divides.  GF(4)'s scan, the
    control, also forms one in its degree test for every candidate it
    tests, so it makes more `combine_packed` calls than divisions."""
    calls = {"combine": [], "divmod": []}
    combine_packed, poly_divmod = kernels.ByteKernel.combine_packed, Poly.__divmod__

    def counting_combine(self, rows, coeffs):
        calls["combine"].append(self)
        return combine_packed(self, rows, coeffs)

    def counting_divmod(a, b):
        calls["divmod"].append(a.field.kernel)
        return poly_divmod(a, b)

    spec, cands = ladder20
    gf4_cands = list(gf4_mixed.moduli)
    scans = [(spec, _error_on(random.Random(index), spec, cands[index]), cands)
             for index in (5, 300)]
    scans.append((gf4_mixed, _error_on(random.Random(2107), gf4_mixed, gf4_cands[-1]), gf4_cands))
    scans = [(s, psi_inverse(s, word), c) for s, word, c in scans]
    monkeypatch.setattr(kernels.ByteKernel, "combine_packed", counting_combine)
    monkeypatch.setattr(Poly, "__divmod__", counting_divmod)
    for s, y, c in scans:
        for key in calls:
            calls[key].clear()
        assert _locator_scan(s, y, c) is not None
        assert calls["divmod"] and {*calls["combine"], *calls["divmod"]} == {s.field.kernel}
        if s is spec:
            assert len(calls["combine"]) == len(calls["divmod"]) < len(c) // 10
        else:
            assert len(calls["combine"]) > len(calls["divmod"])


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
