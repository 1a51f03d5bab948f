from __future__ import annotations

import copy
import itertools
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import remcode.code as code
from remcode.code import (
    CodeSpec,
    Codeword,
    distances,
    encode,
    min_degree_distance,
    min_hamming_distance,
    psi_inverse,
    weights,
)
from remcode.errors import (
    BadK,
    MessageTooLarge,
    NonCoprimeModuli,
    NonMonicModulus,
    ResidueDegreeViolation,
    SpecMismatch,
    UnorderedDegrees,
)
from remcode.decoder import decode
from remcode.field import Field
from remcode.interpolate import ErasurePattern, interpolate_fixed_transform
from remcode.poly import Poly, irreducible_polys

from conftest import P, random_message, random_preimage, random_spec


def test_rs42_derived_parameters(rs42):
    assert (rs42.n, rs42.k, rs42.N, rs42.K) == (4, 2, 4, 2)
    assert rs42.t_hamming == 1 and rs42.t_degree == 1
    assert rs42.modulus_product == P(rs42.field, 4, 0, 0, 0, 1)  # x^4 - 1
    assert rs42.ordered_degree and rs42.irreducible and rs42.tail_equal_degree


def test_ladder5_derived_parameters(ladder5):
    assert (ladder5.n, ladder5.k) == (5, 3)
    assert (ladder5.N, ladder5.K) == (15, 6)
    assert ladder5.t_hamming == 1 and ladder5.t_degree == 4
    assert ladder5.degrees == (1, 2, 3, 4, 5)
    assert ladder5.irreducible and ladder5.ordered_degree
    assert not ladder5.tail_equal_degree


def test_gf4_mixed_derived_parameters(gf4_mixed):
    assert (gf4_mixed.n, gf4_mixed.k) == (5, 3)
    assert (gf4_mixed.N, gf4_mixed.K) == (7, 3)
    assert gf4_mixed.t_hamming == 1 and gf4_mixed.t_degree == 2
    assert gf4_mixed.tail_equal_degree and gf4_mixed.ordered_degree


def test_beta_coefficients_are_crt_idempotents(rs42, ladder5, reducible_spec):
    for spec in (rs42, ladder5, reducible_spec):
        for i, beta in enumerate(spec.betas):
            assert beta.degree < spec.N
            for j, m in enumerate(spec.moduli):
                expect = Poly.one(spec.field) if i == j else Poly.zero(spec.field)
                assert beta % m == expect


def test_non_coprime_moduli_rejected(gf2):
    with pytest.raises(NonCoprimeModuli) as exc:
        CodeSpec(gf2, [P(gf2, 0, 1), P(gf2, 0, 0, 1), P(gf2, 1, 1)], 1)
    assert exc.value.pair == (0, 1)


def test_non_coprime_pair_is_lexicographically_first(gf2):
    x, x1, x2x1 = P(gf2, 0, 1), P(gf2, 1, 1), P(gf2, 1, 1, 1)
    with pytest.raises(NonCoprimeModuli) as exc:
        CodeSpec(gf2, [x, x1, x2x1, x * x1], 1)
    assert exc.value.pair == (0, 3)
    with pytest.raises(NonCoprimeModuli) as exc:
        CodeSpec(gf2, [x1, x, x1], 1)
    assert exc.value.pair == (0, 2)


def test_non_coprime_checked_before_k(gf2):
    with pytest.raises(NonCoprimeModuli):
        CodeSpec(gf2, [P(gf2, 0, 1), P(gf2, 0, 1)], 0)


def test_coprime_spec_build_runs_no_pairwise_gcd(monkeypatch, gf16):
    calls = []
    original = code.poly_gcd

    def counting_gcd(a, b):
        calls.append((a, b))
        return original(a, b)
    monkeypatch.setattr(code, "poly_gcd", counting_gcd)
    spec = CodeSpec(gf16, irreducible_polys(gf16, 1), 8)
    assert calls == []
    assert spec.N == 16


@pytest.mark.parametrize("name", ["rs42", "ladder5", "gf4_mixed"])
def test_spec_hash_is_computed_once(name, request, monkeypatch):
    """After a spec's first hash, hashing it, or a word of it, hashes no
    modulus again; a spec built apart from equal moduli is equal and hashes
    equal."""
    spec = request.getfixturevalue(name)
    f = spec.field
    g = Field(f.p, f.m, f.reduction)
    twin = CodeSpec(g, [Poly(g, m.coeffs) for m in spec.moduli], spec.k)
    word = encode(spec, Poly(f, [1]))
    first = hash(spec), hash(twin)
    calls = []
    poly_hash = Poly.__hash__
    monkeypatch.setattr(Poly, "__hash__", lambda self: calls.append(self) or poly_hash(self))
    assert hash(spec) == hash(twin) == first[0] == first[1]
    assert twin == spec
    assert hash(word) == hash(Codeword(twin, [Poly(twin.field, s.coeffs) for s in word.symbols]))
    assert calls == []


def test_product_of_moduli(ladder5, gf4_mixed):
    for spec in (ladder5, gf4_mixed):
        assert spec.product([]) == Poly.one(spec.field)
        for i, m in enumerate(spec.moduli):
            assert spec.product([i]) == m
        assert spec.product([0, 2]) == spec.moduli[0] * spec.moduli[2]


def test_non_monic_modulus_rejected(gf5):
    with pytest.raises(NonMonicModulus):
        CodeSpec(gf5, [P(gf5, 1, 2)], 1)
    with pytest.raises(NonMonicModulus):
        CodeSpec(gf5, [P(gf5, 3)], 1)  # constant


def test_bad_k_rejected(gf5, rs42):
    with pytest.raises(BadK):
        CodeSpec(gf5, list(rs42.moduli), 0)
    with pytest.raises(BadK):
        CodeSpec(gf5, list(rs42.moduli), 5)
    with pytest.raises(BadK):
        CodeSpec(gf5, [], 1)


def test_encode_zero_and_linear_message(rs42):
    zero = encode(rs42, Poly.zero(rs42.field))
    assert all(s.is_zero for s in zero.symbols)
    cw = encode(rs42, P(rs42.field, 0, 1))
    assert [s.coeffs for s in cw.symbols] == [(1,), (2,), (3,), (4,)]


def test_encode_three_mod(three_mod):
    cw = encode(three_mod, P(three_mod.field, 0, 1))
    assert [s.coeffs for s in cw.symbols] == [(), (1,), (0, 1)]


def test_encode_rejects_large_message(three_mod):
    with pytest.raises(MessageTooLarge):
        encode(three_mod, P(three_mod.field, 0, 0, 1))


def test_psi_inverse_examples(three_mod):
    gf2 = three_mod.field
    assert psi_inverse(three_mod, three_mod.zero_word()).is_zero
    word = [Poly.zero(gf2), Poly.one(gf2), P(gf2, 0, 1)]
    assert psi_inverse(three_mod, word) == P(gf2, 0, 1)


def test_psi_inverse_rejects_oversized_residue(three_mod):
    gf2 = three_mod.field
    with pytest.raises(ResidueDegreeViolation):
        psi_inverse(three_mod, [P(gf2, 0, 1), Poly.one(gf2), P(gf2, 0, 1)])


def test_check_word_compares_fields_by_value(three_mod):
    """Symbols over an equal but separately built field pass; over another field
    they raise, even with the same coefficients."""
    twin = Field(2)
    assert twin is not three_mod.field
    symbols = [P(twin, 1), P(twin, 0), P(twin, 1, 1)]
    assert Codeword(three_mod, symbols).symbols == tuple(symbols)
    with pytest.raises(SpecMismatch):
        Codeword(three_mod, [P(Field(3), 1), P(twin, 0), P(twin, 1, 1)])


def test_round_trip_all_messages(rs42, three_mod, gf4_mixed, reducible_spec):
    for spec in (rs42, three_mod, gf4_mixed, reducible_spec):
        for code in range(spec.field.q ** spec.K):
            a = Poly.from_int(spec.field, code)
            assert psi_inverse(spec, encode(spec, a)) == a


def test_transform_is_ring_isomorphism(rs42, ladder5, reducible_spec):
    rng = random.Random(71)
    for spec in (rs42, ladder5, reducible_spec):
        for _ in range(60):
            a, b = random_preimage(rng, spec), random_preimage(rng, spec)
            res_a = [a % m for m in spec.moduli]
            res_b = [b % m for m in spec.moduli]
            total = (a + b) % spec.modulus_product
            prod = (a * b) % spec.modulus_product
            assert [total % m for m in spec.moduli] == \
                [(x + y) % m for x, y, m in zip(res_a, res_b, spec.moduli)]
            assert [prod % m for m in spec.moduli] == \
                [(x * y) % m for x, y, m in zip(res_a, res_b, spec.moduli)]
            assert psi_inverse(spec, [p % m for p, m in zip([a] * spec.n, spec.moduli)]) == a


def test_encode_is_linear(rs42):
    rng = random.Random(13)
    for _ in range(50):
        a, b = random_message(rng, rs42), random_message(rng, rs42)
        ca, cb = encode(rs42, a), encode(rs42, b)
        assert ca + cb == encode(rs42, a + b)


def test_weights_examples(ladder5, gf4_mixed):
    assert weights(ladder5.zero_word()) == (0, 0)
    e = list(ladder5.zero_word().symbols)
    e[4] = Poly.one(ladder5.field)
    assert weights(Codeword(ladder5, tuple(e))) == (1, 5)
    e = list(gf4_mixed.zero_word().symbols)
    e[0] = Poly.one(gf4_mixed.field)
    e[1] = Poly.one(gf4_mixed.field)
    wh, wd = weights(Codeword(gf4_mixed, tuple(e)))
    assert (wh, wd) == (2, 2)
    assert wd <= gf4_mixed.t_degree


def test_degree_distance_triangle_inequality(rs42, gf4_mixed):
    rng = random.Random(41)
    for spec in (rs42, gf4_mixed):
        words = []
        for _ in range(12):
            a = random_preimage(rng, spec)
            words.append(Codeword(spec, tuple(a % m for m in spec.moduli)))
        for x in words:
            for y in words:
                for z in words:
                    assert distances(x, y)[1] <= distances(x, z)[1] + distances(y, z)[1]


def test_nonzero_codeword_weight_bounds(three_mod, rs42):
    # exhaustive on tiny ordered-degree codes
    for spec in (three_mod, rs42):
        for code in range(1, spec.field.q ** spec.K):
            wh, wd = weights(encode(spec, Poly.from_int(spec.field, code)))
            assert wh >= spec.n - spec.k + 1
            assert wd > spec.N - spec.K


def test_min_degree_distance(rs42, ladder5, gf4_mixed, reducible_spec):
    assert min_degree_distance(rs42) == rs42.N - rs42.K + 1 == 3
    assert min_degree_distance(ladder5) == 10   # degrees {1,4,5} reach 10 > 9
    assert min_degree_distance(gf4_mixed) == 5  # degrees {1,2,2} reach 5 > 4
    assert min_degree_distance(reducible_spec) == 4


def test_min_hamming_distance(rs42, gf4_mixed, reducible_spec, gf5):
    assert min_hamming_distance(rs42) == 3
    assert min_hamming_distance(gf4_mixed) == 3
    full = CodeSpec(gf5, list(rs42.moduli), 4)
    assert min_hamming_distance(full) == 1
    with pytest.raises(UnorderedDegrees):
        min_hamming_distance(reducible_spec)


def test_random_specs_build_consistently(gf2, gf4, gf5, gf16):
    rng = random.Random(97)
    for field in (gf2, gf4, gf5, gf16):
        for _ in range(10):
            spec = random_spec(rng, field, reducible=rng.random() < 0.3)
            assert spec.N == sum(spec.degrees)
            assert spec.K == sum(spec.degrees[:spec.k])
            a = random_message(rng, spec)
            assert psi_inverse(spec, encode(spec, a)) == a



@pytest.fixture(scope="module")
def gf9_code() -> CodeSpec:
    """GF(9) code with 9 linear and 3 quadratic moduli, k = 4."""
    gf9 = Field(3, 2, [1, 0, 1])
    moduli = list(irreducible_polys(gf9, 1)) + list(irreducible_polys(gf9, 2))[:3]
    return CodeSpec(gf9, moduli, 4)


@pytest.fixture(scope="module")
def rs64() -> CodeSpec:
    """RS(64,48) over GF(2^8); its first modulus is x, with root 0."""
    gf256 = Field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1])
    return CodeSpec(gf256, irreducible_polys(gf256, 1)[:64], 48)


@pytest.mark.parametrize("name", ["rs42", "gf9_code", "rs64", "ladder5"])
def test_residues_equal_remainders(name, request):
    """Evaluation at the root of x - r gives a mod (x - r): over GF(5) (rs42)
    the root of x + c is -c, so a wrong sign shows; ladder5 mixes degrees."""
    spec = request.getfixturevalue(name)
    field = spec.field
    rng = random.Random(name)
    zero = Poly.zero(field)
    assert spec.residues(zero) == (zero,) * spec.n
    assert encode(spec, zero).symbols == (zero,) * spec.n
    for _ in range(10):
        # below N, and above it, where evaluation and division still agree
        for a in (random_preimage(rng, spec),
                  Poly(field, [rng.randrange(field.q) for _ in range(spec.N + 6)])):
            assert spec.residues(a) == tuple(a % m for m in spec.moduli)
        message = random_message(rng, spec)
        assert encode(spec, message).symbols == tuple(message % m for m in spec.moduli)


PICKLE_FIELDS = {
    "GF(2)": Field(2),
    "GF(5)": Field(5),
    "GF(9)": Field(3, 2, [1, 0, 1]),
    "GF(2^8)": Field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
}


def _pickle_case(f: Field):
    """A fresh spec of up to 10 irreducible moduli of degree 1 to 3 with
    t_hamming = 1, a word with an error at position 1, and a message."""
    moduli = list(itertools.islice((m for d in (1, 2, 3) for m in irreducible_polys(f, d)), 10))
    spec = CodeSpec(f, moduli, len(moduli) - 2)
    message = Poly.from_int(f, 3 * f.q + 2)
    error = [Poly.zero(f)] * spec.n
    error[1] = Poly.one(f)
    return spec, message, encode(spec, message) + Codeword(spec, error)


def _assert_copies_equal(value) -> None:
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert copied == value and hash(copied) == hash(value)


@pytest.mark.parametrize("name", PICKLE_FIELDS)
def test_values_copy_and_pickle_from_their_canonical_form(name):
    """Fields, polynomials, specs, words, decode outcomes and erasure
    patterns round-trip through `copy.copy`, `copy.deepcopy` and `pickle`
    to equal, hash-equal values: a spec before and after it builds its row
    sets, which are not pickled (nor are the field's tables), so a word
    pickles to a few hundred bytes and its copy decodes alike."""
    spec, message, received = _pickle_case(PICKLE_FIELDS[name])
    for value in (spec.field, message, spec):
        _assert_copies_equal(value)
    outcome = decode(spec, received)
    assert outcome.ok and outcome.message == message
    pattern = ErasurePattern(spec, set(range(spec.n)) - {1})
    assert interpolate_fixed_transform(spec, received, pattern) == message
    assert pattern.known_product.degree == spec.N - spec.degrees[1]   # built before it is copied
    for value in (spec.field, spec, received, outcome, pattern):
        _assert_copies_equal(value)
    assert len(pickle.dumps(received)) < 1000
    spec_copy, word_copy = pickle.loads(pickle.dumps((spec, received)))
    assert word_copy.spec is spec_copy
    assert decode(spec_copy, word_copy) == outcome


# unpickles (spec, word) from stdin with the package from argv[1], decodes,
# and writes the outcome back pickled
DECODE_PICKLED = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from remcode.decoder import decode
spec, word = pickle.load(sys.stdin.buffer)
sys.stdout.buffer.write(pickle.dumps(decode(spec, word)))
"""


@pytest.mark.parametrize("name", ["GF(9)", "GF(2^8)"])
def test_a_pickled_word_decodes_alike_in_a_fresh_interpreter(name):
    """A word and its spec, pickled after the spec built its rows, decode
    in another interpreter, where `hash(None)` differs, to the outcome
    decoded here."""
    spec, message, received = _pickle_case(PICKLE_FIELDS[name])
    outcome = decode(spec, received)
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", DECODE_PICKLED, str(src)],
                          input=pickle.dumps((spec, received)), capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    theirs = pickle.loads(done.stdout)
    assert theirs == outcome and hash(theirs) == hash(outcome)
    assert theirs.message == message
