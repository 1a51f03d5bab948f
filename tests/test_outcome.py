"""A decode outcome keeps its run, and builds its error word on first read.

Every outcome that `decode` or `list_decode` returns keeps its spec and the
received preimage Y, failures included.  On those:

* no forward `combine` (the map `CodeSpec._row` runs) builds an error word
  while nobody reads it, on NO_ERROR, success, failure and a list hit; the
  first read builds it with exactly one, and later reads take none.  The
  list scan's own forward combines, one per zero-residue count of a
  candidate (`count_zero_residues`, g's row), are counted apart;
* the word equals received - encode(message) on the specs of
  `tests/test_char2_decode.py` and `tests/test_odd_decode.py`, list hits
  included, and is None on a failure;
* outcomes compare and hash by value, read or unread, and `copy`,
  `deepcopy` and `pickle` give the same outcome with no built word in it;
* `list_decode` inverts the word once, and takes Y from a handed
  `gcd_outcome`, which must be of the same spec and hold a preimage.

These tests run under `python -O` too, where `decode` runs no gcd check.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import random

import pytest

import remcode.decoder as decoder
from remcode.code import CodeSpec, Codeword, encode, psi_inverse
from remcode.decoder import (
    DecodeOutcome, DecodeStatus, FailureReason, build_candidate_list, decode,
    list_decode)
from remcode.errors import SpecMismatch
from remcode.poly import Poly

import test_char2_decode
import test_odd_decode
from conftest import random_message
from test_decoder import ALL_OPTIONS
from test_odd_decode import _error


def _word(spec: CodeSpec, sent: Poly, values: dict[int, int]) -> tuple[Codeword, Codeword]:
    """(received, error) for an error of the given symbol ints per position."""
    error = [Poly.zero(spec.field)] * spec.n
    for i, v in values.items():
        error[i] = Poly.from_int(spec.field, v)
    error = Codeword(spec, tuple(error))
    return encode(spec, sent) + error, error


@pytest.fixture
def forward_combines(monkeypatch):
    """`count(spec)` patches the spec's kernel instance so that each
    `combine` over the spec's forward rows is counted; it returns the
    counter, a one-entry list."""
    def count(spec: CodeSpec) -> list[int]:
        kernel, rows, calls = spec.field.kernel, spec._forward_rows, [0]
        combine = kernel.combine

        def counted(r, coeffs):
            calls[0] += r is rows
            return combine(r, coeffs)
        monkeypatch.setattr(kernel, "combine", counted, raising=False)
        return calls
    return count


@pytest.fixture
def zero_residue_counts(monkeypatch):
    """Counts the list scan's `count_zero_residues` calls."""
    calls, counter = [0], decoder.count_zero_residues

    def counted(spec, g):
        calls[0] += 1
        return counter(spec, g)
    monkeypatch.setattr(decoder, "count_zero_residues", counted)
    return calls


def _ladder_words(spec: CodeSpec):
    """(received, error, gcd status, list status) on `ladder5`: no error,
    one the gcd decoder corrects, one on m_4 that only the list recovers,
    and one on m_3 and m_4 that neither does."""
    sent = random_message(random.Random(1), spec)
    cases = (({}, DecodeStatus.NO_ERROR, DecodeStatus.NO_ERROR),
             ({2: 1}, DecodeStatus.SUCCESS, DecodeStatus.SUCCESS),
             ({4: 5}, DecodeStatus.FAILURE, DecodeStatus.SUCCESS),
             ({3: 3, 4: 5}, DecodeStatus.FAILURE, DecodeStatus.FAILURE))
    for values, gcd_status, list_status in cases:
        yield _word(spec, sent, values) + (gcd_status, list_status)


def test_no_word_is_built_until_it_is_read(ladder5, forward_combines, zero_residue_counts):
    """Over GF(2) (`BitKernel`): no forward combine per `decode` on any of
    the four statuses, none per `list_decode` beyond the scan's own
    zero-residue counts, and one on the first read of a word, however
    often it is read; a failure's word is None and takes none."""
    candidates = build_candidate_list(ladder5)
    combines = forward_combines(ladder5)
    for received, error, gcd_status, list_status in _ladder_words(ladder5):
        for options in ALL_OPTIONS:
            combines[0] = zero_residue_counts[0] = 0
            out = decode(ladder5, received, options)
            assert out.status is gcd_status and combines[0] == 0
            listed = list_decode(ladder5, received, candidates, options)
            assert listed.status is list_status
            assert combines[0] == zero_residue_counts[0]
            for outcome in (out, listed):
                combines[0] = 0
                words = [outcome.error_word for _ in range(3)]
                if outcome.ok:
                    assert words == [error] * 3 and combines[0] == 1
                else:
                    assert words == [None] * 3 and combines[0] == 0


def test_a_handed_gcd_outcome_is_scanned_without_inverting_again(ladder5, monkeypatch):
    """`list_decode` inverts the word once, in `decode`, and not at all with
    `gcd_outcome` given: the scan reads Y from the failed outcome, which
    keeps it."""
    candidates = build_candidate_list(ladder5)
    inversions, invert = [0], decoder.psi_inverse

    def counted(spec, word):
        inversions[0] += 1
        return invert(spec, word)
    monkeypatch.setattr(decoder, "psi_inverse", counted)
    for received, error, gcd_status, list_status in _ladder_words(ladder5):
        listed = list_decode(ladder5, received, candidates)
        assert listed.status is list_status and inversions[0] == 1
        base = decode(ladder5, received)
        assert base.received_preimage == psi_inverse(ladder5, received)
        assert base.spec is ladder5
        inversions[0] = 0
        assert list_decode(ladder5, received, candidates, gcd_outcome=base) == listed
        assert inversions[0] == 0


def test_list_decode_refuses_a_gcd_outcome_it_cannot_scan(ladder5, monkeypatch):
    """A gcd outcome of another spec raises SpecMismatch, and a hand-built
    one, which holds no preimage, ValueError, both before any scan; an
    equal spec built apart is the same code."""
    received, _, _, _ = list(_ladder_words(ladder5))[2]
    candidates = build_candidate_list(ladder5)
    expected = list_decode(ladder5, received, candidates)
    assert expected.ok
    other = CodeSpec(ladder5.field, ladder5.moduli, 2)
    foreign = decode(other, Codeword(other, received.symbols))
    twin = CodeSpec(ladder5.field, ladder5.moduli, ladder5.k)
    from_twin = decode(twin, Codeword(twin, received.symbols))
    assert not from_twin.ok

    def no_scan(*args):
        raise AssertionError("list_decode scanned")
    monkeypatch.setattr(decoder, "_locator_scan", no_scan)
    for outcome in (foreign, decode(other, encode(other, Poly.zero(other.field)))):
        with pytest.raises(SpecMismatch):
            list_decode(ladder5, received, candidates, gcd_outcome=outcome)
    for status in DecodeStatus:
        hand_built = DecodeOutcome(status, failure_reason=FailureReason.NON_DIVISIBLE
                                   if status is DecodeStatus.FAILURE else None)
        assert hand_built.error_word is None
        with pytest.raises(ValueError, match="no received preimage"):
            list_decode(ladder5, received, candidates, gcd_outcome=hand_built)
    monkeypatch.undo()
    assert list_decode(ladder5, received, candidates, gcd_outcome=from_twin) == expected


def _list_case(spec: CodeSpec, rng: random.Random):
    """(received, error, candidates) for an error on t_hamming of the
    highest-degree positions, past the gcd radius; the candidates are a
    decoy support's product, then the error's."""
    support = tuple(range(spec.n - spec.t_hamming, spec.n))
    assert sum(spec.degrees[i] for i in support) > spec.t_degree
    values = {i: rng.randrange(1, spec.field.q ** spec.degrees[i]) for i in support}
    received, error = _word(spec, random_message(rng, spec), values)
    decoy = tuple(range(spec.t_hamming))
    return received, error, [spec.product(decoy), spec.product(support)]


SPEC_BUILDERS = {
    **{f"char2 {name}": lambda name=name: test_char2_decode._spec(name)
       for name in test_char2_decode.SPECS},
    **{f"odd {name}": lambda name=name: test_odd_decode._spec(name)
       for name in test_odd_decode.SPECS},
}


@pytest.mark.parametrize("name", list(SPEC_BUILDERS))
def test_the_word_is_received_minus_the_encoded_message(name, forward_combines):
    """Errors of degree weight 0, 1 and t_degree, and one past the radius,
    under two options: a success's word is received - encode(message),
    built by one forward combine on first read; a failure's is None.  Where
    an error on t_hamming positions lies past the radius (GF(2), GF(9)),
    the list hit's word is that error."""
    spec = SPEC_BUILDERS[name]()
    rng = random.Random(name)
    combines = forward_combines(spec)
    t = spec.t_degree
    for weight in (0, 1, t, min(t + 3, spec.N - spec.K)):
        sent, error = random_message(rng, spec), _error(rng, spec, weight)
        received = encode(spec, sent) + error
        for options in ALL_OPTIONS[::5]:
            combines[0] = 0
            out = decode(spec, received, options)
            assert combines[0] == 0
            if out.ok:
                expected = received - encode(spec, out.message)
                combines[0] = 0
                assert out.error_word == expected and combines[0] == 1
                if weight <= t:
                    assert out.message == sent and out.error_word == error
            else:
                assert weight > t and out.error_word is None
    if not spec.ordered_degree or sum(sorted(spec.degrees)[-spec.t_hamming:]) <= t:
        return
    received, error, candidates = _list_case(spec, rng)
    base = decode(spec, received)
    assert not base.ok and base.error_word is None
    listed = list_decode(spec, received, candidates, gcd_outcome=base)
    assert listed.ok and listed.factor_poly == candidates[1]
    assert received - encode(spec, listed.message) == error
    combines[0] = 0
    assert listed.error_word == error and combines[0] == 1


def _outcomes(spec: CodeSpec):
    """Outcomes of every status, and a list hit: the same run decoded twice,
    so that one copy can be read and the other left unread."""
    candidates = build_candidate_list(spec)
    for received, _, _, _ in _ladder_words(spec):
        yield decode(spec, received), decode(spec, received)
        yield (list_decode(spec, received, candidates),
               list_decode(spec, received, candidates))


def test_outcomes_compare_hash_copy_and_pickle_read_or_unread(ladder5):
    """An outcome whose word was read equals and hashes as one whose word
    was not, and both survive `copy.copy`, `copy.deepcopy` and `pickle` as
    equal, hash-equal outcomes that hold no built word; read and unread
    pickle to the same bytes.  Any other field that differs, the word
    included, makes them unequal."""
    outcomes = []
    for read, unread in _outcomes(ladder5):
        hash_before = hash(read)
        read.error_word
        assert hash(read) == hash_before == hash(unread)
        # the word is cached on the read outcome, and hashing built none
        assert "error_word" in vars(read) and "error_word" not in vars(unread)
        assert read == unread and unread == read
        assert pickle.dumps(read) == pickle.dumps(unread)
        for value in (read, unread):
            for twin in (copy.copy(value), copy.deepcopy(value),
                         pickle.loads(pickle.dumps(value))):
                assert "error_word" not in vars(twin)
                assert twin.received_preimage == value.received_preimage
                assert twin == value and hash(twin) == hash(value)
        outcomes.append(read)
    assert [o.status for o in outcomes] == [
        DecodeStatus.NO_ERROR, DecodeStatus.NO_ERROR, DecodeStatus.SUCCESS, DecodeStatus.SUCCESS,
        DecodeStatus.FAILURE, DecodeStatus.SUCCESS, DecodeStatus.FAILURE, DecodeStatus.FAILURE]
    # a word's gcd and list outcomes are equal but for the list hit (5), and
    # a failure holds no message or word, so the three that share a reason
    # are equal
    groups = ({0, 1}, {2, 3}, {4, 6, 7}, {5})
    assert {o.failure_reason for o in outcomes if not o.ok} == {
        FailureReason.FACTOR_DEGREE_EXCEEDED}
    for (i, a), (j, b) in itertools.combinations(enumerate(outcomes), 2):
        assert (a == b) == any({i, j} <= group for group in groups), (i, j)
    # the same message and factor on another word: only the words differ
    no_error, success = outcomes[0], outcomes[2]
    shifted = DecodeOutcome(success.status, success.message, success.factor_poly,
                            spec=ladder5, received_preimage=no_error.received_preimage)
    assert shifted != success and hash(shifted) == hash(success)
