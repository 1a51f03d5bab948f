"""The decoder's invariant checks still fire, and its error word is exact.

`_success` does not re-encode the message: it builds the error word from
the residue row of Y - message, for Y the received preimage.  These tests
compare every outcome with the definition, received - encode(message), and
symbol by symbol with the residues of Y and of the message by division, on
decodable and undecodable words alike, over reducible moduli too.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import remcode.decoder as decoder
from remcode.code import CodeSpec, Codeword, encode, psi_inverse, weights
from remcode.decoder import (
    Algorithm,
    DecodeOptions,
    DecodeStatus,
    Recovery,
    Stopping,
    build_candidate_list,
    decode,
    extended_gcd,
    list_decode,
    partial_gcd_full,
    partial_gcd_upper,
    upper_parts,
)
from remcode.field import Field
from remcode.poly import Poly, irreducible_polys

from conftest import random_message

ALL_OPTIONS = [
    DecodeOptions(a, s, r)
    for a in Algorithm for s in Stopping for r in Recovery
    if not (r is Recovery.RATIO and a is not Algorithm.FULL)
]


@pytest.fixture(scope="module")
def rs64() -> CodeSpec:
    """RS(64,48) over GF(2^8): the first 64 linear moduli, k = 48."""
    gf256 = Field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1])
    return CodeSpec(gf256, irreducible_polys(gf256, 1)[:64], 48)


@pytest.fixture(scope="module")
def gf9_code() -> CodeSpec:
    """GF(9) code with 9 linear and 4 quadratic moduli, k = 5 (N = 17, K = 5)."""
    gf9 = Field(3, 2, [1, 0, 1])
    moduli = list(irreducible_polys(gf9, 1)) + list(irreducible_polys(gf9, 2))[:4]
    return CodeSpec(gf9, moduli, 5)


def _random_error(rng: random.Random, spec: CodeSpec, positions) -> Codeword:
    """Random nonzero symbols at the given positions, or at that many random ones."""
    if isinstance(positions, int):
        positions = rng.sample(range(spec.n), positions)
    symbols = [Poly.zero(spec.field)] * spec.n
    for i in positions:
        symbols[i] = Poly.from_int(spec.field, rng.randrange(1, spec.field.q ** spec.degrees[i]))
    return Codeword(spec, tuple(symbols))


def _check_outcome(spec: CodeSpec, received: Codeword, out) -> bool:
    """True for a success.  The error word must match its definition,
    received - encode(message), exactly, and the symbol-wise reference:
    symbol i is residue(Y, i) - residue(message, i) by division, and the
    support and weights are read off those symbols."""
    if out.status is DecodeStatus.FAILURE:
        return False
    assert out.error_word == received - encode(spec, out.message)
    y = psi_inverse(spec, received)
    expected = tuple(spec.residue(y, i) - spec.residue(out.message, i) for i in range(spec.n))
    support = tuple(i for i, e in enumerate(expected) if not e.is_zero)
    assert out.error_word.symbols == expected
    assert out.error_word.support() == support
    assert weights(out.error_word) == (len(support), sum(spec.degrees[i] for i in support))
    return True


# -- the invariant asserts still run --------------------------------------------------


def _gcd_runs(spec: CodeSpec, y: Poly):
    m_upper, e_upper = upper_parts(spec, y)
    return {
        "full": lambda: partial_gcd_full(spec.modulus_product, y, spec.K),
        "upper": lambda: partial_gcd_upper(m_upper, e_upper, spec.N, spec.K),
        "reference": lambda: extended_gcd(spec.modulus_product, y),
    }


def _corrupted_preimage(spec: CodeSpec) -> Poly:
    rng = random.Random(5)
    word = encode(spec, random_message(rng, spec)) + _random_error(rng, spec, 3)
    return psi_inverse(spec, word)


@pytest.mark.skipif(not __debug__, reason="python -O strips the decoder's asserts")
@pytest.mark.parametrize("run", ["full", "upper", "reference"])
def test_per_pass_gcd_check_fires(monkeypatch, rs64, run):
    real = decoder.poly_gcd
    calls = []

    def lying(a, b):
        calls.append(None)
        g = real(a, b)
        return g * Poly.x(g.field) if len(calls) == 2 else g

    monkeypatch.setattr(decoder, "poly_gcd", lying)
    with pytest.raises(AssertionError):
        _gcd_runs(rs64, _corrupted_preimage(rs64))[run]()
    assert len(calls) == 2


@pytest.mark.parametrize("run", ["full", "upper", "reference"])
def test_per_pass_gcd_check_runs_every_pass(monkeypatch, rs64, run):
    real = decoder.poly_gcd
    calls = []

    def counting(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(decoder, "poly_gcd", counting)
    result = _gcd_runs(rs64, _corrupted_preimage(rs64))[run]()
    assert result.iterations > 0
    assert len(calls) == (result.iterations + 1 if __debug__ else 0)


DECODE_GCD_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import remcode.decoder as decoder
from remcode import CodeSpec, Codeword, GF, Poly, encode
from remcode.decoder import Algorithm, DecodeOptions, Recovery, Stopping, decode

gf5 = GF(5)
spec = CodeSpec(gf5, [Poly(gf5, [(-r) % 5, 1]) for r in (1, 2, 3, 4)], 2)
error = Codeword(spec, (Poly(gf5, [3]),) + (Poly.zero(gf5),) * 3)
received = encode(spec, Poly(gf5, [0, 1])) + error
real, calls = decoder.poly_gcd, []
decoder.poly_gcd = lambda a, b: calls.append(None) or real(a, b)
statuses = [decode(spec, received, DecodeOptions(a, s, r)).status.name
            for a in Algorithm for s in Stopping for r in Recovery
            if not (r is Recovery.RATIO and a is not Algorithm.FULL)]
print(json.dumps({"debug": __debug__, "gcd_calls": len(calls),
                  "memo": len(gf5.kernel._memo), "statuses": sorted(set(statuses))}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "-O"])
def test_optimized_decode_runs_no_gcd(flags):
    """gcd0 is read only by the per-pass assert, so under `python -O` a
    decode computes no gcd and leaves the kernel's memo empty; with asserts
    on, every decode still runs the per-pass check.  One error on RS(4,2)
    over GF(5), under all ten options, in a fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, *flags, "-c", DECODE_GCD_PROBE, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["statuses"] == ["SUCCESS"]
    if flags:
        assert report == {"debug": False, "gcd_calls": 0, "memo": 0, "statuses": ["SUCCESS"]}
    else:
        assert report["debug"] is True
        assert report["gcd_calls"] >= 2 * 10 and report["memo"] > 0


def _untracked_gcd_runs(spec: CodeSpec, y: Poly):
    """The three runs without s, so that of the per-pass asserts only the
    gcd and degree checks run."""
    m_upper, e_upper = upper_parts(spec, y)
    return {
        "full": lambda: partial_gcd_full(spec.modulus_product, y, spec.K, track_s=False),
        "upper": lambda: partial_gcd_upper(m_upper, e_upper, spec.N, spec.K, track_s=False),
        "reference": lambda: extended_gcd(spec.modulus_product, y, track_s=False),
    }


@pytest.mark.skipif(not __debug__, reason="python -O strips the decoder's asserts")
@pytest.mark.parametrize("run", ["full", "upper", "reference"])
def test_per_pass_gcd_check_fires_with_the_memo_warm(monkeypatch, rs64, run):
    """gcd0 walks the true remainder chain and leaves it in the kernel's
    memo.  Pass 2 then returns 0 for its remainder: still of lower degree,
    with the true quotient, so the degree checks hold, but off the chain.
    gcd(0, rt) is rt made monic, of higher degree than gcd0, and the memo
    must not answer for it.  The loop divides on packed values, so the fault
    is injected at its seam, the kernel's `poly_divmod`."""
    runs = _untracked_gcd_runs(rs64, _corrupted_preimage(rs64))
    kernel = rs64.field.kernel
    real, zero = kernel.poly_divmod, kernel.to_packed(())
    passes = []

    def off_chain(x, y):
        q, r = real(x, y)
        passes.append(r)
        return (q, zero) if len(passes) == 2 else (q, r)

    monkeypatch.setattr(kernel, "poly_divmod", off_chain)
    with pytest.raises(AssertionError) as excinfo:
        runs[run]()
    assert len(passes) == 2 and passes[1] != zero
    assert "poly_gcd(r, rt) == gcd0" in str(excinfo.traceback[-1].statement)


# -- the error word is exact ---------------------------------------------------------


def test_error_word_exact_rs64(rs64):
    rng = random.Random(64)
    successes = 0
    for trial in range(12):
        a = random_message(rng, rs64)
        # weights up to 12 > t = 8: some decodes fail, some may miscorrect
        y = encode(rs64, a) + _random_error(rng, rs64, trial)
        for options in ALL_OPTIONS:
            successes += _check_outcome(rs64, y, decode(rs64, y, options))
        successes += _check_outcome(rs64, y, list_decode(rs64, y, [], ALL_OPTIONS[trial % 10]))
    assert successes >= 9 * 11


def test_error_word_exact_reducible_moduli(reducible_spec):
    spec = reducible_spec
    assert not spec.irreducible
    rng = random.Random(8)
    successes = 0
    for _ in range(40):
        y = encode(spec, random_message(rng, spec)) + _random_error(rng, spec, rng.randint(0, 2))
        for options in ALL_OPTIONS:
            successes += _check_outcome(spec, y, decode(spec, y, options))
    assert successes > 0


def test_error_word_exact_gf9(gf9_code):
    spec = gf9_code
    candidates = build_candidate_list(spec)
    rng = random.Random(9)
    successes = list_recoveries = 0
    for trial in range(40):
        # odd trials: degree weight 7 or 8 > t_degree = 6 on the quadratic tail
        # (positions 9-12), which only the list decoder recovers
        if trial % 2 == 0:
            support = trial % 5
        elif trial % 4 == 1:
            support = list(range(9, 13))
        else:
            support = rng.sample(range(9, 13), 3) + rng.sample(range(9), 1)
        y = encode(spec, random_message(rng, spec)) + _random_error(rng, spec, support)
        for options in ALL_OPTIONS:
            successes += _check_outcome(spec, y, decode(spec, y, options))
        base = decode(spec, y, ALL_OPTIONS[trial % 10])
        out = list_decode(spec, y, candidates, ALL_OPTIONS[trial % 10])
        if _check_outcome(spec, y, out) and base.status is DecodeStatus.FAILURE:
            list_recoveries += 1
    assert successes > 0
    assert list_recoveries > 0


# -- the locator test decides by division first ------------------------------------


def test_locator_rejects_dividing_candidate_with_too_many_zero_residues(ladder5):
    """{0, 1} divides when the error sits at 0, but x * (x^2+x+1) has two
    zero residues, above t_hamming = 1."""
    rng = random.Random(5)
    for _ in range(5):
        a = random_message(rng, ladder5)
        received = encode(ladder5, a) + _random_error(rng, ladder5, [0])
        y = psi_inverse(ladder5, received)
        g = ladder5.moduli[0] * ladder5.moduli[1]
        z = (g * y) % ladder5.modulus_product
        assert z == g * a and (z % g).is_zero
        assert decoder.count_zero_residues(ladder5, g) == 2 > ladder5.t_hamming
        assert decoder.error_locator_test(ladder5, y, [0, 1]) == (False, z)
        assert decoder.error_locator_test(ladder5, y, [0]) == (True, ladder5.moduli[0] * a)


def test_locator_rejects_dividing_candidate_above_the_degree_cap(ladder5):
    """g = m_4 * (x + 1) divides Z when the error sits at 4 and has one zero
    residue, but deg g = 6 exceeds the largest t_hamming = 1 degree, 5.  Only
    the degree cap rejects it; without the factor x + 1 it passes."""
    field = ladder5.field
    rng = random.Random(6)
    for _ in range(5):
        a = random_message(rng, ladder5)
        received = encode(ladder5, a) + _random_error(rng, ladder5, [4])
        y = psi_inverse(ladder5, received)
        g = ladder5.moduli[4] * Poly(field, [1, 1])
        assert decoder.count_zero_residues(ladder5, g) == 1 == ladder5.t_hamming
        assert g.degree == 6 > max(ladder5.degrees)
        assert decoder._locator_conditions(ladder5, y, g) == (False, g * a)
        assert list_decode(ladder5, received, [g]).status is DecodeStatus.FAILURE
        m4 = ladder5.moduli[4]
        assert decoder._locator_conditions(ladder5, y, m4) == (True, m4 * a)
