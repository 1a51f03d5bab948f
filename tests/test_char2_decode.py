"""End-to-end decoding over characteristic 2 at sizes that reach each
kernel's paths.

Three specs, one per characteristic-2 kernel:

* GF(2) with the irreducible moduli of degrees 1 to 5 in nondecreasing
  order (n = 14, N = 52, K = 14): `BitKernel`;
* RS(64,48) over GF(2^8): `ByteKernel`;
* RS(64,40) over GF(2^16): `Char2Kernel`.  Its moduli x - r are built
  directly, since the sieve refuses degree 1 there (65,536 candidates
  against `MAX_SIEVE_CANDIDATES`).

On each:

* every `DecodeOptions` combination returns the sent message and the error
  word, for errors of degree weight up to `t_degree`;
* both partial gcd runs stop at the t and the iteration count of
  `extended_gcd` on the true error;
* beyond the radius every option returns an outcome and never raises, and
  each success is checked against its definition (`_check_outcome`);
* erasure recovery by the fixed transform equals `interpolate_direct`.

On the GF(2) spec, `list_decode`'s hit is the first candidate of
`build_candidate_list` that passes `_locator_conditions`.  Each kernel's
own paths ran, counted by patching the kernel instance: `BitKernel`'s
`poly_divmod`; `ByteKernel`'s byte-row `poly_mod` and the list `_divide`
of a recovery by a t of fewer than `ROW_MIN` coefficients; `Char2Kernel`'s
`_divide` and `mul`.
"""

from __future__ import annotations

import itertools
import random
from functools import cache

import pytest

from remcode.code import CodeSpec, Codeword, encode, psi_inverse
from remcode.decoder import (
    build_candidate_list, decode, extended_gcd, list_decode, partial_gcd_full,
    partial_gcd_upper, upper_parts)
from remcode.errors import SearchSpaceTooLarge
from remcode.field import Field
from remcode.interpolate import ErasurePattern, interpolate_direct, interpolate_fixed_transform
from remcode.kernels import ROW_MIN, BitKernel, ByteKernel, Char2Kernel
from remcode.poly import MAX_SIEVE_CANDIDATES, Poly, irreducible_polys

from conftest import random_message
from test_decoder import ALL_OPTIONS, _first_hit_by_reference
from test_decoder_checks import _check_outcome
from test_odd_decode import _error


def _gf2_spec() -> CodeSpec:
    f = Field(2)
    return CodeSpec(f, [g for d in range(1, 6) for g in irreducible_polys(f, d)], 6)


def _rs(field: Field, n: int, k: int) -> CodeSpec:
    """RS(n, k) on the linear moduli x - r, r < n."""
    return CodeSpec(field, [Poly(field, [r, 1]) for r in range(n)], k)


# name: (spec builder, kernel class, n, N, K)
SPECS = {
    "GF(2)": (_gf2_spec, BitKernel, 14, 52, 14),
    "GF(2^8)": (lambda: _rs(Field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]), 64, 48),
                ByteKernel, 64, 64, 48),
    "GF(2^16)": (lambda: _rs(Field(2, 16, [1, 1, 0, 1] + [0] * 8 + [1, 0, 0, 0, 1]), 64, 40),
                 Char2Kernel, 64, 64, 40),
}


@cache
def _spec(name: str) -> CodeSpec:
    return SPECS[name][0]()


@pytest.mark.parametrize("name", list(SPECS))
def test_the_specs_are_as_described(name):
    _, kind, n, big_n, big_k = SPECS[name]
    spec = _spec(name)
    assert type(spec.field.kernel) is kind
    assert (spec.n, spec.N, spec.K) == (n, big_n, big_k)
    assert spec.irreducible and spec.ordered_degree
    if spec.field.q > MAX_SIEVE_CANDIDATES:
        with pytest.raises(SearchSpaceTooLarge):
            irreducible_polys(spec.field, 1)


@pytest.mark.parametrize("name", list(SPECS))
def test_every_option_decodes_within_the_radius(name):
    """Errors of degree weight 0, 1, t_degree / 2, t_degree - 1 and t_degree:
    every option returns the sent message and the error word, and both
    partial runs stop at `extended_gcd`'s t and iteration count on the
    true error."""
    spec = _spec(name)
    rng = random.Random(name)
    t = spec.t_degree
    for weight in (0, 1, t // 2, t - 1, t):
        sent, error = random_message(rng, spec), _error(rng, spec, weight)
        assert sum(spec.degrees[i] for i in error.support()) == weight
        received = encode(spec, sent) + error
        for options in ALL_OPTIONS:
            out = decode(spec, received, options)
            assert out.ok and out.message == sent and out.error_word == error, options
        reference = extended_gcd(spec.modulus_product, psi_inverse(spec, error))
        y = psi_inverse(spec, received)
        m_upper, e_upper = upper_parts(spec, y)
        for run in (partial_gcd_full(spec.modulus_product, y, spec.K),
                    partial_gcd_upper(m_upper, e_upper, spec.N, spec.K)):
            assert (run.t, run.iterations) == (reference.t, reference.iterations)


@pytest.mark.parametrize("name", list(SPECS))
def test_beyond_the_radius_outcomes_are_values(name):
    """Errors of degree weight t_degree + 1 and N - K, and a uniform word:
    every option returns an outcome, and every success is a codeword at the
    error word it reports."""
    spec = _spec(name)
    rng = random.Random(name + " beyond")
    words = [encode(spec, random_message(rng, spec)) + _error(rng, spec, weight)
             for weight in (spec.t_degree + 1, spec.N - spec.K)]
    words.append(Codeword(spec, tuple(Poly.from_int(spec.field, rng.randrange(spec.field.q ** d))
                                      for d in spec.degrees)))
    for received in words:
        for options in ALL_OPTIONS:
            _check_outcome(spec, received, decode(spec, received, options))


@pytest.mark.parametrize("name", list(SPECS))
def test_fixed_transform_equals_direct_interpolation(name):
    """Erased degree weights up to 1, (N - K) / 2 and N - K (the GF(2)
    spec's few low degrees may leave a budget short), erased symbols
    overwritten: the fixed transform and `interpolate_direct` both return
    the message."""
    spec = _spec(name)
    rng = random.Random(name + " erasures")
    redundancy = spec.N - spec.K
    for budget in (1, redundancy // 2, redundancy):
        sent = random_message(rng, spec)
        erased = _error(rng, spec, budget).support()
        known = frozenset(range(spec.n)) - set(erased)
        pattern = ErasurePattern(spec, known)
        assert 0 < pattern.erased_weight <= budget
        word = list(encode(spec, sent).symbols)
        direct = interpolate_direct(spec, {i: word[i] for i in known}, pattern)
        for i in erased:
            word[i] = Poly.from_int(spec.field, rng.randrange(spec.field.q ** spec.degrees[i]))
        assert interpolate_fixed_transform(spec, word, pattern) == direct == sent


def test_list_decode_hit_is_the_reference_first_hit():
    """An error on each candidate's support, four of the six degree-5
    positions (degree weight 20 > t_degree = 19): wherever the gcd decoder
    fails, `list_decode` recovers from the first candidate that passes
    `_locator_conditions`, or returns the failure when none does; at least
    one word is a hit."""
    spec = _spec("GF(2)")
    candidates = build_candidate_list(spec)
    fives = [i for i, d in enumerate(spec.degrees) if d == 5]
    supports = list(itertools.combinations(fives, 4))
    assert candidates == [spec.product(support) for support in supports]
    rng = random.Random("GF(2) list")
    hits = 0
    for support in supports:
        sent = random_message(rng, spec)
        symbols = [Poly.zero(spec.field)] * spec.n
        for i in support:
            symbols[i] = Poly.from_int(spec.field, rng.randrange(1, 32))
        received = encode(spec, sent) + Codeword(spec, tuple(symbols))
        base, listed = decode(spec, received), list_decode(spec, received, candidates)
        if base.ok:
            assert listed == base
            continue
        hit = _first_hit_by_reference(spec, psi_inverse(spec, received), candidates)
        if hit is None:
            assert listed == base
        else:
            assert listed.ok and (listed.factor_poly, listed.message) == hit
            hits += 1
    assert hits


# each spec's kernel methods that must run, with the test a call must pass
PATHS = {
    "GF(2)": {"poly_divmod": lambda x, y: True},
    "GF(2^8)": {"poly_mod": lambda x, y, quot=None: True,
                "_divide": lambda rem, b, quot: len(b) < ROW_MIN},
    "GF(2^16)": {"_divide": lambda rem, b, quot: True, "mul": lambda a, b: True},
}


@pytest.mark.parametrize("name", list(SPECS))
def test_decoding_reaches_the_kernel_paths(name, monkeypatch):
    """A decode at 3 and at t_degree, each under every option, runs the
    spec's kernel paths (`PATHS`); over GF(2^8) the list `_divide` runs on
    a divisor of fewer than `ROW_MIN` coefficients, the locator t of the
    weight-3 error."""
    spec = _spec(name)
    kernel = spec.field.kernel
    ran = dict.fromkeys(PATHS[name], 0)

    def counted(attr, test):
        method = getattr(kernel, attr)

        def wrapper(*args):
            ran[attr] += bool(test(*args))
            return method(*args)
        monkeypatch.setattr(kernel, attr, wrapper)

    for attr, test in PATHS[name].items():
        counted(attr, test)
    rng = random.Random(name + " paths")
    for weight in (3, spec.t_degree):
        sent = random_message(rng, spec)
        received = encode(spec, sent) + _error(rng, spec, weight)
        for options in ALL_OPTIONS:
            assert decode(spec, received, options).message == sent
    assert all(ran.values()), ran
