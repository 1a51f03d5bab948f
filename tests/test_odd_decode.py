"""End-to-end decoding over odd fields at sizes that reach the plane paths.

Two specs: GF(9) with 9 linear, 36 quadratic and 6 cubic moduli (N = 99,
K = 39), and GF(17) with 17 linear and 20 quadratic moduli (N = 57,
K = 17).  Their Euclid runs divide by remainders of `PLANE_DIVIDE_MIN`
coefficients and more (`_SlotKernel._divide_planes`), their products of
long operands are Kronecker products (`_SlotKernel.mul`), and their erased
products are plane `product`s.  On both:

* every `DecodeOptions` combination returns the sent message and the error
  word, for errors of degree weight up to `t_degree`;
* both partial gcd runs stop at the t and the iteration count of
  `extended_gcd` on the true error;
* beyond the radius every option returns an outcome and never raises, and
  each success is checked against its definition (`_check_outcome`);
* erasure recovery by the fixed transform equals `interpolate_direct`;
* those three plane paths each ran, and so did the short products'
  `_mul_loop` and both sides of `_slot_sum` (class sums on GF(9), the
  digit loop on GF(17)), counted by patching the kernel instance, so that
  a crossover change that routes these specs around one of them fails
  here instead of losing the coverage unseen.
"""

from __future__ import annotations

import random
from functools import cache

import pytest

from remcode.code import CodeSpec, Codeword, encode, psi_inverse
from remcode.decoder import (
    decode, extended_gcd, partial_gcd_full, partial_gcd_upper, upper_parts)
from remcode.field import Field
from remcode.interpolate import ErasurePattern, interpolate_direct, interpolate_fixed_transform
from remcode.kernels import KRONECKER_MIN, PLANE_DIVIDE_MIN
from remcode.poly import Poly, irreducible_polys

from conftest import random_message
from test_decoder import ALL_OPTIONS
from test_decoder_checks import _check_outcome

# field, modulus degrees (nondecreasing), k
SPECS = {
    "GF(9)": (lambda: Field(3, 2, [1, 0, 1]), (1,) * 9 + (2,) * 36 + (3,) * 6, 24),
    "GF(17)": (lambda: Field(17), (1,) * 17 + (2,) * 20, 17),
}


@cache
def _spec(name: str) -> CodeSpec:
    build, degrees, k = SPECS[name]
    f = build()
    moduli = []
    for d in sorted(set(degrees)):
        moduli.extend(irreducible_polys(f, d)[:degrees.count(d)])
    return CodeSpec(f, moduli, k)


def _error(rng: random.Random, spec: CodeSpec, weight: int) -> Codeword:
    """An error word of degree weight `weight`: random nonzero symbols on
    positions taken in random order while their degrees fit."""
    symbols, budget = [Poly.zero(spec.field)] * spec.n, weight
    for i in rng.sample(range(spec.n), spec.n):
        if spec.degrees[i] <= budget:
            symbols[i] = Poly.from_int(spec.field, rng.randrange(1, spec.field.q ** spec.degrees[i]))
            budget -= spec.degrees[i]
    return Codeword(spec, tuple(symbols))


def test_the_specs_are_as_described():
    for name, n, big_n, big_k in (("GF(9)", 51, 99, 39), ("GF(17)", 37, 57, 17)):
        spec = _spec(name)
        assert (spec.n, spec.N, spec.K) == (n, big_n, big_k)
        assert spec.irreducible and spec.ordered_degree


@pytest.mark.parametrize("name", list(SPECS))
def test_every_option_decodes_within_the_radius(name):
    """Errors of degree weight 0, 1, t_degree / 2, t_degree - 1 and t_degree,
    twice each: every option returns the sent message and the error word,
    and both partial runs stop at `extended_gcd`'s t and iteration count on
    the true error."""
    spec = _spec(name)
    rng = random.Random(name)
    t = spec.t_degree
    for weight in (0, 1, t // 2, t - 1, t) * 2:
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
    """Errors of degree weight t_degree + 1 up to N - K, and uniform words:
    every option returns an outcome, and every success is a codeword at the
    error word it reports."""
    spec = _spec(name)
    rng = random.Random(name + " beyond")
    t, redundancy = spec.t_degree, spec.N - spec.K
    words = [encode(spec, random_message(rng, spec)) + _error(rng, spec, weight)
             for weight in (t + 1, t + 2, (t + redundancy) // 2, redundancy)]
    words += [Codeword(spec, tuple(Poly.from_int(spec.field, rng.randrange(spec.field.q ** d))
                                   for d in spec.degrees)) for _ in range(2)]
    for received in words:
        for options in ALL_OPTIONS:
            _check_outcome(spec, received, decode(spec, received, options))


@pytest.mark.parametrize("name", list(SPECS))
def test_fixed_transform_equals_direct_interpolation(name):
    """Erased degree weights 1 up to N - K, erased symbols overwritten: the
    fixed transform and `interpolate_direct` both return the message."""
    spec = _spec(name)
    rng = random.Random(name + " erasures")
    redundancy = spec.N - spec.K
    for budget in (1, 2, redundancy // 2, redundancy - 1, redundancy):
        sent = random_message(rng, spec)
        erased = _error(rng, spec, budget).support()
        known = frozenset(range(spec.n)) - set(erased)
        pattern = ErasurePattern(spec, known)
        assert pattern.erased_weight == budget
        word = list(encode(spec, sent).symbols)
        direct = interpolate_direct(spec, {i: word[i] for i in known}, pattern)
        for i in erased:
            word[i] = Poly.from_int(spec.field, rng.randrange(spec.field.q ** spec.degrees[i]))
        assert interpolate_fixed_transform(spec, word, pattern) == direct == sent


# the side of `_SlotKernel._slot_sum` each spec's `combine` takes: class sums
# over GF(9), where p - 1 has 2 bits, the digit loop over GF(17), with 5
SLOT_SUM_SIDE = {"GF(9)": "class sums", "GF(17)": "digit loop"}


@pytest.mark.parametrize("name", list(SPECS))
def test_decoding_reaches_the_plane_paths(name, monkeypatch):
    """A decode at t_degree runs `_divide_planes` in its Euclid loop, a
    Kronecker `mul` (shorter operand of at least `KRONECKER_MIN`
    coefficients), the short products' `_mul_loop` and its spec's side of
    `_slot_sum` (`SLOT_SUM_SIDE`); an erasure recovery builds its erased
    product by a `product` on planes (`pack_factors` chose planes: a slot
    size, not None)."""
    spec = _spec(name)
    kernel = spec.field.kernel
    side = SLOT_SUM_SIDE[name]
    ran = {"divide": 0, "kronecker": 0, "product": 0, "mul loop": 0, side: 0}

    def counted(method, path, test):
        def wrapper(*args):
            ran[path] += bool(test(*args))
            return method(*args)
        monkeypatch.setattr(kernel, method.__name__, wrapper)

    counted(kernel._divide_planes, "divide", lambda x, y: len(y) >= PLANE_DIVIDE_MIN)
    counted(kernel.mul, "kronecker", lambda a, b: min(len(a), len(b)) >= KRONECKER_MIN)
    counted(kernel.product, "product", lambda packed, positions: packed[0] is not None)
    counted(kernel._mul_loop, "mul loop", lambda a, b: True)
    counted(kernel._slot_sum, side,
            lambda rows, coeffs: bool(kernel._class_bits) == (side == "class sums"))
    rng = random.Random(name + " paths")
    sent = random_message(rng, spec)
    error = _error(rng, spec, spec.t_degree)
    assert decode(spec, encode(spec, sent) + error).message == sent
    assert ran["divide"] and ran["kronecker"] and not ran["product"], ran
    assert ran["mul loop"] and ran[side], ran
    pattern = ErasurePattern(spec, frozenset(range(spec.n)) - set(error.support()))
    assert interpolate_fixed_transform(spec, list(encode(spec, sent).symbols), pattern) == sent
    assert ran["product"], ran
