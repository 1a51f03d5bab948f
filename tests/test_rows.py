"""The residue transform and its inverse as packed-row maps.

Kernel level: `combine` over `pack`ed rows, and `combine_packed` and its
`packed_len`, which the list scan's degree test reads, against the sum of
`scale` and `add` through
the same kernel, on every kernel, on both sides of the odd kernels'
`CLASS_BITS` (class sums over GF(3) to GF(27), the multiply-add loop over
GF(251) and GF(65521), whose slots need 4 or 8 bytes), and at full size
(255 rows of 300 coefficients) on every field; `combine_onto` against
that sum plus its base row, at the same loads; and `product` over
`pack_factors` against the generic `poly_mul` chain on every field and
GF(3^6), with no factor, one factor and repeated ones, at the longest
factors each plane slot width holds and the first that needs more, at the
worst slot load; `_SlotKernel._multiples` against `scale` by alpha^a; and
that `pack` + `combine`, `pack_factors` + `product` and a Kronecker `mul`
over GF(9) and GF(25) build no field table.  Spec level: `residues`,
`encode` and `psi_inverse` against the references kept in the tree:
`CodeSpec.residue`, `a % m_i` and `interpolate_direct`, on specs with
reducible, unordered and mixed-degree moduli, and at full size on
RS(255,223) and over GF(2^16);
`Codeword`'s flat row, the symbols split from it, its row
arithmetic, its support and weights and the zero-residue count against the
same words built and added symbol by symbol; a count of row splits on every
library path, which split none; the symbols `_split` shares, one `Poly` per
distinct slice up to `MAX_SHARED_SYMBOLS`; and `CodeSpec._shift_rows`, the rows
x^j * v mod M_n that the inverse rows and the list decoder's scan are
built from, against (x^j * v) % M_n, and `CodeSpec._reduce`, the
fixed-transform decoder's reduction mod M_n by rows, against a % M_n.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from remcode.code import (
    MAX_SHARED_SYMBOLS, CodeSpec, Codeword, degree_weight, distances, encode, hamming_weight,
    psi_inverse, weights)
from remcode.decoder import build_candidate_list, count_zero_residues, decode, error_locator_poly
from remcode.field import Field
from remcode.fileio import dumps_codeword, loads_codeword
from remcode.interpolate import ErasurePattern, interpolate_direct, interpolate_fixed_transform
from remcode.kernels import (
    CLASS_BITS, KRONECKER_MIN, BitKernel, ByteKernel, Char2Kernel, OddKernel, PrimeKernel,
    _Kernel, _slot_size, _slot_struct)
from remcode.oracle import brute_force_decode, exhaustive_scan
from remcode.poly import Poly, irreducible_polys
from remcode.sim import FIXED_POSITIONS, RANDOM_DEGREE, ChannelModel, corrupt, simulate

from test_kernels import coprime_specs, elements

FIELDS = {
    "GF(2)": Field(2),
    "GF(3)": Field(3),
    "GF(7)": Field(7),
    "GF(9)": Field(3, 2, [1, 0, 1]),
    "GF(25)": Field(5, 2, [2, 1, 1]),
    "GF(27)": Field(3, 3, [1, 2, 0, 1]),
    "GF(251)": Field(251),
    "GF(2^8)": Field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
    "GF(2^9)": Field(2, 9, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1]),
    "GF(2^16)": Field(2, 16, [1, 1, 0, 1] + [0] * 8 + [1, 0, 0, 0, 1]),
    "GF(65521)": Field(65521),
}
KINDS = {"GF(2)": BitKernel, "GF(3)": PrimeKernel, "GF(7)": PrimeKernel, "GF(9)": OddKernel,
         "GF(25)": OddKernel, "GF(27)": OddKernel, "GF(251)": PrimeKernel,
         "GF(2^8)": ByteKernel, "GF(2^9)": Char2Kernel, "GF(2^16)": Char2Kernel,
         "GF(65521)": PrimeKernel}
ODD = [name for name, f in FIELDS.items() if f.p > 2]


def _strip(c) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def reference_combine(f: Field, rows, coeffs) -> tuple[int, ...]:
    """sum_j coeffs[j] * rows[j] through the kernel's `scale` and `add`."""
    kernel, acc = f.kernel, []
    for c, row in zip(coeffs, rows):
        if c:
            acc = kernel.add(acc, kernel.scale(row, c))
    return _strip(acc)


def check_combine(f: Field, rows, coeffs) -> None:
    """`combine` against the reference, and `combine_packed` against it
    unpacked and its `packed_len` against its length."""
    kernel = f.kernel
    packed = kernel.pack(rows)
    out = kernel.combine(packed, coeffs)
    expected = reference_combine(f, rows, coeffs)
    assert len(out) == len(rows[0])
    assert _strip(out) == expected
    assert kernel.from_packed(kernel.combine_packed(packed, coeffs)) == expected
    assert kernel.packed_len(kernel.combine_packed(packed, coeffs)) == len(_strip(out))
    # combine_onto, with a base of every digit p - 1 (the slots' worst load) and a shorter one
    for base in ([f.q - 1] * len(rows[0]), rows[0][:len(rows[0]) // 2]):
        onto = kernel.from_packed(kernel.combine_onto(packed, coeffs, base))
        assert onto == _strip(kernel.add(list(expected), base))


# -- kernel level ------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(FIELDS))
def test_combine_matches_scale_and_add(name):
    f = FIELDS[name]
    assert type(f.kernel) is KINDS[name]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def check(data):
        count = data.draw(st.one_of(st.just(1), st.integers(1, 12)))
        length = data.draw(st.integers(1, 20))
        rows = [data.draw(st.lists(elements(f), min_size=length, max_size=length))
                for _ in range(count)]
        coeffs = data.draw(st.lists(elements(f), max_size=count))
        check_combine(f, rows, coeffs)

    check()


@pytest.mark.parametrize("name", list(FIELDS))
def test_combine_of_nothing_is_zero(name):
    """No coefficients, zero coefficients, and zero rows all give zero."""
    f = FIELDS[name]
    kernel = f.kernel
    first = [1, f.q - 1, 0, 2 % f.q]
    rows = kernel.pack([first, [0, 0, 0, 1]])
    assert _strip(kernel.combine(rows, [])) == ()
    assert _strip(kernel.combine(rows, [0, 0])) == ()
    assert _strip(kernel.combine(kernel.pack([[0] * 5] * 3), [1, f.q - 1, 0])) == ()
    assert not kernel.combine_packed(rows, [0, 0]) and not kernel.combine_packed(rows, [])
    assert kernel.packed_len(kernel.combine_packed(rows, [])) == 0
    assert _strip(kernel.combine(rows, [1])) == _strip(first)


def _slot_counts(f: Field, cap: int = 10_000) -> list[int]:
    """Row counts at which the slot width changes: for each width, the last
    count whose largest sum fits and the first that needs the next width."""
    per_row = f.m * (f.p - 1) ** 2
    counts = {1, 2}
    for bits in (8, 16, 32):
        first = -(-(1 << bits) // per_row)       # smallest count whose bound reaches 2^bits
        counts.update(c for c in (first - 1, first) if 1 <= c <= cap)
    return sorted(counts)


@pytest.mark.parametrize("name", list(FIELDS))
def test_combine_at_the_worst_slot_load(name):
    """Every row entry and every coefficient has all its digits p - 1, with as
    many rows as reach each slot width; in a prime field every slot then
    holds exactly the bound rows * (p-1)^2 the width is sized for."""
    f = FIELDS[name]
    top = f.q - 1
    for count in _slot_counts(f):
        rows = [[top] * 3] * count
        check_combine(f, rows, [top] * count)


def check_full_size(name: str) -> None:
    """255 rows of 300 coefficients, each row's top entries zero from a
    drawn point on: `combine` against the reference and `combine_packed`'s
    `packed_len` against its length, for coefficients all q - 1 (every
    digit p - 1), drawn, one 1 and none.  Then two rows that agree from position `cut`
    up, taken with coefficients c and -c: the sum is zero from `cut` up and
    not below it, so its length is exactly `cut`."""
    f = FIELDS[name]
    rng = random.Random(name)
    count, length = 255, 300
    rows = []
    for _ in range(count):
        top = rng.randrange(length + 1)
        rows.append([rng.randrange(f.q) for _ in range(top)] + [0] * (length - top))
    for coeffs in ([f.q - 1] * count, [rng.randrange(f.q) for _ in range(count)],
                   [0] * (count - 1) + [1], []):
        check_combine(f, rows, coeffs)
    for cut in (0, 1, 2, 150, length - 1, length):
        a = [rng.randrange(f.q) for _ in range(length)]
        b = [rng.randrange(f.q) for _ in range(cut)] + a[cut:]
        if cut:
            b[cut - 1] = f.add(a[cut - 1], rng.randrange(1, f.q))
        c = rng.randrange(1, f.q)
        check_combine(f, [a, b], [c, f.neg(c)])
        kernel = f.kernel
        assert kernel.packed_len(kernel.combine_packed(kernel.pack([a, b]), [c, f.neg(c)])) == cut


@pytest.mark.parametrize("name", ["GF(2)", "GF(2^8)", "GF(2^9)", "GF(2^16)"])
def test_char2_combine_at_full_size(name):
    check_full_size(name)


@pytest.mark.parametrize("name", ODD)
def test_odd_combine_at_full_size(name):
    """As the characteristic-2 test, on both sides of `CLASS_BITS`: class
    sums over GF(3) to GF(27), the multiply-add loop over GF(251) and
    GF(65521), whose slots need 4 and 8 bytes."""
    check_full_size(name)


def test_combine_path_follows_the_digit_bits():
    """`combine` sums rows by (digit, bit) classes exactly when q <= 256 and
    a digit has at most `CLASS_BITS` bits, the crossover measured against
    the multiply-add loop; both paths give the reference sum on either side
    of the bound, at 1- and 2-byte slots."""
    assert CLASS_BITS == 4
    gf121, gf729 = Field(11, 2, [7, 1, 1]), Field(3, 6, [2, 1, 0, 0, 0, 0, 1])
    for f, bits in ((Field(13), 4), (gf121, 4), (Field(17), 0), (FIELDS["GF(3)"], 2),
                    (FIELDS["GF(27)"], 2), (FIELDS["GF(251)"], 0), (gf729, 0),
                    (FIELDS["GF(65521)"], 0)):
        assert f.kernel._class_bits == bits, f
    rng = random.Random(5)
    for f in (Field(13), gf121, Field(17), Field(3, 3, [1, 2, 0, 1])):
        for count in (1, 2, 60):
            rows = [[rng.randrange(f.q) for _ in range(7)] for _ in range(count)]
            coeffs = [rng.randrange(f.q) for _ in range(count)]
            for path in ((f.p - 1).bit_length(), 0):
                f.kernel._class_bits = path
                check_combine(f, rows, coeffs)


def test_slot_widths():
    """Slots are 1, 2, 4 or 8 bytes, the narrowest that holds count * m * (p-1)^2,
    a sum that no slot holds is refused, and slots unpack in little-endian
    order whatever the host's."""
    assert _slot_size(7, 1, 7) == 1                          # 7 * 36 = 252
    assert _slot_size(7, 1, 8) == 2                          # 288
    assert _slot_size(3, 2, 32) == 2                         # 32 * 2 * 4 = 256
    assert _slot_size(65521, 1, 1) == 4                      # 65520^2 < 2^32
    assert _slot_size(65521, 1, 2) == 8
    with pytest.raises(OverflowError):
        _slot_size(65521, 1, 1 << 33)                        # no slot holds 2^65
    assert _slot_struct(5, 1).format == "<5B"
    assert _slot_struct(5, 2).format == "<5H"
    assert _slot_struct(1, 4).format == "<1I"
    assert _slot_struct(2, 8).format == "<2Q"


def _chain(f: Field, factors, positions) -> tuple[int, ...]:
    """The product of the factors at `positions` by the generic `poly_mul`
    chain, unpacked."""
    kernel = f.kernel
    return kernel.from_packed(_Kernel.product(kernel, _Kernel.pack_factors(kernel, factors),
                                              positions))


def check_product(f: Field, factors, positions) -> None:
    """`product` over `pack_factors` equals the chain, with no top zeros."""
    kernel = f.kernel
    out = kernel.from_packed(kernel.product(kernel.pack_factors(factors), positions))
    assert out == _chain(f, factors, positions)
    assert out and out[-1]


# FIELDS and GF(3^6), an odd q > 256 whose slots would be 1 or 2 bytes wide
# but have no byte digit tables, so its products keep the chain
PRODUCT_FIELDS = {**FIELDS, "GF(3^6)": Field(3, 6, [2, 1, 0, 0, 0, 0, 1])}


def _plane_lengths(f: Field) -> list[int]:
    """Longest-factor lengths at which `pack_factors`' choice changes: for
    each slot width the planes take (1 byte, and 2 for p < 128), the longest
    factor whose slot bound fits and the first that needs more; none where
    q > 256 or p = 2."""
    if f.p == 2 or f.q > 256:
        return []
    per_coeff = f.m * (f.p - 1) ** 2
    lengths = set()
    for bits in (8, 16) if f.p < 128 else (8,):
        first = -(-(1 << bits) // per_coeff)     # shortest length whose bound reaches 2^bits
        lengths.update(n for n in (first - 1, first) if n >= 1)
    return sorted(lengths)


@pytest.mark.parametrize("name", list(PRODUCT_FIELDS))
def test_product_of_no_factor_and_of_one(name):
    """No position gives 1, with factors packed and with none at all; one
    position gives that factor; a repeated position multiplies it again."""
    f = PRODUCT_FIELDS[name]
    kernel = f.kernel
    factors = [(1,), (f.q - 1, 1), (1, 0, 2 % f.q, 1), (f.q - 1,) * 5 + (1,)]
    for packed in (kernel.pack_factors(factors), kernel.pack_factors(())):
        assert kernel.from_packed(kernel.product(packed, [])) == (1,)
        assert kernel.from_packed(kernel.product(packed, iter(()))) == (1,)
    packed = kernel.pack_factors(factors)
    for i, factor in enumerate(factors):
        assert kernel.from_packed(kernel.product(packed, [i])) == factor
    for positions in ([1, 1], [3, 1, 2, 3], [0, 2, 0]):
        check_product(f, factors, positions)


@pytest.mark.parametrize("name", list(PRODUCT_FIELDS))
def test_product_at_the_worst_slot_load(name):
    """Monic factors whose every other digit is p - 1, and factors whose
    every digit is, which in a prime field load the middle slots of their
    square to exactly the bound the width is sized for, at the longest
    length each plane slot width holds and the first that needs the next;
    the planes run up to the longest that 2-byte slots hold (1-byte ones for
    p >= 128) and the chain beyond it, over every kernel.  An odd field with
    q > 256 keeps the chain at every length."""
    f = PRODUCT_FIELDS[name]
    kernel = f.kernel
    lengths = _plane_lengths(f)
    admitted = [n for n in lengths if kernel.pack_factors([(1,) * n])[0] is not None]
    if lengths:
        assert admitted == lengths[:-1] if f.p < 128 else admitted == []
    if f.p > 2 and f.q > 256:
        assert kernel.pack_factors([(1,) * 2])[0] is None
    for n in [2, 4] + lengths:
        factors = [(f.q - 1,) * (n - 1) + (1,), tuple(range(1, n)) + (1,),
                   (f.q - 1,) * (n // 2) + (1,), (f.q - 1,) * n]
        factors = [tuple(c % f.q for c in factor) for factor in factors]
        check_product(f, factors, [0, 0, 1, 2, 0])
        check_product(f, factors, [2, 0])
        check_product(f, factors, [3, 3, 0])


@pytest.mark.parametrize("name", list(PRODUCT_FIELDS))
def test_product_matches_the_chain(name):
    f = PRODUCT_FIELDS[name]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def check(data):
        factors = data.draw(st.lists(
            st.builds(lambda low, top: tuple(low) + (top,),
                      st.lists(elements(f), max_size=12), st.integers(1, f.q - 1)),
            min_size=1, max_size=8))
        positions = data.draw(st.lists(st.integers(0, len(factors) - 1), max_size=12))
        check_product(f, factors, positions)

    check()


@pytest.mark.parametrize("name", [name for name, f in PRODUCT_FIELDS.items() if f.p > 2])
def test_multiples_match_scale(name):
    """`_multiples(row)[a]` is row * alpha^a (alpha the element x, the int p)
    for every a < m: the byte maps (q <= 256) and the lookup lists (q > 256),
    both built from `Field._times`, against the table-based `scale`, on the
    field's first 1000 elements and on a drawn row with top zeros."""
    f = PRODUCT_FIELDS[name]
    kernel = f.kernel
    rng = random.Random(name)
    for row in (list(range(min(f.q, 1000))), [rng.randrange(f.q) for _ in range(50)] + [0, 0]):
        multiples = kernel._multiples(row)
        assert len(multiples) == f.m
        for a, multiple in enumerate(multiples):
            assert list(multiple) == kernel.scale(row, f.p ** a), a


@pytest.mark.parametrize("args", [(3, 2, [1, 0, 1]), (5, 2, [2, 1, 1])], ids=["GF(9)", "GF(25)"])
def test_plane_code_reads_no_field_table(args):
    """`pack` + `combine`, `pack_factors` + `product` on planes and a
    Kronecker `mul` build neither the field's log/exp tables nor the Zech
    table: the alpha maps come from `Field._times`.  The results are then
    checked against the table-based references."""
    f = Field(*args)
    kernel = f.kernel
    rows = [[(5 * i + 3 * j) % f.q for j in range(9)] for i in range(6)]
    coeffs = [f.q - 1, 0, 1, 2, f.q - 2, 7]
    factors = [(2, 1), (f.q - 1, 0, 1), tuple(range(1, 9)) + (1,)]
    packed = kernel.pack_factors(factors)
    a, b = [f.q - 1] * KRONECKER_MIN, [x % f.q for x in range(3, 40)]
    combined = kernel.combine(kernel.pack(rows), coeffs)
    product = kernel.from_packed(kernel.product(packed, [0, 1, 2, 1]))
    kronecker = kernel.mul(a, b)
    assert packed[0] is not None                 # planes, not the chain
    assert "_tables" not in vars(f) and "_zech" not in vars(kernel)
    assert _strip(combined) == reference_combine(f, rows, coeffs)
    assert product == _chain(f, factors, [0, 1, 2, 1])
    assert kronecker == kernel._mul_loop(a, b)


# -- spec level -----------------------------------------------------------------------------


def _poly(data, f: Field, max_len: int) -> Poly:
    return Poly(f, data.draw(st.lists(elements(f), max_size=max_len)))


@pytest.mark.parametrize("name", list(FIELDS))
def test_row_maps_match_the_references(name):
    """`residues` equals `residue` at each position and `a % m_i`, below K,
    below N and above N; `psi_inverse` of any word has degree < N and the
    word's residues; on a codeword it equals `interpolate_direct` over the
    full support, and both return the message."""
    f = FIELDS[name]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def check(data):
        spec = data.draw(coprime_specs(f, 3 if f.q <= 9 else 2, (1, 6)))
        for limit in (spec.K, spec.N, 2 * spec.N + 3):
            a = _poly(data, f, limit)
            expected = tuple(a % m for m in spec.moduli)
            assert spec.residues(a) == expected
            assert tuple(spec.residue(a, i) for i in range(spec.n)) == expected

        word = [Poly.from_int(f, data.draw(st.integers(0, f.q ** d - 1))) for d in spec.degrees]
        y = psi_inverse(spec, word)
        assert y.degree < spec.N
        assert tuple(spec.residue(y, i) for i in range(spec.n)) == tuple(word)

        message = _poly(data, f, spec.K)
        codeword = encode(spec, message)
        assert codeword.symbols == tuple(message % m for m in spec.moduli)
        everything = ErasurePattern(spec, frozenset(range(spec.n)))
        direct = interpolate_direct(spec, dict(enumerate(codeword.symbols)), everything)
        assert psi_inverse(spec, codeword) == direct == message

    check()


FULL_SIZE = {
    # RS(255,223) over GF(2^8): 223 forward and 255 inverse rows
    "RS(255,223)": (FIELDS["GF(2^8)"], range(255), 223),
    # over GF(2^16): 64 forward and 80 inverse rows, 2-byte slots
    "GF(2^16) (80,64)": (FIELDS["GF(2^16)"], range(0, 80 * 821, 821), 64),
}


@pytest.mark.parametrize("name", list(FULL_SIZE))
def test_full_size_transforms_match_the_references(name):
    """At full size, on linear moduli x + b: `encode` equals
    `CodeSpec.residue` at every position and `psi_inverse(encode(a)) == a`,
    for messages with every coefficient q - 1, drawn, and with only a top
    or a constant term; `psi_inverse` of a word that is no codeword has
    degree below N and the word's residues."""
    f, roots, k = FULL_SIZE[name]
    spec = CodeSpec(f, [Poly(f, [b, 1]) for b in roots], k)
    rng = random.Random(name)
    top = f.q - 1
    for coeffs in ([top] * k, [rng.randrange(f.q) for _ in range(k)],
                   [0] * (k - 1) + [top], [top]):
        a = Poly(f, coeffs)
        word = encode(spec, a)
        assert word.symbols == tuple(spec.residue(a, i) for i in range(spec.n))
        assert psi_inverse(spec, word) == a
    for symbols in ([top] * spec.n, [rng.randrange(f.q) for _ in range(spec.n)]):
        y = psi_inverse(spec, [Poly(f, [c]) for c in symbols])
        assert y.degree < spec.N
        assert tuple(spec.residue(y, i) for i in range(spec.n)) == tuple(
            Poly(f, [c]) for c in symbols)


WORD_FIELDS = {"GF(2)": FIELDS["GF(2)"], "GF(5)": Field(5), "GF(9)": FIELDS["GF(9)"],
               "GF(25)": FIELDS["GF(25)"], "GF(2^8)": FIELDS["GF(2^8)"]}


@pytest.mark.parametrize("name", list(WORD_FIELDS))
def test_codeword_rows_match_the_symbolwise_reference(name):
    """A word built from its row (`encode`, `+`, `-`) and one built from
    symbols (`Codeword(spec, symbols)`) agree with the symbol-wise
    reference: the symbols are `CodeSpec.residue` at every position, the
    row is the symbols zero-padded end to end, equal words hash equal
    whichever of `.row` or `.symbols` was read first, `+` and `-` are the
    symbol-wise sums, and `psi_inverse` inverts `encode`.  A degree-1
    symbol is a constant shared across words, and so is a longer one while
    the spec's table of shared symbols is below `MAX_SHARED_SYMBOLS`; each
    equals a fresh `Poly`.
    `support()`, both weights and `count_zero_residues`, which read the
    row's slices, agree with their symbol-wise definitions."""
    f = WORD_FIELDS[name]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def check(data):
        spec = data.draw(coprime_specs(f, 3 if f.q <= 5 else 2, (1, 7)))
        message = _poly(data, f, spec.K)
        reference = tuple(spec.residue(message, i) for i in range(spec.n))
        word = encode(spec, message)
        if data.draw(st.booleans()):
            assert word.symbols == reference
        built = Codeword(spec, reference)
        assert word == built and hash(word) == hash(built)
        assert word.symbols == reference
        padded = [c for s, d in zip(reference, spec.degrees)
                  for c in s.coeffs + (0,) * (d - len(s.coeffs))]
        assert word.row == built.row == tuple(padded)
        assert psi_inverse(spec, word) == message

        error = tuple(Poly.from_int(f, data.draw(st.integers(0, f.q ** d - 1)))
                      for d in spec.degrees)
        for got, expected in ((word + Codeword(spec, error), map(Poly.__add__, reference, error)),
                              (word - Codeword(spec, error), map(Poly.__sub__, reference, error))):
            expected = Codeword(spec, tuple(expected))
            if data.draw(st.booleans()):
                assert got.symbols == expected.symbols
            assert got == expected and hash(got) == hash(expected)
            assert got.symbols == expected.symbols

        support = tuple(i for i, s in enumerate(error) if not s.is_zero)
        degree = sum(d for s, d in zip(error, spec.degrees) if not s.is_zero)
        error_word = Codeword(spec, error)
        assert error_word.support() == support
        assert weights(error_word) == (hamming_weight(error_word), degree_weight(error_word)) \
            == (len(support), degree)
        g = spec.product(data.draw(st.sets(st.integers(0, spec.n - 1)))) * message
        assert count_zero_residues(spec, g) == sum(
            1 for i in range(spec.n) if spec.residue(g, i).is_zero)

        again = encode(spec, message)
        for i, (s, d) in enumerate(zip(word.symbols, spec.degrees)):
            o = sum(spec.degrees[:i])
            fresh = Poly(f, word.row[o:o + d])
            assert s == fresh and hash(s) == hash(fresh) and s.coeffs == fresh.coeffs
            assert again.symbols[i] is s

    check()


def test_no_library_path_splits_a_row(monkeypatch, ladder5):
    """The simulator in both modes with both decoders, the channel, the
    weights and distances, the oracles, the codeword file format, the
    locator of a decoded error word and the zero-residue count all read
    rows: none calls `CodeSpec._split`."""
    spec, calls, split = ladder5, [], CodeSpec._split
    monkeypatch.setattr(CodeSpec, "_split", lambda self, row: calls.append(1) or split(self, row))
    candidates = build_candidate_list(spec)
    simulate(spec, ChannelModel(RANDOM_DEGREE, 5, 19), 20, ("gcd", "list"), candidates=candidates)
    simulate(spec, ChannelModel(FIXED_POSITIONS, (4,), 19), 0, ("gcd", "list"),
             exhaustive=True, message_sample=3, candidates=candidates)
    word = encode(spec, Poly.from_int(spec.field, 45))
    received, error = corrupt(spec, word, ChannelModel(FIXED_POSITIONS, (1, 3), 19))
    assert weights(error)[0] == 2 and distances(received, word) == weights(error)
    brute_force_decode(spec, received)
    exhaustive_scan(spec)
    assert loads_codeword(spec, dumps_codeword(received)) == received
    outcome = decode(spec, word + Codeword._of_row(spec, (0,) * 6 + (1,) * 4 + (0,) * 5))
    assert error_locator_poly(spec, outcome.error_word) == spec.moduli[3]
    assert count_zero_residues(spec, spec.product([1, 3])) == 2
    assert calls == []


def _check_split(spec: CodeSpec, row: tuple[int, ...]) -> tuple[Poly, ...]:
    """`_split(row)`: each symbol equals a fresh `Poly` of its slice."""
    symbols, o = spec._split(row), spec._offsets
    assert len(symbols) == spec.n
    for i, s in enumerate(symbols):
        fresh = Poly(spec.field, row[o[i]:o[i + 1]])
        assert s == fresh and s.coeffs == fresh.coeffs and s.packed == fresh.packed
    return symbols


def test_split_shares_one_poly_per_distinct_symbol():
    """Over GF(9) with moduli of degrees 1, 2 and 3, repeated splits return
    the same `Poly` object for equal slices at a position of degree >= 2, as
    for constants, and each symbol equals a fresh `Poly`.  A slice is keyed
    with its length: the degree-2 symbol (a, b), a + b x, and the degree-3
    symbol (0, a, b), a x + b x^2, stay apart in either order."""
    f = FIELDS["GF(9)"]
    moduli = [m for d, count in ((1, 2), (2, 3), (3, 3)) for m in irreducible_polys(f, d)[:count]]
    spec = CodeSpec(f, moduli, 3)
    assert spec._offsets == (0, 1, 2, 4, 6, 8, 11, 14, 17)
    rows = []
    for j, (a, b) in enumerate(((1, 2), (0, 1), (3, 0), (5, 7))):
        pair = [(0, 0, a, b) + (0,) * 13, (0,) * 8 + (0, a, b) + (0,) * 6]
        rows += pair[::-1] if j % 2 else pair
    rng = random.Random(41)
    rows += [tuple(rng.randrange(f.q) for _ in range(spec.N)) for _ in range(200)]
    seen = {}
    for row in rows + rows[::-1]:
        symbols = _check_split(spec, row)
        again = spec._split(row)
        o = spec._offsets
        for i, s in enumerate(symbols):
            assert again[i] is s
            assert seen.setdefault(row[o[i]:o[i + 1]], s) is s
    assert len(spec._symbols) == sum(len(key) > 1 for key in seen) < MAX_SHARED_SYMBOLS


def test_split_table_stops_at_its_cap():
    """Over GF(2^16), where a degree-2 position alone has 2^32 symbols,
    splits past `MAX_SHARED_SYMBOLS` distinct symbols keep the table at the
    cap and still return correct symbols, shared or not.  A copied or
    pickled spec carries no table, and splits the same."""
    f = Field(2, 16, [1, 1, 0, 1] + [0] * 8 + [1, 0, 0, 0, 1])
    moduli = [Poly(f, [f.mul(a, a + 1), a ^ (a + 1), 1]) for a in (2, 4, 6, 8)]  # (x+a)(x+a+1)
    spec = CodeSpec(f, moduli + [Poly(f, [1, 1])], 2)
    rng = random.Random(43)
    rows = [tuple(rng.randrange(f.q) for _ in range(spec.N))
            for _ in range(MAX_SHARED_SYMBOLS // 4 + 100)]
    for row in rows:
        _check_split(spec, row)
    assert len(spec._symbols) == MAX_SHARED_SYMBOLS
    for row in rows[:20] + rows[-20:]:
        assert _check_split(spec, row) == spec._split(row)
    assert len(spec._symbols) == MAX_SHARED_SYMBOLS
    for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert twin == spec and twin._symbols == {} and twin._constants == {}
        assert twin._split(rows[-1]) == spec._split(rows[-1])


@pytest.mark.parametrize("f", [FIELDS["GF(2)"], Field(5), FIELDS["GF(2^8)"], FIELDS["GF(9)"]],
                         ids=["GF(2)", "GF(5)", "GF(2^8)", "GF(9)"])
def test_shift_rows_match_the_reference(f):
    """`_shift_rows(v, count)` holds (x^j * v) % M_n for j < count, each
    zero-padded to N coefficients, v of any degree below N (N - 1 always
    among them) and count from 1 past N."""

    def check_rows(spec, v: Poly, count: int) -> None:
        rows = spec._shift_rows(v.coeffs, count)
        assert len(rows) == count
        for j, row in enumerate(rows):
            expected = (Poly.monomial(f, 1, j) * v % spec.modulus_product).coeffs
            assert row == list(expected) + [0] * (spec.N - len(expected))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def check(data):
        spec = data.draw(coprime_specs(f, 3 if f.q <= 9 else 2, (1, 4)))
        count = data.draw(st.integers(1, spec.N + 2))
        check_rows(spec, _poly(data, f, spec.N), count)
        top = data.draw(st.integers(1, f.q - 1))
        full = Poly(f, data.draw(st.lists(elements(f), min_size=spec.N - 1,
                                          max_size=spec.N - 1)) + [top])
        check_rows(spec, full, 1)
        check_rows(spec, full, count)

    check()


@pytest.mark.parametrize("f", [FIELDS["GF(2)"], Field(5), FIELDS["GF(2^8)"], FIELDS["GF(9)"]],
                         ids=["GF(2)", "GF(5)", "GF(2^8)", "GF(9)"])
def test_reduce_matches_the_division(f):
    """`_reduce(a)` equals a % M_n at deg a = N - 1, N and 2N - K - 1, the
    most the reduction rows cover, on specs with K < N; a of degree below N
    comes back as it is."""

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def check(data):
        spec = data.draw(coprime_specs(f, 3 if f.q <= 9 else 2, (2, 6)))
        N, K = spec.N, spec.K
        if K == N:
            return
        for degree in (N - 1, N, 2 * N - K - 1):
            low = data.draw(st.lists(elements(f), min_size=degree, max_size=degree))
            a = Poly(f, low + [data.draw(st.integers(1, f.q - 1))])
            reduced = spec._reduce(a)
            assert reduced == a % spec.modulus_product
            assert reduced.coeffs == (a % spec.modulus_product).coeffs
            if degree < N:
                assert reduced is a

    check()


def test_rows_are_built_once_on_first_use(rs42):
    spec = CodeSpec(rs42.field, rs42.moduli, rs42.k)
    assert not {"_forward_rows", "_inverse_rows"} & set(vars(spec))
    word = encode(spec, Poly(spec.field, [1, 2]))
    assert set(vars(spec)) >= {"_forward_rows"} and "_inverse_rows" not in vars(spec)
    rows = vars(spec)["_forward_rows"]
    psi_inverse(spec, word)
    encode(spec, Poly(spec.field, [3]))
    assert vars(spec)["_forward_rows"] is rows and "_inverse_rows" in vars(spec)
    assert "_reduction_rows" not in vars(spec)
    filled = word.symbols[:2] + (Poly(spec.field, [4]),) * 2    # a preimage of degree N - 1
    assert psi_inverse(spec, filled).degree == spec.N - 1
    erased = ErasurePattern(spec, {0, 1})
    assert interpolate_fixed_transform(spec, filled, erased) == Poly(spec.field, [1, 2])
    rows = vars(spec)["_reduction_rows"]
    interpolate_fixed_transform(spec, filled, erased)
    assert vars(spec)["_reduction_rows"] is rows


def test_rs_rows_are_root_powers_and_betas():
    """For a Reed-Solomon code forward row j holds the roots' j-th powers and
    the inverse rows are the betas themselves."""
    f = FIELDS["GF(2^8)"]
    spec = CodeSpec(f, [Poly(f, [r, 1]) for r in range(20)], 12)
    kernel = f.kernel
    for j in range(spec.N):
        unit = [0] * j + [1]
        assert kernel.combine(spec._forward_rows, unit) == [f.pow(r, j) for r in range(20)]
    for i, beta in enumerate(spec.betas):
        unit = [0] * i + [1]
        assert _strip(kernel.combine(spec._inverse_rows, unit)) == beta.coeffs
    assert encode(spec, Poly(f, [0, 1])).symbols == tuple(Poly(f, [r]) for r in range(20))
