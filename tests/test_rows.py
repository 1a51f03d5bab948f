"""The residue transform and its inverse as packed-row maps.

Kernel level: `combine` over `pack`ed rows, and the length of the result
that `combine_length` reads, against the sum of `scale` and `add` through
the same kernel, on every kernel and on GF(65521), whose
slots need 4 or 8 bytes.  Spec level: `residues`, `encode` and `psi_inverse`
against the references kept in the tree: `CodeSpec.residue`, `a % m_i` and
`interpolate_direct`, on specs with reducible, unordered and mixed-degree
moduli, and `CodeSpec._shift_rows`, the rows x^j * v mod M_n that the
inverse rows and the list decoder's scan are built from, against
(x^j * v) % M_n.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from remcode.code import CodeSpec, encode, psi_inverse
from remcode.field import Field
from remcode.interpolate import ErasurePattern, interpolate_direct
from remcode.kernels import Char2Kernel, OddKernel, PrimeKernel, _slot_layout
from remcode.poly import Poly

from test_kernels import coprime_specs, elements

FIELDS = {
    "GF(2)": Field(2),
    "GF(7)": Field(7),
    "GF(9)": Field(3, 2, [1, 0, 1]),
    "GF(25)": Field(5, 2, [2, 1, 1]),
    "GF(2^8)": Field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
    "GF(2^16)": Field(2, 16, [1, 1, 0, 1] + [0] * 8 + [1, 0, 0, 0, 1]),
    "GF(65521)": Field(65521),
}
KINDS = {"GF(2)": Char2Kernel, "GF(7)": PrimeKernel, "GF(9)": OddKernel,
         "GF(25)": OddKernel, "GF(2^8)": Char2Kernel, "GF(2^16)": Char2Kernel,
         "GF(65521)": PrimeKernel}


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
    """`combine` against the reference, and `combine_length` against its length."""
    packed = f.kernel.pack(rows)
    out = f.kernel.combine(packed, coeffs)
    expected = reference_combine(f, rows, coeffs)
    assert len(out) <= len(rows[0])
    assert _strip(out) == expected
    assert f.kernel.combine_length(packed, coeffs) == len(expected)


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
    assert kernel.combine_length(rows, [0, 0]) == kernel.combine_length(rows, []) == 0
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


def test_slot_widths():
    """Slots are 1, 2, 4 or 8 bytes, the narrowest that holds rows * m * (p-1)^2,
    and unpack in little-endian order whatever the host's."""
    assert _slot_layout(7, 1, 7, 5).format == "<5B"          # 7 * 36 = 252
    assert _slot_layout(7, 1, 8, 5).format == "<5H"          # 288
    assert _slot_layout(3, 2, 32, 1).format == "<1H"         # 32 * 2 * 4 = 256
    assert _slot_layout(65521, 1, 1, 2).format == "<2I"      # 65520^2 < 2^32
    assert _slot_layout(65521, 1, 2, 2).format == "<2Q"
    with pytest.raises((AssertionError, IndexError)):
        _slot_layout(65521, 1, 1 << 33, 2)                   # no slot holds 2^65


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


def test_rows_are_built_once_on_first_use(rs42):
    spec = CodeSpec(rs42.field, rs42.moduli, rs42.k)
    assert not {"_forward_rows", "_inverse_rows"} & set(vars(spec))
    word = encode(spec, Poly(spec.field, [1, 2]))
    assert set(vars(spec)) >= {"_forward_rows"} and "_inverse_rows" not in vars(spec)
    rows = vars(spec)["_forward_rows"]
    psi_inverse(spec, word)
    encode(spec, Poly(spec.field, [3]))
    assert vars(spec)["_forward_rows"] is rows and "_inverse_rows" in vars(spec)


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
