"""Differential tests: the coefficient kernels against a table-free schoolbook reference.

The reference below uses only `Field._mul_basis` and `Field._digitwise`, so
it shares no table, no kernel and no `Poly` arithmetic with the code under
test.  Each field kind is covered: odd prime (GF(5)), characteristic 2
(GF(2), GF(2^4), GF(2^8), GF(2^16)) and odd characteristic (GF(9), GF(25)).
The characteristic-2 fields are also run on rows of up to 80 coefficients,
and on divisors on both sides of `ROW_MIN`, below which the fields with
q <= 256 divide by the list loop instead of by byte rows.

GF(2) runs `Char2Kernel`; `PrimeKernel(Field(2))` stays in the tree as its
second reference, on long rows and on whole decodes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from remcode.code import CodeSpec, Codeword, encode
from remcode.decoder import DecodeStatus, build_candidate_list, decode, list_decode
from remcode.field import Field
from remcode.kernels import ROW_MIN, Char2Kernel, OddKernel, PrimeKernel
from remcode.poly import Poly, poly_gcd

from test_decoder_checks import ALL_OPTIONS, _check_outcome

FIELDS = {
    "GF(2)": lambda: Field(2),
    "GF(5)": lambda: Field(5),
    "GF(2^4)": lambda: Field(2, 4, [1, 1, 0, 0, 1]),
    "GF(2^8)": lambda: Field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
    "GF(9)": lambda: Field(3, 2, [1, 0, 1]),
    "GF(25)": lambda: Field(5, 2, [2, 1, 1]),
    "GF(2^16)": lambda: Field(2, 16, [1, 1, 0, 1] + [0] * 8 + [1, 0, 0, 0, 1]),
}


@pytest.fixture(scope="session", params=list(FIELDS))
def field(request) -> Field:
    """Each field is built once per pytest run; GF(2^16) builds 64k-entry tables."""
    return FIELDS[request.param]()


# -- the schoolbook reference ---------------------------------------------------------


def _strip(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _at(c, i: int) -> int:
    return c[i] if i < len(c) else 0


def ref_add(f: Field, a, b, sign: int = 1) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return _strip([f._digitwise(_at(a, i), _at(b, i), sign) for i in range(n)])


def ref_mul(f: Field, a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = f._digitwise(out[i + j], f._mul_basis(x, y), 1)
    return _strip(out)


def ref_inv(f: Field, a: int) -> int:
    return f._pow_basis(a, f.q - 2)


def ref_divmod(f: Field, a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    rem = list(a)
    db = len(b) - 1
    quot = [0] * max(len(rem) - db, 0)
    lead_inv = ref_inv(f, b[-1])
    for i in range(len(rem) - 1, db - 1, -1):
        c = f._mul_basis(rem[i], lead_inv)
        quot[i - db] = c
        for j, y in enumerate(b):
            rem[i - db + j] = f._digitwise(rem[i - db + j], f._mul_basis(c, y), -1)
    return _strip(quot), _strip(rem[:db])


def ref_gcd(f: Field, a, b) -> tuple[int, ...]:
    while b:
        a, b = b, ref_divmod(f, a, b)[1]
    c = ref_inv(f, a[-1])
    return tuple(f._mul_basis(c, x) for x in a)


# -- strategies ---------------------------------------------------------------------


def elements(f: Field):
    # zeros, one and -1 are drawn often: they take the kernels' special cases
    return st.one_of(st.sampled_from([0, 0, 1, f.q - 1]), st.integers(0, f.q - 1))


def coeff_lists(f: Field, max_len: int = 9):
    return st.lists(elements(f), max_size=max_len)


def polys(f: Field):
    return coeff_lists(f).map(lambda c: Poly(f, c))


# -- tests ------------------------------------------------------------------------------


def test_kernel_choice_and_lazy_tables():
    kinds = {"GF(2)": Char2Kernel, "GF(5)": PrimeKernel, "GF(2^4)": Char2Kernel,
             "GF(9)": OddKernel, "GF(25)": OddKernel}
    for name, kind in kinds.items():
        f = FIELDS[name]()
        assert type(f.kernel) is kind
        assert f._log is None
    f = FIELDS["GF(9)"]()
    assert f.kernel._zech is None
    Poly(f, [1, 2]) + Poly(f, [2, 2])
    assert f._log is not None and f.kernel._zech is not None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_add_sub_mul_match_reference(field, data):
    a, b = data.draw(polys(field)), data.draw(polys(field))
    assert (a + b).coeffs == ref_add(field, a.coeffs, b.coeffs, 1)
    assert (a - b).coeffs == ref_add(field, a.coeffs, b.coeffs, -1)
    assert (-a).coeffs == ref_add(field, (), a.coeffs, -1)
    assert (a * b).coeffs == ref_mul(field, a.coeffs, b.coeffs)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_divmod_matches_reference(field, data):
    a = data.draw(polys(field))
    b = data.draw(polys(field).filter(lambda p: not p.is_zero))
    q, r = divmod(a, b)
    assert (q.coeffs, r.coeffs) == ref_divmod(field, a.coeffs, b.coeffs)
    assert r.degree < b.degree
    assert q * b + r == a


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gcd_matches_reference(field, data):
    a, b, c = (data.draw(polys(field)) for _ in range(3))
    if (a * c).is_zero and (b * c).is_zero:
        return
    g = poly_gcd(a * c, b * c)
    assert g.coeffs == ref_gcd(field, (a * c).coeffs, (b * c).coeffs)
    assert g.is_monic
    assert ((a * c) % g).is_zero and ((b * c) % g).is_zero


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scale_and_evaluate_match_reference(field, data):
    a = data.draw(polys(field))
    c = data.draw(st.integers(1, field.q - 1))
    x = data.draw(st.one_of(st.just(0), st.integers(0, field.q - 1)))
    assert a.scale(c).coeffs == tuple(field._mul_basis(c, y) for y in a.coeffs)
    acc = 0
    for y in reversed(a.coeffs):
        acc = field._digitwise(field._mul_basis(acc, x), y, 1)
    assert a.evaluate(x) == acc


def test_gf2_tables():
    """GF(2)'s group has one element, generated by 1: n = 1, log 0 = 3n."""
    f = Field(2)
    assert f._find_generator() == 1
    assert f._tables() == ([1, 1, 1, 0, 0], [3, 0])


# -- characteristic 2: byte rows (q <= 256) and list loops (GF(2^16)) ---------------

# GF(2) and GF(2^4): q < 256, so the byte tables are padded (GF(2) has one
# nonzero scalar, so every scaling table is the identity on it); GF(2^8):
# q = 256, so the spare index 255 is exactly the zero slot; GF(2^16): the list
# loops only.
CHAR2 = ["GF(2)", "GF(2^4)", "GF(2^8)", "GF(2^16)"]


def rows(f: Field, max_len: int = 40):
    """Polys whose coefficient count is drawn evenly from 0..max_len."""
    return st.integers(0, max_len).flatmap(
        lambda n: st.lists(elements(f), min_size=n, max_size=n)).map(lambda c: Poly(f, c))


def check_char2_ops(f: Field, a: Poly, b: Poly, c: int) -> None:
    """+, -, *, divmod (b != 0) and scale by c != 0, against the reference."""
    assert (a + b).coeffs == ref_add(f, a.coeffs, b.coeffs, 1)
    assert (a - b).coeffs == ref_add(f, a.coeffs, b.coeffs, -1)
    assert (a * b).coeffs == ref_mul(f, a.coeffs, b.coeffs)
    if not b.is_zero:
        assert tuple(x.coeffs for x in divmod(a, b)) == ref_divmod(f, a.coeffs, b.coeffs)
    assert a.scale(c).coeffs == tuple(f._mul_basis(c, y) for y in a.coeffs)


def check_char2_gcd(f: Field, a: Poly, b: Poly) -> None:
    if a.is_zero and b.is_zero:
        return
    assert poly_gcd(a, b).coeffs == ref_gcd(f, a.coeffs, b.coeffs)


@pytest.mark.parametrize("field", CHAR2, indirect=True)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_char2_rows_match_reference(field, data):
    a = data.draw(rows(field, 80))
    b = data.draw(rows(field))
    check_char2_ops(field, a, b, data.draw(st.integers(1, field.q - 1)))
    x = data.draw(st.integers(0, field.q - 1))
    acc = 0
    for y in reversed(a.coeffs):
        acc = field._digitwise(field._mul_basis(acc, x), y, 1)
    assert a.evaluate(x) == acc


@pytest.mark.parametrize("field", CHAR2, indirect=True)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_char2_row_gcd_matches_reference(field, data):
    a, b, c = (data.draw(rows(field, 20)) for _ in range(3))
    check_char2_gcd(field, a * c, b * c)


@pytest.mark.parametrize("field", CHAR2, indirect=True)
def test_char2_rows_at_the_threshold(field):
    """Divisors of 1, 2, ROW_MIN - 1, ROW_MIN and ROW_MIN + 1 coefficients,
    with zeros inside and a lead that is not 1 (GF(2) has no other)."""
    rng = random.Random(field.q)
    assert type(field.kernel) is Char2Kernel
    for n in (1, 2, ROW_MIN - 1, ROW_MIN, ROW_MIN + 1):
        for _ in range(5):
            coeffs = [rng.choice([0, rng.randrange(1, field.q)]) for _ in range(n - 1)]
            lead = rng.randrange(2, field.q) if field.q > 2 else 1
            b = Poly(field, coeffs + [lead])
            a = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(3 * n))])
            check_char2_ops(field, a, b, rng.randrange(1, field.q))
            check_char2_ops(field, b, a, rng.randrange(1, field.q))
            check_char2_gcd(field, a * b, b * Poly(field, [rng.randrange(1, field.q), 1]))


# -- GF(2): Char2Kernel against PrimeKernel -------------------------------------------


def _prime_gf2() -> Field:
    """A GF(2) whose polynomial arithmetic runs `PrimeKernel`."""
    f = Field(2)
    f.kernel = PrimeKernel(f)
    return f


def _strip_list(c) -> tuple[int, ...]:
    return _strip(list(c))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gf2_char2_matches_prime_kernel_on_long_rows(data):
    """+, *, divmod and gcd on rows of up to 200 coefficients."""
    char2, prime = Field(2).kernel, _prime_gf2().kernel
    assert type(char2) is Char2Kernel

    def row(max_len):
        return data.draw(st.integers(0, max_len).flatmap(
            lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)).map(_strip_list))

    a, b, c = row(200), row(200), row(60)
    for x, y in ((a, b), (a, c), (c, a)):
        assert _strip_list(char2.add(x, y)) == _strip_list(prime.add(x, y))
        if x and y:
            assert _strip_list(char2.mul(x, y)) == _strip_list(prime.mul(x, y))
        if y and len(x) >= len(y):
            q1, r1 = char2.divmod(x, y)
            q2, r2 = prime.divmod(x, y)
            assert (_strip_list(q1), _strip_list(r1)) == (_strip_list(q2), _strip_list(r2))
        if x or y:
            assert char2.gcd(x, y) == prime.gcd(x, y)
    if a and b and c:
        ac, bc = prime.mul(a, c), prime.mul(b, c)
        assert char2.gcd(ac, bc) == prime.gcd(ac, bc)
        assert len(char2.gcd(ac, bc)) >= len(c)


@st.composite
def gf2_specs(draw):
    """Coprime GF(2) specs; moduli of degree 1..5, reducible ones included.

    The monic polys of degree 1..5, as ints (binary digits, lowest = constant
    term), are taken in a drawn order; each is kept when coprime to those kept
    before, up to a drawn n.  About half the specs are then sorted by degree.
    """
    f = Field(2)
    n = draw(st.integers(1, 7))
    moduli = []
    for code in draw(st.permutations(range(2, 64))):
        m = Poly.from_int(f, code)
        if all(poly_gcd(m, other).degree == 0 for other in moduli):
            moduli.append(m)
            if len(moduli) == n:
                break
    if draw(st.booleans()):
        moduli.sort(key=lambda m: m.degree)
    n = len(moduli)
    # small k leaves room for errors to correct; k = n is drawn too
    return CodeSpec(f, moduli, draw(st.one_of(st.integers(1, max(1, n // 2)), st.integers(1, n))))


def _same_spec_over(field: Field, spec: CodeSpec) -> CodeSpec:
    return CodeSpec(field, [Poly(field, m.coeffs) for m in spec.moduli], spec.k)


def _word_over(spec: CodeSpec, symbols) -> Codeword:
    return Codeword(spec, tuple(Poly(spec.field, s.coeffs) for s in symbols))


@settings(max_examples=60, deadline=None)
@given(spec=gf2_specs(), data=st.data())
def test_gf2_decode_same_under_both_kernels(spec, data):
    """Every decode option, and list decoding on ordered specs, give the same
    outcome under `Char2Kernel` and `PrimeKernel`; none raises, and every
    success has error_word == received - encode(message)."""
    other = _same_spec_over(_prime_gf2(), spec)
    assert type(spec.field.kernel) is Char2Kernel
    assert type(other.field.kernel) is PrimeKernel
    f = spec.field
    if data.draw(st.booleans()):
        # a codeword plus nonzero errors at one to three positions
        message = Poly.from_int(f, data.draw(st.integers(0, 2 ** spec.K - 1)))
        word = list(encode(spec, message).symbols)
        for i in data.draw(st.lists(st.integers(0, spec.n - 1), min_size=1, max_size=3)):
            error = Poly.from_int(f, data.draw(st.integers(1, 2 ** spec.degrees[i] - 1)))
            word[i] = word[i] + error
    else:
        word = [Poly.from_int(f, data.draw(st.integers(0, 2 ** d - 1))) for d in spec.degrees]
    received = Codeword(spec, tuple(word))
    received_other = _word_over(other, word)
    for options in ALL_OPTIONS:
        out = decode(spec, received, options)
        assert out == decode(other, received_other, options)
        _check_outcome(spec, received, out)
    if spec.ordered_degree:
        candidates, other_candidates = build_candidate_list(spec), build_candidate_list(other)
        assert candidates == other_candidates
        out = list_decode(spec, received, candidates)
        assert out == list_decode(other, received_other, other_candidates)
        _check_outcome(spec, received, out)


def test_gf2_list_recovery_same_under_both_kernels(ladder5):
    """One error at the degree-5 modulus of `ladder5` exceeds the gcd budget,
    t_degree = 4; the list decoder recovers it under both kernels."""
    rng = random.Random(5)
    other = _same_spec_over(_prime_gf2(), ladder5)
    candidates, other_candidates = build_candidate_list(ladder5), build_candidate_list(other)
    for _ in range(8):
        message = Poly.from_int(ladder5.field, rng.randrange(2 ** ladder5.K))
        word = list(encode(ladder5, message).symbols)
        word[4] = word[4] + Poly.from_int(ladder5.field, rng.randrange(1, 2 ** 5))
        received = Codeword(ladder5, tuple(word))
        out = list_decode(ladder5, received, candidates)
        assert decode(ladder5, received).status is DecodeStatus.FAILURE
        assert out.status is DecodeStatus.SUCCESS and out.message == message
        assert out == list_decode(other, _word_over(other, word), other_candidates)
        _check_outcome(ladder5, received, out)
