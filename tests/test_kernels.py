"""Differential tests: the coefficient kernels against a table-free schoolbook reference.

The reference below uses only `Field._mul_basis` and `Field._digitwise`, so
it shares no table, no kernel and no `Poly` arithmetic with the code under
test.  Each field kind is covered: odd prime (GF(5)), characteristic 2
(GF(2), GF(2^4), GF(2^8), GF(2^9), GF(2^16)) and odd characteristic (GF(9),
GF(25)).  The characteristic-2 fields, which take each of the three row
representations and both sides of q = 256, are also run on rows of up to
80 coefficients, and on divisors on both sides of `ROW_MIN`, below which
`ByteKernel` divides by the list loop instead of by byte rows.

GF(2) runs `BitKernel`; `PrimeKernel(Field(2))` stays in the tree as its
second reference, on long rows and on whole decodes.

The odd-characteristic Kronecker products (`_SlotKernel.mul`) are held to
the per-coefficient `_mul_loop` each kernel keeps and to the reference, on
odd fields from GF(3) to GF(65521), at lengths on both sides of
`KRONECKER_MIN` and at the worst load of each slot width.  Their division
on packed digit planes (`_SlotKernel._divide_planes`) is held to the list
`_divide` on odd fields from GF(3) to GF(65521), GF(3^6) among them, on
divisors on both sides of `PLANE_DIVIDE_MIN`, and at the worst load of
each slot width.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from remcode.code import CodeSpec, Codeword, encode
from remcode.decoder import DecodeStatus, build_candidate_list, decode, list_decode
from remcode.field import Field
from remcode.kernels import (
    KRONECKER_MIN,
    PLANE_DIVIDE_MIN,
    ROW_MIN,
    BitKernel,
    ByteKernel,
    Char2Kernel,
    OddKernel,
    PrimeKernel,
)
from remcode.poly import Poly, poly_gcd

from test_decoder_checks import ALL_OPTIONS, _check_outcome

FIELDS = {
    "GF(2)": lambda: Field(2),
    "GF(5)": lambda: Field(5),
    "GF(2^4)": lambda: Field(2, 4, [1, 1, 0, 0, 1]),
    "GF(2^8)": lambda: Field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
    "GF(9)": lambda: Field(3, 2, [1, 0, 1]),
    "GF(25)": lambda: Field(5, 2, [2, 1, 1]),
    "GF(2^9)": lambda: Field(2, 9, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1]),
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


# the exact kernel class of each field in FIELDS: one per row representation
KINDS = {"GF(2)": BitKernel, "GF(5)": PrimeKernel, "GF(2^4)": ByteKernel,
         "GF(2^8)": ByteKernel, "GF(9)": OddKernel, "GF(25)": OddKernel,
         "GF(2^9)": Char2Kernel, "GF(2^16)": Char2Kernel}


def test_kernel_choice_and_lazy_tables():
    """Each field gets its exact kernel class and builds no table with it.
    GF(2) adds on byte rows: its `add` and `sub` are `ByteKernel`'s code."""
    assert set(KINDS) == set(FIELDS)
    for name, kind in KINDS.items():
        f = FIELDS[name]()
        assert type(f.kernel) is kind
        assert "_tables" not in vars(f)
    assert BitKernel.add is BitKernel.sub is ByteKernel.add is ByteKernel.sub
    f = FIELDS["GF(9)"]()
    assert "_zech" not in vars(f.kernel)
    Poly(f, [1, 2]) + Poly(f, [2, 2])
    assert "_tables" in vars(f) and "_zech" in vars(f.kernel)


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
    assert f._tables == ([1, 1, 1, 0, 0], [3, 0])


# -- characteristic 2: bit rows (GF(2)), byte rows and list loops ---------------------

# GF(2): bit rows; GF(2^4): q < 256, so the byte tables are padded; GF(2^8):
# q = 256, so the spare index 255 is exactly the zero slot; GF(2^9), the
# smallest q above 256, and GF(2^16): the list loops only.
CHAR2 = ["GF(2)", "GF(2^4)", "GF(2^8)", "GF(2^9)", "GF(2^16)"]


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
    assert type(field.kernel) is KINDS[repr(field)]
    for n in (1, 2, ROW_MIN - 1, ROW_MIN, ROW_MIN + 1):
        for _ in range(5):
            coeffs = [rng.choice([0, rng.randrange(1, field.q)]) for _ in range(n - 1)]
            lead = rng.randrange(2, field.q) if field.q > 2 else 1
            b = Poly(field, coeffs + [lead])
            a = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(3 * n))])
            check_char2_ops(field, a, b, rng.randrange(1, field.q))
            check_char2_ops(field, b, a, rng.randrange(1, field.q))
            check_char2_gcd(field, a * b, b * Poly(field, [rng.randrange(1, field.q), 1]))


@pytest.mark.parametrize("name", ["GF(2^4)", "GF(2^8)"])
def test_byte_rows_divide_by_rows_from_row_min(name, monkeypatch):
    """`ByteKernel` divides by byte rows (its `poly_mod` reducer, one call
    per division) exactly when the divisor has at least `ROW_MIN` = 7
    coefficients, the crossover measured on 255-coefficient dividends, and
    by the list loop below that, whatever the dividend's length."""
    assert ROW_MIN == 7
    f = FIELDS[name]()
    assert type(f.kernel) is ByteKernel
    reducer, calls = f.kernel.poly_mod, []
    monkeypatch.setattr(f.kernel, "poly_mod", lambda *args: calls.append(1) or reducer(*args))
    rng = random.Random(f.q)
    for n in (1, 2, ROW_MIN - 1, ROW_MIN, ROW_MIN + 1, 40):
        b = Poly(f, [rng.randrange(f.q) for _ in range(n - 1)] + [rng.randrange(1, f.q)])
        for length in (n, 3 * n + 1, 255):
            a = Poly(f, [rng.randrange(f.q) for _ in range(length - 1)] + [1])
            calls.clear()
            q, r = divmod(a, b)
            assert q * b + r == a and r.degree < b.degree
            assert len(calls) == (n >= ROW_MIN), (n, length)


# -- GF(2): BitKernel against PrimeKernel ---------------------------------------------


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
    """+, *, divmod and gcd on rows of up to 200 coefficients, and by divisors
    of 1 and 2 coefficients: the packed ops on bit rows against the prime
    kernel's on coefficient tuples.  add, sub, scale, and pack + combine on rows
    whose top entries may be zero: there the outputs must match entry for
    entry, so the bit rows must unpack to full length."""
    char2, prime = Field(2).kernel, _prime_gf2().kernel
    assert type(char2) is BitKernel

    def bits(n):
        return data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))

    def row(max_len):
        return _strip_list(bits(data.draw(st.integers(0, max_len))))

    def padded(length):
        """`length` entries, the top ones zero from a drawn point on."""
        low = data.draw(st.integers(0, length))
        return bits(low) + [0] * (length - low)

    a, b, c = row(200), row(200), row(60)
    d = tuple(bits(data.draw(st.integers(0, 1)))) + (1,)
    for x, y in ((a, b), (a, c), (c, a), (a, d), (c, d), (d, d)):
        px, py, unpack = char2.to_packed(x), char2.to_packed(y), char2.from_packed
        assert _strip_list(char2.add(x, y)) == _strip_list(prime.add(x, y))
        assert unpack(char2.poly_add(px, py)) == prime.poly_add(x, y)
        if x and y:
            assert _strip_list(char2.mul(x, y)) == _strip_list(prime.mul(x, y))
            assert unpack(char2.poly_mul(px, py)) == prime.poly_mul(x, y)
        if y and len(x) >= len(y):
            q, r = char2.poly_divmod(px, py)
            assert (unpack(q), unpack(r)) == prime.poly_divmod(x, y)
        if x or y:
            assert unpack(char2.gcd(px, py)) == prime.gcd(x, y)
    if a and b and c:
        ac, bc = _strip_list(prime.mul(a, c)), _strip_list(prime.mul(b, c))
        g = unpack(char2.gcd(char2.to_packed(ac), char2.to_packed(bc)))
        assert g == prime.gcd(ac, bc)
        assert len(g) >= len(c)

    u, v = padded(data.draw(st.integers(0, 150))), padded(data.draw(st.integers(0, 150)))
    for x, y in ((u, v), (v, u), (u, [])):
        assert char2.add(x, y) == prime.add(x, y)
        assert char2.sub(x, y) == prime.sub(x, y)
    assert char2.scale(u, 1) == prime.scale(u, 1)
    length, count = data.draw(st.integers(1, 150)), data.draw(st.integers(1, 12))
    rows = [padded(length) for _ in range(count)]
    coeffs = bits(data.draw(st.integers(0, count)))
    assert char2.combine(char2.pack(rows), coeffs) == prime.combine(prime.pack(rows), coeffs)


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
    outcome under `BitKernel` and `PrimeKernel`; none raises, and every
    success has error_word == received - encode(message)."""
    other = _same_spec_over(_prime_gf2(), spec)
    assert type(spec.field.kernel) is BitKernel
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


# -- spec-level fuzz beyond GF(2) ------------------------------------------------------

SPEC_FIELDS = {
    "GF(7)": Field(7),
    "GF(9)": Field(3, 2, [1, 0, 1]),
    "GF(25)": Field(5, 2, [2, 1, 1]),
    "GF(2^8)": Field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
    "GF(2^16)": Field(2, 16, [1, 1, 0, 1] + [0] * 8 + [1, 0, 0, 0, 1]),
}


@st.composite
def coprime_specs(draw, f: Field, max_degree: int, sizes: tuple[int, int],
                  ordered: bool = False):
    """Coprime specs over `f`; monic moduli of degree 1..max_degree.

    Each modulus is drawn as a degree and its lower coefficients, reducible
    ones included, and kept when coprime to those kept before, up to an n
    drawn from `sizes`.  Unless `ordered`, about half the specs put a
    modulus of the largest degree first, which leaves them unordered
    whenever the degrees differ.
    """
    n = draw(st.integers(*sizes))
    moduli = []
    for _ in range(8 * n):
        d = draw(st.integers(1, max_degree))
        m = Poly(f, draw(st.lists(st.integers(0, f.q - 1), min_size=d, max_size=d)) + [1])
        if all(poly_gcd(m, other).degree == 0 for other in moduli):
            moduli.append(m)
            if len(moduli) == n:
                break
    if ordered or draw(st.booleans()):
        moduli.sort(key=lambda m: m.degree)
    else:
        moduli.insert(0, moduli.pop(max(range(len(moduli)), key=lambda i: moduli[i].degree)))
    n = len(moduli)
    return CodeSpec(f, moduli, draw(st.one_of(st.integers(1, max(1, n // 2)), st.integers(1, n))))


def _random_symbol(data, f: Field, degree: int, nonzero: bool = False) -> Poly:
    return Poly.from_int(f, data.draw(st.integers(int(nonzero), f.q ** degree - 1)))


@pytest.mark.parametrize("name", list(SPEC_FIELDS))
def test_specs_beyond_gf2_decode_within_the_degree_budget(name):
    """Every option, and list decoding on ordered specs, returns without
    raising and every success has error_word == received - encode(message).
    A codeword plus an error of degree weight <= t_degree decodes to the
    sent message under every option."""
    f = SPEC_FIELDS[name]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def check(data):
        # moduli up to degree 4 over GF(2^8) and GF(2^16), up to 2 over the others
        spec = data.draw(coprime_specs(f, 4 if f.q >= 256 else 2, (1, 6)))
        sent = None
        if data.draw(st.booleans()):
            sent = Poly.from_int(f, data.draw(st.integers(0, f.q ** spec.K - 1)))
            word = list(encode(spec, sent).symbols)
            budget = spec.t_degree
            for i in data.draw(st.permutations(range(spec.n))):
                if spec.degrees[i] <= budget and data.draw(st.booleans()):
                    budget -= spec.degrees[i]
                    word[i] = word[i] + _random_symbol(data, f, spec.degrees[i], nonzero=True)
        else:
            word = [_random_symbol(data, f, d) for d in spec.degrees]
        received = Codeword(spec, tuple(word))
        for options in ALL_OPTIONS:
            out = decode(spec, received, options)
            _check_outcome(spec, received, out)
            if sent is not None:
                assert out.ok and out.message == sent
        if spec.ordered_degree:
            out = list_decode(spec, received, build_candidate_list(spec))
            _check_outcome(spec, received, out)
            if sent is not None:
                assert out.message == sent

    check()


@pytest.mark.parametrize("f, max_degree", [(Field(2), 5), (Field(3), 3)], ids=["GF(2)", "GF(3)"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_candidate_list_is_every_support_above_the_gcd_budget(f, max_degree, data):
    """`build_candidate_list` equals the products over every support of at
    most t_hamming positions with 2 * (degree weight) > N - K, taken by size
    and then in lexicographic order."""
    spec = data.draw(coprime_specs(f, max_degree, (4, 10), ordered=True))
    supports = sorted(
        (tuple(i for i in range(spec.n) if mask >> i & 1) for mask in range(1, 1 << spec.n)),
        key=lambda s: (len(s), s))
    expected = []
    for s in supports:
        if len(s) <= spec.t_hamming and 2 * sum(spec.degrees[i] for i in s) > spec.N - spec.K:
            g = Poly.one(f)
            for i in s:
                g = g * spec.moduli[i]
            expected.append(g)
    assert build_candidate_list(spec) == expected


# -- odd characteristic: Kronecker products on digit planes ---------------------------

# Every slot layout `_SlotKernel.mul` reaches: 1- and 2-byte slots with the
# translate unpack (q <= 256), 4-byte slots (GF(257); GF(3) at its worst
# load), 8-byte slots (GF(65521)), and digit planes split without byte maps
# (GF(343), odd q > 256 with m > 1).  GF(243) is the largest odd q <= 256.
ODD_FIELDS = {
    "GF(3)": Field(3),
    "GF(7)": Field(7),
    "GF(9)": Field(3, 2, [1, 0, 1]),
    "GF(25)": Field(5, 2, [2, 1, 1]),
    "GF(27)": Field(3, 3, [1, 2, 0, 1]),
    "GF(243)": Field(3, 5, [1, 2, 0, 0, 0, 1]),
    "GF(257)": Field(257),
    "GF(343)": Field(7, 3, [5, 0, 0, 1]),
    "GF(65521)": Field(65521),
}
MUL_LENGTHS = (1, 2, KRONECKER_MIN - 1, KRONECKER_MIN, KRONECKER_MIN + 1, 9, 40, 150)


def check_mul(f: Field, a: list[int], b: list[int], reference: bool = True) -> None:
    """`mul` both ways round equals `_mul_loop` entry for entry, top zeros
    included, and, unless `reference` is off, the table-free `ref_mul`."""
    kernel = f.kernel
    short, long = (a, b) if len(a) <= len(b) else (b, a)
    out = kernel.mul(a, b)
    assert out == kernel.mul(b, a) == kernel._mul_loop(short, long)
    assert len(out) == len(a) + len(b) - 1
    if reference:
        assert _strip(list(out)) == ref_mul(f, a, b)


def _operand(rng: random.Random, f: Field, n: int, kind: str) -> list[int]:
    """n coefficients: uniform, mostly zeros (with 1 and -1), or uniform
    below zeros in the top half."""
    if kind == "sparse":
        return [rng.choice([0] * 6 + [1, f.q - 1, rng.randrange(f.q)]) for _ in range(n)]
    low = n if kind == "dense" else n // 2
    return [rng.randrange(f.q) for _ in range(low)] + [0] * (n - low)


@pytest.mark.parametrize("name", list(ODD_FIELDS))
def test_mul_matches_loop_and_reference_across_the_crossover(name):
    """Lengths on both sides of `KRONECKER_MIN` up to 150, 1 x n and n x 1
    among them, on dense, zero-heavy and top-zero operands; the table-free
    reference is run where len(a) * len(b) <= 1500."""
    f = ODD_FIELDS[name]
    rng = random.Random(f.q)
    for n in MUL_LENGTHS:
        for k in (1, KRONECKER_MIN, 40, 150):
            for kind in ("dense", "sparse", "top zeros"):
                a, b = _operand(rng, f, n, kind), _operand(rng, f, k, "dense")
                check_mul(f, a, b, reference=n * k <= 1500)


@pytest.mark.parametrize("name", [k for k, f in ODD_FIELDS.items() if f.m > 1])
def test_zech_table_matches_field_add(name):
    """`OddKernel._zech` raises the lowest digit for 1 + x; the table equals
    the one built by the table-free `Field._digitwise(1, x, 1)` per element
    (`Field.add` is the Zech add itself)."""
    f = ODD_FIELDS[name]
    exp, log, zlog, zech = f.kernel._zech
    n = f.q - 1
    expected = [log[f._digitwise(1, exp[d], 1)] for d in range(n)]
    assert zech[:n] == zech[n:2 * n] == zech[2 * n:3 * n] == expected
    assert zech[3 * n:] == [0] * (2 * n + 1)
    assert zlog == [5 * n] + [log[x] + 2 * n for x in range(1, n + 1)]


@pytest.mark.parametrize("name", list(ODD_FIELDS))
def test_mul_matches_reference(name):
    f = ODD_FIELDS[name]

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def check(data):
        a, b = data.draw(rows(f, 40)), data.draw(rows(f, 40))
        assert (a * b).coeffs == ref_mul(f, a.coeffs, b.coeffs)
        if a.coeffs and b.coeffs:
            check_mul(f, list(a.coeffs), list(b.coeffs), reference=False)

    check()


def _mul_slot_lengths(f: Field, cap: int = 20_000) -> list[int]:
    """Shorter-operand lengths at which `mul`'s slot width changes: for each
    width, the longest whose bound len * m * (p-1)^2 fits and the first that
    needs the next width; only lengths from `KRONECKER_MIN` to `cap`.  The
    lengths at which the folded bound of an earlier `mul`,
    len * (1 + (m-1)(p-1)) * m * (p-1)^2, changed width are kept as inputs
    too.  In a prime field the two bounds are one."""
    lengths = set()
    for per_coeff in (f.m * (f.p - 1) ** 2, (1 + (f.m - 1) * (f.p - 1)) * f.m * (f.p - 1) ** 2):
        for bits in (8, 16, 32):
            first = -(-(1 << bits) // per_coeff)     # shortest length whose bound reaches 2^bits
            lengths.update(n for n in (first - 1, first) if KRONECKER_MIN <= n <= cap)
    return sorted(lengths)


def _times_int(f: Field, x: int, count: int) -> int:
    """x added to itself `count` times: each base-p digit times count, mod p."""
    return sum(x // f.p ** i % f.p * count % f.p * f.p ** i for i in range(f.m))


@pytest.mark.parametrize("name", list(ODD_FIELDS))
def test_mul_at_the_worst_slot_load(name):
    """Operands whose every digit is p - 1, at the longest length each slot
    width holds and the first that needs the next.  A product coefficient is
    then (q-1)^2 times the number of terms it sums, so a slot that carries
    shows as a wrong coefficient."""
    f = ODD_FIELDS[name]
    top = f.q - 1
    square = f._mul_basis(top, top)
    lengths = _mul_slot_lengths(f)
    assert lengths or f.q > 256            # then 4- or 8-byte slots from the crossover on
    for n in [KRONECKER_MIN] + lengths:
        for k in (n, n + 7):
            out = f.kernel.mul([top] * n, [top] * k)
            expected = [_times_int(f, square, min(i + 1, n, n + k - 1 - i))
                        for i in range(n + k - 1)]
            assert out == expected, (n, k)


def test_mul_above_the_crossover_reads_no_table(monkeypatch):
    """A product whose shorter operand has `KRONECKER_MIN` coefficients runs
    no per-coefficient loop: over GF(7) and GF(65521) it reads no table, and
    over GF(9) it builds neither the field's tables nor `_zech`.  A shorter
    one runs the loop, which over GF(9) builds both."""
    fields = (Field(7), Field(65521), Field(3, 2, [1, 0, 1]))   # built before counting
    loops = []
    for kind in (PrimeKernel, OddKernel):
        loop = kind._mul_loop
        monkeypatch.setattr(kind, "_mul_loop",
                            lambda self, a, b, loop=loop: loops.append(len(a)) or loop(self, a, b))
    for f in fields:
        long = Poly(f, [1, f.q - 1] * 20)
        assert len((Poly(f, [2, 1, 0, 1]) * long).coeffs) == 43
        assert (long * long).degree == 78
        assert loops == []
        assert "_tables" not in vars(f) and not {"_rows", "_zech"} & set(vars(f.kernel))
        Poly(f, [2, 0, 1]) * long
        assert loops == [KRONECKER_MIN - 1]
        loops.clear()
    assert {"_tables", "_zech"} <= set(vars(f)) | set(vars(f.kernel))


# -- odd characteristic: division on packed digit planes ------------------------------

# GF(251) is the largest odd prime q <= 256, whose every division needs 4-byte
# slots; GF(3^6) is an odd q > 256 with m > 1, whose planes `struct` splits
# and joins; GF(65521) needs 8-byte slots
DIVIDE_FIELDS = {
    "GF(3)": Field(3),
    "GF(7)": Field(7),
    "GF(9)": Field(3, 2, [1, 0, 1]),
    "GF(25)": Field(5, 2, [2, 1, 1]),
    "GF(27)": Field(3, 3, [1, 2, 0, 1]),
    "GF(251)": Field(251),
    "GF(3^6)": Field(3, 6, [2, 1, 0, 0, 0, 0, 1]),
    "GF(65521)": Field(65521),
}
DIVISOR_LENGTHS = (PLANE_DIVIDE_MIN - 1, PLANE_DIVIDE_MIN, PLANE_DIVIDE_MIN + 1, 140)


def check_divide(f: Field, x: list[int], y: list[int]) -> None:
    """`_divide_planes(x, y)` equals the list `_divide` entry for entry, top
    zeros included, its remainder once unpacked, and `poly_divmod` returns
    both stripped."""
    kernel = f.kernel
    rem, quot = list(x), [0] * (len(x) - len(y) + 1)
    kernel._divide(rem, y, quot)
    expected = (quot, rem[:len(y) - 1])
    got, low, size = kernel._divide_planes(x, y)
    assert (got, kernel._unpack(int.from_bytes(low, "little"), size, len(y) - 1)) == expected
    assert kernel.poly_divmod(tuple(x), tuple(y)) == tuple(_strip(list(e)) for e in expected)


def _lead_top(rng: random.Random, f: Field, n: int, lead: int | None = None) -> list[int]:
    """n uniform coefficients under a nonzero top, `lead` when given."""
    return [rng.randrange(f.q) for _ in range(n - 1)] + [lead or rng.randrange(1, f.q)]


@pytest.mark.parametrize("name", list(DIVIDE_FIELDS))
def test_plane_division_matches_the_list_divide(name):
    """Divisors on both sides of `PLANE_DIVIDE_MIN` and of 140 coefficients,
    with leads 1, q - 1 and uniform, by dividends shorter than, as long as
    and longer than them: quotients of 0, 1, 2 and 71 terms."""
    f = DIVIDE_FIELDS[name]
    rng = random.Random(f.q)
    for ny in DIVISOR_LENGTHS:
        for lead in (1, f.q - 1, None):
            y = _lead_top(rng, f, ny, lead)
            shorter = Poly(f, _lead_top(rng, f, ny - 1))
            assert divmod(shorter, Poly(f, y)) == (Poly.zero(f), shorter)
            for terms in (1, 2, 71):
                check_divide(f, _lead_top(rng, f, ny + terms - 1), y)


def _divide_slot_terms(f: Field, cap: int = 300) -> list[int]:
    """Quotient lengths at which `_divide_planes`' slot width changes: for
    each width, the longest whose bound fits and the first that needs the
    next width; only lengths from 1 to `cap`."""
    per_term = f.m * (f.p - 1) ** 2
    terms = set()
    for bits in (8, 16, 32):
        first = -(-(1 << bits) // per_term) - 1   # fewest terms whose bound reaches 2^bits
        terms.update(t for t in (first - 1, first) if 1 <= t <= cap)
    return sorted(terms)


@pytest.mark.parametrize("name", list(DIVIDE_FIELDS))
def test_plane_division_at_the_worst_slot_load(name):
    """Every digit of the divisor is p - 1, and so is every digit of each
    quotient term's -c / lead, so each step adds the most a slot can take;
    the divisor is at least as long as the quotient, so the middle slots take
    every step.  Quotient lengths at each slot-width change, and 150."""
    f = DIVIDE_FIELDS[name]
    kernel, top = f.kernel, f.q - 1
    for terms in _divide_slot_terms(f) + [150]:
        ny = max(terms, PLANE_DIVIDE_MIN)
        y, quot, rem = [top] * ny, [f.neg(top)] * terms, [top] * (ny - 1)
        x = kernel.add(kernel.mul(quot, y), rem)
        check_divide(f, x, y)
        assert kernel.poly_divmod(tuple(x), tuple(y)) == (tuple(quot), tuple(rem))


@pytest.mark.parametrize("name", ["GF(7)", "GF(9)", "GF(3^6)", "GF(65521)"])
def test_plane_division_matches_the_list_divide_on_random_operands(name):
    f = DIVIDE_FIELDS[name]

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def check(data):
        y = data.draw(st.lists(elements(f), min_size=PLANE_DIVIDE_MIN - 1, max_size=60))
        x = y + data.draw(st.lists(elements(f), max_size=60))
        y.append(data.draw(st.integers(1, f.q - 1)))
        x.append(data.draw(st.integers(1, f.q - 1)))
        check_divide(f, x, y)

    check()


def test_plane_division_runs_from_plane_divide_min(monkeypatch):
    """`poly_divmod` divides on planes by `PLANE_DIVIDE_MIN` coefficients and
    more, and by the list `_divide` below that, over a prime and an
    extension field."""
    calls = []
    for kind in (PrimeKernel, OddKernel):
        for name in ("_divide", "_divide_planes"):
            method = getattr(kind, name)
            monkeypatch.setattr(kind, name, lambda self, *a, method=method, name=name:
                                calls.append(name) or method(self, *a))
    for f in (DIVIDE_FIELDS["GF(7)"], DIVIDE_FIELDS["GF(9)"]):
        x = Poly(f, [1] * 60)
        for ny, path in ((PLANE_DIVIDE_MIN - 1, "_divide"), (PLANE_DIVIDE_MIN, "_divide_planes")):
            divmod(x, Poly(f, [2] * ny))
            assert calls == [path]
            calls.clear()
