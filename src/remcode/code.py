"""Code definition and the residue transform.

A code spec is a list of n pairwise coprime monic moduli m_0..m_{n-1} over a
field plus a cut index k: codewords are the residue vectors (a mod m_i) of
all message polynomials a with deg a < K = deg(m_0 * ... * m_{k-1}).

The transform psi maps a polynomial of degree < N = deg(m_0 * ... * m_{n-1})
to its residue vector; its inverse is the weighted sum of coefficients
beta_i (beta_i = 1 mod m_i, 0 mod the others) computed at spec build time.
Both are fixed GF(q)-linear maps, each applied as one `combine` of the
field's kernel over a row set the spec builds on first use:

* forward rows, for `residues` and `encode`: row j holds x^j mod m_i for
  every i, the residues end to end (N coefficients in all), j < N;
* inverse rows, for `psi_inverse`: x^l * beta_i mod M_n for l < deg m_i,
  in position order; the coefficients of the residue vector, end to end,
  weight them.

A third row set serves the fixed-transform erasure decoder
(`remcode.interpolate`): reduction rows, x^(N+j) mod M_n for j < N - K.
`CodeSpec._reduce` reduces a polynomial of degree below 2N - K mod M_n as
its low N coefficients plus one `combine` of these rows by its top ones,
one kernel `combine_onto`.

So a residue vector has one flat form that both maps read and write: its
row, N coefficients, symbol i zero-padded to deg m_i, end to end, so that
symbol i is the slice between the spec's offsets o_i and o_(i+1).  That
row is the only form of a `Codeword`.  `encode` and the decoder's error
words keep the forward map's output as it is, `+` and `-` are one kernel
add or sub on rows, `psi_inverse` weights the inverse rows by a word's
row, and the support, both weights and the zero-residue count read which
slices are nonzero (`CodeSpec._support`).  The library cuts no row into
n `Poly`s: only `Codeword.symbols` and `CodeSpec.residues`, for callers
outside it and for printing, do so (`CodeSpec._split`).  A degree-1
position then takes a constant `Poly` shared per spec, and a longer one a
`Poly` shared per distinct slice, up to `MAX_SHARED_SYMBOLS` slices per
spec; past that cap a new slice births its own.  A symbol list from
outside is checked and flattened in one pass (`CodeSpec._flatten`).

`CodeSpec._shift_rows` is the one builder of rows x^j * v mod M_n, padded to
N coefficients: the inverse rows, the reduction rows and, outside GF(2),
the list decoder's locator rows are such rows.  Over GF(2) the scan's
kernel builds its locator rows by shift and xor, as bit rows and with one
byte per coefficient (`BitKernel.locator_survivors`).

`CodeSpec.product` is the one place where products of moduli are formed:
one kernel `product` over the moduli, which the spec packs once
(`CodeSpec._packed_moduli`) -- on digit planes over the odd fields with
q <= 256, by the chain of `poly_mul` elsewhere.
`CodeSpec.residue` is the definition, a mod m_i by one division; it is the
reference the row maps are tested against, as `interpolate_direct` is for
`psi_inverse`.  Nothing here needs the moduli to be irreducible.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import (
    BadK,
    InfeasibleWeight,
    MessageTooLarge,
    NonCoprimeModuli,
    NonMonicModulus,
    ResidueDegreeViolation,
    SpecMismatch,
    UnorderedDegrees,
)
from .field import Field
from .kernels import _strip
from .poly import Poly, _born, poly_gcd, poly_mod_inverse, is_irreducible

# `CodeSpec._split` shares one `Poly` per distinct symbol of degree >= 2 up to
# this many symbols per spec, and births a fresh one for each symbol past it:
# GF(9) moduli of degrees 2 and 3 have 81 + 729 symbols, but over GF(2^16) a
# degree-2 position alone has 2^32
MAX_SHARED_SYMBOLS = 1 << 12


class CodeSpec:
    """Validated code parameters with all derived quantities.

    Moduli keep their given order; flags record whether the degree-ordering
    conditions hold, and operations whose guarantees need them refuse to run
    otherwise rather than silently reordering.

    `residue(a, i)` reduces a by m_i, by division.  `residues(a)` reduces a
    by every modulus at once, through the forward rows: it is the split of
    the residue row `_row(a)`.

    Everything is derived when the spec is built except six values built
    on first read: `message_modulus` (M_k) and `irreducible`, which no
    decoder reads, the two row sets of the transform, which take about
    2 * N^2 coefficients, the reduction rows of the fixed-transform
    erasure decoder, (N - K) * N coefficients (see the module docstring),
    and `_packed_moduli`, the moduli in the form the kernel's `product`
    reads, which the build itself first reads, for M_n; K is the sum of the
    first k degrees.

    Validation runs in a fixed order: monic moduli, then coprimality, then
    k.  Coprimality costs no pass of its own: beta_i needs the inverse of
    M_n / m_i mod m_i, which exists exactly when m_i is coprime to every
    other modulus.  Only when one is missing are the pairs scanned, to
    report the lexicographically first one that shares a factor.
    """

    def __init__(self, field: Field, moduli: Sequence[Poly], k: int):
        moduli = tuple(moduli)
        if not moduli:
            raise BadK("at least one modulus required")
        for i, m in enumerate(moduli):
            if m.field != field:
                raise SpecMismatch(f"modulus {i} is over {m.field!r}, not {field!r}")
            if m.degree < 1 or not m.is_monic:
                raise NonMonicModulus(f"modulus {i} = {m} must be monic of degree >= 1")
        self.field = field
        self.moduli = moduli
        n = len(moduli)
        m_n = self.product(range(n))

        # fixed inverse-transform coefficients: beta_i == 1 mod m_i, 0 mod m_j
        betas = []
        for m in moduli:
            b = m_n // m
            try:
                betas.append(b * poly_mod_inverse(b, m))
            except ValueError:
                raise NonCoprimeModuli(*_first_common_factor(moduli)) from None
        if not 1 <= k <= n:
            raise BadK(f"k must satisfy 1 <= k <= {n}, got {k}")

        self.n = n
        self.k = k
        self.degrees = tuple(int(m.degree) for m in moduli)
        # symbol i of a residue row is row[o_i:o_(i+1)]
        self._offsets = tuple(accumulate(self.degrees, initial=0))
        self.modulus_product = m_n        # product of all moduli
        self.N = int(m_n.degree)
        self.K = sum(self.degrees[:k])    # degree of the product of the first k
        self.t_hamming = (n - k) // 2
        self.t_degree = (self.N - self.K) // 2
        self.betas = tuple(betas)
        self._constants: dict[int, Poly] = {}     # filled by `_split`
        self._symbols: dict[tuple[int, ...], Poly] = {}  # and this, up to its cap

        self.ordered_degree = all(
            self.degrees[i] <= self.degrees[i + 1] for i in range(n - 1))
        self.tail_equal_degree = len(set(self.degrees[k:])) <= 1
        # hashed once, from ints only, so that a copy in another process
        # (where hash(None) differs) keeps a hash that agrees with __eq__
        self._hash = hash((field.p, field.m, field.reduction or (),
                           tuple(m.coeffs for m in moduli), k))

    @cached_property
    def message_modulus(self) -> Poly:
        """M_k, the product of the first k moduli."""
        return self.product(range(self.k))

    @cached_property
    def irreducible(self) -> bool:
        """Whether every modulus is irreducible, by Rabin's test."""
        return all(is_irreducible(m) for m in self.moduli)

    def check_positions(self, positions: Iterable[int]) -> tuple[int, ...]:
        """`positions` as a tuple of ints, once checked to be distinct
        positions 0 <= i < n; raises InfeasibleWeight otherwise, so that -1
        is not read as position n - 1 and no modulus is counted twice, and
        TypeError on a non-integer, so that 1.5 is not read as between 1
        and 2."""
        positions = tuple(map(operator.index, positions))
        if positions and not 0 <= min(positions) <= max(positions) < self.n:
            raise InfeasibleWeight(f"positions {list(positions)} out of range for n={self.n}")
        if len(set(positions)) < len(positions):
            raise InfeasibleWeight(f"positions {list(positions)} repeat a position")
        return positions

    def product(self, positions: Iterable[int]) -> Poly:
        """Product of the moduli at `positions`; 1 when there are none: one
        `product` of the field's kernel over `_packed_moduli`."""
        return _born(self.field, self.field.kernel.product(self._packed_moduli, positions))

    @cached_property
    def _packed_moduli(self):
        """The moduli in the form the kernel's `product` reads."""
        return self.field.kernel.pack_factors(tuple(m.coeffs for m in self.moduli))

    def residue(self, a: Poly, i: int) -> Poly:
        """a mod m_i."""
        return a % self.moduli[i]

    def residues(self, a: Poly) -> tuple[Poly, ...]:
        """(a mod m_0, ..., a mod m_{n-1}): the split of `_row(a)`."""
        return self._split(self._row(a))

    def _row(self, a: Poly) -> tuple[int, ...]:
        """The residue row of a: one `combine` of the forward rows weighted
        by a's coefficients; a is first reduced mod M_n when deg a >= N."""
        if a.degree >= self.N:
            a = a % self.modulus_product
        return tuple(self.field.kernel.combine(self._forward_rows, a.coeffs))

    def _split(self, row: tuple[int, ...]) -> tuple[Poly, ...]:
        """The symbols of a residue row, each stripped of its padding.

        `Poly` is immutable, so equal symbols may share one object.  A
        degree-1 position holds a constant, taken from `_constants`, which
        maps each constant seen so far to one shared `Poly`.  A longer
        position's slice of the row keys `_symbols`, which shares one `Poly`
        per distinct slice up to `MAX_SHARED_SYMBOLS` slices; past that a
        new slice births its own.
        """
        field, constants, symbols, o, out = (
            self.field, self._constants, self._symbols, self._offsets, [])
        for lo, hi in zip(o, o[1:]):
            if hi - lo == 1:
                c = row[lo]
                s = constants.get(c)
                if s is None:
                    s = constants[c] = Poly._raw(field, (c,) if c else ())
            else:
                key = row[lo:hi]
                s = symbols.get(key)
                if s is None:
                    s = Poly._raw(field, _strip(key))
                    if len(symbols) < MAX_SHARED_SYMBOLS:
                        symbols[key] = s
            out.append(s)
        return tuple(out)

    def _support(self, row: Sequence[int]) -> tuple[int, ...]:
        """The positions whose slice of a residue row is nonzero."""
        o = self._offsets
        return tuple(i for i in range(self.n) if any(row[o[i]:o[i + 1]]))

    def _flatten(self, symbols: tuple[Poly, ...]) -> tuple[int, ...]:
        """The residue row of a symbol list, checked in the same pass: n
        symbols over the spec's field (compared by value), symbol i of
        degree below deg m_i and zero-padded to it."""
        if len(symbols) != self.n:
            raise ResidueDegreeViolation(
                f"expected {self.n} symbols, got {len(symbols)}")
        field, row = self.field, []
        for i, (s, d) in enumerate(zip(symbols, self.degrees)):
            if s.field is not field and s.field != field:
                raise SpecMismatch(f"symbol {i} is over {s.field!r}")
            c = s.coeffs
            if len(c) > d:                        # deg s >= d; the zero symbol has none
                raise ResidueDegreeViolation(
                    f"symbol {i} has degree {s.degree}, modulus degree {d}")
            row += c
            if len(c) < d:
                row += (0,) * (d - len(c))
        return tuple(row)

    @cached_property
    def _forward_rows(self):
        """Row j holds x^j mod m_i for every i, end to end, j < N; packed."""
        kernel = self.field.kernel
        columns = [col for m in self.moduli for col in _power_columns(kernel, m.coeffs, self.N)]
        return kernel.pack(list(zip(*columns)))

    @cached_property
    def _inverse_rows(self):
        """x^l * beta_i mod M_n for l < deg m_i, in position order; packed."""
        rows = []
        for beta, d in zip(self.betas, self.degrees):
            rows += self._shift_rows(beta.coeffs, d)
        return self.field.kernel.pack(rows)

    @cached_property
    def _reduction_rows(self):
        """x^(N+j) mod M_n for j < N - K; packed.  Row 0, x^N mod M_n, is
        minus M_n's lower coefficients, since M_n is monic."""
        kernel, N = self.field.kernel, self.N
        first = kernel.sub([0] * N, self.modulus_product.coeffs[:N])
        return kernel.pack(self._shift_rows(first, N - self.K))

    def _reduce(self, a: Poly) -> Poly:
        """a mod M_n, for deg a < 2N - K: a's low N coefficients plus the
        `combine` of the reduction rows by its top ones, with no division."""
        N = self.N
        if a.degree < N:
            return a
        assert a.degree < 2 * N - self.K, "beyond the reduction rows"
        c = a.coeffs
        return _born(self.field, self.field.kernel.combine_onto(self._reduction_rows, c[N:], c[:N]))

    def _shift_rows(self, v: Sequence[int], count: int) -> list[list[int]]:
        """x^j * v mod M_n for j < count, each zero-padded to N coefficients,
        for v of at most N coefficients; not packed.

        Each row after the first is x times the one before, reduced by one
        scaled subtraction of M_n.
        """
        kernel, N = self.field.kernel, self.N
        low = self.modulus_product.coeffs[:N]
        row = list(v) + [0] * (N - len(v))
        rows = [row]
        for _ in range(count - 1):
            row = _times_x(kernel, row, low)
            rows.append(row)
        return rows

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CodeSpec)
                and (self.field, self.moduli, self.k) == (other.field, other.moduli, other.k))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        """`copy` and `pickle` rebuild the spec from its field, moduli and k,
        not from its caches."""
        return CodeSpec, (self.field, self.moduli, self.k)

    def __repr__(self) -> str:
        return (f"CodeSpec({self.field!r}, n={self.n}, k={self.k}, "
                f"N={self.N}, K={self.K}, degrees={list(self.degrees)})")

    def check_same(self, other: "CodeSpec", what: str) -> None:
        """Raise SpecMismatch unless `other`, the spec of `what`, is this
        spec; identity is tested before equality."""
        if other is not self and other != self:
            raise SpecMismatch(f"{what} of another spec")

    def zero_word(self) -> "Codeword":
        return Codeword._of_row(self, (0,) * self.N)


def _times_x(kernel, v: list[int], low: Sequence[int]) -> list[int]:
    """x * v mod f, for f the monic polynomial with lower coefficients `low`
    and len(v) == len(low) == deg f."""
    top, v = v[-1], [0] + v[:-1]
    return kernel.sub(v, kernel.scale(low, top)) if top else v


def _power_columns(kernel, m: Sequence[int], count: int) -> list[list[int]]:
    """For each l < deg m, the coefficients of x^l in x^j mod m, j < count.

    Built by doubling.  Once the columns hold k entries, the residues of
    x^(k+j), j < k, are those of x^j multiplied by x^k mod m: a linear map
    whose column b is x^(k+b) mod m.  So each doubling costs deg(m)^2
    whole-column scale-and-add steps; for a linear modulus x - r it is one,
    which extends r^0..r^(k-1) by r^k times itself.
    """
    low = list(m[:-1])
    cols = [[1]] + [[0]] * (len(low) - 1)
    while len(cols[0]) < count:
        k = len(cols[0])
        image = _times_x(kernel, [col[-1] for col in cols], low)      # x^k mod m
        new = [None] * len(cols)
        for b, col in enumerate(cols):
            if b:
                image = _times_x(kernel, image, low)                  # x^(k+b) mod m
            for a, x in enumerate(image):
                if x:
                    term = kernel.scale(col, x)
                    new[a] = term if new[a] is None else kernel.add(new[a], term)
        cols = [col + (more or [0] * k) for col, more in zip(cols, new)]
    return [col[:count] for col in cols]


def _first_common_factor(moduli: tuple[Poly, ...]) -> tuple[int, int]:
    """Lexicographically first pair (i, j), i < j, of moduli with a common factor."""
    n = len(moduli)
    return next((i, j) for i in range(n) for j in range(i + 1, n)
                if poly_gcd(moduli[i], moduli[j]).degree != 0)


class Codeword:
    """Residue vector conforming to a spec (also used for error patterns).

    It holds only `spec` and `row`, a tuple of N coefficients: symbol i,
    zero-padded to deg m_i, end to end in position order.  Equality and
    hash read (spec, row), so they do not depend on how the word was built.
    `Codeword(spec, symbols)` checks the symbols, flattens them in one pass
    and keeps only the row.  `symbols` is split from the row on each read,
    by `CodeSpec._split`, whose symbols are shared per spec (those of
    degree >= 2 up to `MAX_SHARED_SYMBOLS`); so it equals the symbols a
    word was built from, but is not the same tuple.  Immutable.
    """

    __slots__ = ("spec", "row")

    def __init__(self, spec: CodeSpec, symbols: Sequence[Poly]):
        _set_spec(self, spec)
        _set_row(self, spec._flatten(tuple(symbols)))

    @classmethod
    def _of_row(cls, spec: CodeSpec, row: tuple[int, ...]) -> "Codeword":
        """Internal constructor for a row already in the spec's format."""
        word = object.__new__(cls)
        _set_spec(word, spec)
        _set_row(word, row)
        return word

    @property
    def symbols(self) -> tuple[Poly, ...]:
        """(w_0, ..., w_{n-1}), split from the row on each read."""
        return self.spec._split(self.row)

    def __setattr__(self, *a):
        raise AttributeError("Codeword is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Codeword)
                and (self.spec, self.row) == (other.spec, other.row))

    def __hash__(self) -> int:
        return hash((self.spec, self.row))

    def __repr__(self) -> str:
        return f"Codeword(spec={self.spec!r}, symbols={self.symbols!r})"

    def __reduce__(self):
        """`copy` and `pickle` rebuild the word from its row."""
        return Codeword._of_row, (self.spec, self.row)

    def __add__(self, other: "Codeword") -> "Codeword":
        self._check(other)
        return Codeword._of_row(self.spec, tuple(self.spec.field.kernel.add(self.row, other.row)))

    def __sub__(self, other: "Codeword") -> "Codeword":
        self._check(other)
        return Codeword._of_row(self.spec, tuple(self.spec.field.kernel.sub(self.row, other.row)))

    def _check(self, other: "Codeword") -> None:
        self.spec.check_same(other.spec, "codeword")

    def support(self) -> tuple[int, ...]:
        return self.spec._support(self.row)


# The slots' own setters, which bypass `Codeword.__setattr__`
_set_spec, _set_row = (Codeword.__dict__[name].__set__ for name in ("spec", "row"))


def encode(spec: CodeSpec, message: Poly) -> Codeword:
    """Residue vector of a message polynomial (deg < K), built from its row
    `spec._row(message)`: one `combine` of the first K forward rows.

    When every modulus is linear (a Reed-Solomon code) this is evaluation of
    the message at the n roots; forward row j then holds the roots' j-th
    powers.
    """
    if message.field != spec.field:
        raise SpecMismatch("message over the wrong field")
    if message.degree >= spec.K:
        raise MessageTooLarge(f"deg {message.degree} >= K = {spec.K}")
    return Codeword._of_row(spec, spec._row(message))


def psi_inverse(spec: CodeSpec, word: Codeword | Sequence[Poly]) -> Poly:
    """Unique preimage of degree < N of a full residue vector.

    It is sum_i w_i * beta_i mod M_n: one `combine` of the inverse rows
    weighted by the word's row, so no product and no reduction is formed.
    A symbol list is checked and flattened first.
    """
    if isinstance(word, Codeword):
        spec.check_same(word.spec, "word")
        row = word.row
    else:
        row = spec._flatten(tuple(word))
    return _born(spec.field, spec.field.kernel.combine_packed(spec._inverse_rows, row))


def hamming_weight(word: Codeword) -> int:
    return len(word.support())


def degree_weight(word: Codeword) -> int:
    """Sum of modulus degrees over the nonzero symbol positions."""
    return support_degree_weight(word.spec, word.support())


def weights(word: Codeword) -> tuple[int, int]:
    """(hamming, degree) weight pair, from one support."""
    support = word.support()
    return len(support), support_degree_weight(word.spec, support)


def distances(x: Codeword, y: Codeword) -> tuple[int, int]:
    """(hamming, degree) distances, i.e. weights of the symbol-wise difference."""
    return weights(x - y)


def support_degree_weight(spec: CodeSpec, positions) -> int:
    return sum(map(spec.degrees.__getitem__, positions))


def _min_support_weight_above(spec: CodeSpec, bound: int) -> int:
    """Smallest degree weight of a support that exceeds `bound` (< N).

    Computed by subset-sum reachability over the modulus degrees (bitset,
    bounded by N) instead of enumerating 2^n subsets.
    """
    reachable = 1  # bit s set <=> some subset of degrees sums to s
    for d in spec.degrees:
        reachable |= reachable << d
    for s in range(bound + 1, spec.N + 1):
        if (reachable >> s) & 1:
            return s
    raise AssertionError("full support always exceeds the bound")


def min_degree_distance(spec: CodeSpec) -> int:
    """Exact minimum degree-weighted distance.

    Equals the smallest subset degree weight exceeding N - K.
    """
    return _min_support_weight_above(spec, spec.N - spec.K)


def min_hamming_distance(spec: CodeSpec) -> int:
    """n - k + 1; only guaranteed when moduli degrees are nondecreasing."""
    if not spec.ordered_degree:
        raise UnorderedDegrees(
            "minimum Hamming distance formula requires nondecreasing modulus degrees; "
            "use the exhaustive scan instead")
    return spec.n - spec.k + 1
