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

`CodeSpec._shift_rows` is the one builder of rows x^j * v mod M_n, padded to
N coefficients: the inverse rows and the list decoder's locator rows are
such rows.

`CodeSpec.product` is the one place where products of moduli are formed.
`CodeSpec.residue` is the definition, a mod m_i by one division; it is the
reference the row maps are tested against, as `interpolate_direct` is for
`psi_inverse`.  Nothing here needs the moduli to be irreducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    BadK,
    MessageTooLarge,
    NonCoprimeModuli,
    NonMonicModulus,
    ResidueDegreeViolation,
    SpecMismatch,
    UnorderedDegrees,
)
from .field import Field
from .poly import Poly, _strip, poly_gcd, poly_mod_inverse, is_irreducible


class CodeSpec:
    """Validated code parameters with all derived quantities.

    Moduli keep their given order; flags record whether the degree-ordering
    conditions hold, and operations whose guarantees need them refuse to run
    otherwise rather than silently reordering.

    `residue(a, i)` reduces a by m_i, by division.  `residues(a)` reduces a
    by every modulus at once, through the forward rows.

    Everything is derived when the spec is built except four values built
    on first read: `message_modulus` (M_k) and `irreducible`, which no
    decoder reads, and the two row sets of the transform (see the module
    docstring), which take about 2 * N^2 coefficients; K is the sum of the
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
        self.modulus_product = m_n        # product of all moduli
        self.N = int(m_n.degree)
        self.K = sum(self.degrees[:k])    # degree of the product of the first k
        self.t_hamming = (n - k) // 2
        self.t_degree = (self.N - self.K) // 2
        self.betas = tuple(betas)

        self.ordered_degree = all(
            self.degrees[i] <= self.degrees[i + 1] for i in range(n - 1))
        self.tail_equal_degree = len(set(self.degrees[k:])) <= 1

    @cached_property
    def message_modulus(self) -> Poly:
        """M_k, the product of the first k moduli."""
        return self.product(range(self.k))

    @cached_property
    def irreducible(self) -> bool:
        """Whether every modulus is irreducible, by Rabin's test."""
        return all(is_irreducible(m) for m in self.moduli)

    def product(self, positions: Iterable[int]) -> Poly:
        """Product of the moduli at `positions`; 1 when there are none."""
        out = Poly.one(self.field)
        for i in positions:
            out = out * self.moduli[i]
        return out

    def residue(self, a: Poly, i: int) -> Poly:
        """a mod m_i."""
        return a % self.moduli[i]

    def residues(self, a: Poly) -> tuple[Poly, ...]:
        """(a mod m_0, ..., a mod m_{n-1}), as one `combine` of the forward
        rows weighted by a's coefficients; a is first reduced mod M_n when
        deg a >= N."""
        if a.degree >= self.N:
            a = a % self.modulus_product
        out = self.field.kernel.combine(self._forward_rows, a.coeffs)
        field, lo, res = self.field, 0, []
        for d in self.degrees:
            res.append(Poly._raw(field, _strip(out[lo:lo + d])))
            lo += d
        return tuple(res)

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
        return hash((self.field, self.moduli, self.k))

    def __repr__(self) -> str:
        return (f"CodeSpec({self.field!r}, n={self.n}, k={self.k}, "
                f"N={self.N}, K={self.K}, degrees={list(self.degrees)})")

    def check_word(self, symbols: Sequence[Poly]) -> tuple[Poly, ...]:
        symbols = tuple(symbols)
        if len(symbols) != self.n:
            raise ResidueDegreeViolation(
                f"expected {self.n} symbols, got {len(symbols)}")
        field = self.field
        for i, (s, d) in enumerate(zip(symbols, self.degrees)):
            if s.field is not field and s.field != field:
                raise SpecMismatch(f"symbol {i} is over {s.field!r}")
            if len(s.coeffs) > d:                 # deg s >= d; the zero symbol has none
                raise ResidueDegreeViolation(
                    f"symbol {i} has degree {s.degree}, modulus degree {d}")
        return symbols

    def zero_word(self) -> "Codeword":
        z = Poly.zero(self.field)
        return Codeword(self, (z,) * self.n)


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


@dataclass(frozen=True)
class Codeword:
    """Residue vector conforming to a spec (also used for error patterns)."""

    spec: CodeSpec
    symbols: tuple[Poly, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", self.spec.check_word(self.symbols))

    def __add__(self, other: "Codeword") -> "Codeword":
        self._check(other)
        return Codeword(self.spec, tuple(a + b for a, b in zip(self.symbols, other.symbols)))

    def __sub__(self, other: "Codeword") -> "Codeword":
        self._check(other)
        return Codeword(self.spec, tuple(a - b for a, b in zip(self.symbols, other.symbols)))

    def _check(self, other: "Codeword") -> None:
        if self.spec != other.spec:
            raise SpecMismatch("codewords from different specs")

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.symbols) if not s.is_zero)


def encode(spec: CodeSpec, message: Poly) -> Codeword:
    """Residue vector of a message polynomial (deg < K), by `spec.residues`:
    one `combine` of the first K forward rows.

    When every modulus is linear (a Reed-Solomon code) this is evaluation of
    the message at the n roots; forward row j then holds the roots' j-th
    powers.
    """
    if message.field != spec.field:
        raise SpecMismatch("message over the wrong field")
    if message.degree >= spec.K:
        raise MessageTooLarge(f"deg {message.degree} >= K = {spec.K}")
    return Codeword(spec, spec.residues(message))


def psi_inverse(spec: CodeSpec, word: Codeword | Sequence[Poly]) -> Poly:
    """Unique preimage of degree < N of a full residue vector.

    It is sum_i w_i * beta_i mod M_n: one `combine` of the inverse rows
    weighted by the symbols' coefficients, each symbol padded to its
    modulus degree, so no product and no reduction is formed.
    """
    symbols = word.symbols if isinstance(word, Codeword) else spec.check_word(word)
    coeffs = []
    for c, d in zip(symbols, spec.degrees):
        coeffs += c.coeffs + (0,) * (d - len(c.coeffs))
    return Poly._raw(spec.field, _strip(spec.field.kernel.combine(spec._inverse_rows, coeffs)))


def hamming_weight(word: Codeword) -> int:
    return sum(1 for s in word.symbols if not s.is_zero)


def degree_weight(word: Codeword) -> int:
    """Sum of modulus degrees over the nonzero symbol positions."""
    return sum(d for s, d in zip(word.symbols, word.spec.degrees) if not s.is_zero)


def weights(word: Codeword) -> tuple[int, int]:
    """(hamming, degree) weight pair."""
    return hamming_weight(word), degree_weight(word)


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
