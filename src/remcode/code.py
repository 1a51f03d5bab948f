"""Code definition and the residue transform.

A code spec is a list of n pairwise coprime monic moduli m_0..m_{n-1} over a
field plus a cut index k: codewords are the residue vectors (a mod m_i) of
all message polynomials a with deg a < K = deg(m_0 * ... * m_{k-1}).

The transform psi maps a polynomial of degree < N = deg(m_0 * ... * m_{n-1})
to its residue vector; its inverse is a fixed weighted sum using coefficients
beta_i precomputed at spec build time, so inverting costs one dot product and
a single reduction.  `CodeSpec.product` is the one place where products of
moduli are formed, and `CodeSpec.residue` the one place where a polynomial
is reduced by a modulus; modulo a linear modulus x - r that is a(r).
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .poly import Poly, poly_gcd, poly_mod_inverse, is_irreducible


class CodeSpec:
    """Validated code parameters with all derived quantities.

    Moduli keep their given order; flags record whether the degree-ordering
    conditions hold, and operations whose guarantees need them refuse to run
    otherwise rather than silently reordering.

    `residue(a, i)` reduces a by m_i: by Horner evaluation at the root for
    a linear modulus, by division for the others; `residues(a)` does so for
    every modulus.

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
        m_k = self.product(range(k))
        self.modulus_product = m_n        # product of all moduli
        self.message_modulus = m_k        # product of the first k
        self.N = int(m_n.degree)
        self.K = int(m_k.degree)
        self.t_hamming = (n - k) // 2
        self.t_degree = (self.N - self.K) // 2
        self.betas = tuple(betas)
        # root r of each monic linear modulus x - r, None for the others
        self._roots = tuple(field.neg(m.coeffs[0]) if m.degree == 1 else None
                            for m in moduli)

        self.ordered_degree = all(
            self.degrees[i] <= self.degrees[i + 1] for i in range(n - 1))
        self.irreducible = all(is_irreducible(m) for m in moduli)
        self.tail_equal_degree = len(set(self.degrees[k:])) <= 1

    def product(self, positions: Iterable[int]) -> Poly:
        """Product of the moduli at `positions`; 1 when there are none."""
        out = Poly.one(self.field)
        for i in positions:
            out = out * self.moduli[i]
        return out

    def residue(self, a: Poly, i: int) -> Poly:
        """a mod m_i.

        The remainder modulo a linear modulus x - r is a(r), by Horner
        through `Poly.evaluate`; any other modulus takes a division.
        """
        r = self._roots[i]
        if r is None:
            return a % self.moduli[i]
        v = a.evaluate(r)
        return Poly._raw(self.field, (v,) if v else ())

    def residues(self, a: Poly) -> tuple[Poly, ...]:
        """(a mod m_0, ..., a mod m_{n-1}), each by `residue`."""
        return tuple(self.residue(a, i) for i in range(self.n))

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
        for i, (s, m) in enumerate(zip(symbols, self.moduli)):
            if s.field is not self.field and s.field != self.field:
                raise SpecMismatch(f"symbol {i} is over {s.field!r}")
            if s.degree >= m.degree:
                raise ResidueDegreeViolation(
                    f"symbol {i} has degree {s.degree}, modulus degree {m.degree}")
        return symbols

    def zero_word(self) -> "Codeword":
        z = Poly.zero(self.field)
        return Codeword(self, (z,) * self.n)


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
    """Residue vector of a message polynomial (deg < K), by `spec.residues`.

    When every modulus is linear (a Reed-Solomon code) this is evaluation of
    the message at the n roots.
    """
    if message.field != spec.field:
        raise SpecMismatch("message over the wrong field")
    if message.degree >= spec.K:
        raise MessageTooLarge(f"deg {message.degree} >= K = {spec.K}")
    return Codeword(spec, spec.residues(message))


def psi_inverse(spec: CodeSpec, word: Codeword | Sequence[Poly]) -> Poly:
    """Unique preimage of degree < N of a full residue vector."""
    symbols = word.symbols if isinstance(word, Codeword) else spec.check_word(word)
    acc = Poly.zero(spec.field)
    for c, beta in zip(symbols, spec.betas):
        if not c.is_zero:
            acc = acc + c * beta
    return acc % spec.modulus_product


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
