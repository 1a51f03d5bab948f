"""Erasure decoding: reconstruct the message from a subset of correct symbols.

Two routes:

* direct — classic residue recombination restricted to the known support,
  recomputing support-dependent coefficients each call;
* fixed transform — apply the full inverse transform to the received vector
  with arbitrary fill at erased positions, multiply by the product of the
  erased moduli, reduce, and divide exactly.  Uses only the precomputed
  spec coefficients, never per-support inverses, which is why it is the
  production path; the direct route is kept as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

from .code import CodeSpec, Codeword, psi_inverse
from .errors import (
    ErasureBudgetExceeded,
    InconsistentResidues,
    InsufficientSupport,
    NonDivisible,
)
from .poly import Poly, poly_mod_inverse


@dataclass(frozen=True)
class ErasurePattern:
    """A known-position set S with its derived modulus products.

    The erased moduli are the ones multiplied out: recovery multiplies by
    their product, whose degree a usable pattern keeps within N - K.  The
    known product is M_n divided by it exactly.
    """

    spec: CodeSpec
    known: frozenset[int]
    known_product: Poly = dc_field(init=False)    # product of moduli in S
    erased_product: Poly = dc_field(init=False)   # product of moduli outside S
    erased_weight: int = dc_field(init=False)     # degree weight of the complement

    def __post_init__(self):
        known = frozenset(self.known)
        if not known:
            raise InsufficientSupport("at least one known position required")
        if not all(0 <= i < self.spec.n for i in known):
            raise ValueError(f"positions out of range 0..{self.spec.n - 1}")
        object.__setattr__(self, "known", known)
        erased = self.spec.product(i for i in range(self.spec.n) if i not in known)
        object.__setattr__(self, "erased_product", erased)
        object.__setattr__(self, "known_product", self.spec.modulus_product // erased)
        object.__setattr__(self, "erased_weight", int(erased.degree))

    @property
    def known_weight(self) -> int:
        return self.spec.N - self.erased_weight


def interpolate_direct(
    spec: CodeSpec,
    symbols: Mapping[int, Poly],
    pattern: ErasurePattern,
) -> Poly:
    """Recombine the known residues with freshly computed coefficients.

    `symbols` must cover every position in the pattern's known set; other
    entries are ignored.
    """
    if pattern.known_weight < spec.K:
        raise InsufficientSupport(
            f"known degree weight {pattern.known_weight} < K = {spec.K}")
    ms = pattern.known_product
    acc = Poly.zero(spec.field)
    for i in sorted(pattern.known):
        c = symbols[i]
        if c.degree >= spec.moduli[i].degree:
            raise InconsistentResidues(f"symbol {i} too large for its modulus")
        if c.is_zero:
            continue
        b = ms // spec.moduli[i]
        acc = acc + c * (b * poly_mod_inverse(b, spec.moduli[i]))
    a = acc % ms
    if a.degree >= spec.K:
        raise InconsistentResidues(
            "known symbols are not the residues of a single message")
    return a


def interpolate_fixed_transform(
    spec: CodeSpec,
    received: Codeword | Sequence[Poly],
    pattern: ErasurePattern,
) -> Poly:
    """Erasure recovery using only the spec's fixed transform coefficients.

    The erased positions of `received` may hold anything; the result does
    not depend on them as long as the erased degree weight stays within the
    code redundancy N - K.
    """
    if pattern.erased_weight > spec.N - spec.K:
        raise ErasureBudgetExceeded(
            f"erased degree weight {pattern.erased_weight} > N - K = {spec.N - spec.K}")
    z = (pattern.erased_product * psi_inverse(spec, received)) % spec.modulus_product
    a, rem = divmod(z, pattern.erased_product)
    if not rem.is_zero:
        raise NonDivisible("reduced product is not a multiple of the erased moduli")
    if a.degree >= spec.K:
        raise InconsistentResidues(
            "known symbols are not the residues of a single message")
    return a
