"""Erasure decoding: reconstruct the message from a subset of correct symbols.

Two routes:

* direct — classic residue recombination restricted to the known support,
  recomputing support-dependent coefficients each call;
* fixed transform — apply the full inverse transform to the received vector
  with arbitrary fill at erased positions, multiply by the product E of the
  erased moduli, reduce mod M_n, and divide exactly by E.  Uses only the
  precomputed spec coefficients, never per-support inverses, which is why
  it is the production path; the direct route is kept as an oracle.  The
  product has degree below 2N - K, since deg E <= N - K is checked first,
  so the reduction is one `combine` of the spec's reduction rows by its
  top coefficients (`CodeSpec._reduce`), and E is the one divisor.  E
  divides M_n, so E * Y mod M_n = E * (Y mod M_S), M_S = M_n / E: the
  division is always exact, and its quotient is Y mod M_S.  It is one
  kernel `exact_quotient`, which over the odd fields tests the remainder
  on its digit planes and unpacks none; the test stays a check, not an
  assert, so `NonDivisible` is raised under `python -O` too.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import filterfalse
from typing import Mapping, Sequence

from .code import CodeSpec, Codeword, psi_inverse
from .errors import (
    ErasureBudgetExceeded,
    InconsistentResidues,
    InsufficientSupport,
    NonDivisible,
)
from .poly import Poly, _born, poly_mod_inverse


@dataclass(frozen=True)
class ErasurePattern:
    """A known-position set S with its derived modulus products.

    The erased moduli are the ones multiplied out when the pattern is built,
    by one `CodeSpec.product` (on digit planes over the odd fields with
    q <= 256, so no `Poly` product is formed there): recovery multiplies by
    their product E, whose degree a usable pattern keeps within N - K, and
    divides by it exactly; over the odd fields the kernel tables E once for
    both steps when their slot sizes agree (`_SlotKernel._table`).  The
    known product, M_n divided by it exactly, is read only by
    `interpolate_direct`, so it is built on first read.
    """

    spec: CodeSpec
    known: frozenset[int]
    erased_product: Poly = dc_field(init=False)   # product of moduli outside S
    erased_weight: int = dc_field(init=False)     # degree weight of the complement

    def __post_init__(self):
        known = frozenset(self.spec.check_positions(self.known))
        if not known:
            raise InsufficientSupport("at least one known position required")
        object.__setattr__(self, "known", known)
        erased = self.spec.product(filterfalse(known.__contains__, range(self.spec.n)))
        object.__setattr__(self, "erased_product", erased)
        object.__setattr__(self, "erased_weight", int(erased.degree))

    @cached_property
    def known_product(self) -> Poly:
        """Product of the moduli in S."""
        return self.spec.modulus_product // self.erased_product

    @property
    def known_weight(self) -> int:
        return self.spec.N - self.erased_weight


def interpolate_direct(
    spec: CodeSpec,
    symbols: Mapping[int, Poly],
    pattern: ErasurePattern,
) -> Poly:
    """Recombine the known residues with freshly computed coefficients.

    `symbols` must cover every position in the pattern's known set, or
    `InsufficientSupport` is raised; other entries are ignored.
    """
    spec.check_same(pattern.spec, "erasure pattern")
    if pattern.known_weight < spec.K:
        raise InsufficientSupport(
            f"known degree weight {pattern.known_weight} < K = {spec.K}")
    ms = pattern.known_product
    acc = Poly.zero(spec.field)
    for i in sorted(pattern.known):
        try:
            c = symbols[i]
        except (KeyError, IndexError):
            raise InsufficientSupport(f"no symbol at known position {i}") from None
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

    The reduced product z = E * psi^-1(y) mod M_n is divided by E with one
    kernel `exact_quotient`, which returns None when E leaves a remainder
    (over the odd fields, checked on the remainder's digit planes, none of
    it unpacked); None raises `NonDivisible`.  Since E divides M_n this
    never happens for any received word (see the module docstring), but
    the check runs with asserts off too.  A quotient of degree K or more
    raises `InconsistentResidues`.
    """
    spec.check_same(pattern.spec, "erasure pattern")
    if pattern.erased_weight > spec.N - spec.K:
        raise ErasureBudgetExceeded(
            f"erased degree weight {pattern.erased_weight} > N - K = {spec.N - spec.K}")
    e, field = pattern.erased_product, spec.field
    z = spec._reduce(e * psi_inverse(spec, received))
    a = field.kernel.exact_quotient(z.packed, e.packed)
    if a is None:
        raise NonDivisible("reduced product is not a multiple of the erased moduli")
    a = _born(field, a)
    if a.degree >= spec.K:
        raise InconsistentResidues(
            "known symbols are not the residues of a single message")
    return a
