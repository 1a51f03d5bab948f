"""Error decoding by partial-gcd runs on the received preimage.

The received word y = c + e has preimage Y = a + E with deg a < K, so the
coefficients of E above K are visible to the receiver while the lower ones
are hidden by the message.  A cofactor-tracking Euclidean loop applied to
(M_n, E) ends with t proportional to the error factor polynomial
M_n / gcd(E, M_n); the same loop run on (M_n, Y), or only on the coefficient
windows above K, produces the identical s and t whenever
2 * deg(factor) <= N - K, which is what makes decoding possible.

The loop is implemented once, on `Poly` arithmetic over the field's
coefficient kernel: each pass takes one whole quotient with a single
`divmod` (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 3), so the
loop itself does no coefficient arithmetic.  It is instantiated three ways:

* extended_gcd        -- reference run on the true error preimage;
* partial_gcd_full    -- run on the full received preimage with an early
                         stopping rule (also yields r = t * a);
* partial_gcd_upper   -- run on the upper coefficient windows only.

Loop invariants (Bezout identity, gcd preservation, the degree ledger
deg in1 = deg r~ + deg t, and deg t = sum of quotient degrees) are asserted
every outer pass; they hold for arbitrary inputs, decodable or not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Callable, Iterable, Sequence

# encode is re-exported: callers and perfbench/tracing.py look it up here
from .code import (  # noqa: F401
    CodeSpec, Codeword, encode, psi_inverse, support_degree_weight)
from .errors import (
    CandidateExplosion,
    DegreePreconditionViolated,
    MessageDegreeOverflow,
    NonDivisible,
    SpecMismatch,
    UnorderedDegrees,
    ZeroG,
)
from .poly import Poly, _strip, poly_gcd


@dataclass(frozen=True)
class GcdResult:
    """Outputs of one Euclidean run.

    r_tilde -- last divisor when the run stopped (for the reference run this
               is the gcd up to a scalar); not produced by the upper-window run
    r       -- remainder at the stop point (full-preimage run only; equals
               t * message when the run stayed within budget)
    s, t    -- cofactor pair of r; s is None when its tracking was disabled
    iterations -- outer-loop passes executed
    """

    t: Poly
    s: Poly | None
    r: Poly | None
    r_tilde: Poly | None
    iterations: int


class Stopping(Enum):
    """Early-stop rule of the partial runs (both provably equivalent)."""

    RELATIVE = "relative"    # stop when deg r drops below deg t + K (or deg t)
    THRESHOLD = "threshold"  # stop when deg r drops below the fixed midpoint


class Algorithm(Enum):
    FULL = "gcd1"   # partial gcd on the full received preimage
    UPPER = "gcd2"  # partial gcd on the coefficient windows above K


class Recovery(Enum):
    QUOTIENT = "quotient"  # a = (t * Y mod M_n) / t
    RATIO = "ratio"        # a = r / t              (full-preimage run only)
    ERROR = "error"        # a = Y - E via the lower part of E


@dataclass(frozen=True)
class DecodeOptions:
    algorithm: Algorithm = Algorithm.FULL
    stopping: Stopping = Stopping.RELATIVE
    recovery: Recovery = Recovery.QUOTIENT

    def __post_init__(self):
        if self.recovery is Recovery.RATIO and self.algorithm is not Algorithm.FULL:
            raise ValueError("ratio recovery needs the remainder r, "
                             "which only the full-preimage run produces")


class DecodeStatus(Enum):
    SUCCESS = "success"
    NO_ERROR = "no_error"
    FAILURE = "failure"


class FailureReason(Enum):
    FACTOR_DEGREE_EXCEEDED = "factor_degree_exceeded"
    NON_DIVISIBLE = "non_divisible"
    MESSAGE_DEGREE_OVERFLOW = "message_degree_overflow"


@dataclass(frozen=True)
class DecodeOutcome:
    status: DecodeStatus
    message: Poly | None = None
    error_word: Codeword | None = None
    factor_poly: Poly | None = None
    failure_reason: FailureReason | None = None

    @property
    def ok(self) -> bool:
        return self.status is not DecodeStatus.FAILURE


# -- the shared Euclidean loop -------------------------------------------------


def _euclid_loop(
    in1: Poly,
    in2: Poly,
    stop: Callable[[Poly, Poly], bool],
    track_s: bool,
) -> tuple[Poly, Poly, Poly | None, Poly, int]:
    """Run the cofactor-tracking division loop until `stop(r, t)` fires.

    Requires deg in1 > deg in2 and in2 != 0 (callers handle the degenerate
    early exits); every stop rule fires at r = 0, so no pass divides by
    zero.  Returns (r, r_tilde, s, t, iterations).
    """
    field = in1.field
    r, rt = in1, in2
    s, st = (Poly.one(field), Poly.zero(field)) if track_s else (None, None)
    t, tt = Poly.zero(field), Poly.one(field)
    gcd0 = poly_gcd(in1, in2)
    delta_sum = 0
    iterations = 0
    while True:
        if track_s:
            assert r == s * in1 + t * in2
        q, r = divmod(r, rt)
        delta_sum += q.degree
        if track_s:
            s = s - q * st
        t = t - q * tt
        iterations += 1
        # invariants at the stop-check point: they hold for any inputs
        assert poly_gcd(r, rt) == gcd0
        if track_s:
            assert r == s * in1 + t * in2
        assert in1.degree == rt.degree + t.degree
        assert r.degree < rt.degree
        assert t.degree > tt.degree
        assert t.degree == delta_sum
        if stop(r, t):
            return r, rt, s, t, iterations
        r, rt = rt, r
        if track_s:
            s, st = st, s
        t, tt = tt, t


def _check_degrees(in1: Poly, in2: Poly) -> None:
    if not in1.degree > in2.degree:
        raise DegreePreconditionViolated(
            f"need deg first ({in1.degree}) > deg second ({in2.degree})")


def extended_gcd(modulus_product: Poly, error_preimage: Poly, track_s: bool = True) -> GcdResult:
    """Reference run on the fully known error preimage.

    Ends with r = 0; r_tilde is the gcd up to a nonzero scalar, and the
    cofactors satisfy s * modulus_product + t * error_preimage = 0.
    """
    _check_degrees(modulus_product, error_preimage)
    field = modulus_product.field
    if error_preimage.is_zero:
        return GcdResult(t=Poly.one(field), s=Poly.zero(field) if track_s else None,
                         r=None, r_tilde=modulus_product, iterations=0)
    r, rt, s, t, iters = _euclid_loop(
        modulus_product, error_preimage, stop=lambda r, t: r.is_zero, track_s=track_s)
    if track_s:
        assert (s * modulus_product + t * error_preimage).is_zero
    return GcdResult(t=t, s=s, r=None, r_tilde=rt, iterations=iters)


def partial_gcd_full(
    modulus_product: Poly,
    received_preimage: Poly,
    dim: int,
    stopping: Stopping = Stopping.RELATIVE,
    track_s: bool = True,
) -> GcdResult:
    """Partial run on the full received preimage Y (dim = K).

    When 2 * deg(factor polynomial) <= N - K this returns the same s, t and
    iteration count as the reference run on the true error preimage, plus
    the remainder r = t * message.
    """
    _check_degrees(modulus_product, received_preimage)
    field = modulus_product.field
    if received_preimage.degree < dim:
        # no visible error: Y is already a valid message
        return GcdResult(t=Poly.one(field), s=Poly.zero(field) if track_s else None,
                         r=received_preimage, r_tilde=modulus_product, iterations=0)
    if stopping is Stopping.RELATIVE:
        stop = lambda r, t: r.degree < t.degree + dim
    else:
        bound = int(modulus_product.degree) + dim
        stop = lambda r, t: 2 * r.degree < bound
    r, rt, s, t, iters = _euclid_loop(modulus_product, received_preimage, stop, track_s)
    return GcdResult(t=t, s=s, r=r, r_tilde=rt, iterations=iters)


def partial_gcd_upper(
    modulus_upper: Poly,
    error_upper: Poly,
    total_degree: int,
    dim: int,
    stopping: Stopping = Stopping.RELATIVE,
    track_s: bool = True,
) -> GcdResult:
    """Partial run on the coefficient windows above K (total_degree = N, dim = K).

    Works entirely on known data; returns the same s, t and iteration count
    as the reference run whenever 2 * deg(factor polynomial) <= N - K.
    """
    _check_degrees(modulus_upper, error_upper)
    field = modulus_upper.field
    if error_upper.is_zero:
        return GcdResult(t=Poly.one(field), s=Poly.zero(field) if track_s else None,
                         r=None, r_tilde=None, iterations=0)
    if stopping is Stopping.RELATIVE:
        stop = lambda r, t: r.degree < t.degree
    else:
        bound = total_degree - dim
        stop = lambda r, t: 2 * r.degree < bound
    _, _, s, t, iters = _euclid_loop(modulus_upper, error_upper, stop, track_s)
    return GcdResult(t=t, s=s, r=None, r_tilde=None, iterations=iters)


def upper_parts(spec: CodeSpec, received_preimage: Poly) -> tuple[Poly, Poly]:
    """Coefficient windows above K of the modulus product and of Y.

    The window of Y equals the window of the error preimage, since the
    message occupies only degrees below K.
    """
    if not received_preimage.degree < spec.N:
        raise DegreePreconditionViolated("preimage degree must be below N")
    k = spec.K
    m_upper = Poly._raw(spec.field, spec.modulus_product.coeffs[k:])
    e_upper = Poly(spec.field, received_preimage.coeffs[k:])
    return m_upper, e_upper


# -- factor / locator machinery ---------------------------------------------------


def error_factor_poly(error_preimage: Poly, modulus_product: Poly) -> Poly:
    """Minimal monic polynomial annihilating the error preimage mod M_n.

    Equals modulus_product / gcd(error_preimage, modulus_product); every
    polynomial with the annihilation property is one of its multiples.
    Returns 1 for a zero error.
    """
    return (modulus_product // poly_gcd(error_preimage, modulus_product)).monic()


def error_locator_poly(spec: CodeSpec, error: Codeword) -> Poly:
    """Product of the moduli at erroneous positions; degree = degree weight."""
    return spec.product(error.support())


def factor_interpolate(spec: CodeSpec, received_preimage: Poly, g: Poly) -> Poly:
    """Recover the message as (g * Y mod M_n) / g.

    `g` must be a multiple of the error factor polynomial with
    deg g <= N - K; a broken promise surfaces as NonDivisible or
    MessageDegreeOverflow.
    """
    if g.is_zero:
        raise ZeroG("factor polynomial must be nonzero")
    if g.degree > spec.N - spec.K:
        raise DegreePreconditionViolated(
            f"deg g = {g.degree} exceeds N - K = {spec.N - spec.K}")
    z = (g * received_preimage) % spec.modulus_product
    a, rem = divmod(z, g)
    if not rem.is_zero:
        raise NonDivisible("candidate factor does not divide the reduced product")
    if a.degree >= spec.K:
        raise MessageDegreeOverflow(f"recovered degree {a.degree} >= K = {spec.K}")
    return a


def error_factor_test(spec: CodeSpec, received_preimage: Poly, g: Poly) -> tuple[bool, Poly]:
    """Checkable part of the factor test.

    Returns (verdict, Z) with Z = g * Y mod M_n.  Under the channel promise
    deg(factor polynomial) <= t_degree — which the decoder cannot verify — a
    true verdict implies g is a multiple of the factor polynomial and
    Z = g * message.
    """
    if g.is_zero:
        raise ZeroG("test polynomial must be nonzero")
    z = (g * received_preimage) % spec.modulus_product
    if g.degree > spec.t_degree:
        return False, z
    q, rem = divmod(z, g)
    verdict = rem.is_zero and q.degree < spec.K
    return verdict, z


def count_zero_residues(spec: CodeSpec, g: Poly) -> int:
    """Number of moduli dividing g."""
    return sum(1 for r in spec.residues(g) if r.is_zero)


def _locator_conditions(spec: CodeSpec, received_preimage: Poly, g: Poly) -> tuple[bool, Poly]:
    """Locator verdict on a candidate g, and Z = g * Y mod M_n.

    The verdict needs Z = g * q with deg q < K.  An exact quotient has degree
    deg Z - deg g, so deg Z >= K + deg g rejects g exactly, with no division;
    below that bound, g dividing Z is enough.  The conditions on g alone (its
    zero-residue count, which costs n divisions, then its degree cap) run last.

    This is the reference, one product and one reduction per candidate, for
    `error_locator_test` and the tests; `list_decode` scans through
    `_locator_scan`, which reaches the same verdicts.
    """
    z = (g * received_preimage) % spec.modulus_product
    if z.degree >= spec.K + g.degree or not (z % g).is_zero:
        return False, z
    return (count_zero_residues(spec, g) <= spec.t_hamming
            and g.degree <= _locator_degree_cap(spec)), z


def _locator_degree_cap(spec: CodeSpec) -> int:
    """Largest locator degree: the sum of the t_hamming largest modulus degrees."""
    return support_degree_weight(spec, range(spec.n - spec.t_hamming, spec.n))


def _locator_scan(spec: CodeSpec, received_preimage: Poly,
                  candidates: Iterable[Poly]) -> tuple[Poly, Poly] | None:
    """(g, Z / g) for the first candidate g that passes
    `_locator_conditions`, or None when none does.

    Z = g * Y mod M_n is GF(q)-linear in g: Z = sum_j g_j * R_j with
    R_j = x^j * Y mod M_n.  The rows R_0..R_cap, for cap the locator degree
    cap, are built once by `CodeSpec._shift_rows` and packed; then per
    candidate the checks run cheapest first:

    * deg g > cap (the zero candidate included) rejects, as the verdict
      needs deg g <= cap; it also keeps g within the rows;
    * deg Z >= K + deg g rejects, read off one `combine_length`;
    * the rare survivors form Z by `combine` and take the reference's
      division by g, whose quotient is the message on a hit, and
      zero-residue count.
    """
    field, kernel, K = spec.field, spec.field.kernel, spec.K
    cap = _locator_degree_cap(spec)
    rows = kernel.pack(spec._shift_rows(received_preimage.coeffs, cap + 1))
    for g in candidates:
        if g.field is not field and g.field != field:
            raise SpecMismatch(f"candidate over {g.field!r}, not {field!r}")
        coeffs = g.coeffs
        if not coeffs or len(coeffs) > cap + 1:
            continue
        if kernel.combine_length(rows, coeffs) >= K + len(coeffs):
            continue
        a, rem = divmod(Poly._raw(field, _strip(kernel.combine(rows, coeffs))), g)
        if rem.is_zero and count_zero_residues(spec, g) <= spec.t_hamming:
            return g, a
    return None


def error_locator_test(
    spec: CodeSpec, received_preimage: Poly, positions: Iterable[int]
) -> tuple[bool, Poly]:
    """Checkable part of the locator test for a candidate error support.

    The candidate polynomial is the product of the moduli at `positions`.
    Under the promise hamming_weight(error) <= t_hamming, a true verdict
    implies the candidate is a multiple of the error locator polynomial and
    Z = candidate * message.  Requires nondecreasing modulus degrees.
    """
    if not spec.ordered_degree:
        raise UnorderedDegrees("locator test requires nondecreasing modulus degrees")
    return _locator_conditions(spec, received_preimage, spec.product(positions))


# -- the decoder --------------------------------------------------------------------


def _failure(reason: FailureReason) -> DecodeOutcome:
    return DecodeOutcome(status=DecodeStatus.FAILURE, failure_reason=reason)


def _success(spec: CodeSpec, y: Poly, message: Poly, factor: Poly) -> DecodeOutcome:
    """Outcome with error_word = received - encode(spec, message).

    That is psi(Y - message), for Y the received preimage: deg Y < N and
    deg message < K, so the two residue vectors subtract position by
    position.  It holds for any moduli, irreducible or not.
    """
    return DecodeOutcome(status=DecodeStatus.SUCCESS, message=message,
                         error_word=Codeword(spec, spec.residues(y - message)),
                         factor_poly=factor)


def decode(
    spec: CodeSpec,
    received: Codeword | Sequence[Poly],
    options: DecodeOptions = DecodeOptions(),
) -> DecodeOutcome:
    """Three-step gcd decoding: transform, partial gcd, recovery.

    Corrects every error whose factor polynomial has degree <= t_degree —
    in particular every error of degree weight <= t_degree, and, when the
    moduli degrees are nondecreasing with an equal-degree tail, every error
    of hamming weight <= t_hamming.  Outside the guarantee the outcome may
    be a failure or a different valid message; it is never an exception.
    """
    if not isinstance(received, Codeword):
        received = Codeword(spec, tuple(received))
    field = spec.field
    y = psi_inverse(spec, received)
    if y.degree < spec.K:
        return DecodeOutcome(
            status=DecodeStatus.NO_ERROR, message=y,
            error_word=spec.zero_word(), factor_poly=Poly.one(field))

    track_s = options.recovery is Recovery.ERROR
    if options.algorithm is Algorithm.FULL:
        run = partial_gcd_full(spec.modulus_product, y, spec.K,
                               options.stopping, track_s=track_s)
    else:
        m_upper, e_upper = upper_parts(spec, y)
        run = partial_gcd_upper(m_upper, e_upper, spec.N, spec.K,
                                options.stopping, track_s=track_s)
    t = run.t
    if 2 * t.degree > spec.N - spec.K:
        return _failure(FailureReason.FACTOR_DEGREE_EXCEEDED)

    if options.recovery is Recovery.QUOTIENT:
        z = (t * y) % spec.modulus_product
        a, rem = divmod(z, t)
    elif options.recovery is Recovery.RATIO:
        a, rem = divmod(run.r, t)
    else:
        # lower part of the error from the cofactor identity, then a = Y - E
        e_upper = Poly(field, y.coeffs[spec.K:])
        numerator = -(run.s * spec.modulus_product) - (t * e_upper).shift(spec.K)
        e_lower, rem = divmod(numerator, t)
        a = Poly(field, y.coeffs[:spec.K]) - e_lower
    if not rem.is_zero:
        return _failure(FailureReason.NON_DIVISIBLE)
    if a.degree >= spec.K:
        return _failure(FailureReason.MESSAGE_DEGREE_OVERFLOW)
    return _success(spec, y, a, t.monic())


def list_decode(
    spec: CodeSpec,
    received: Codeword | Sequence[Poly],
    candidates: Sequence[Poly],
    options: DecodeOptions = DecodeOptions(),
    *,
    gcd_outcome: DecodeOutcome | None = None,
) -> DecodeOutcome:
    """gcd decoding extended by a precomputed list of candidate locators.

    Runs the gcd decoder first; on failure, scans `candidates` (products of
    moduli whose degree exceeds the gcd budget) in order and recovers from
    the first one that passes the locator test.  Returns the original
    failure when none does.  `gcd_outcome`, when given, must be
    `decode(spec, received, options)`; it stands in for that run, so the
    word is not decoded twice.

    The scan is `_locator_scan`, one row map per received word;
    `_locator_conditions` is its reference and gives the same first hit.
    """
    if not spec.ordered_degree:
        raise UnorderedDegrees("list decoding requires nondecreasing modulus degrees")
    if not isinstance(received, Codeword):
        received = Codeword(spec, tuple(received))
    base = decode(spec, received, options) if gcd_outcome is None else gcd_outcome
    if base.status is not DecodeStatus.FAILURE:
        return base
    y = psi_inverse(spec, received)
    hit = _locator_scan(spec, y, candidates)
    if hit is None:
        return base
    g, a = hit
    return _success(spec, y, a, g)


def build_candidate_list(spec: CodeSpec, cap: int = 10 ** 6) -> list[Poly]:
    """All modulus products usable by list_decode.

    Enumerates supports of size <= t_hamming whose degree sum lies strictly
    above (N - K) / 2 (below that the gcd decoder already covers them), by
    size and then in lexicographic order.  With ordered degrees no such
    support exceeds the locator degree cap, the sum of the t_hamming
    largest degrees, so no candidate is dropped for it.
    """
    if not spec.ordered_degree:
        raise UnorderedDegrees("candidate enumeration requires nondecreasing modulus degrees")
    th = spec.t_hamming
    if th == 0:
        return []
    total = sum(comb(spec.n, j) for j in range(1, th + 1))
    if total > cap:
        raise CandidateExplosion(f"{total} candidate supports exceed cap {cap}")
    redundancy = spec.N - spec.K
    out = []
    for size in range(1, th + 1):
        for support in itertools.combinations(range(spec.n), size):
            d = support_degree_weight(spec, support)
            if 2 * d > redundancy:
                out.append(spec.product(support))
    return out
