"""Error decoding by partial-gcd runs on the received preimage.

The received word y = c + e has preimage Y = a + E with deg a < K, so the
coefficients of E above K are visible to the receiver while the lower ones
are hidden by the message.  A cofactor-tracking Euclidean loop applied to
(M_n, E) ends with t proportional to the error factor polynomial
M_n / gcd(E, M_n); the same loop run on (M_n, Y), or only on the coefficient
windows above K, produces the identical s and t whenever
2 * deg(factor) <= N - K, which is what makes decoding possible.

The loop is implemented once, on the packed values of the field's
coefficient kernel: each pass takes one whole quotient with a single
`poly_divmod` (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 3)
and updates each cofactor by one `poly_mul` and one `poly_sub`, so the loop
itself does no coefficient arithmetic, and the stop rules read degrees as
ints.  Polynomials are born only for the invariant asserts and, once, for
the result.  It is instantiated three ways:

* extended_gcd        -- reference run on the true error preimage;
* partial_gcd_full    -- run on the full received preimage with an early
                         stopping rule (also yields r = t * a);
* partial_gcd_upper   -- run on the upper coefficient windows only.

The window run is the full run with every remainder degree lowered by K,
so both partial runs are one `_partial_run` with one rule pair: RELATIVE
stops once deg r < deg t + offset, THRESHOLD once 2 * deg r < bound, with
offset K and bound N + K on the full preimage and offset 0 and bound N - K
on the windows.  Every run that takes no pass returns t = 1, s = 0.

Loop invariants (Bezout identity, gcd preservation, the degree ledger
deg in1 = deg r~ + deg t, and deg t = sum of quotient degrees) are asserted
every outer pass; they hold for arbitrary inputs, decodable or not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field, replace
from enum import Enum
from functools import cached_property
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
from .field import Field
from .kernels import _strip
from .poly import Poly, _born, poly_gcd


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


@dataclass(frozen=True, eq=False)
class DecodeOutcome:
    """What one decode found, and the run it found it in.

    A decoder's outcome keeps its spec and the received preimage Y, failures
    included, so `list_decode` can scan a failed word without inverting it
    again.  `error_word` is built when it is first read, then cached.  An
    outcome built by hand holds no preimage, and its `error_word` is None.

    Equality is by value over the five public fields, `error_word` among
    them, so comparing two outcomes builds their words; the hash reads the
    other four, so it needs no word.  `copy` and `pickle` rebuild an outcome
    from its fields, spec and preimage, so no built word travels with it.
    """

    status: DecodeStatus
    message: Poly | None = None
    factor_poly: Poly | None = None
    failure_reason: FailureReason | None = None
    spec: CodeSpec | None = dc_field(default=None, repr=False)
    received_preimage: Poly | None = dc_field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status is not DecodeStatus.FAILURE

    @cached_property
    def error_word(self) -> Codeword | None:
        """received - encode(spec, message), or None on a failure.

        It is psi(Y - message): deg Y < N and deg message < K, so the two
        residue vectors subtract position by position, for any moduli,
        irreducible or not.  One forward `combine` builds its row, with no
        split into symbols; on NO_ERROR, Y is the message and the row is
        zero.
        """
        y = self.received_preimage
        if y is None or self.status is DecodeStatus.FAILURE:
            return None
        return Codeword._of_row(self.spec, self.spec._row(y - self.message))

    def _key(self) -> tuple:
        return self.status, self.message, self.factor_poly, self.failure_reason

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecodeOutcome):
            return NotImplemented
        return self._key() == other._key() and self.error_word == other.error_word

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return DecodeOutcome, self._key() + (self.spec, self.received_preimage)


# -- the shared Euclidean loop -------------------------------------------------


def _euclid_loop(
    in1: Poly,
    in2: Poly,
    stop: Callable[[int, int], bool],
    track_s: bool,
) -> GcdResult:
    """Run the cofactor-tracking division loop until `stop(deg r, deg t)`
    fires, each degree an int, -1 for zero.

    Requires deg in1 > deg in2 and in2 != 0 (callers handle the degenerate
    early exits).  Returns r, r_tilde, s, t and the pass count at the stop.

    The loop runs on the kernel's packed values (`pr`, `prt`, `ps`, `pst`,
    `pt`, `ptt` for r, r~, s, s~, t, t~): each pass is one `poly_divmod`,
    its dividend of higher degree than its divisor, and one `poly_mul` and
    `poly_sub` per cofactor, and a degree is `packed_len` - 1.  The per-pass
    asserts read `Poly` views of them, born only under `__debug__`: r, t
    and s each pass, while r~ and t~ are the last pass's views.  The
    result's polynomials are born once, at the stop.
    """
    field = in1.field
    kernel = field.kernel
    divmod_, mul, sub = kernel.poly_divmod, kernel.poly_mul, kernel.poly_sub
    length = kernel.packed_len
    zero, one = kernel.to_packed(()), kernel.to_packed((1,))
    pr, prt = in1.packed, in2.packed
    ps, pst = one, zero
    pt, ptt = zero, one
    if __debug__:
        gcd0 = poly_gcd(in1, in2)   # read only by an assert
        r, rt = in1, in2
        s, st = (_born(field, ps), _born(field, pst)) if track_s else (None, None)
        t, tt = _born(field, pt), _born(field, ptt)
    delta_sum = 0
    iterations = 0
    while True:
        if track_s:
            assert r == s * in1 + t * in2
        pq, pr = divmod_(pr, prt)
        delta_sum += length(pq) - 1
        if track_s and pst:                 # s~ = 0 on the first pass
            ps = sub(ps, mul(pq, pst))
        pt = sub(pt, mul(pq, ptt))          # t~ = 1 on the first pass, then deg t~ >= 1
        iterations += 1
        if __debug__:
            r, t = _born(field, pr), _born(field, pt)
            if track_s:
                s = _born(field, ps)
        # invariants at the stop-check point: they hold for any inputs
        assert poly_gcd(r, rt) == gcd0
        if track_s:
            assert r == s * in1 + t * in2
        assert in1.degree == rt.degree + t.degree
        assert r.degree < rt.degree
        assert t.degree > tt.degree
        assert t.degree == delta_sum
        # r = 0 stops every run: a rule with a negative offset or bound, which
        # no decoder passes, might not fire at -1, and no pass divides by zero
        if stop(length(pr) - 1, length(pt) - 1) or not pr:
            return GcdResult(t=_born(field, pt), s=_born(field, ps) if track_s else None,
                             r=_born(field, pr), r_tilde=_born(field, prt),
                             iterations=iterations)
        pr, prt = prt, pr
        ps, pst = pst, ps
        pt, ptt = ptt, pt
        if __debug__:
            r, rt = rt, r
            s, st = st, s
            t, tt = tt, t


def _check_degrees(in1: Poly, in2: Poly) -> None:
    if not in1.degree > in2.degree:
        raise DegreePreconditionViolated(
            f"need deg first ({in1.degree}) > deg second ({in2.degree})")


def _no_pass(field: Field, track_s: bool, r: Poly | None, r_tilde: Poly | None) -> GcdResult:
    """Result of a run that takes no pass: t = 1, s = 0 (None untracked)."""
    return GcdResult(t=Poly.one(field), s=Poly.zero(field) if track_s else None,
                     r=r, r_tilde=r_tilde, iterations=0)


def extended_gcd(modulus_product: Poly, error_preimage: Poly, track_s: bool = True) -> GcdResult:
    """Reference run on the fully known error preimage.

    Ends with r = 0; r_tilde is the gcd up to a nonzero scalar, and the
    cofactors satisfy s * modulus_product + t * error_preimage = 0.
    """
    _check_degrees(modulus_product, error_preimage)
    if error_preimage.is_zero:
        return _no_pass(modulus_product.field, track_s, None, modulus_product)
    run = _euclid_loop(
        modulus_product, error_preimage, stop=lambda dr, dt: dr < 0, track_s=track_s)
    if track_s:
        assert (run.s * modulus_product + run.t * error_preimage).is_zero
    return replace(run, r=None)


def _partial_run(in1: Poly, in2: Poly, offset: int, bound: int,
                 stopping: Stopping, track_s: bool) -> GcdResult:
    """The partial run on (in1, in2), for both partial decoders.

    RELATIVE stops once deg r < deg t + offset, THRESHOLD once
    2 * deg r < bound; an in2 of degree below offset takes no pass, with
    r = in2 and r_tilde = in1.
    """
    _check_degrees(in1, in2)
    if in2.degree < offset:
        return _no_pass(in1.field, track_s, in2, in1)
    if stopping is Stopping.RELATIVE:
        stop = lambda dr, dt: dr < dt + offset
    else:
        stop = lambda dr, dt: 2 * dr < bound
    return _euclid_loop(in1, in2, stop, track_s)


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
    the remainder r = t * message.  A Y of degree below K is already a
    valid message, and the run takes no pass.
    """
    return _partial_run(modulus_product, received_preimage, dim,
                        int(modulus_product.degree) + dim, stopping, track_s)


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
    as the reference run whenever 2 * deg(factor polynomial) <= N - K.  It
    is the full run with every degree lowered by K, so its offset is 0.
    """
    run = _partial_run(modulus_upper, error_upper, 0, total_degree - dim, stopping, track_s)
    return replace(run, r=None, r_tilde=None)


def upper_parts(spec: CodeSpec, received_preimage: Poly) -> tuple[Poly, Poly]:
    """Coefficient windows above K of the modulus product and of Y.

    The window of Y equals the window of the error preimage, since the
    message occupies only degrees below K.
    """
    if not received_preimage.degree < spec.N:
        raise DegreePreconditionViolated("preimage degree must be below N")
    k = spec.K
    m_upper = Poly._raw(spec.field, spec.modulus_product.coeffs[k:])
    e_upper = Poly._raw(spec.field, received_preimage.coeffs[k:])
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
    spec.check_same(error.spec, "error word")
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
    return g.degree <= spec.t_degree and _quotient_below_k(spec, z, g), z


def _quotient_below_k(spec: CodeSpec, z: Poly, g: Poly) -> bool:
    """Whether z = g * q with deg q < K.

    An exact quotient has degree deg z - deg g, so deg z >= K + deg g
    rejects with no division; below that bound, g dividing z is enough.
    """
    return z.degree < spec.K + g.degree and (z % g).is_zero


def count_zero_residues(spec: CodeSpec, g: Poly) -> int:
    """Number of moduli dividing g: n less the support of g's residue row."""
    return spec.n - len(spec._support(spec._row(g)))


def _locator_conditions(spec: CodeSpec, received_preimage: Poly, g: Poly) -> tuple[bool, Poly]:
    """Locator verdict on a candidate g, and Z = g * Y mod M_n.

    The verdict needs Z = g * q with deg q < K (`_quotient_below_k`).  The
    conditions on g alone (its zero-residue count, which costs one forward
    `combine`, then its degree cap) run last.

    This is the reference, one product and one reduction per candidate, for
    `error_locator_test` and the tests; `list_decode` scans through
    `_locator_scan`, which reaches the same verdicts.
    """
    z = (g * received_preimage) % spec.modulus_product
    if not _quotient_below_k(spec, z, g):
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
    R_j = x^j * Y mod M_n, for j up to the locator degree cap.  The
    field's kernel builds those rows once per word and runs the cheap
    rejections (`locator_survivors`): deg g > cap (the zero candidate
    included), which the verdict forbids, and deg Z >= K + deg g, which no
    quotient below K allows.  Over GF(2) that test is bit-sliced, one pass
    for every candidate, by lookups in tables built once per list; the
    other fields test one candidate at a time.
    The kernel yields the survivors in list order.  This loop, the only
    scan loop, raises on a candidate over another field; for any other
    survivor it forms Z by `combine`, divides it by g as the reference
    does (on a hit the quotient is the message) and counts g's zero
    residues.
    """
    field, kernel = spec.field, spec.field.kernel
    rows, survivors = kernel.locator_survivors(
        spec, received_preimage, candidates, _locator_degree_cap(spec))
    for g in survivors:
        if g.field is not field and g.field != field:
            raise SpecMismatch(f"candidate over {g.field!r}, not {field!r}")
        a, rem = divmod(_born(field, kernel.combine_packed(rows, g.coeffs)), g)
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
    Z = candidate * message.  Requires nondecreasing modulus degrees, and
    distinct positions 0 <= i < n (`CodeSpec.check_positions`).
    """
    if not spec.ordered_degree:
        raise UnorderedDegrees("locator test requires nondecreasing modulus degrees")
    support = spec.check_positions(positions)
    return _locator_conditions(spec, received_preimage, spec.product(support))


# -- the decoder --------------------------------------------------------------------


def _failure(spec: CodeSpec, y: Poly, reason: FailureReason) -> DecodeOutcome:
    return DecodeOutcome(DecodeStatus.FAILURE, failure_reason=reason,
                         spec=spec, received_preimage=y)


def _success(spec: CodeSpec, y: Poly, message: Poly, factor: Poly) -> DecodeOutcome:
    """A SUCCESS outcome on the received preimage y.  It keeps y, and its
    `error_word`, received - encode(spec, message), is built from y only
    when first read."""
    return DecodeOutcome(DecodeStatus.SUCCESS, message, factor,
                         spec=spec, received_preimage=y)


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
    field = spec.field
    y = psi_inverse(spec, received)
    if y.degree < spec.K:
        return DecodeOutcome(DecodeStatus.NO_ERROR, y, Poly.one(field),
                             spec=spec, received_preimage=y)

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
        return _failure(spec, y, FailureReason.FACTOR_DEGREE_EXCEEDED)

    if options.recovery is Recovery.QUOTIENT:
        z = (t * y) % spec.modulus_product
        a, rem = divmod(z, t)
    elif options.recovery is Recovery.RATIO:
        a, rem = divmod(run.r, t)
    else:
        # lower part of the error from the cofactor identity, then a = Y - E
        e_upper = Poly._raw(field, y.coeffs[spec.K:])
        numerator = -(run.s * spec.modulus_product) - (t * e_upper).shift(spec.K)
        e_lower, rem = divmod(numerator, t)
        a = Poly._raw(field, _strip(y.coeffs[:spec.K])) - e_lower
    if not rem.is_zero:
        return _failure(spec, y, FailureReason.NON_DIVISIBLE)
    if a.degree >= spec.K:
        return _failure(spec, y, FailureReason.MESSAGE_DEGREE_OVERFLOW)
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
    word is not decoded twice.  Either way the scan reads the received
    preimage Y from the gcd outcome, so the word is inverted once.  A
    `gcd_outcome` of another spec raises SpecMismatch, and one that holds
    no preimage (built by hand) raises ValueError, both before any scan.

    The scan is `_locator_scan`, one row map per received word;
    `_locator_conditions` is its reference and gives the same first hit.
    A hit's `error_word` is built, like any outcome's, on first read.
    """
    if not spec.ordered_degree:
        raise UnorderedDegrees("list decoding requires nondecreasing modulus degrees")
    if not isinstance(received, Codeword):
        received = Codeword(spec, tuple(received))
    spec.check_same(received.spec, "word")      # a given gcd_outcome skips psi_inverse
    if gcd_outcome is None:
        base = decode(spec, received, options)
    else:
        if gcd_outcome.received_preimage is None:
            raise ValueError("gcd_outcome holds no received preimage; "
                             "pass the outcome that decode returned")
        spec.check_same(gcd_outcome.spec, "gcd outcome")
        base = gcd_outcome
    if base.status is not DecodeStatus.FAILURE:
        return base
    y = base.received_preimage
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
        for support, degrees in zip(itertools.combinations(range(spec.n), size),
                                    itertools.combinations(spec.degrees, size)):
            if 2 * sum(degrees) > redundancy:
                out.append(spec.product(support))
    return out
