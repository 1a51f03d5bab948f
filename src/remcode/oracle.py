"""Brute-force reference decoders and exhaustive code scans.

Ground truth for the algebraic paths: minimum-distance decoding by scanning
every message, and exact minimum distances / size-bound evaluation by
enumerating all codewords.  Linearity over the field reduces the pairwise
distance scan to a weight scan over nonzero messages.
"""

from __future__ import annotations

from dataclasses import dataclass

from .code import CodeSpec, Codeword, distances, encode, _min_support_weight_above, weights
from .errors import SearchSpaceTooLarge
from .poly import Poly

DEFAULT_CAP = 1 << 20


def _check_cap(spec: CodeSpec, cap: int) -> int:
    count = spec.field.q ** spec.K
    if count > cap:
        raise SearchSpaceTooLarge(f"{count} messages exceed cap {cap}")
    return count


def all_messages(spec: CodeSpec):
    """Every polynomial of degree < K, in base-q code order."""
    for code in range(spec.field.q ** spec.K):
        yield Poly.from_int(spec.field, code)


@dataclass(frozen=True)
class CodeScanReport:
    dmin_hamming: int
    dmin_degree: int
    codeword_count: int
    singleton_hamming_rhs: int  # size bound: min |R_S| over |S| > n - dminH
    singleton_degree_rhs: int   # weight bound: min w_D(S) over w_D(S) > N - dminD


def brute_force_decode(
    spec: CodeSpec,
    received: Codeword,
    metric: str = "degree",
    cap: int = DEFAULT_CAP,
) -> set[Poly]:
    """All messages whose codewords attain the minimum distance to `received`.

    metric is "hamming" or "degree".  Ties are returned, not broken.
    """
    if metric not in ("hamming", "degree"):
        raise ValueError(f"unknown metric {metric!r}")
    _check_cap(spec, cap)
    idx = 0 if metric == "hamming" else 1
    best: set[Poly] = set()
    best_d: int | None = None
    for a in all_messages(spec):
        d = distances(encode(spec, a), received)[idx]
        if best_d is None or d < best_d:
            best_d, best = d, {a}
        elif d == best_d:
            best.add(a)
    return best


def exhaustive_scan(spec: CodeSpec, cap: int = DEFAULT_CAP) -> CodeScanReport:
    """Exact minimum distances plus both size/weight bound right-hand sides."""
    count = _check_cap(spec, cap)
    wmin_h, wmin_d = spec.n + 1, spec.N + 1
    for a in all_messages(spec):
        if a.is_zero:
            continue
        wh, wd = weights(encode(spec, a))
        wmin_h = min(wmin_h, wh)
        wmin_d = min(wmin_d, wd)

    # the smallest |R_S| over |S| > n - dminH takes the lightest n - dminH + 1
    # moduli; the weight bound is a subset-sum query
    lightest = sorted(spec.degrees)[:spec.n - wmin_h + 1]
    return CodeScanReport(
        dmin_hamming=wmin_h,
        dmin_degree=wmin_d,
        codeword_count=count,
        singleton_hamming_rhs=spec.field.q ** sum(lightest),
        singleton_degree_rhs=_min_support_weight_above(spec, spec.N - wmin_d),
    )
