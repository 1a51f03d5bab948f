"""Channel models and the Monte-Carlo / exhaustive decoder simulator.

Per-trial randomness is derived from (master_seed, trial_index) through a
splitmix64 mixing step, so trials are independent of execution order and a
report is reproducible byte for byte from the seed alone.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import sys
from dataclasses import dataclass, field as dc_field

from .code import CodeSpec, Codeword, encode
from .decoder import (
    DecodeOptions,
    build_candidate_list,
    decode,
    list_decode,
)
from .errors import InfeasibleWeight, SearchSpaceTooLarge, UnorderedDegrees
from .poly import Poly

_MASK64 = (1 << 64) - 1
_MESSAGE_SALT = 0x517CC1B727220A95
EXHAUSTIVE_TRIAL_CAP = 10 ** 7

FIXED_POSITIONS = "fixed_positions"
RANDOM_HAMMING = "random_hamming_weight"
RANDOM_DEGREE = "random_degree_weight"
_KINDS = (FIXED_POSITIONS, RANDOM_HAMMING, RANDOM_DEGREE)


def mix64(seed: int, index: int) -> int:
    """The (index+1)-th splitmix64 output from `seed`; the documented trial mixer."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class ChannelModel:
    """Error channel: where errors land and how their weight is drawn.

    The weight and each fixed position must be integers: 2.0 or "1" raises
    TypeError here, not inside a trial.
    """

    kind: str
    weight_or_positions: int | tuple[int, ...]
    master_seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.kind == FIXED_POSITIONS:
            value = tuple(sorted(map(operator.index, self.weight_or_positions)))
        else:
            value = operator.index(self.weight_or_positions)
        object.__setattr__(self, "weight_or_positions", value)


def _build_counts(degrees: tuple[int, ...], weight: int) -> list[list[int]]:
    """ways[i][w], the number of subsets of positions i..n-1 with degree sum
    w, for w <= weight."""
    n = len(degrees)
    ways = [[0] * (weight + 1) for _ in range(n + 1)]
    ways[n][0] = 1
    for i in range(n - 1, -1, -1):
        d = degrees[i]
        for w in range(weight + 1):
            ways[i][w] = ways[i + 1][w] + (ways[i + 1][w - d] if w >= d else 0)
    return ways


# (degrees, ways) of the last count table built; see `_count_table`
_count_memo: tuple = ((), [[1]])


def _count_table(degrees: tuple[int, ...], weight: int) -> list[list[int]]:
    """A `_build_counts` table for `degrees` that reaches at least `weight`.

    An entry does not depend on how far the table reaches, so the last
    table built serves every weight up to its own; other degrees, or a
    larger weight, build it afresh up to that weight.  Callers only read it.
    """
    global _count_memo
    memo_degrees, ways = _count_memo
    if memo_degrees != degrees or len(ways[0]) <= weight:
        ways = _build_counts(degrees, weight)
        _count_memo = degrees, ways
    return ways


def _degree_weight_support(rng: random.Random, spec: CodeSpec, weight: int) -> list[int]:
    """Uniform subset with exact degree weight, sampled through a count table."""
    n = spec.n
    ways = _count_table(spec.degrees, weight)
    if ways[0][weight] == 0:
        raise InfeasibleWeight(f"no support has degree weight {weight}")
    support, w = [], weight
    for i in range(n):
        d = spec.degrees[i]
        with_i = ways[i + 1][w - d] if w >= d else 0
        if with_i and rng.randrange(ways[i][w]) < with_i:
            support.append(i)
            w -= d
    return support


def corrupt(
    spec: CodeSpec,
    word: Codeword,
    model: ChannelModel,
    trial_index: int = 0,
) -> tuple[Codeword, Codeword]:
    """Apply the channel: returns (received, true error).

    The error has exactly the requested weight; nonzero symbol values are
    uniform over the nonzero residues.  One code in 1..q^deg(m_i) - 1 is
    drawn per support position i, in increasing order of i, and its base-q
    digits are that position's slice of the error row (`_error_word`).
    Deterministic in (model.master_seed, trial_index).
    """
    rng = random.Random(mix64(model.master_seed, trial_index))
    if model.kind == FIXED_POSITIONS:
        support = spec.check_positions(model.weight_or_positions)
    elif model.kind == RANDOM_HAMMING:
        w = model.weight_or_positions
        if not 0 <= w <= spec.n:
            raise InfeasibleWeight(f"hamming weight {w} infeasible for n={spec.n}")
        support = sorted(rng.sample(range(spec.n), w))
    else:
        w = model.weight_or_positions
        if not 0 <= w <= spec.N:                  # before the (n+1) x (w+1) count table
            raise InfeasibleWeight(f"degree weight {w} infeasible for N={spec.N}")
        support = _degree_weight_support(rng, spec, w) if w else []
    q = spec.field.q
    error = _error_word(spec, support, [rng.randrange(1, q ** spec.degrees[i]) for i in support])
    return word + error, error


def _error_word(spec: CodeSpec, support, codes) -> Codeword:
    """The word that holds, at each position support[j], the symbol whose
    base-q digits, lowest first, are those of codes[j]: a zero row with
    those digits placed in the positions' slices."""
    row, q, o = [0] * spec.N, spec.field.q, spec._offsets
    for i, code in zip(support, codes):
        for j in range(o[i], o[i + 1]):
            code, row[j] = divmod(code, q)
    return Codeword._of_row(spec, tuple(row))


@dataclass
class SimReport:
    """Per-decoder success/miscorrect/failure tallies."""

    trials: int = 0
    counts: dict = dc_field(default_factory=dict)      # decoder -> class -> count
    by_support: dict = dc_field(default_factory=dict)  # support -> decoder -> class -> count

    def record(self, decoder: str, support: tuple[int, ...], outcome_class: str) -> None:
        self.counts.setdefault(decoder, {"success": 0, "miscorrect": 0, "failure": 0})
        self.counts[decoder][outcome_class] += 1
        per = self.by_support.setdefault(support, {})
        per.setdefault(decoder, {"success": 0, "miscorrect": 0, "failure": 0})
        per[decoder][outcome_class] += 1

    def success_rate(self, decoder: str) -> float:
        """Successes over trials; 1.0 with no trial, when no decoder has counts."""
        return self.counts[decoder]["success"] / self.trials if self.trials else 1.0

    def render(self) -> str:
        lines = [f"trials: {self.trials}"]
        for decoder in sorted(self.counts):
            c = self.counts[decoder]
            lines.append(
                f"{decoder}: success={c['success']} miscorrect={c['miscorrect']}"
                f" failure={c['failure']}")
        for support in sorted(self.by_support):
            label = ",".join(map(str, support)) if support else "-"
            for decoder in sorted(self.by_support[support]):
                c = self.by_support[support][decoder]
                lines.append(
                    f"  support {label} {decoder}:"
                    f" success={c['success']} miscorrect={c['miscorrect']}"
                    f" failure={c['failure']}")
        return "\n".join(lines)


def _classify(outcome, sent: Poly) -> str:
    if not outcome.ok:
        return "failure"
    return "success" if outcome.message == sent else "miscorrect"


def simulate(
    spec: CodeSpec,
    model: ChannelModel,
    trials: int,
    decoders=("gcd",),
    options: DecodeOptions = DecodeOptions(),
    exhaustive: bool = False,
    message_sample: int | None = None,
    candidates=None,
) -> SimReport:
    """Run the channel against the selected decoders.

    Monte-Carlo mode draws `trials` independent (message, error) pairs,
    one message per trial, and takes no message sample: `message_sample`
    must be None.  Exhaustive mode (fixed positions only) iterates every
    nonzero error value combination at the support, across `message_sample`
    messages (20 when None) drawn without replacement; total trials are
    capped at 10**7, and it takes no trial count: `trials` must be 0.  Each
    trial is decoded once: `list_decode`, which returns the gcd outcome
    unless it failed, runs only where it failed, and is handed that outcome.
    The count the mode reads must not be negative; zero runs no trial.
    """
    if exhaustive:
        message_sample = 20 if message_sample is None else message_sample
    elif message_sample is not None:
        raise ValueError(f"message_sample is for exhaustive mode; Monte-Carlo mode "
                         f"draws one message per trial, got {message_sample}")
    param, count = ("message_sample", message_sample) if exhaustive else ("trials", trials)
    if count < 0:
        raise ValueError(f"{param} must be >= 0, got {count}")
    if exhaustive and trials:
        raise ValueError(f"trials must be 0 in exhaustive mode, which runs every error value; got {trials}")
    for name in decoders:
        if name == "list":
            if not spec.ordered_degree:
                raise UnorderedDegrees("list decoding requires nondecreasing modulus degrees")
            if candidates is None:
                candidates = build_candidate_list(spec)
        elif name != "gcd":
            raise ValueError(f"unknown decoder {name!r}")
    names = tuple(dict.fromkeys(decoders))
    report = SimReport()
    for a, y, support in _trials(spec, model, trials, exhaustive, message_sample):
        outcome = decode(spec, y, options)
        listed = outcome if outcome.ok or "list" not in names else list_decode(
            spec, y, candidates, options, gcd_outcome=outcome)
        for name in names:
            report.record(name, support, _classify(outcome if name == "gcd" else listed, a))
        report.trials += 1
    return report


def _trials(spec: CodeSpec, model: ChannelModel, trials, exhaustive, message_sample):
    """Yield (sent message, received word, error support) per trial; the
    exhaustive sweep checks its model, positions and cap before its first trial."""
    total_messages = spec.field.q ** spec.K
    if exhaustive:
        if model.kind != FIXED_POSITIONS:
            raise ValueError("exhaustive mode requires fixed error positions")
        support = spec.check_positions(model.weight_or_positions)
        value_count = math.prod(spec.field.q ** spec.degrees[i] - 1 for i in support)
        sample = min(message_sample, total_messages)
        if value_count * sample > EXHAUSTIVE_TRIAL_CAP:
            raise SearchSpaceTooLarge(
                f"{value_count * sample} exhaustive trials exceed cap {EXHAUSTIVE_TRIAL_CAP}")
        codes = range(total_messages)
        if sample < total_messages:
            rng = random.Random(mix64(model.master_seed, 0))
            if total_messages <= sys.maxsize:
                codes = rng.sample(codes, sample)
            else:
                # random.sample needs len(range), which overflows past sys.maxsize;
                # draw until `sample` distinct codes, in the order first drawn
                drawn = {}
                while len(drawn) < sample:
                    drawn[rng.randrange(total_messages)] = None
                codes = list(drawn)
        for code in codes:
            a = Poly.from_int(spec.field, code)
            c = encode(spec, a)
            for error in _all_error_values(spec, support):
                yield a, c + error, support
        return
    for index in range(trials):
        msg_rng = random.Random(mix64(model.master_seed ^ _MESSAGE_SALT, index))
        a = Poly.from_int(spec.field, msg_rng.randrange(total_messages))
        c = encode(spec, a)
        y, error = corrupt(spec, c, model, index)
        yield a, y, error.support()


def _all_error_values(spec: CodeSpec, support: tuple[int, ...]):
    """Every error word whose nonzero symbols sit exactly on `support`.

    The first support position varies slowest.
    """
    q = spec.field.q
    for codes in itertools.product(*(range(1, q ** spec.degrees[i]) for i in support)):
        yield _error_word(spec, support, codes)
