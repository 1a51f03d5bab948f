"""Channel models and the Monte-Carlo / exhaustive decoder simulator.

Per-trial randomness is derived from (master_seed, trial_index) through a
splitmix64 mixing step, so trials are independent of execution order and a
report is reproducible byte for byte from the seed alone.
"""

from __future__ import annotations

import itertools
import math
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
    """Error channel: where errors land and how their weight is drawn."""

    kind: str
    weight_or_positions: int | tuple[int, ...]
    master_seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.kind == FIXED_POSITIONS:
            object.__setattr__(self, "weight_or_positions",
                               tuple(sorted(set(self.weight_or_positions))))


def _random_nonzero_symbol(rng: random.Random, spec: CodeSpec, i: int) -> Poly:
    size = spec.field.q ** spec.degrees[i]
    return Poly.from_int(spec.field, rng.randrange(1, size))


def _degree_weight_support(rng: random.Random, spec: CodeSpec, weight: int) -> list[int]:
    """Uniform subset with exact degree weight, sampled through a count table."""
    n = spec.n
    # ways[i][w] = number of subsets of positions i..n-1 with degree sum w
    ways = [[0] * (weight + 1) for _ in range(n + 1)]
    ways[n][0] = 1
    for i in range(n - 1, -1, -1):
        d = spec.degrees[i]
        for w in range(weight + 1):
            ways[i][w] = ways[i + 1][w] + (ways[i + 1][w - d] if w >= d else 0)
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


def _checked_positions(spec: CodeSpec, model: ChannelModel) -> tuple[int, ...]:
    support = model.weight_or_positions
    if any(not 0 <= i < spec.n for i in support):
        raise InfeasibleWeight(f"positions {list(support)} out of range for n={spec.n}")
    return support


def corrupt(
    spec: CodeSpec,
    word: Codeword,
    model: ChannelModel,
    trial_index: int = 0,
) -> tuple[Codeword, Codeword]:
    """Apply the channel: returns (received, true error).

    The error has exactly the requested weight; nonzero symbol values are
    uniform over the nonzero residues.  Deterministic in
    (model.master_seed, trial_index).
    """
    rng = random.Random(mix64(model.master_seed, trial_index))
    if model.kind == FIXED_POSITIONS:
        support = _checked_positions(spec, model)
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
    symbols = [Poly.zero(spec.field)] * spec.n
    for i in support:
        symbols[i] = _random_nonzero_symbol(rng, spec, i)
    error = Codeword(spec, tuple(symbols))
    return word + error, error


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
        c = self.counts[decoder]
        return c["success"] / self.trials if self.trials else 1.0

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
    message_sample: int = 20,
    candidates=None,
) -> SimReport:
    """Run the channel against the selected decoders.

    Monte-Carlo mode draws `trials` independent (message, error) pairs.
    Exhaustive mode (fixed positions only) iterates every nonzero error
    value combination at the support, across `message_sample` messages
    drawn without replacement; total trials are capped at 10**7.  Each
    trial is decoded once: `list_decode`, which returns the gcd outcome
    unless it failed, runs only where it failed, and is handed that outcome.
    """
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
        support = _checked_positions(spec, model)
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
    field = spec.field
    choices = [[Poly.from_int(field, code) for code in range(1, field.q ** spec.degrees[i])]
               for i in support]
    for values in itertools.product(*choices):
        symbols = [Poly.zero(field)] * spec.n
        for i, v in zip(support, values):
            symbols[i] = v
        yield Codeword(spec, tuple(symbols))
