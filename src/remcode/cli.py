"""Command-line front end.

Commands: spec-check, encode, decode, corrupt, simulate, scan, tables.
Exit codes: 0 success (including decode without errors), 1 decode failure,
2 usage or parse errors.

Every command returns (exit code, report, elapsed seconds or None), and
`main` alone prints reports and timings and maps library, file and value
errors to exit 2.  A report is a list of (key, value) pairs, printed as
`key: value` lines (a tuple value comma-separated), or a text printed as it
is.  It goes to stdout, except corrupt's, whose stdout carries the received
word.  With `--time`, decode and simulate write one `elapsed_s` line to
stderr before the report.  It covers the decode or simulate call only: with
`--list` that includes building the candidate list, and with `--erase` the
positions check and the erasure pattern.  `--erase` positions pass
`CodeSpec.check_positions`, so a position outside 0..n-1 or a repeated one
is a usage error, and so is `--erase` with `--list` or with any decoder flag
given (`--algorithm`, `--stop`, `--recover`), which erasure decoding would
not read.  Encoded and corrupted words and tables go to `--out`, or
to stdout without it; `decode --out` receives the decoded message.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from .code import encode, min_degree_distance, min_hamming_distance
from .decoder import (
    Algorithm,
    DecodeOptions,
    DecodeStatus,
    Recovery,
    Stopping,
    build_candidate_list,
    decode,
    list_decode,
)
from .errors import (
    ErasureBudgetExceeded,
    InconsistentResidues,
    NonDivisible,
    RemcodeError,
    UnorderedDegrees,
)
from .fileio import (
    dumps_codeword,
    load_codeword,
    load_message,
    load_spec,
    save_message,
)
from .interpolate import ErasurePattern, interpolate_fixed_transform
from .oracle import exhaustive_scan
from .sim import (
    FIXED_POSITIONS,
    RANDOM_DEGREE,
    RANDOM_HAMMING,
    ChannelModel,
    corrupt,
    simulate,
)
from .tables import emit_tables


def _indices(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated indices, got {text!r}")


# -- flag groups: each flag's add_argument keywords, defined once ----------------

_SPEC = {"--spec": dict(required=True)}
_FILES = {"--in": dict(dest="infile", required=True), "--out": {}}
_CHANNEL = {
    "--seed": dict(type=int, default=0),
    "--positions": dict(type=_indices, default=None),
    "--hamming-weight": dict(type=int, default=None),
    "--degree-weight": dict(type=int, default=None),
}
# each decoder flag's argparse name, `DecodeOptions` field and enum; a flag
# not given is None, and `DecodeOptions` supplies its default
_OPTION_FLAGS = (("algorithm", "algorithm", Algorithm), ("stop", "stopping", Stopping),
                 ("recover", "recovery", Recovery))
_DECODER = {f"--{name}": dict(choices=[e.value for e in kind]) for name, _, kind in _OPTION_FLAGS}
_TIME = {"--time": dict(action="store_true")}

# the channel kind each weight flag selects, by its argparse name
_WEIGHT_FLAGS = {
    "positions": FIXED_POSITIONS,
    "hamming_weight": RANDOM_HAMMING,
    "degree_weight": RANDOM_DEGREE,
}


def _options(args) -> DecodeOptions:
    return DecodeOptions(**{field: kind(getattr(args, name)) for name, field, kind in _OPTION_FLAGS
                            if getattr(args, name) is not None})


def _model(args) -> ChannelModel:
    given = [(kind, getattr(args, name)) for name, kind in _WEIGHT_FLAGS.items()
             if getattr(args, name) is not None]
    if len(given) != 1:
        raise ValueError(
            "give exactly one of --positions, --hamming-weight, --degree-weight")
    (kind, value), = given
    return ChannelModel(kind, value, args.seed)


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _elapsed(args, started: float) -> float | None:
    return time.perf_counter() - started if args.time else None


# -- commands: each returns (exit code, report, elapsed seconds or None) ---------

_SPEC_FIELDS = ("field", "n", "k", "N", "K", "degrees", "t_hamming", "t_degree",
                "ordered_degree", "irreducible", "tail_equal_degree")


def cmd_spec_check(args):
    spec = load_spec(args.spec)
    report = [(name, getattr(spec, name)) for name in _SPEC_FIELDS]
    report.append(("min_degree_distance", min_degree_distance(spec)))
    try:
        report.append(("min_hamming_distance", min_hamming_distance(spec)))
    except UnorderedDegrees:
        report.append(("min_hamming_distance", "unavailable (unordered degrees)"))
    report += [("rate", f"{spec.K}/{spec.N}"), ("symbol_rate", f"{spec.k}/{spec.n}")]
    return 0, report, None


def cmd_encode(args):
    spec = load_spec(args.spec)
    _emit(dumps_codeword(encode(spec, load_message(spec.field, args.infile))), args.out)
    return 0, [], None


def _decoded(spec, word, args):
    """(status, the failure reason or the message, further report pairs)."""
    if args.erase is not None:                # an empty list erases nothing
        ignored = ["--list"] * args.list + [f"--{name}" for name, _, _ in _OPTION_FLAGS
                                            if getattr(args, name) is not None]
        if ignored:
            raise ValueError(f"--erase decodes by interpolation and takes no {', '.join(ignored)}")
        known = frozenset(range(spec.n)) - frozenset(spec.check_positions(args.erase))
        try:
            message = interpolate_fixed_transform(spec, word, ErasurePattern(spec, known))
        except (ErasureBudgetExceeded, NonDivisible, InconsistentResidues) as exc:
            return "failure", exc, []
        return "success", message, []
    options = _options(args)
    if args.list:
        outcome = list_decode(spec, word, build_candidate_list(spec), options)
    else:
        outcome = decode(spec, word, options)
    if outcome.status is DecodeStatus.FAILURE:
        return "failure", outcome.failure_reason.value, []
    return outcome.status.value, outcome.message, [
        ("factor_poly", outcome.factor_poly),
        ("error_word", " ".join(map(str, outcome.error_word.symbols)))]


def cmd_decode(args):
    spec = load_spec(args.spec)
    word = load_codeword(spec, args.infile)
    started = time.perf_counter()
    status, detail, report = _decoded(spec, word, args)
    elapsed = _elapsed(args, started)
    if status == "failure":
        return 1, [("status", status), ("failure_reason", detail)], elapsed
    if args.out:
        save_message(detail, args.out)
    return 0, [("status", status), ("message", detail)] + report, elapsed


def cmd_corrupt(args):
    spec = load_spec(args.spec)
    word = load_codeword(spec, args.infile)
    received, error = corrupt(spec, word, _model(args), args.trial)
    _emit(dumps_codeword(received), args.out)
    return 0, [("error_word", " ".join(map(str, error.symbols)))], None


def cmd_simulate(args):
    spec = load_spec(args.spec)
    model = _model(args)
    decoders = ("gcd", "list") if args.decoder == "both" else (args.decoder,)
    started = time.perf_counter()
    report = simulate(
        spec, model, (0 if args.exhaustive else 1000) if args.trials is None else args.trials,
        decoders=decoders,
        options=_options(args),
        exhaustive=args.exhaustive,
        message_sample=args.messages,
    )
    return 0, report.render(), _elapsed(args, started)


def cmd_scan(args):
    return 0, list(dataclasses.asdict(exhaustive_scan(load_spec(args.spec))).items()), None


def cmd_tables(args):
    _emit(emit_tables(args.q, args.max_degree, "csv" if args.csv else "text"), args.out)
    return 0, [], None


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remcode",
        description="polynomial remainder codes: encode, decode, simulate")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, summary, *groups):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=fn)
        for group in groups:
            for flag, kw in group.items():
                p.add_argument(flag, **kw)

    add("spec-check", cmd_spec_check, "validate a spec file and report parameters", _SPEC)
    add("encode", cmd_encode, "encode a message file", _SPEC, _FILES)
    add("decode", cmd_decode, "decode a received word (errors or erasures)", _SPEC, _FILES, {
        "--erase": dict(type=_indices, default=None,
                        help="comma-separated erased positions (erasure decoding)"),
        "--list": dict(action="store_true",
                       help="fall back to the candidate-locator list on gcd failure"),
    }, _TIME, _DECODER)
    add("corrupt", cmd_corrupt, "add a random error to a codeword",
        _SPEC, _FILES, _CHANNEL, {"--trial": dict(type=int, default=0)})
    add("simulate", cmd_simulate, "monte-carlo or exhaustive decoder comparison",
        _SPEC, _CHANNEL, {
        "--trials": dict(type=int, default=None,
                         help="Monte-Carlo trial count (default 1000); 0 or none in exhaustive mode"),
        "--exhaustive": dict(action="store_true",
                             help="iterate every error value at the fixed positions"),
        "--messages": dict(type=int, default=None,
                           help="message sample size in exhaustive mode (default 20)"),
        "--decoder": dict(choices=["gcd", "list", "both"], default="gcd"),
    }, _TIME, _DECODER)
    add("scan", cmd_scan, "exhaustive minimum-distance scan", _SPEC)
    add("tables", cmd_tables, "irreducible polynomial count tables", {
        "--q": dict(type=int, required=True),
        "--max-degree": dict(type=int, default=16),
        "--csv": dict(action="store_true"),
        "--out": {},
    })
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, report, elapsed = args.func(args)
        if elapsed is not None:
            print(f"elapsed_s: {elapsed:.6f}", file=sys.stderr)
        # corrupt's stdout carries the received word, so its report goes to stderr
        out = sys.stderr if args.command == "corrupt" else sys.stdout
        lines = [report] if isinstance(report, str) else [
            f"{key}: {','.join(map(str, value)) if isinstance(value, tuple) else value}"
            for key, value in report]
        for line in lines:
            print(line, file=out)
        return code
    except (RemcodeError, OSError, ValueError) as exc:    # OSError: a closed stdout too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
