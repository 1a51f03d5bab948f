"""Command-line front end.

Commands: spec-check, encode, decode, corrupt, simulate, scan, tables.
Exit codes: 0 success (including decode without errors), 1 decode failure,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
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


def _add_decoder_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algorithm", choices=[a.value for a in Algorithm], default="gcd1")
    p.add_argument("--stop", choices=[s.value for s in Stopping], default="relative")
    p.add_argument("--recover", choices=[r.value for r in Recovery], default="quotient")


def _options(args) -> DecodeOptions:
    return DecodeOptions(Algorithm(args.algorithm), Stopping(args.stop), Recovery(args.recover))


def _model(args, seed: int) -> ChannelModel:
    chosen = [
        args.positions is not None,
        args.hamming_weight is not None,
        args.degree_weight is not None,
    ]
    if sum(chosen) != 1:
        raise ValueError(
            "give exactly one of --positions, --hamming-weight, --degree-weight")
    if args.positions is not None:
        return ChannelModel(FIXED_POSITIONS, tuple(args.positions), seed)
    if args.hamming_weight is not None:
        return ChannelModel(RANDOM_HAMMING, args.hamming_weight, seed)
    return ChannelModel(RANDOM_DEGREE, args.degree_weight, seed)


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- commands -----------------------------------------------------------------


def cmd_spec_check(args) -> int:
    spec = load_spec(args.spec)
    print(f"field: {spec.field!r}")
    print(f"n: {spec.n}")
    print(f"k: {spec.k}")
    print(f"N: {spec.N}")
    print(f"K: {spec.K}")
    print(f"degrees: {','.join(map(str, spec.degrees))}")
    print(f"t_hamming: {spec.t_hamming}")
    print(f"t_degree: {spec.t_degree}")
    print(f"ordered_degree: {spec.ordered_degree}")
    print(f"irreducible: {spec.irreducible}")
    print(f"tail_equal_degree: {spec.tail_equal_degree}")
    print(f"min_degree_distance: {min_degree_distance(spec)}")
    try:
        print(f"min_hamming_distance: {min_hamming_distance(spec)}")
    except UnorderedDegrees:
        print("min_hamming_distance: unavailable (unordered degrees)")
    print(f"rate: {spec.K}/{spec.N}")
    print(f"symbol_rate: {spec.k}/{spec.n}")
    return 0


def cmd_encode(args) -> int:
    spec = load_spec(args.spec)
    message = load_message(spec.field, args.infile)
    word = encode(spec, message)
    _emit(dumps_codeword(word), args.out)
    return 0


def _print_elapsed(args, started: float) -> None:
    if args.time:
        print(f"elapsed_s: {time.perf_counter() - started:.6f}", file=sys.stderr)


def _decode_erasures(spec, word, erase, args, started: float) -> int:
    if any(not 0 <= i < spec.n for i in erase):
        raise ValueError(f"--erase indices must lie in 0..{spec.n - 1}")
    known = frozenset(range(spec.n)) - frozenset(erase)
    pattern = ErasurePattern(spec, known)
    try:
        message = interpolate_fixed_transform(spec, word, pattern)
    except (ErasureBudgetExceeded, NonDivisible, InconsistentResidues) as exc:
        _print_elapsed(args, started)
        print("status: failure")
        print(f"failure_reason: {exc}")
        return 1
    _print_elapsed(args, started)
    print("status: success")
    print(f"message: {message}")
    if args.out:
        save_message(message, args.out)
    return 0


def cmd_decode(args) -> int:
    spec = load_spec(args.spec)
    word = load_codeword(spec, args.infile)
    started = time.perf_counter()
    if args.erase is not None:                # an empty list erases nothing
        return _decode_erasures(spec, word, args.erase, args, started)
    options = _options(args)
    if args.list:
        outcome = list_decode(spec, word, build_candidate_list(spec), options)
    else:
        outcome = decode(spec, word, options)
    _print_elapsed(args, started)
    print(f"status: {outcome.status.value}")
    if outcome.status is DecodeStatus.FAILURE:
        print(f"failure_reason: {outcome.failure_reason.value}")
        return 1
    print(f"message: {outcome.message}")
    print(f"factor_poly: {outcome.factor_poly}")
    print("error_word: " + " ".join(str(s) for s in outcome.error_word.symbols))
    if args.out:
        save_message(outcome.message, args.out)
    return 0


def cmd_corrupt(args) -> int:
    spec = load_spec(args.spec)
    word = load_codeword(spec, args.infile)
    model = _model(args, args.seed)
    received, error = corrupt(spec, word, model, args.trial)
    _emit(dumps_codeword(received), args.out)
    print("error_word: " + " ".join(str(s) for s in error.symbols), file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    spec = load_spec(args.spec)
    model = _model(args, args.seed)
    decoders = ("gcd", "list") if args.decoder == "both" else (args.decoder,)
    started = time.perf_counter()
    report = simulate(
        spec, model, args.trials,
        decoders=decoders,
        options=_options(args),
        exhaustive=args.exhaustive,
        message_sample=args.messages,
    )
    _print_elapsed(args, started)
    print(report.render())
    return 0


def cmd_scan(args) -> int:
    spec = load_spec(args.spec)
    report = exhaustive_scan(spec)
    print(f"dmin_hamming: {report.dmin_hamming}")
    print(f"dmin_degree: {report.dmin_degree}")
    print(f"codeword_count: {report.codeword_count}")
    print(f"singleton_hamming_rhs: {report.singleton_hamming_rhs}")
    print(f"singleton_degree_rhs: {report.singleton_degree_rhs}")
    return 0


def cmd_tables(args) -> int:
    text = emit_tables(args.q, args.max_degree, "csv" if args.csv else "text")
    _emit(text, args.out)
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remcode",
        description="polynomial remainder codes: encode, decode, simulate")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=fn)
        return p

    p = add("spec-check", cmd_spec_check, help="validate a spec file and report parameters")
    p.add_argument("--spec", required=True)

    p = add("encode", cmd_encode, help="encode a message file")
    p.add_argument("--spec", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = add("decode", cmd_decode, help="decode a received word (errors or erasures)")
    p.add_argument("--spec", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--erase", type=_indices, default=None,
                   help="comma-separated erased positions (erasure decoding)")
    p.add_argument("--list", action="store_true",
                   help="fall back to the candidate-locator list on gcd failure")
    p.add_argument("--time", action="store_true")
    _add_decoder_flags(p)

    p = add("corrupt", cmd_corrupt, help="add a random error to a codeword")
    p.add_argument("--spec", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--positions", type=_indices, default=None)
    p.add_argument("--hamming-weight", type=int, default=None)
    p.add_argument("--degree-weight", type=int, default=None)

    p = add("simulate", cmd_simulate, help="monte-carlo or exhaustive decoder comparison")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--positions", type=_indices, default=None)
    p.add_argument("--hamming-weight", type=int, default=None)
    p.add_argument("--degree-weight", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true",
                   help="iterate every error value at the fixed positions")
    p.add_argument("--messages", type=int, default=20,
                   help="message sample size in exhaustive mode")
    p.add_argument("--decoder", choices=["gcd", "list", "both"], default="gcd")
    p.add_argument("--time", action="store_true")
    _add_decoder_flags(p)

    p = add("scan", cmd_scan, help="exhaustive minimum-distance scan")
    p.add_argument("--spec", required=True)

    p = add("tables", cmd_tables, help="irreducible polynomial count tables")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=16)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RemcodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
