from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from remcode.cli import main
from remcode.code import Codeword, encode
from remcode.fileio import dumps_codeword, load_codeword, save_codeword, save_spec
from remcode.poly import Poly

from conftest import DEGREE10_MODULI, GF256_REDUCTION, P

SRC = Path(__file__).resolve().parent.parent / "src"
# runs the CLI with the package from SRC (argv[1]) on the remaining arguments
RUN_CLI = "import sys; sys.path.insert(0, sys.argv.pop(1)); from remcode.cli import main; sys.exit(main())"


@pytest.fixture
def rs42_file(tmp_path, rs42):
    path = tmp_path / "rs42.json"
    save_spec(rs42, str(path))
    return str(path)


@pytest.fixture
def ladder5_file(tmp_path, ladder5):
    path = tmp_path / "ladder5.json"
    save_spec(ladder5, str(path))
    return str(path)


def test_spec_check(rs42_file, capsys):
    assert main(["spec-check", "--spec", rs42_file]) == 0
    out = capsys.readouterr().out
    assert "N: 4" in out and "K: 2" in out
    assert "t_hamming: 1" in out and "t_degree: 1" in out
    assert "min_degree_distance: 3" in out
    assert "rate: 2/4" in out and "symbol_rate: 2/4" in out


def test_spec_check_on_a_degree_10_modulus_finishes(tmp_path):
    """The irreducibility flag is cheap to compute even for a modulus with
    no root and two quintic factors over GF(2^8)."""
    path = tmp_path / "degree10.json"
    path.write_text(json.dumps({"p": 2, "m": 8, "reduction": GF256_REDUCTION,
                                "moduli": DEGREE10_MODULI, "k": 2}))
    done = subprocess.run([sys.executable, "-c", RUN_CLI, str(SRC), "spec-check", "--spec", str(path)],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert "irreducible: False" in done.stdout.splitlines()
    assert "N: 14" in done.stdout.splitlines()


def test_encode_decode_round_trip(tmp_path, rs42, rs42_file, capsys):
    msg = tmp_path / "msg.txt"
    msg.write_text("[0,1]\n")
    word = tmp_path / "word.txt"
    assert main(["encode", "--spec", rs42_file, "--in", str(msg), "--out", str(word)]) == 0
    assert load_codeword(rs42, str(word)) == encode(rs42, P(rs42.field, 0, 1))
    out_msg = tmp_path / "decoded.txt"
    assert main(["decode", "--spec", rs42_file, "--in", str(word), "--out", str(out_msg)]) == 0
    captured = capsys.readouterr().out
    assert "status: no_error" in captured
    assert out_msg.read_text().strip() == "[0,1]"


def test_decode_corrupted_word(tmp_path, rs42, rs42_file, capsys):
    y = tmp_path / "y.txt"
    y.write_text("n=4\n1\n2\n0\n4\n")
    assert main(["decode", "--spec", rs42_file, "--in", str(y),
                 "--algorithm", "gcd2", "--stop", "threshold", "--recover", "error"]) == 0
    out = capsys.readouterr().out
    assert "status: success" in out
    assert "message: [0,1]" in out
    assert "factor_poly: [2,1]" in out


def test_decode_failure_exit_code(tmp_path, rs42_file, capsys):
    y = tmp_path / "y.txt"
    y.write_text("n=4\n1\n2\n0\n0\n")  # distance >= 2 from every codeword
    assert main(["decode", "--spec", rs42_file, "--in", str(y)]) == 1
    out = capsys.readouterr().out
    assert "status: failure" in out
    assert "failure_reason:" in out


def test_decode_erasures(tmp_path, rs42, rs42_file, capsys):
    word = tmp_path / "word.txt"
    save_codeword(encode(rs42, P(rs42.field, 0, 1)), str(word))
    assert main(["decode", "--spec", rs42_file, "--in", str(word), "--erase", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "status: success" in out
    assert "message: [0,1]" in out


def test_decode_erasures_ignores_erased_symbols(tmp_path, rs42, rs42_file, capsys):
    """Nonzero junk at the erased positions is passed through unchanged and
    does not move the result."""
    sent = encode(rs42, P(rs42.field, 0, 1)).symbols
    junk = Codeword(rs42, sent[:2] + (P(rs42.field, 4), P(rs42.field, 1)))
    assert all(junk.symbols[i] != sent[i] and not junk.symbols[i].is_zero for i in (2, 3))
    word = tmp_path / "word.txt"
    save_codeword(junk, str(word))
    assert main(["decode", "--spec", rs42_file, "--in", str(word), "--erase", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "status: success" in out
    assert "message: [0,1]" in out


@pytest.mark.parametrize("erase, code", [("2,3", 0), ("1,2,3", 1)])
def test_decode_erasures_time(tmp_path, rs42, rs42_file, capsys, erase, code):
    word = tmp_path / "word.txt"
    save_codeword(encode(rs42, P(rs42.field, 0, 1)), str(word))
    assert main(["decode", "--spec", rs42_file, "--in", str(word),
                 "--erase", erase, "--time"]) == code
    assert "elapsed_s: " in capsys.readouterr().err


def test_decode_empty_erasure_list_erases_nothing(tmp_path, rs42, rs42_file, capsys):
    """`--erase ""` is erasure decoding with every position known, not the
    gcd decoder: the fixed transform reports success and the message."""
    word = tmp_path / "word.txt"
    save_codeword(encode(rs42, P(rs42.field, 0, 1)), str(word))
    assert main(["decode", "--spec", rs42_file, "--in", str(word), "--erase", ""]) == 0
    out = capsys.readouterr().out
    assert "status: success" in out and "status: no_error" not in out
    assert "message: [0,1]" in out


def test_decode_erasure_budget_failure(tmp_path, rs42, rs42_file, capsys):
    word = tmp_path / "word.txt"
    save_codeword(encode(rs42, P(rs42.field, 0, 1)), str(word))
    assert main(["decode", "--spec", rs42_file, "--in", str(word), "--erase", "1,2,3"]) == 1


def test_decode_erasure_index_range_checked(tmp_path, rs42, rs42_file, capsys):
    word = tmp_path / "word.txt"
    save_codeword(encode(rs42, P(rs42.field, 0, 1)), str(word))
    assert main(["decode", "--spec", rs42_file, "--in", str(word), "--erase", "7"]) == 2


@pytest.mark.parametrize("erase, message", [
    ("--erase=7", "out of range"), ("--erase=-1", "out of range"), ("--erase=1,1", "repeat"),
])
def test_decode_erasure_positions_checked(tmp_path, rs42, rs42_file, capsys, erase, message):
    """`--erase` positions pass the library's positions check: one outside
    0..n-1 or a repeated one is a usage error, and `1,1` is not read as
    one erasure at position 1."""
    word = tmp_path / "word.txt"
    save_codeword(encode(rs42, P(rs42.field, 0, 1)), str(word))
    assert main(["decode", "--spec", rs42_file, "--in", str(word), erase]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: positions") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags, named", [
    (["--list"], "--list"),
    (["--recover", "ratio", "--algorithm", "gcd2"], "--algorithm, --recover"),
    (["--algorithm", "gcd1"], "--algorithm"),
    (["--stop", "relative"], "--stop"),
    (["--recover", "quotient", "--list"], "--list, --recover"),
])
def test_decode_erasure_refuses_decoder_flags(tmp_path, rs42, rs42_file, capsys, flags, named):
    """`--erase` with `--list` or with any decoder flag given, its default
    value included, is a usage error that names the flags: erasure decoding
    reads none of them."""
    word = tmp_path / "word.txt"
    save_codeword(encode(rs42, P(rs42.field, 0, 1)), str(word))
    assert main(["decode", "--spec", rs42_file, "--in", str(word), "--erase", "1,3"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --erase decodes by interpolation and takes no {named}\n"
    assert captured.out == ""
    assert main(["decode", "--spec", rs42_file, "--in", str(word), "--algorithm", "gcd1",
                 "--stop", "relative", "--recover", "quotient"]) == 0


def test_decode_list_flag(tmp_path, ladder5, ladder5_file, capsys):
    gf2 = ladder5.field
    word = encode(ladder5, P(gf2, 1, 1))
    symbols = list(word.symbols)
    symbols[4] = symbols[4] + Poly.one(gf2)
    y = tmp_path / "y.txt"
    from remcode.code import Codeword
    save_codeword(Codeword(ladder5, tuple(symbols)), str(y))
    assert main(["decode", "--spec", ladder5_file, "--in", str(y)]) == 1
    capsys.readouterr()
    assert main(["decode", "--spec", ladder5_file, "--in", str(y), "--list"]) == 0
    assert "message: [1,1]" in capsys.readouterr().out


def test_corrupt_deterministic(tmp_path, rs42, rs42_file, capsys):
    word = tmp_path / "word.txt"
    save_codeword(encode(rs42, P(rs42.field, 0, 1)), str(word))
    out1 = tmp_path / "y1.txt"
    out2 = tmp_path / "y2.txt"
    for out in (out1, out2):
        assert main(["corrupt", "--spec", rs42_file, "--in", str(word),
                     "--out", str(out), "--seed", "5", "--positions", "2"]) == 0
    assert out1.read_text() == out2.read_text()
    assert out1.read_text() != dumps_codeword(encode(rs42, P(rs42.field, 0, 1)))


def test_simulate_smoke(rs42_file, capsys):
    assert main(["simulate", "--spec", rs42_file, "--trials", "25",
                 "--hamming-weight", "1", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "trials: 25" in out
    assert "gcd: success=25 miscorrect=0 failure=0" in out


def test_simulate_exhaustive_both_decoders(ladder5_file, capsys):
    assert main(["simulate", "--spec", ladder5_file, "--trials", "0", "--exhaustive",
                 "--positions", "4", "--messages", "4", "--decoder", "both"]) == 0
    out = capsys.readouterr().out
    assert "gcd: success=0 miscorrect=0 failure=124" in out
    assert "list: success=124 miscorrect=0 failure=0" in out


def test_simulate_exhaustive_beyond_the_sample_range(tmp_path, rs12_gf256, capsys):
    """q^K = 2^64 messages: the sweep draws its sample without a traceback."""
    spec_file = tmp_path / "rs12.json"
    save_spec(rs12_gf256, str(spec_file))
    assert main(["simulate", "--spec", str(spec_file), "--trials", "0", "--exhaustive",
                 "--positions", "0", "--messages", "1"]) == 0
    captured = capsys.readouterr()
    assert "gcd: success=255 miscorrect=0 failure=0" in captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("args, param", [
    (["--trials", "-3", "--hamming-weight", "1"], "trials"),
    (["--trials", "0", "--exhaustive", "--positions", "2", "--messages", "-1"], "message_sample"),
])
def test_simulate_negative_count_is_a_usage_error(rs42_file, args, param, capsys):
    assert main(["simulate", "--spec", rs42_file] + args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and param in captured.err
    assert "trials:" not in captured.out


def test_simulate_exhaustive_takes_no_trial_count(rs42_file, capsys):
    """Exhaustive mode sets its own trial count: `--trials 7` exits 2 with
    one `error:` line and no report, and a bare `--exhaustive` reports what
    `--trials 0 --exhaustive` does."""
    sweep = ["simulate", "--spec", rs42_file, "--exhaustive", "--positions", "1",
             "--messages", "2"]
    assert main(sweep + ["--trials", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: trials must be 0")
    assert len(captured.err.splitlines()) == 1
    assert main(sweep + ["--trials", "0"]) == 0
    zero = capsys.readouterr().out
    assert zero.startswith("trials: 8\n")
    assert main(sweep) == 0
    assert capsys.readouterr().out == zero


def test_simulate_monte_carlo_takes_no_message_sample(rs42_file, capsys):
    """Monte-Carlo mode draws one message per trial: `--messages 7` exits 2
    with one `error:` line and no report, and without it the run reports."""
    run = ["simulate", "--spec", rs42_file, "--trials", "5", "--hamming-weight", "1",
           "--seed", "3"]
    assert main(run + ["--messages", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: message_sample is for exhaustive")
    assert len(captured.err.splitlines()) == 1
    assert main(run) == 0
    assert capsys.readouterr().out.startswith("trials: 5\n")


def test_simulate_needs_exactly_one_weight_flag(rs42_file, capsys):
    assert main(["simulate", "--spec", rs42_file, "--trials", "5"]) == 2
    assert main(["simulate", "--spec", rs42_file, "--trials", "5",
                 "--hamming-weight", "1", "--degree-weight", "1"]) == 2


def test_scan(rs42_file, capsys):
    assert main(["scan", "--spec", rs42_file]) == 0
    out = capsys.readouterr().out
    assert "dmin_hamming: 3" in out
    assert "dmin_degree: 3" in out
    assert "codeword_count: 25" in out


def test_tables_text_and_csv(capsys):
    assert main(["tables", "--q", "2", "--max-degree", "4"]) == 0
    text = capsys.readouterr().out
    for cell in ("2", "1", "3", "22"):
        assert cell in text.split()
    assert main(["tables", "--q", "2", "--max-degree", "4", "--csv"]) == 0
    csv = capsys.readouterr().out
    assert "q,i,N_i,S_i" in csv
    assert "2,4,3,22" in csv


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["spec-check", "--spec", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_spec_values_exit_code(tmp_path, capsys):
    """Well-formed JSON with a bad value is a parse error too: exit 2 and one
    `error:` line, not a traceback."""
    bad = tmp_path / "bad.json"
    for text in ('{"p": 2, "moduli": 5, "k": 1}', '{"p": 2, "moduli": null, "k": 1}',
                 '{"p": 2, "moduli": [[1, 1]], "k": 1.9}'):
        bad.write_text(text)
        assert main(["spec-check", "--spec", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_large_characteristic_is_a_spec_error(tmp_path, capsys):
    """A prime p = 2^61 - 1 is rejected by size before any trial division."""
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"p": {2 ** 61 - 1}, "moduli": [[1, 1]], "k": 1}}')
    assert main(["spec-check", "--spec", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_missing_file_exit_code(capsys):
    assert main(["spec-check", "--spec", "/nonexistent/spec.json"]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["decode"])  # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize("channel", [
    ["--trials", "0", "--exhaustive", "--messages", "2", "--positions=-1"],
    ["--trials", "0", "--exhaustive", "--messages", "2", "--positions", "4"],
    ["--trials", "2", "--degree-weight=-1"],
    ["--trials", "2", "--positions", "2,2"],
    ["--trials", "0", "--exhaustive", "--messages", "2", "--positions", "1,2,1"],
], ids=["exhaustive-negative", "exhaustive-past-n", "negative-degree-weight",
        "repeated-position", "exhaustive-repeated-position"])
def test_simulate_infeasible_channel_is_a_usage_error(rs42_file, channel, capsys):
    assert main(["simulate", "--spec", rs42_file] + channel) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("weight", ["5", "1000000000000"])
def test_degree_weight_above_n_is_a_usage_error(rs42_file, weight, monkeypatch, capsys):
    """rs42 has N = 4; the weight is refused before the count table is built."""
    def no_table(*args):
        raise AssertionError("count table built")
    monkeypatch.setattr("remcode.sim._degree_weight_support", no_table)
    assert main(["simulate", "--spec", rs42_file, "--trials", "2",
                 "--degree-weight", weight]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_corrupt_negative_degree_weight_is_a_usage_error(tmp_path, rs42, rs42_file, capsys):
    word = tmp_path / "word.txt"
    save_codeword(encode(rs42, P(rs42.field, 0, 1)), str(word))
    assert main(["corrupt", "--spec", rs42_file, "--in", str(word),
                 "--degree-weight=-1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_corrupt_repeated_position_is_a_usage_error(tmp_path, rs42, rs42_file, capsys):
    """`--positions 2,2` is refused, not read as one error at position 2."""
    word, out = tmp_path / "word.txt", tmp_path / "recv.txt"
    save_codeword(encode(rs42, P(rs42.field, 0, 1)), str(word))
    assert main(["corrupt", "--spec", rs42_file, "--in", str(word), "--out", str(out),
                 "--positions", "2,2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "repeat" in err and "Traceback" not in err
    assert not out.exists()


# -- golden runs ------------------------------------------------------------------
# Each invocation runs in a directory holding only the inputs below; its exit
# code, its full stdout and every file it writes are compared with literals.

def _golden_inputs(rs42, ladder5) -> dict[str, str | None]:
    gf2 = ladder5.field
    symbols = list(encode(ladder5, P(gf2, 1, 1)).symbols)
    symbols[4] = symbols[4] + Poly.one(gf2)
    return {
        "rs42.json": None, "ladder5.json": None,
        "msg.txt": "[0,1]\n",
        "word.txt": dumps_codeword(encode(rs42, P(rs42.field, 0, 1))),
        "recv.txt": "n=4\n1\n2\n4\n4\n",    # word.txt with an error at position 2
        "far.txt": "n=4\n1\n2\n0\n0\n",     # distance >= 2 from every codeword
        "ladder.txt": dumps_codeword(Codeword(ladder5, tuple(symbols))),
    }


GOLDEN_RUNS = {
    "spec-check-rs42": ["spec-check", "--spec", "rs42.json"],
    "spec-check-ladder5": ["spec-check", "--spec", "ladder5.json"],
    "encode-stdout": ["encode", "--spec", "rs42.json", "--in", "msg.txt"],
    "encode-out": ["encode", "--spec", "rs42.json", "--in", "msg.txt", "--out", "out.txt"],
    "corrupt-positions": ["corrupt", "--spec", "rs42.json", "--in", "word.txt",
                          "--seed", "42", "--positions", "2"],
    "corrupt-hamming": ["corrupt", "--spec", "rs42.json", "--in", "word.txt",
                        "--seed", "5", "--hamming-weight", "2", "--out", "out.txt"],
    "corrupt-degree": ["corrupt", "--spec", "ladder5.json", "--in", "ladder.txt",
                       "--seed", "3", "--trial", "2", "--degree-weight", "4"],
    "decode": ["decode", "--spec", "rs42.json", "--in", "recv.txt"],
    "decode-error-out": ["decode", "--spec", "rs42.json", "--in", "recv.txt",
                         "--recover", "error", "--out", "dec.txt"],
    "decode-list": ["decode", "--spec", "ladder5.json", "--in", "ladder.txt", "--list"],
    "decode-gcd2-threshold": ["decode", "--spec", "rs42.json", "--in", "recv.txt",
                              "--algorithm", "gcd2", "--stop", "threshold"],
    "decode-failure": ["decode", "--spec", "rs42.json", "--in", "far.txt"],
    "decode-erase": ["decode", "--spec", "rs42.json", "--in", "word.txt", "--erase", "1,3"],
    "decode-erase-none": ["decode", "--spec", "rs42.json", "--in", "word.txt", "--erase", ""],
    "decode-erase-failure": ["decode", "--spec", "rs42.json", "--in", "word.txt",
                             "--erase", "1,2,3"],
    "decode-erase-decoder-flags": ["decode", "--spec", "rs42.json", "--in", "word.txt",
                                   "--erase", "1,3", "--recover", "ratio", "--algorithm", "gcd2"],
    "simulate": ["simulate", "--spec", "rs42.json", "--trials", "40",
                 "--hamming-weight", "2", "--seed", "7"],
    "simulate-exhaustive": ["simulate", "--spec", "ladder5.json", "--trials", "0",
                            "--exhaustive", "--positions", "4", "--messages", "4",
                            "--decoder", "both"],
    "simulate-exhaustive-trials": ["simulate", "--spec", "rs42.json", "--trials", "7",
                                   "--exhaustive", "--positions", "1", "--messages", "2"],
    "simulate-messages": ["simulate", "--spec", "rs42.json", "--trials", "5",
                          "--hamming-weight", "1", "--messages", "7", "--seed", "3"],
    "scan": ["scan", "--spec", "rs42.json"],
    "tables": ["tables", "--q", "2", "--max-degree", "6"],
    "tables-csv": ["tables", "--q", "2", "--max-degree", "6", "--csv"],
}

GOLDEN = {  # name: (exit code, stdout, {written file: text})
    "corrupt-degree": (0, "n=5\n1\n1 1\n1 1 0\n0 0 1 1\n0 1 0 0 0\n", {}),
    "corrupt-hamming": (0, "", {"out.txt": "n=4\n2\n2\n3\n2\n"}),
    "corrupt-positions": (0, "n=4\n1\n2\n4\n4\n", {}),
    "decode": (0, (
        "status: success\n"
        "message: [0,1]\n"
        "factor_poly: [2,1]\n"
        "error_word: [] [] [1] []\n"
    ), {}),
    "decode-erase": (0, "status: success\nmessage: [0,1]\n", {}),
    "decode-erase-decoder-flags": (2, "", {}),
    "decode-erase-failure": (1, (
        "status: failure\n"
        "failure_reason: erased degree weight 3 > N - K = 2\n"
    ), {}),
    "decode-erase-none": (0, "status: success\nmessage: [0,1]\n", {}),
    "decode-error-out": (0, (
        "status: success\n"
        "message: [0,1]\n"
        "factor_poly: [2,1]\n"
        "error_word: [] [] [1] []\n"
    ), {"dec.txt": "[0,1]\n"}),
    "decode-failure": (1, "status: failure\nfailure_reason: factor_degree_exceeded\n", {}),
    "decode-gcd2-threshold": (0, (
        "status: success\n"
        "message: [0,1]\n"
        "factor_poly: [2,1]\n"
        "error_word: [] [] [1] []\n"
    ), {}),
    "decode-list": (0, (
        "status: success\n"
        "message: [1,1]\n"
        "factor_poly: [1,0,1,0,0,1]\n"
        "error_word: [] [] [] [] [1]\n"
    ), {}),
    "encode-out": (0, "", {"out.txt": "n=4\n1\n2\n3\n4\n"}),
    "encode-stdout": (0, "n=4\n1\n2\n3\n4\n", {}),
    "scan": (0, (
        "dmin_hamming: 3\n"
        "dmin_degree: 3\n"
        "codeword_count: 25\n"
        "singleton_hamming_rhs: 25\n"
        "singleton_degree_rhs: 2\n"
    ), {}),
    "simulate": (0, (
        "trials: 40\n"
        "gcd: success=0 miscorrect=21 failure=19\n"
        "  support 0,1 gcd: success=0 miscorrect=2 failure=2\n"
        "  support 0,2 gcd: success=0 miscorrect=3 failure=2\n"
        "  support 0,3 gcd: success=0 miscorrect=5 failure=3\n"
        "  support 1,2 gcd: success=0 miscorrect=7 failure=6\n"
        "  support 1,3 gcd: success=0 miscorrect=2 failure=2\n"
        "  support 2,3 gcd: success=0 miscorrect=2 failure=4\n"
    ), {}),
    "simulate-exhaustive": (0, (
        "trials: 124\n"
        "gcd: success=0 miscorrect=0 failure=124\n"
        "list: success=124 miscorrect=0 failure=0\n"
        "  support 4 gcd: success=0 miscorrect=0 failure=124\n"
        "  support 4 list: success=124 miscorrect=0 failure=0\n"
    ), {}),
    "simulate-exhaustive-trials": (2, "", {}),
    "simulate-messages": (2, "", {}),
    "spec-check-ladder5": (0, (
        "field: GF(2)\n"
        "n: 5\n"
        "k: 3\n"
        "N: 15\n"
        "K: 6\n"
        "degrees: 1,2,3,4,5\n"
        "t_hamming: 1\n"
        "t_degree: 4\n"
        "ordered_degree: True\n"
        "irreducible: True\n"
        "tail_equal_degree: False\n"
        "min_degree_distance: 10\n"
        "min_hamming_distance: 3\n"
        "rate: 6/15\n"
        "symbol_rate: 3/5\n"
    ), {}),
    "spec-check-rs42": (0, (
        "field: GF(5)\n"
        "n: 4\n"
        "k: 2\n"
        "N: 4\n"
        "K: 2\n"
        "degrees: 1,1,1,1\n"
        "t_hamming: 1\n"
        "t_degree: 1\n"
        "ordered_degree: True\n"
        "irreducible: True\n"
        "tail_equal_degree: True\n"
        "min_degree_distance: 3\n"
        "min_hamming_distance: 3\n"
        "rate: 2/4\n"
        "symbol_rate: 2/4\n"
    ), {}),
    "tables": (0, (
        "monic irreducible polynomials over GF(2)\n"
        " i  N_i  S_i\n"
        " 1  2    2\n"
        " 2  1    4\n"
        " 3  2   10\n"
        " 4  3   22\n"
        " 5  6   52\n"
        " 6  9  106\n"
    ), {}),
    "tables-csv": (0, (
        "q,i,N_i,S_i\n"
        "2,1,2,2\n"
        "2,2,1,4\n"
        "2,3,2,10\n"
        "2,4,3,22\n"
        "2,5,6,52\n"
        "2,6,9,106\n"
    ), {}),
}


class _Logged(io.StringIO):
    """A captured stream that also appends each write to a shared log, so
    the order of stdout and stderr writes can be read back."""

    def __init__(self, log: list):
        super().__init__()
        self.log = log

    def write(self, text: str) -> int:
        self.log.append((self, text))
        return super().write(text)


def _write_golden_inputs(tmp_path, monkeypatch, rs42, ladder5) -> None:
    monkeypatch.chdir(tmp_path)
    for name, text in _golden_inputs(rs42, ladder5).items():
        if text is None:
            save_spec(rs42 if name == "rs42.json" else ladder5, name)
        else:
            Path(name).write_text(text)


def _golden_run(tmp_path, monkeypatch, rs42, ladder5, argv):
    _write_golden_inputs(tmp_path, monkeypatch, rs42, ladder5)
    before = set(Path(".").iterdir())
    log: list = []
    out, err = _Logged(log), _Logged(log)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = {str(p): p.read_text() for p in sorted(set(Path(".").iterdir()) - before)}
    return code, out, err, written, log


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_run(name, tmp_path, monkeypatch, rs42, ladder5):
    code, out, _, written, _ = _golden_run(tmp_path, monkeypatch, rs42, ladder5,
                                           GOLDEN_RUNS[name])
    assert (code, out.getvalue(), written) == GOLDEN[name]


@pytest.mark.parametrize("name", [
    "decode", "decode-list", "decode-failure", "decode-erase", "decode-erase-failure",
    "simulate"])
def test_golden_run_with_time(name, tmp_path, monkeypatch, rs42, ladder5):
    """`--time` adds exactly one `elapsed_s:` line on stderr, written before
    the report, and changes nothing else."""
    code, out, err, written, log = _golden_run(tmp_path, monkeypatch, rs42, ladder5,
                                               GOLDEN_RUNS[name] + ["--time"])
    assert (code, out.getvalue(), written) == GOLDEN[name]
    assert re.fullmatch(r"elapsed_s: \d+\.\d{6}\n", err.getvalue())
    assert log[0] == (err, err.getvalue().rstrip("\n"))


class _ClosedPipe(io.StringIO):
    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("name", ["spec-check-rs42", "decode", "simulate", "scan"])
def test_report_to_a_closed_stdout_is_an_error_line(name, tmp_path, monkeypatch, rs42,
                                                    ladder5, capsys):
    """A report that cannot be written (`remcode ... | head -1`) exits 2 with
    one `error:` line, like any other file error, not with a traceback."""
    _write_golden_inputs(tmp_path, monkeypatch, rs42, ladder5)
    with contextlib.redirect_stdout(_ClosedPipe()):
        assert main(GOLDEN_RUNS[name]) == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
