from __future__ import annotations

import json
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


def test_decode_erasure_budget_failure(tmp_path, rs42, rs42_file, capsys):
    word = tmp_path / "word.txt"
    save_codeword(encode(rs42, P(rs42.field, 0, 1)), str(word))
    assert main(["decode", "--spec", rs42_file, "--in", str(word), "--erase", "1,2,3"]) == 1


def test_decode_erasure_index_range_checked(tmp_path, rs42, rs42_file, capsys):
    word = tmp_path / "word.txt"
    save_codeword(encode(rs42, P(rs42.field, 0, 1)), str(word))
    assert main(["decode", "--spec", rs42_file, "--in", str(word), "--erase", "7"]) == 2


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
    ["--exhaustive", "--positions=-1"],
    ["--exhaustive", "--positions", "4"],
    ["--degree-weight=-1"],
], ids=["exhaustive-negative", "exhaustive-past-n", "negative-degree-weight"])
def test_simulate_infeasible_channel_is_a_usage_error(rs42_file, channel, capsys):
    assert main(["simulate", "--spec", rs42_file, "--trials", "2", "--messages", "2"]
                + channel) == 2
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
