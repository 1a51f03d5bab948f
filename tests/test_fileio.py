from __future__ import annotations

import json
import random

import pytest

from remcode.code import encode
from remcode.errors import MessageTooLarge, ParseError
from remcode.fileio import (
    dumps_codeword,
    dumps_spec,
    loads_codeword,
    loads_spec,
    parse_poly,
)
from conftest import P, random_message, random_spec


def test_spec_round_trip(rs42, gf4_mixed, reducible_spec):
    for spec in (rs42, gf4_mixed, reducible_spec):
        assert loads_spec(dumps_spec(spec)) == spec


def test_random_spec_round_trip(gf2, gf5, gf16):
    rng = random.Random(42)
    for field in (gf2, gf5, gf16):
        for _ in range(8):
            spec = random_spec(rng, field, reducible=rng.random() < 0.5)
            assert loads_spec(dumps_spec(spec)) == spec


def test_codeword_round_trip(rs42, ladder5):
    rng = random.Random(43)
    for spec in (rs42, ladder5):
        for _ in range(10):
            w = encode(spec, random_message(rng, spec))
            assert loads_codeword(spec, dumps_codeword(w)) == w


def test_codeword_lines_zero_padded(three_mod):
    w = three_mod.zero_word()
    assert dumps_codeword(w) == "n=3\n0\n0\n0 0\n"


def test_codeword_wrong_symbol_length(three_mod):
    with pytest.raises(ParseError) as exc:
        loads_codeword(three_mod, "n=3\n0\n0\n0\n")
    assert exc.value.line == 4


def test_codeword_header_checked(three_mod):
    with pytest.raises(ParseError):
        loads_codeword(three_mod, "0\n0\n0 0\n")
    with pytest.raises(ParseError):
        loads_codeword(three_mod, "n=2\n0\n0\n")


def test_codeword_value_range_checked(three_mod):
    with pytest.raises(ParseError):
        loads_codeword(three_mod, "n=3\n0\n2\n0 0\n")


def test_spec_parse_errors():
    with pytest.raises(ParseError):
        loads_spec("not json")
    with pytest.raises(ParseError):
        loads_spec("[1,2]")
    with pytest.raises(ParseError):
        loads_spec('{"p": 5, "k": 1}')
    with pytest.raises(ParseError):
        loads_spec('{"p": 5, "m": 1, "reduction": null, "moduli": [[9, 1]], "k": 1}')

    # a valid GF(4) spec with one entry changed: no value may be truncated or coerced
    valid = {"p": 2, "m": 2, "reduction": [1, 1, 1], "moduli": [[0, 1], [1, 1]], "k": 1}
    assert loads_spec(json.dumps(valid)).n == 2
    for change in (
            {"k": 1.9}, {"k": 1.0}, {"k": True}, {"k": "1"},
            {"p": 2.9}, {"p": 2.0}, {"p": True}, {"m": 2.0}, {"m": None},
            {"reduction": [1, 0, 1.5]}, {"reduction": [1, True, 1]}, {"reduction": [1, 1, 2]},
            {"reduction": [-1, 1, 1]}, {"reduction": 7}, {"reduction": "111"},
            {"moduli": [[0, 1], [True, 1]]}, {"moduli": [[0, 1], [1.0, 1]]},
            {"moduli": [[0, 1], [4, 1]]}, {"moduli": [[0, 1], 3]},
            {"moduli": 5}, {"moduli": None}, {"moduli": {"0": [0, 1]}}):
        with pytest.raises(ParseError):
            loads_spec(json.dumps({**valid, **change}))


def test_parse_poly(gf5):
    assert parse_poly(gf5, "[0,1,1]") == P(gf5, 0, 1, 1)
    assert parse_poly(gf5, " [ 4 , 0 , 1 ] ") == P(gf5, 4, 0, 1)
    assert parse_poly(gf5, "[]").is_zero
    with pytest.raises(ParseError):
        parse_poly(gf5, "[5]")
    with pytest.raises(ParseError):
        parse_poly(gf5, "0,1")
    with pytest.raises(ParseError):
        parse_poly(gf5, "[1,,2]")


def test_message_too_large_surfaces_via_encode(three_mod):
    big = parse_poly(three_mod.field, "[0,0,1]")
    with pytest.raises(MessageTooLarge):
        encode(three_mod, big)
