"""`simulate` reports frozen as literals, and the decode calls behind them.

The literals in `FROZEN` were produced by the simulator that ran the gcd
and list decoders as two separate pipelines, decoding each trial once per
decoder.  The single trial loop must reproduce them exactly: trial count,
`counts` and `by_support` with their insertion order, and `render()`.
"""

from __future__ import annotations

import hashlib

import pytest

import remcode.decoder as decoder
import remcode.sim as sim
from remcode.code import CodeSpec
from remcode.decoder import DecodeStatus
from remcode.errors import (
    CandidateExplosion,
    InfeasibleWeight,
    SearchSpaceTooLarge,
    UnorderedDegrees,
)
from remcode.field import Field
from remcode.poly import Poly
from remcode.sim import (
    FIXED_POSITIONS,
    RANDOM_DEGREE,
    RANDOM_HAMMING,
    ChannelModel,
    simulate,
)

# spec -> mode -> (channel kind, weight or positions, trials, exhaustive, message
# sample); Monte-Carlo mode takes no message sample, so its sample is None
CHANNELS = {
    "rs42": {
        "fixed": (FIXED_POSITIONS, (1,), 30, False, None),
        "hamming": (RANDOM_HAMMING, 2, 30, False, None),
        "degree": (RANDOM_DEGREE, 2, 30, False, None),
        # 25 = q**K: the sample covers every message
        "exhaustive": (FIXED_POSITIONS, (2,), 0, True, 25),
    },
    "ladder5": {
        "fixed": (FIXED_POSITIONS, (4,), 40, False, None),
        "hamming": (RANDOM_HAMMING, 1, 40, False, None),
        "degree": (RANDOM_DEGREE, 5, 40, False, None),
        "exhaustive": (FIXED_POSITIONS, (4,), 0, True, 5),
    },
    "gf4_mixed": {
        "fixed": (FIXED_POSITIONS, (3,), 30, False, None),
        "hamming": (RANDOM_HAMMING, 2, 30, False, None),
        "degree": (RANDOM_DEGREE, 3, 30, False, None),
        "exhaustive": (FIXED_POSITIONS, (0, 3), 0, True, 4),
    },
}
DECODERS = (("gcd",), ("list",), ("gcd", "list"), ("list", "gcd"))


def _frozen(report) -> tuple:
    """(trials, counts, by_support, sha256 of render()), every dict as its items in
    insertion order, and each class count as (success, miscorrect, failure)."""
    def tally(per: dict) -> tuple:
        return tuple((name, tuple(c.values())) for name, c in per.items())
    return (report.trials,
            tally(report.counts),
            tuple((support, tally(per)) for support, per in report.by_support.items()),
            hashlib.sha256(report.render().encode()).hexdigest())


def _run(spec: CodeSpec, mode: tuple, decoders) -> sim.SimReport:
    kind, param, trials, exhaustive, sample = mode
    return simulate(spec, ChannelModel(kind, param, master_seed=17), trials,
                    decoders=decoders, exhaustive=exhaustive, message_sample=sample)


@pytest.mark.parametrize("name", list(CHANNELS))
def test_reports_equal_the_frozen_literals(name, request):
    spec = request.getfixturevalue(name)
    for mode, channel in CHANNELS[name].items():
        for decoders in DECODERS:
            key = (name, mode, decoders)
            assert _frozen(_run(spec, channel, decoders)) == FROZEN[key], key


def test_a_decoder_named_twice_counts_once(ladder5):
    for mode, channel in CHANNELS["ladder5"].items():
        report = _run(ladder5, channel, ("gcd", "list", "gcd", "list"))
        assert _frozen(report) == FROZEN[("ladder5", mode, ("gcd", "list"))], mode


def test_each_trial_decodes_once_and_lists_only_gcd_failures(ladder5, monkeypatch):
    """Through the names simulate calls: `decode` once per trial, and
    `list_decode` on exactly the trials whose gcd outcome failed."""
    decoded, listed = [], []
    decode, list_decode = sim.decode, sim.list_decode

    def counting_decode(spec, received, options):
        outcome = decode(spec, received, options)
        decoded.append((received, outcome.status))
        return outcome

    def counting_list_decode(spec, received, candidates, options, **kwargs):
        listed.append(received)
        return list_decode(spec, received, candidates, options, **kwargs)

    monkeypatch.setattr(sim, "decode", counting_decode)
    monkeypatch.setattr(sim, "list_decode", counting_list_decode)
    list_calls = 0
    for mode in CHANNELS["ladder5"].values():
        for decoders in DECODERS:
            decoded.clear()
            listed.clear()
            report = _run(ladder5, mode, decoders)
            assert len(decoded) == report.trials
            failed = [y for y, status in decoded if status is DecodeStatus.FAILURE]
            assert listed == (failed if "list" in decoders else [])
            list_calls += len(listed)
    assert list_calls > 0


def test_list_decoding_decodes_each_trial_once_in_all(ladder5, monkeypatch):
    """simulate hands its gcd outcome to `list_decode`, so a gcd-failed
    trial is not decoded a second time inside it: counted through both
    names `decode` is called by, each trial decodes exactly once."""
    decode = decoder.decode
    statuses = []

    def counting_decode(*args, **kwargs):
        outcome = decode(*args, **kwargs)
        statuses.append(outcome.status)
        return outcome

    monkeypatch.setattr(decoder, "decode", counting_decode)
    monkeypatch.setattr(sim, "decode", counting_decode)
    gcd_failures = 0
    for mode, channel in CHANNELS["ladder5"].items():
        for decoders in (("list",), ("gcd", "list")):
            statuses.clear()
            report = _run(ladder5, channel, decoders)
            assert len(statuses) == report.trials, (mode, decoders)
            gcd_failures += statuses.count(DecodeStatus.FAILURE)
    assert gcd_failures > 0


@pytest.fixture
def no_trial_may_run(monkeypatch):
    def trial_ran(*args, **kwargs):
        raise AssertionError("a trial ran before the arguments were checked")
    for name in ("encode", "corrupt", "decode", "list_decode"):
        monkeypatch.setattr(sim, name, trial_ran)


def test_arguments_are_checked_before_any_trial(no_trial_may_run, ladder5, reducible_spec,
                                                gf16):
    fixed = ChannelModel(FIXED_POSITIONS, (4,))
    with pytest.raises(ValueError, match="unknown decoder"):
        simulate(ladder5, fixed, 3, decoders=("gcd", "fast"))
    # the supplied candidates do not excuse degrees list decoding cannot use
    assert not reducible_spec.ordered_degree
    with pytest.raises(UnorderedDegrees):
        simulate(reducible_spec, ChannelModel(FIXED_POSITIONS, (0,)), 3,
                 decoders=("gcd", "list"), candidates=[])
    f101 = Field(101)
    wide = CodeSpec(f101, [Poly(f101, [b, 1]) for b in range(40)], 10)
    with pytest.raises(CandidateExplosion):
        simulate(wide, ChannelModel(RANDOM_HAMMING, 1), 3, decoders=("list",))
    with pytest.raises(ValueError, match="fixed error positions"):
        simulate(ladder5, ChannelModel(RANDOM_HAMMING, 1), 0, exhaustive=True)
    with pytest.raises(InfeasibleWeight):
        simulate(ladder5, ChannelModel(FIXED_POSITIONS, (-1,)), 0, exhaustive=True)
    five = CodeSpec(gf16, [Poly(gf16, [b, 1]) for b in range(5)], 1)
    with pytest.raises(SearchSpaceTooLarge):
        simulate(five, ChannelModel(FIXED_POSITIONS, tuple(range(5))), 0,
                 exhaustive=True, message_sample=16)


FROZEN = {
    ('rs42', 'fixed', ('gcd',)): (
        30, (('gcd', (30, 0, 0)),),
        (((1,), (('gcd', (30, 0, 0)),)),),
        'bd8f12885b76ccc0c5b51c7aff6191f0b7c5e7d24841e756efb35913da3dbe7a'),
    ('rs42', 'fixed', ('list',)): (
        30, (('list', (30, 0, 0)),),
        (((1,), (('list', (30, 0, 0)),)),),
        'e78eb8cffc00a529df28cfa88a493dde6ecb462c31787ed4f312aa952747a703'),
    ('rs42', 'fixed', ('gcd', 'list')): (
        30, (('gcd', (30, 0, 0)), ('list', (30, 0, 0))),
        (((1,), (('gcd', (30, 0, 0)), ('list', (30, 0, 0)))),),
        '84474cdcb0d390fec0ae041eb0827642a281b941c1b34aa58b426d39d3a998d6'),
    ('rs42', 'fixed', ('list', 'gcd')): (
        30, (('list', (30, 0, 0)), ('gcd', (30, 0, 0))),
        (((1,), (('list', (30, 0, 0)), ('gcd', (30, 0, 0)))),),
        '84474cdcb0d390fec0ae041eb0827642a281b941c1b34aa58b426d39d3a998d6'),
    ('rs42', 'hamming', ('gcd',)): (
        30, (('gcd', (0, 12, 18)),),
        (((0, 3), (('gcd', (0, 3, 2)),)),
         ((0, 1), (('gcd', (0, 4, 3)),)),
         ((2, 3), (('gcd', (0, 1, 4)),)),
         ((1, 2), (('gcd', (0, 2, 7)),)),
         ((0, 2), (('gcd', (0, 2, 1)),)),
         ((1, 3), (('gcd', (0, 0, 1)),)),),
        'cb4fb583a7db087c14bf4fb4e6c950d45eeea88390e0e63b4fc79b34bc630f89'),
    ('rs42', 'hamming', ('list',)): (
        30, (('list', (0, 12, 18)),),
        (((0, 3), (('list', (0, 3, 2)),)),
         ((0, 1), (('list', (0, 4, 3)),)),
         ((2, 3), (('list', (0, 1, 4)),)),
         ((1, 2), (('list', (0, 2, 7)),)),
         ((0, 2), (('list', (0, 2, 1)),)),
         ((1, 3), (('list', (0, 0, 1)),)),),
        '53ea818259a91275b0369bddd1204363d4697653d1d515306c2a4782b63db49e'),
    ('rs42', 'hamming', ('gcd', 'list')): (
        30, (('gcd', (0, 12, 18)), ('list', (0, 12, 18))),
        (((0, 3), (('gcd', (0, 3, 2)), ('list', (0, 3, 2)))),
         ((0, 1), (('gcd', (0, 4, 3)), ('list', (0, 4, 3)))),
         ((2, 3), (('gcd', (0, 1, 4)), ('list', (0, 1, 4)))),
         ((1, 2), (('gcd', (0, 2, 7)), ('list', (0, 2, 7)))),
         ((0, 2), (('gcd', (0, 2, 1)), ('list', (0, 2, 1)))),
         ((1, 3), (('gcd', (0, 0, 1)), ('list', (0, 0, 1)))),),
        'c7a268ae41e0b6c09f3d33346e7928f33a8d38e58df7b1b636c914c720016c9e'),
    ('rs42', 'hamming', ('list', 'gcd')): (
        30, (('list', (0, 12, 18)), ('gcd', (0, 12, 18))),
        (((0, 3), (('list', (0, 3, 2)), ('gcd', (0, 3, 2)))),
         ((0, 1), (('list', (0, 4, 3)), ('gcd', (0, 4, 3)))),
         ((2, 3), (('list', (0, 1, 4)), ('gcd', (0, 1, 4)))),
         ((1, 2), (('list', (0, 2, 7)), ('gcd', (0, 2, 7)))),
         ((0, 2), (('list', (0, 2, 1)), ('gcd', (0, 2, 1)))),
         ((1, 3), (('list', (0, 0, 1)), ('gcd', (0, 0, 1)))),),
        'c7a268ae41e0b6c09f3d33346e7928f33a8d38e58df7b1b636c914c720016c9e'),
    ('rs42', 'degree', ('gcd',)): (
        30, (('gcd', (0, 18, 12)),),
        (((1, 2), (('gcd', (0, 3, 1)),)),
         ((0, 3), (('gcd', (0, 6, 2)),)),
         ((0, 1), (('gcd', (0, 2, 6)),)),
         ((1, 3), (('gcd', (0, 3, 0)),)),
         ((0, 2), (('gcd', (0, 1, 2)),)),
         ((2, 3), (('gcd', (0, 3, 1)),)),),
        'f2ccbf76e39750813380e2f57465a94d6a245905603e18c92e22693dcb05fa41'),
    ('rs42', 'degree', ('list',)): (
        30, (('list', (0, 18, 12)),),
        (((1, 2), (('list', (0, 3, 1)),)),
         ((0, 3), (('list', (0, 6, 2)),)),
         ((0, 1), (('list', (0, 2, 6)),)),
         ((1, 3), (('list', (0, 3, 0)),)),
         ((0, 2), (('list', (0, 1, 2)),)),
         ((2, 3), (('list', (0, 3, 1)),)),),
        '7d75cb81eaeaa8ce4bda567560b7085ad190c44adff4912f246471d32520d096'),
    ('rs42', 'degree', ('gcd', 'list')): (
        30, (('gcd', (0, 18, 12)), ('list', (0, 18, 12))),
        (((1, 2), (('gcd', (0, 3, 1)), ('list', (0, 3, 1)))),
         ((0, 3), (('gcd', (0, 6, 2)), ('list', (0, 6, 2)))),
         ((0, 1), (('gcd', (0, 2, 6)), ('list', (0, 2, 6)))),
         ((1, 3), (('gcd', (0, 3, 0)), ('list', (0, 3, 0)))),
         ((0, 2), (('gcd', (0, 1, 2)), ('list', (0, 1, 2)))),
         ((2, 3), (('gcd', (0, 3, 1)), ('list', (0, 3, 1)))),),
        'e49c4b41ad615f09f42b224b1116fa9825a6aada602aaa79ba859f5a504c3e66'),
    ('rs42', 'degree', ('list', 'gcd')): (
        30, (('list', (0, 18, 12)), ('gcd', (0, 18, 12))),
        (((1, 2), (('list', (0, 3, 1)), ('gcd', (0, 3, 1)))),
         ((0, 3), (('list', (0, 6, 2)), ('gcd', (0, 6, 2)))),
         ((0, 1), (('list', (0, 2, 6)), ('gcd', (0, 2, 6)))),
         ((1, 3), (('list', (0, 3, 0)), ('gcd', (0, 3, 0)))),
         ((0, 2), (('list', (0, 1, 2)), ('gcd', (0, 1, 2)))),
         ((2, 3), (('list', (0, 3, 1)), ('gcd', (0, 3, 1)))),),
        'e49c4b41ad615f09f42b224b1116fa9825a6aada602aaa79ba859f5a504c3e66'),
    ('rs42', 'exhaustive', ('gcd',)): (
        100, (('gcd', (100, 0, 0)),),
        (((2,), (('gcd', (100, 0, 0)),)),),
        '5112c7ee4d3718f0d9f2f029f50577fa45625040631db8120cd6608776710e22'),
    ('rs42', 'exhaustive', ('list',)): (
        100, (('list', (100, 0, 0)),),
        (((2,), (('list', (100, 0, 0)),)),),
        '17ddbc37067a7f2622a28ab4b419327b6583540167ddfd7c08c2c8ab97ffd469'),
    ('rs42', 'exhaustive', ('gcd', 'list')): (
        100, (('gcd', (100, 0, 0)), ('list', (100, 0, 0))),
        (((2,), (('gcd', (100, 0, 0)), ('list', (100, 0, 0)))),),
        '1324f2414856ccdd82141be9c87fc288e0d78f6c944e589f750812fd131df53b'),
    ('rs42', 'exhaustive', ('list', 'gcd')): (
        100, (('list', (100, 0, 0)), ('gcd', (100, 0, 0))),
        (((2,), (('list', (100, 0, 0)), ('gcd', (100, 0, 0)))),),
        '1324f2414856ccdd82141be9c87fc288e0d78f6c944e589f750812fd131df53b'),
    ('ladder5', 'fixed', ('gcd',)): (
        40, (('gcd', (0, 0, 40)),),
        (((4,), (('gcd', (0, 0, 40)),)),),
        '61e841f32141ef5a0e9374907641b7826e47567809034b7fdf267c16394d87f2'),
    ('ladder5', 'fixed', ('list',)): (
        40, (('list', (40, 0, 0)),),
        (((4,), (('list', (40, 0, 0)),)),),
        'e56825ef41b2472a14d0244f71e2e137f803a177fbcdda7a5e992217597c8aff'),
    ('ladder5', 'fixed', ('gcd', 'list')): (
        40, (('gcd', (0, 0, 40)), ('list', (40, 0, 0))),
        (((4,), (('gcd', (0, 0, 40)), ('list', (40, 0, 0)))),),
        '4e8798a0c0cafb0837628661caa10c2e6d54fdc7c20208c98b071e377746abb8'),
    ('ladder5', 'fixed', ('list', 'gcd')): (
        40, (('list', (40, 0, 0)), ('gcd', (0, 0, 40))),
        (((4,), (('list', (40, 0, 0)), ('gcd', (0, 0, 40)))),),
        '4e8798a0c0cafb0837628661caa10c2e6d54fdc7c20208c98b071e377746abb8'),
    ('ladder5', 'hamming', ('gcd',)): (
        40, (('gcd', (32, 0, 8)),),
        (((3,), (('gcd', (5, 0, 0)),)),
         ((0,), (('gcd', (9, 0, 0)),)),
         ((2,), (('gcd', (7, 0, 0)),)),
         ((4,), (('gcd', (0, 0, 8)),)),
         ((1,), (('gcd', (11, 0, 0)),)),),
        '0cb23416e0778e9fda7d3f594844edfcc39775d256156b7366cfca4db24f819d'),
    ('ladder5', 'hamming', ('list',)): (
        40, (('list', (40, 0, 0)),),
        (((3,), (('list', (5, 0, 0)),)),
         ((0,), (('list', (9, 0, 0)),)),
         ((2,), (('list', (7, 0, 0)),)),
         ((4,), (('list', (8, 0, 0)),)),
         ((1,), (('list', (11, 0, 0)),)),),
        '12b9ddd203ba34427fc8cdcd50fee026c3fe494395bbd49bcc3e49900209fecb'),
    ('ladder5', 'hamming', ('gcd', 'list')): (
        40, (('gcd', (32, 0, 8)), ('list', (40, 0, 0))),
        (((3,), (('gcd', (5, 0, 0)), ('list', (5, 0, 0)))),
         ((0,), (('gcd', (9, 0, 0)), ('list', (9, 0, 0)))),
         ((2,), (('gcd', (7, 0, 0)), ('list', (7, 0, 0)))),
         ((4,), (('gcd', (0, 0, 8)), ('list', (8, 0, 0)))),
         ((1,), (('gcd', (11, 0, 0)), ('list', (11, 0, 0)))),),
        '7df17f6f7b8a2f2209032cd81adbac51e288ab28abf01489f135e8263982ba4d'),
    ('ladder5', 'hamming', ('list', 'gcd')): (
        40, (('list', (40, 0, 0)), ('gcd', (32, 0, 8))),
        (((3,), (('list', (5, 0, 0)), ('gcd', (5, 0, 0)))),
         ((0,), (('list', (9, 0, 0)), ('gcd', (9, 0, 0)))),
         ((2,), (('list', (7, 0, 0)), ('gcd', (7, 0, 0)))),
         ((4,), (('list', (8, 0, 0)), ('gcd', (0, 0, 8)))),
         ((1,), (('list', (11, 0, 0)), ('gcd', (11, 0, 0)))),),
        '7df17f6f7b8a2f2209032cd81adbac51e288ab28abf01489f135e8263982ba4d'),
    ('ladder5', 'degree', ('gcd',)): (
        40, (('gcd', (0, 0, 40)),),
        (((1, 2), (('gcd', (0, 0, 11)),)),
         ((0, 3), (('gcd', (0, 0, 17)),)),
         ((4,), (('gcd', (0, 0, 12)),)),),
        'f8bbcb19c229888839fa7e4907413bae899e56ff8eb203294561d0977bee6958'),
    ('ladder5', 'degree', ('list',)): (
        40, (('list', (12, 3, 25)),),
        (((1, 2), (('list', (0, 2, 9)),)),
         ((0, 3), (('list', (0, 1, 16)),)),
         ((4,), (('list', (12, 0, 0)),)),),
        'e2632b066f0e0196721ca4b093fa46d03055d2ce1372d5097eb6bfc49a45735d'),
    ('ladder5', 'degree', ('gcd', 'list')): (
        40, (('gcd', (0, 0, 40)), ('list', (12, 3, 25))),
        (((1, 2), (('gcd', (0, 0, 11)), ('list', (0, 2, 9)))),
         ((0, 3), (('gcd', (0, 0, 17)), ('list', (0, 1, 16)))),
         ((4,), (('gcd', (0, 0, 12)), ('list', (12, 0, 0)))),),
        '7ff4a504ceccb8192565791b23889b8c2fa1df83a4af6eaa54765c20e8a202b1'),
    ('ladder5', 'degree', ('list', 'gcd')): (
        40, (('list', (12, 3, 25)), ('gcd', (0, 0, 40))),
        (((1, 2), (('list', (0, 2, 9)), ('gcd', (0, 0, 11)))),
         ((0, 3), (('list', (0, 1, 16)), ('gcd', (0, 0, 17)))),
         ((4,), (('list', (12, 0, 0)), ('gcd', (0, 0, 12)))),),
        '7ff4a504ceccb8192565791b23889b8c2fa1df83a4af6eaa54765c20e8a202b1'),
    ('ladder5', 'exhaustive', ('gcd',)): (
        155, (('gcd', (0, 0, 155)),),
        (((4,), (('gcd', (0, 0, 155)),)),),
        'f4654848ff537cc3dad6181ab620718fb6eb572bf9ecdc30a4562ac1b6477df4'),
    ('ladder5', 'exhaustive', ('list',)): (
        155, (('list', (155, 0, 0)),),
        (((4,), (('list', (155, 0, 0)),)),),
        'b1fbbeb35ef78963691580ce5a1d49471ba0d76da6d9431fb163a9ca1fac2fd7'),
    ('ladder5', 'exhaustive', ('gcd', 'list')): (
        155, (('gcd', (0, 0, 155)), ('list', (155, 0, 0))),
        (((4,), (('gcd', (0, 0, 155)), ('list', (155, 0, 0)))),),
        '7de306fc3903df4fb7c24ca07ec20467f08e090b010dd463dc23aab10f488d04'),
    ('ladder5', 'exhaustive', ('list', 'gcd')): (
        155, (('list', (155, 0, 0)), ('gcd', (0, 0, 155))),
        (((4,), (('list', (155, 0, 0)), ('gcd', (0, 0, 155)))),),
        '7de306fc3903df4fb7c24ca07ec20467f08e090b010dd463dc23aab10f488d04'),
    ('gf4_mixed', 'fixed', ('gcd',)): (
        30, (('gcd', (30, 0, 0)),),
        (((3,), (('gcd', (30, 0, 0)),)),),
        '273f6d7095e28e1f31666c6e6ac4d4f71a9f343f51e7e7b23fc581e4a1bfc8b3'),
    ('gf4_mixed', 'fixed', ('list',)): (
        30, (('list', (30, 0, 0)),),
        (((3,), (('list', (30, 0, 0)),)),),
        '2ad7bd7a888fd2580c107008d50902d3bd320c402d3083e5cdb9d6c023491da6'),
    ('gf4_mixed', 'fixed', ('gcd', 'list')): (
        30, (('gcd', (30, 0, 0)), ('list', (30, 0, 0))),
        (((3,), (('gcd', (30, 0, 0)), ('list', (30, 0, 0)))),),
        '7574b9c302d9a8da7120a124e6b1279c1dd3625fe9a9172b8f64e71cd2b29422'),
    ('gf4_mixed', 'fixed', ('list', 'gcd')): (
        30, (('list', (30, 0, 0)), ('gcd', (30, 0, 0))),
        (((3,), (('list', (30, 0, 0)), ('gcd', (30, 0, 0)))),),
        '7574b9c302d9a8da7120a124e6b1279c1dd3625fe9a9172b8f64e71cd2b29422'),
    ('gf4_mixed', 'hamming', ('gcd',)): (
        30, (('gcd', (12, 2, 16)),),
        (((1, 3), (('gcd', (0, 0, 2)),)),
         ((0, 2), (('gcd', (3, 0, 0)),)),
         ((2, 3), (('gcd', (0, 0, 3)),)),
         ((2, 4), (('gcd', (0, 1, 3)),)),
         ((1, 4), (('gcd', (0, 0, 5)),)),
         ((0, 4), (('gcd', (0, 1, 0)),)),
         ((0, 3), (('gcd', (0, 0, 3)),)),
         ((0, 1), (('gcd', (6, 0, 0)),)),
         ((1, 2), (('gcd', (3, 0, 0)),)),),
        '1177b3cf099c82a52673f76c7d6d160783e1d1f010a66788c638c4fc01357e91'),
    ('gf4_mixed', 'hamming', ('list',)): (
        30, (('list', (12, 2, 16)),),
        (((1, 3), (('list', (0, 0, 2)),)),
         ((0, 2), (('list', (3, 0, 0)),)),
         ((2, 3), (('list', (0, 0, 3)),)),
         ((2, 4), (('list', (0, 1, 3)),)),
         ((1, 4), (('list', (0, 0, 5)),)),
         ((0, 4), (('list', (0, 1, 0)),)),
         ((0, 3), (('list', (0, 0, 3)),)),
         ((0, 1), (('list', (6, 0, 0)),)),
         ((1, 2), (('list', (3, 0, 0)),)),),
        '301ec69dd37f1f18793a1b1bc5bd2648fdd51f160de274a2f6492f3a4d02bda6'),
    ('gf4_mixed', 'hamming', ('gcd', 'list')): (
        30, (('gcd', (12, 2, 16)), ('list', (12, 2, 16))),
        (((1, 3), (('gcd', (0, 0, 2)), ('list', (0, 0, 2)))),
         ((0, 2), (('gcd', (3, 0, 0)), ('list', (3, 0, 0)))),
         ((2, 3), (('gcd', (0, 0, 3)), ('list', (0, 0, 3)))),
         ((2, 4), (('gcd', (0, 1, 3)), ('list', (0, 1, 3)))),
         ((1, 4), (('gcd', (0, 0, 5)), ('list', (0, 0, 5)))),
         ((0, 4), (('gcd', (0, 1, 0)), ('list', (0, 1, 0)))),
         ((0, 3), (('gcd', (0, 0, 3)), ('list', (0, 0, 3)))),
         ((0, 1), (('gcd', (6, 0, 0)), ('list', (6, 0, 0)))),
         ((1, 2), (('gcd', (3, 0, 0)), ('list', (3, 0, 0)))),),
        '4278de434c14ed6d17a13415b395ed759ceb009698adc7bf1f89bfdc69f712ae'),
    ('gf4_mixed', 'hamming', ('list', 'gcd')): (
        30, (('list', (12, 2, 16)), ('gcd', (12, 2, 16))),
        (((1, 3), (('list', (0, 0, 2)), ('gcd', (0, 0, 2)))),
         ((0, 2), (('list', (3, 0, 0)), ('gcd', (3, 0, 0)))),
         ((2, 3), (('list', (0, 0, 3)), ('gcd', (0, 0, 3)))),
         ((2, 4), (('list', (0, 1, 3)), ('gcd', (0, 1, 3)))),
         ((1, 4), (('list', (0, 0, 5)), ('gcd', (0, 0, 5)))),
         ((0, 4), (('list', (0, 1, 0)), ('gcd', (0, 1, 0)))),
         ((0, 3), (('list', (0, 0, 3)), ('gcd', (0, 0, 3)))),
         ((0, 1), (('list', (6, 0, 0)), ('gcd', (6, 0, 0)))),
         ((1, 2), (('list', (3, 0, 0)), ('gcd', (3, 0, 0)))),),
        '4278de434c14ed6d17a13415b395ed759ceb009698adc7bf1f89bfdc69f712ae'),
    ('gf4_mixed', 'degree', ('gcd',)): (
        30, (('gcd', (0, 4, 26)),),
        (((2, 3), (('gcd', (0, 0, 3)),)),
         ((0, 4), (('gcd', (0, 0, 5)),)),
         ((1, 3), (('gcd', (0, 1, 2)),)),
         ((0, 1, 2), (('gcd', (0, 2, 6)),)),
         ((1, 4), (('gcd', (0, 0, 4)),)),
         ((0, 3), (('gcd', (0, 1, 2)),)),
         ((2, 4), (('gcd', (0, 0, 4)),)),),
        'ea5643923c779c324948717c91488d80007e3355855351d41ca1dd6b8839eb16'),
    ('gf4_mixed', 'degree', ('list',)): (
        30, (('list', (0, 4, 26)),),
        (((2, 3), (('list', (0, 0, 3)),)),
         ((0, 4), (('list', (0, 0, 5)),)),
         ((1, 3), (('list', (0, 1, 2)),)),
         ((0, 1, 2), (('list', (0, 2, 6)),)),
         ((1, 4), (('list', (0, 0, 4)),)),
         ((0, 3), (('list', (0, 1, 2)),)),
         ((2, 4), (('list', (0, 0, 4)),)),),
        '3171a92e8ed813c11438e1cc61902cb4910078036bd6cd2fcab007a4f40fbc00'),
    ('gf4_mixed', 'degree', ('gcd', 'list')): (
        30, (('gcd', (0, 4, 26)), ('list', (0, 4, 26))),
        (((2, 3), (('gcd', (0, 0, 3)), ('list', (0, 0, 3)))),
         ((0, 4), (('gcd', (0, 0, 5)), ('list', (0, 0, 5)))),
         ((1, 3), (('gcd', (0, 1, 2)), ('list', (0, 1, 2)))),
         ((0, 1, 2), (('gcd', (0, 2, 6)), ('list', (0, 2, 6)))),
         ((1, 4), (('gcd', (0, 0, 4)), ('list', (0, 0, 4)))),
         ((0, 3), (('gcd', (0, 1, 2)), ('list', (0, 1, 2)))),
         ((2, 4), (('gcd', (0, 0, 4)), ('list', (0, 0, 4)))),),
        '9b67754b3f76d47e1a6d98c7ffb747a2146f132750b969fa88542be06f5074ec'),
    ('gf4_mixed', 'degree', ('list', 'gcd')): (
        30, (('list', (0, 4, 26)), ('gcd', (0, 4, 26))),
        (((2, 3), (('list', (0, 0, 3)), ('gcd', (0, 0, 3)))),
         ((0, 4), (('list', (0, 0, 5)), ('gcd', (0, 0, 5)))),
         ((1, 3), (('list', (0, 1, 2)), ('gcd', (0, 1, 2)))),
         ((0, 1, 2), (('list', (0, 2, 6)), ('gcd', (0, 2, 6)))),
         ((1, 4), (('list', (0, 0, 4)), ('gcd', (0, 0, 4)))),
         ((0, 3), (('list', (0, 1, 2)), ('gcd', (0, 1, 2)))),
         ((2, 4), (('list', (0, 0, 4)), ('gcd', (0, 0, 4)))),),
        '9b67754b3f76d47e1a6d98c7ffb747a2146f132750b969fa88542be06f5074ec'),
    ('gf4_mixed', 'exhaustive', ('gcd',)): (
        180, (('gcd', (0, 24, 156)),),
        (((0, 3), (('gcd', (0, 24, 156)),)),),
        'fa483a88bab4cdb2b16691880a2913447af604208d1cd58839692c828162e8ff'),
    ('gf4_mixed', 'exhaustive', ('list',)): (
        180, (('list', (0, 24, 156)),),
        (((0, 3), (('list', (0, 24, 156)),)),),
        'daf7e342e769180528a5ecdf31eab2caf049ad6fac6c693ab7652911b6ea9cc4'),
    ('gf4_mixed', 'exhaustive', ('gcd', 'list')): (
        180, (('gcd', (0, 24, 156)), ('list', (0, 24, 156))),
        (((0, 3), (('gcd', (0, 24, 156)), ('list', (0, 24, 156)))),),
        '79b9500498732ea0a8506155f2f5efcfa2f958c73d957404334ca3e29d1bc2fc'),
    ('gf4_mixed', 'exhaustive', ('list', 'gcd')): (
        180, (('list', (0, 24, 156)), ('gcd', (0, 24, 156))),
        (((0, 3), (('list', (0, 24, 156)), ('gcd', (0, 24, 156)))),),
        '79b9500498732ea0a8506155f2f5efcfa2f958c73d957404334ca3e29d1bc2fc'),
}
