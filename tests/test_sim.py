from __future__ import annotations

import random
import sys

import pytest

from remcode.code import CodeSpec, degree_weight, encode, hamming_weight
from remcode.errors import InfeasibleWeight, SearchSpaceTooLarge
from remcode.poly import Poly
from remcode.sim import (
    FIXED_POSITIONS,
    RANDOM_DEGREE,
    RANDOM_HAMMING,
    ChannelModel,
    _all_error_values,
    _trials,
    corrupt,
    mix64,
    simulate,
)

from conftest import P


def test_mix64_known_vector():
    # splitmix64 of seed 0, first output
    assert mix64(0, 0) == 0xE220A8397B1DCDAF


def test_corrupt_weight_zero_is_identity(rs42):
    c = encode(rs42, P(rs42.field, 0, 1))
    y, e = corrupt(rs42, c, ChannelModel(RANDOM_HAMMING, 0, master_seed=5))
    assert y == c
    assert all(s.is_zero for s in e.symbols)


def test_corrupt_fixed_positions(rs42):
    c = encode(rs42, P(rs42.field, 0, 1))
    model = ChannelModel(FIXED_POSITIONS, (2,), master_seed=9)
    for trial in range(20):
        y, e = corrupt(rs42, c, model, trial)
        assert e.support() == (2,)
        assert y.symbols[2] != c.symbols[2]


def test_corrupt_deterministic_per_trial(ladder5):
    c = encode(ladder5, P(ladder5.field, 1, 0, 1))
    model = ChannelModel(RANDOM_DEGREE, 4, master_seed=1234)
    first = [corrupt(ladder5, c, model, t) for t in range(10)]
    second = [corrupt(ladder5, c, model, t) for t in range(10)]
    assert first == second
    assert len({e.symbols for _, e in first}) > 1  # different trials differ


def test_corrupt_hamming_weight_exact(ladder5):
    c = ladder5.zero_word()
    for w in range(ladder5.n + 1):
        model = ChannelModel(RANDOM_HAMMING, w, master_seed=7)
        for trial in range(10):
            _, e = corrupt(ladder5, c, model, trial)
            assert hamming_weight(e) == w


def test_corrupt_degree_weight_exact(ladder5, gf4_mixed):
    for spec in (ladder5, gf4_mixed):
        for w in range(1, 6):
            model = ChannelModel(RANDOM_DEGREE, w, master_seed=21)
            for trial in range(10):
                _, e = corrupt(spec, spec.zero_word(), model, trial)
                assert degree_weight(e) == w


def test_degree_weight_support_is_uniform(gf4_mixed):
    # weight 2 supports: {0,1}, {0,2}, {1,2}, {3}, {4} -- all should appear
    model = ChannelModel(RANDOM_DEGREE, 2, master_seed=77)
    seen = set()
    for trial in range(300):
        _, e = corrupt(gf4_mixed, gf4_mixed.zero_word(), model, trial)
        seen.add(e.support())
    assert seen == {(0, 1), (0, 2), (1, 2), (3,), (4,)}


def test_infeasible_weights_rejected(gf2, rs42):
    gap_spec = CodeSpec(gf2, [P(gf2, 0, 0, 1), P(gf2, 1, 0, 1)], 1)  # degrees 2, 2
    with pytest.raises(InfeasibleWeight):
        corrupt(gap_spec, gap_spec.zero_word(), ChannelModel(RANDOM_DEGREE, 3))
    with pytest.raises(InfeasibleWeight):
        corrupt(rs42, rs42.zero_word(), ChannelModel(RANDOM_HAMMING, 5))
    with pytest.raises(InfeasibleWeight):
        corrupt(rs42, rs42.zero_word(), ChannelModel(FIXED_POSITIONS, (7,)))


def test_simulate_weight_zero_all_success(rs42):
    report = simulate(rs42, ChannelModel(RANDOM_HAMMING, 0, master_seed=3), trials=50)
    assert report.trials == 50
    assert report.counts["gcd"] == {"success": 50, "miscorrect": 0, "failure": 0}


def test_simulate_deterministic(rs42):
    model = ChannelModel(RANDOM_DEGREE, 1, master_seed=99)
    r1 = simulate(rs42, model, trials=80)
    r2 = simulate(rs42, model, trials=80)
    assert r1.render() == r2.render()
    assert sum(r1.counts["gcd"].values()) == r1.trials


def test_simulate_within_guarantee_never_fails(rs42, gf4_mixed):
    for spec, w in ((rs42, 1), (gf4_mixed, 2)):
        model = ChannelModel(RANDOM_DEGREE, w, master_seed=13)
        report = simulate(spec, model, trials=100)
        assert report.counts["gcd"]["success"] == 100


def test_simulate_exhaustive_single_position(rs42):
    model = ChannelModel(FIXED_POSITIONS, (2,), master_seed=1)
    report = simulate(rs42, model, trials=0, exhaustive=True, message_sample=25)
    assert report.trials == 25 * 4  # 25 messages, 4 nonzero values
    assert report.counts["gcd"]["success"] == report.trials
    assert set(report.by_support) == {(2,)}


def test_all_error_values_order_and_count(gf4_mixed):
    support = (0, 3)
    words = list(_all_error_values(gf4_mixed, support))
    q = gf4_mixed.field.q
    assert len(words) == (q ** 1 - 1) * (q ** 2 - 1)
    # the first support position varies slowest
    codes = [(w.symbols[0].to_int(), w.symbols[3].to_int()) for w in words]
    assert codes == [(a, b) for a in range(1, q) for b in range(1, q ** 2)]
    assert all(w.support() == support for w in words)


def test_all_error_values_empty_support(rs42):
    assert list(_all_error_values(rs42, ())) == [rs42.zero_word()]


def test_simulate_exhaustive_cap(gf16):
    moduli = [Poly(gf16, [b, 1]) for b in range(5)]
    spec = CodeSpec(gf16, moduli, 1)
    model = ChannelModel(FIXED_POSITIONS, (0, 1, 2, 3, 4), master_seed=1)
    with pytest.raises(SearchSpaceTooLarge):
        simulate(spec, model, trials=0, exhaustive=True, message_sample=16)


def test_simulate_list_decoder_column(ladder5):
    model = ChannelModel(FIXED_POSITIONS, (4,), master_seed=6)
    report = simulate(ladder5, model, trials=0, exhaustive=True,
                      message_sample=5, decoders=("gcd", "list"))
    assert report.trials == 5 * 31
    assert report.counts["gcd"]["failure"] == report.trials
    assert report.counts["list"]["success"] == report.trials


def test_simulate_single_symbol_error_sweep(ladder5):
    """gcd decoder: 100% on the four light positions, 0% on the degree-5 one;
    the list-extended decoder holds 100% everywhere."""
    for pos in range(ladder5.n):
        model = ChannelModel(FIXED_POSITIONS, (pos,), master_seed=pos)
        report = simulate(ladder5, model, trials=0, exhaustive=True,
                          message_sample=6, decoders=("gcd", "list"))
        assert report.counts["list"]["success"] == report.trials
        if pos < 4:
            assert report.counts["gcd"]["success"] == report.trials
        else:
            assert report.counts["gcd"]["success"] < report.trials
            assert report.counts["gcd"]["failure"] == report.trials


def test_simulate_two_errors_first_three_symbols(gf4_mixed):
    for support in ((0, 1), (0, 2), (1, 2)):
        model = ChannelModel(FIXED_POSITIONS, support, master_seed=3)
        report = simulate(gf4_mixed, model, trials=0, exhaustive=True, message_sample=10)
        assert report.trials == 10 * 9
        assert report.counts["gcd"]["success"] == report.trials


def test_negative_degree_weight_is_infeasible(ladder5):
    model = ChannelModel(RANDOM_DEGREE, -1, master_seed=2)
    with pytest.raises(InfeasibleWeight):
        corrupt(ladder5, ladder5.zero_word(), model)
    with pytest.raises(InfeasibleWeight):
        simulate(ladder5, model, trials=3)


def test_degree_weight_above_n_is_refused_before_the_count_table(rs42, monkeypatch):
    """A degree weight above N is infeasible without building the
    (n+1) x (w+1) count table, which for w = 10^12 would not fit in memory."""
    def no_table(*args):
        raise AssertionError("count table built")
    monkeypatch.setattr("remcode.sim._degree_weight_support", no_table)
    for w in (rs42.N + 1, 10 ** 12):
        model = ChannelModel(RANDOM_DEGREE, w, master_seed=2)
        with pytest.raises(InfeasibleWeight):
            corrupt(rs42, rs42.zero_word(), model)
        with pytest.raises(InfeasibleWeight):
            simulate(rs42, model, trials=3)


@pytest.mark.parametrize("positions", [(-1,), (2, 4), (0, 99)])
def test_exhaustive_positions_out_of_range_are_infeasible(rs42, positions):
    """Exhaustive mode range-checks its positions as `corrupt` does, so -1
    is refused, not read as position n - 1."""
    model = ChannelModel(FIXED_POSITIONS, positions, master_seed=1)
    with pytest.raises(InfeasibleWeight):
        corrupt(rs42, rs42.zero_word(), model)
    with pytest.raises(InfeasibleWeight):
        simulate(rs42, model, trials=0, exhaustive=True, message_sample=2)


def test_simulate_exhaustive_beyond_the_sample_range(rs12_gf256):
    """Past sys.maxsize messages `random.sample(range(q^K))` raises
    OverflowError; the sweep then draws distinct messages one at a time."""
    spec = rs12_gf256
    assert spec.field.q ** spec.K > sys.maxsize
    model = ChannelModel(FIXED_POSITIONS, (3,), master_seed=4)
    report = simulate(spec, model, trials=0, exhaustive=True, message_sample=2)
    assert report.trials == 2 * 255
    assert report.counts["gcd"]["success"] == report.trials
    assert simulate(spec, model, trials=0, exhaustive=True, message_sample=2) == report
    sent = [a for a, _, _ in _trials(spec, model, 0, True, 3)]
    assert len(sent) == 3 * 255 and len(set(sent)) == 3
