"""Completed cycles from power sums, against the series-product formula."""

import math
from fractions import Fraction as F

import pytest

import gwhurwitz.cycles as cycles_module
from gwhurwitz.cli import main
from gwhurwitz.cycles import MAX_CYCLE_INDEX, bernoulli_numbers, completed_cycle, rho
from gwhurwitz.partitions import ClassSum, enumerate_partitions, subpartitions_by_removing_ones
from gwhurwitz.qseries import MultiSeries, s_of, s_series


def series_rho(k, mu):
    """The reference: (prod mu_j / |mu|!) [x^e] S(x)^(|mu|-1) prod_j S(mu_j x),
    e = k+2-|mu|-len(mu), by series products."""
    weight = sum(mu)
    exponent = k + 2 - weight - len(mu)
    if exponent < 0:
        return F(0)
    order = exponent + 1
    series = s_series("x", order) ** (weight - 1)
    scale = F(1, math.factorial(weight))
    for part in mu:
        series = series * s_of(MultiSeries.monomial(("x",), (1,), part, (order,)))
        scale *= part
    return scale * series.coefficient((exponent,))


def series_cycle(k, d):
    return ClassSum(d, {mu: sum(binom * series_rho(k, sub)
                                for sub, binom in subpartitions_by_removing_ones(mu))
                        for mu in enumerate_partitions(d)})


def test_bernoulli_numbers():
    assert bernoulli_numbers(12) == [1, F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42), 0,
                                     F(-1, 30), 0, F(5, 66), 0, F(-691, 2730)]


def test_rho_equals_the_series_formula():
    for d in range(0, 9):
        for mu in enumerate_partitions(d):
            for k in range(0, 15):
                assert rho(k, mu) == series_rho(k, mu), (k, mu)


def test_completed_cycles_equal_the_series_formula():
    for d in range(1, 11):
        for k in range(0, 13):
            assert completed_cycle(k, d).value == series_cycle(k, d), (k, d)


def test_completed_cycle_at_high_k_equals_the_series_formula():
    assert completed_cycle(40, 16).value == series_cycle(40, 16)


def test_the_ceiling_itself_is_accepted():
    assert completed_cycle(MAX_CYCLE_INDEX, 1).value == series_cycle(MAX_CYCLE_INDEX, 1)


@pytest.fixture
def no_enumeration(monkeypatch):
    def refuse(d):
        raise AssertionError(f"partitions of {d} enumerated")

    monkeypatch.setattr(cycles_module, "enumerate_partitions", refuse)


def test_completed_cycle_refuses_above_the_ceiling_before_enumerating(no_enumeration):
    with pytest.raises(ValueError, match=f"MAX_CYCLE_INDEX = {MAX_CYCLE_INDEX}"):
        completed_cycle(MAX_CYCLE_INDEX + 1, 3)
    with pytest.raises(ValueError, match="descendent index must be >= 0"):
        completed_cycle(-1, 3)


@pytest.mark.parametrize("argv", [
    ["cycle", "--d", "20", "--k", str(MAX_CYCLE_INDEX + 1)],
    ["gw", "--target-genus", "1", "--d", "6", "--ks", f"2,{MAX_CYCLE_INDEX + 1}"],
    ["gw", "--target-genus", "1", "--d", "6", "--ks", f"{MAX_CYCLE_INDEX + 1},2"],
])
def test_cli_exits_2_above_the_ceiling_before_enumerating(argv, no_enumeration, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"MAX_CYCLE_INDEX = {MAX_CYCLE_INDEX}" in captured.err
