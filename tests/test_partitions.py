"""Partition enumeration, centralizer orders, class-sum algebra."""

import itertools
import math
from fractions import Fraction as F

import pytest

from gwhurwitz.cycles import ClassSum
from gwhurwitz.partitions import (as_partition, check_partition,
                                  enumerate_partitions, format_partition, parse_partition,
                                  sub_multisets, subpartitions_by_removing_ones, z_factor)


def euler_partition_counts(dmax: int) -> list:
    """p(0..dmax) via the pentagonal-number recurrence: an oracle that shares
    no code with `enumerate_partitions`."""
    p = [0] * (dmax + 1)
    p[0] = 1
    for n in range(1, dmax + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


class TestEnumeration:
    def test_degree_zero(self):
        assert enumerate_partitions(0) == [()]

    def test_degree_four(self):
        assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_degree_ten_count(self):
        assert len(enumerate_partitions(10)) == 42

    def test_counts_match_pentagonal_recurrence(self):
        counts = euler_partition_counts(40)
        for d in range(41):
            assert len(enumerate_partitions(d)) == counts[d]
        # classical spot values of the recurrence itself
        assert counts[30] == 5604
        assert counts[40] == 37338

    def test_reverse_lexicographic_and_unique(self):
        for d in range(9):
            parts = enumerate_partitions(d)
            assert len(set(parts)) == len(parts)
            assert parts == sorted(parts, reverse=True)


class TestZFactor:
    def test_all_ones(self):
        for d in range(1, 7):
            assert z_factor((1,) * d) == math.factorial(d)

    def test_single_part(self):
        for d in range(1, 9):
            assert z_factor((d,)) == d

    def test_definition_arithmetic(self):
        assert z_factor((3, 1, 1)) == 6

    def test_class_equation(self):
        # sum over classes of their sizes d!/z is the group order
        for d in range(1, 11):
            total = sum(F(math.factorial(d), z_factor(mu))
                        for mu in enumerate_partitions(d))
            assert total.denominator == 1
            # and conjugacy-class sizes sum to d! after scaling back
            assert sum(math.factorial(d) // z_factor(mu)
                       for mu in enumerate_partitions(d)) == math.factorial(d)


class TestSubpartitions:
    def test_strip_examples(self):
        assert subpartitions_by_removing_ones((2, 1, 1)) == [
            ((2, 1, 1), 1), ((2, 1), 2), ((2,), 1)]
        assert subpartitions_by_removing_ones((3,)) == [((3,), 1)]
        assert subpartitions_by_removing_ones((1, 1)) == [((1, 1), 1), ((1,), 2), ((), 1)]

    def test_weights_sum_to_power_of_two(self):
        for d in range(1, 9):
            for mu in enumerate_partitions(d):
                weights = sum(w for _sub, w in subpartitions_by_removing_ones(mu))
                assert weights == 2 ** mu.count(1)


class TestSetPartitions:
    # the tests' own reference (conftest.py), which the connected Hodge series
    # and the oracle's orbit joins are checked against
    def test_bell_numbers(self, set_partitions):
        assert [len(set_partitions(n)) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]

    def test_canonical_and_distinct(self, set_partitions):
        got = set_partitions(4)
        assert len(set(got)) == len(got)
        for blocks in got:
            assert blocks == tuple(sorted(blocks))
            assert sorted(x for b in blocks for x in b) == list(range(4))
            assert all(b == tuple(sorted(b)) for b in blocks)


class TestSubMultisets:
    def test_match_brute_force_over_index_subsets(self):
        # each distinct (sub, rest) once, weighted by the index sets that pick it
        for d in range(9):
            for eta in enumerate_partitions(d):
                want = {}
                for r in range(len(eta) + 1):
                    for idx in itertools.combinations(range(len(eta)), r):
                        key = (tuple(eta[i] for i in idx),
                               tuple(p for i, p in enumerate(eta) if i not in idx))
                        want[key] = want.get(key, 0) + 1
                got = sub_multisets(eta)
                assert len(got) == len(want), eta
                assert {(sub, rest): ways for sub, rest, ways in got} == want, eta
                for sub, rest, _ways in got:
                    assert check_partition(sub) == sub and check_partition(rest) == rest


class TestClassSum:
    def test_add(self):
        two = ClassSum.single((2,))
        assert (two + two).coefficient((2,)) == 2

    def test_scale_zero(self):
        assert ClassSum.single((2,)).scale(0).terms == {}

    def test_cancellation(self):
        a = ClassSum.single((2,)) + ClassSum.single((1, 1))
        b = a - ClassSum.single((1, 1))
        assert b == ClassSum.single((2,))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            ClassSum.single((2,)) + ClassSum.single((3,))

    def test_serialization(self):
        s = ClassSum(3, {(2, 1): F(1, 3), (3,): -2})
        assert s.to_dict() == {"(3)": "-2", "(2,1)": "1/3"}


class TestGrammar:
    def test_roundtrip(self):
        for mu in [(), (3,), (3, 1, 1)]:
            assert parse_partition(format_partition(mu)) == mu

    def test_canonicalization(self):
        assert as_partition([1, 3, 1]) == (3, 1, 1)
        with pytest.raises(ValueError):
            as_partition([0, 2])
