import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalquench import combinatorics
from thermalquench.combinatorics import (
    _permutations,
    connected_from_moments,
    eulerian_row_by_enumeration,
    eulerian_row_recursive,
    moments_from_connected,
)


class TestEulerianRows:
    def test_first_rows(self):
        assert eulerian_row_recursive(1).coefficients == (1,)
        assert eulerian_row_recursive(2).coefficients == (1, 1)
        assert eulerian_row_recursive(3).coefficients == (1, 4, 1)
        assert eulerian_row_recursive(4).coefficients == (1, 11, 11, 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cross_oracle(self, n):
        assert eulerian_row_recursive(n).coefficients == eulerian_row_by_enumeration(n).coefficients

    @pytest.mark.parametrize("n", range(1, 17))
    def test_row_sum_and_symmetry(self, n):
        row = eulerian_row_recursive(n)
        assert row.row_sum == math.factorial(n)
        assert row.coefficients == row.coefficients[::-1]
        assert row.coefficients[0] == row.coefficients[-1] == 1

    def test_caps(self):
        with pytest.raises(ValueError):
            eulerian_row_recursive(0)
        with pytest.raises(ValueError):
            eulerian_row_recursive(17)
        with pytest.raises(ValueError):
            eulerian_row_by_enumeration(10)

    def test_explicit_descent_recount(self):
        # independent recount: tally descents over S_5 without the library helpers
        counts = [0] * 5
        for perm in itertools.permutations(range(1, 6)):
            d = sum(perm[i] > perm[i + 1] for i in range(4))
            counts[d] += 1
        assert tuple(counts) == eulerian_row_recursive(5).coefficients

    @pytest.mark.parametrize("n", range(1, 9))
    def test_enumeration_matches_pure_python_count(self, n):
        # the numpy descent count against a plain loop over the same permutations
        counts = [0] * n
        for perm in itertools.permutations(range(n)):
            counts[sum(a > b for a, b in zip(perm, perm[1:]))] += 1
        row = eulerian_row_by_enumeration(n).coefficients
        assert row == tuple(counts)
        assert all(type(c) is int for c in row)


class TestPermutationTable:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_are_all_permutations(self, n):
        # the insertion table against itertools, row for row as a set
        table = _permutations(n)
        assert table.shape == (math.factorial(n), n)
        assert table.dtype == np.int8
        rows = [tuple(r) for r in table.tolist()]
        assert len(set(rows)) == len(rows)
        assert set(rows) == set(itertools.permutations(range(n)))

    def test_largest_table(self):
        table = _permutations(9)
        assert table.shape == (362880, 9)
        assert table.dtype == np.int8
        assert len(np.unique(table, axis=0)) == 362880
        assert np.array_equal(np.sort(table, axis=1), np.broadcast_to(np.arange(9), table.shape))


def list_partitions(items):
    """All partitions of ``items`` into non-empty blocks, as lists of list
    blocks: the first item opens the first block, and each later item joins
    an existing block (in order) or opens a new one.  The definition that
    the recursion of both directions is checked against."""
    if not items:
        return [[]]
    out = []
    for partial in list_partitions(items[1:]):
        for i in range(len(partial)):
            out.append(partial[:i] + [[items[0]] + partial[i]] + partial[i + 1 :])
        out.append([[items[0]]] + partial)
    return out


class TestSetPartitions:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)])
    def test_counts(self, n, count):
        # the Bell numbers
        assert len(list_partitions(tuple(range(1, n + 1)))) == count

    @pytest.mark.parametrize("n", range(1, 8))
    def test_blocks_partition_ground_set(self, n):
        seen = set()
        for partition in list_partitions(tuple(range(1, n + 1))):
            key = frozenset(map(frozenset, partition))  # block order aside
            assert key not in seen
            seen.add(key)
            flat = [x for block in partition for x in block]
            assert all(block for block in partition)
            assert sorted(flat) == list(range(1, n + 1))


def full_moment_table(n, value):
    return {
        frozenset(c): value(c)
        for r in range(1, n + 1)
        for c in itertools.combinations(range(1, n + 1), r)
    }


def wick_moment(subset, pair_table):
    """Sum over perfect matchings: the quasi-free oracle."""
    if len(subset) % 2 == 1:
        return 0.0
    if not subset:
        return 1.0
    a, rest = subset[0], subset[1:]
    total = 0.0
    for i, b in enumerate(rest):
        total += pair_table[frozenset((a, b))] * wick_moment(rest[:i] + rest[i + 1 :], pair_table)
    return total


class TestConnectedFunctions:
    def test_second_order_by_hand(self):
        moments = {
            frozenset({1}): 2.0 + 0j,
            frozenset({2}): 3.0 + 0j,
            frozenset({1, 2}): 10.0 + 0j,
        }
        connected = connected_from_moments(moments)
        assert connected[frozenset({1})] == 2.0
        assert connected[frozenset({2})] == 3.0
        # the only non-singleton partition of {1,2} is {1}{2}
        assert connected[frozenset({1, 2})] == 10.0 - 2.0 * 3.0

    def test_all_zero(self):
        moments = full_moment_table(4, lambda c: 0j)
        assert all(v == 0 for v in connected_from_moments(moments).values())

    def test_incomplete_rejected(self):
        moments = full_moment_table(3, lambda c: 1.0 + 0j)
        del moments[frozenset({1, 3})]
        with pytest.raises(ValueError):
            connected_from_moments(moments)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            connected_from_moments({})

    @pytest.mark.parametrize("direction", [connected_from_moments, moments_from_connected])
    @pytest.mark.parametrize(
        "table, message",
        [
            ({}, "non-empty subsets"),
            ({frozenset(): 1}, "non-empty subsets"),
            ({frozenset({2}): 1.0, frozenset({1, 2}): 3.0}, r"missing subsets \[\(1,\)\]"),
            (
                {frozenset(c): 1.0 for c in [(1,), (3,), (1, 2), (2, 3), (1, 2, 3)]},
                r"missing subsets \[\(2,\), \(1, 3\)\]$",
            ),
        ],
        ids=["empty", "empty-subset", "incomplete", "incomplete-by-size"],
    )
    def test_both_directions_refuse_the_same_tables(self, direction, table, message):
        with pytest.raises(ValueError, match=message):
            direction(table)

    @given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_exact(self, n, rnd):
        # integer-valued tables keep every intermediate float exact
        moments = full_moment_table(
            n, lambda c: complex(rnd.randint(-5, 5), rnd.randint(-5, 5))
        )
        back = moments_from_connected(connected_from_moments(moments))
        assert back == moments

    def test_ten_slot_table_keeps_no_module_state(self):
        # 1023 subsets, ~3^10 / 2 products a direction and no partition
        # list: the round trip is exact and leaves no table behind
        rnd = random.Random(10)
        table = full_moment_table(10, lambda c: complex(rnd.randint(-3, 3), rnd.randint(-3, 3)))
        assert moments_from_connected(connected_from_moments(table)) == table
        state = [name for name, value in vars(combinatorics).items()
                 if isinstance(value, (dict, list, set)) and not name.startswith("__")]
        assert state == []

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_quasi_free_tables_have_no_high_cumulants(self, n):
        rnd = random.Random(1234 + n)
        ground = tuple(range(1, n + 1))
        pair_table = {
            frozenset((i, j)): complex(rnd.gauss(0, 1), rnd.gauss(0, 1))
            for i, j in itertools.combinations(ground, 2)
        }
        moments = {
            frozenset(c): wick_moment(c, pair_table)
            for r in range(1, n + 1)
            for c in itertools.combinations(ground, r)
        }
        connected = connected_from_moments(moments)
        for subset, value in connected.items():
            if len(subset) > 2:
                assert abs(value) <= 1e-12
            elif len(subset) == 2:
                assert value == pair_table[subset]


def partition_sums(table, items, weight):
    """For every non-empty subset S of ``items``: the sum over the partitions
    P of S of weight(len(P)) times the product of ``table`` over the blocks
    of P, and the same sum of absolute values, the scale of its rounding."""
    sums, scales = {}, {}
    for r in range(1, len(items) + 1):
        for combo in itertools.combinations(items, r):
            total, scale = 0, 0.0
            for partition in list_partitions(combo):
                term = weight(len(partition))
                for block in partition:
                    term *= table[frozenset(block)]
                total += term
                scale += abs(term)
            sums[frozenset(combo)], scales[frozenset(combo)] = total, scale
    return sums, scales


# the definition, moments[S] = sum over P of prod connected[B], and its
# Moebius inversion, connected[S] = sum over P of
# (-1)^(|P|-1) (|P|-1)! prod moments[B]
DIRECTIONS = [
    pytest.param(connected_from_moments, lambda p: (-1) ** (p - 1) * math.factorial(p - 1),
                 id="connected"),
    pytest.param(moments_from_connected, lambda p: 1, id="moments"),
]


class TestAgainstPartitionSums:
    @pytest.mark.parametrize("direction, weight", DIRECTIONS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_on_gaussian_integers(self, direction, weight, n):
        rnd = random.Random(100 + n)
        table = full_moment_table(n, lambda c: complex(rnd.randint(-5, 5), rnd.randint(-5, 5)))
        assert direction(table) == partition_sums(table, tuple(range(1, n + 1)), weight)[0]

    @pytest.mark.parametrize("direction, weight", DIRECTIONS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_float_tables_to_rounding(self, direction, weight, n):
        rnd = random.Random(200 + n)
        table = full_moment_table(n, lambda c: complex(rnd.gauss(0, 1), rnd.gauss(0, 1)))
        got = direction(table)
        ref, scale = partition_sums(table, tuple(range(1, n + 1)), weight)
        assert got.keys() == ref.keys()
        for subset in ref:
            assert abs(got[subset] - ref[subset]) <= 1e-14 * scale[subset], sorted(subset)

    @pytest.mark.parametrize("direction", [connected_from_moments, moments_from_connected])
    def test_ground_set_is_sorted_not_hashed(self, direction):
        # the same table on letters inserted in reverse order, and on 1..5
        rnd = random.Random(5)
        table = full_moment_table(5, lambda c: complex(rnd.gauss(0, 1), rnd.gauss(0, 1)))
        letter = dict(zip(range(1, 6), "abcde"))
        lettered = {frozenset(map(letter.get, s)): v for s, v in reversed(table.items())}
        got = direction(lettered)
        assert {s: got[frozenset(map(letter.get, s))] for s in table} == direction(table)

    @pytest.mark.parametrize("direction", [connected_from_moments, moments_from_connected])
    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("kind", ["real", "gaussian-integer"])
    def test_array_tables_match_scalar_calls(self, direction, n, kind):
        # elementwise equal: real float products and sums round as Python's
        # do, and Gaussian-integer ones are exact (numpy's complex product
        # may round otherwise than Python's)
        rng = np.random.default_rng(n)
        if kind == "real":
            draw, scalar = lambda: rng.standard_normal(4), float
        else:
            draw, scalar = lambda: rng.integers(-5, 6, 4) + 1j * rng.integers(-5, 6, 4), complex
        table = full_moment_table(n, lambda c: draw())
        before = {s: v.copy() for s, v in table.items()}
        got = direction(table)
        for j in range(4):
            ref = direction({s: scalar(v[j]) for s, v in table.items()})
            assert {s: scalar(v[j]) for s, v in got.items()} == ref
        # the caller's arrays are neither updated nor handed back
        assert all(np.array_equal(table[s], before[s]) for s in table)
        assert not any(np.shares_memory(got[s], table[s]) for s in table)
