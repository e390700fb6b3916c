"""Eulerian rows, set partitions and cumulant inversion.

Everything here is exact integer / exact partition combinatorics.  The
Eulerian row of order n collects the counts of n-permutations by number of
descents; the same integers weight the beta-derivative tower in
:mod:`thermalquench.thermal`, which is why two independent constructions
(the recursion and brute-force enumeration) are both kept and cross-checked.

The moment/cumulant inversion works on subset-keyed tables: a moment is
attached to each non-empty subset of slots, and the connected part of a
subset is obtained by peeling off all coarser partitions.  Re-assembling
moments from connected parts over all set partitions is the inverse map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

DEFAULT_ORDER_CAP = 16
ENUMERATION_CAP = 9


@dataclass(frozen=True)
class EulerianRow:
    """Row n of the Eulerian triangle: coefficients[k-1] counts the
    n-permutations with k-1 descents."""

    n: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.n:
            raise ValueError("row length must equal its order")

    @property
    def row_sum(self) -> int:
        return sum(self.coefficients)


@lru_cache(maxsize=None)
def _eulerian_coefficients(n: int) -> tuple[int, ...]:
    if n == 1:
        return (1,)
    prev = _eulerian_coefficients(n - 1)
    row = [1] * n
    for k in range(2, n):
        # c[n,k] = k*c[n-1,k] + (n+1-k)*c[n-1,k-1], 1-based k
        row[k - 1] = k * prev[k - 1] + (n + 1 - k) * prev[k - 2]
    return tuple(row)


def eulerian_row_recursive(n: int) -> EulerianRow:
    """Eulerian row by the two-term recursion, exact integers."""
    if not 1 <= n <= DEFAULT_ORDER_CAP:
        raise ValueError(f"order must satisfy 1 <= n <= {DEFAULT_ORDER_CAP}, got {n}")
    return EulerianRow(n, _eulerian_coefficients(n))


def _permutations(n: int) -> np.ndarray:
    """All n! permutations of 0..n-1 as an (n!, n) int8 table, built by
    insertion.

    Starting from the one empty permutation, v = 0..n-1 is written into each
    of the v + 1 slots of every permutation of 0..v-1.  The table is stored
    column-major (the transpose of an (n, n!) array), so each column, and so
    each adjacent-column comparison, is one contiguous run.
    """
    cols = np.zeros((0, 1), np.int8)  # (position, permutation)
    for v in range(n):
        out = np.empty((v + 1, v + 1, cols.shape[1]), np.int8)  # (position, slot, permutation)
        for slot in range(v + 1):
            out[:slot, slot] = cols[:slot]
            out[slot, slot] = v
            out[slot + 1 :, slot] = cols[slot:]
        cols = out.reshape(v + 1, -1)
    return cols.T


def eulerian_row_by_enumeration(n: int) -> EulerianRow:
    """Eulerian row by counting descents over all n! permutations.

    The permutations come from the insertion table of :func:`_permutations`;
    the descents are counted afterwards on that explicit table, by comparing
    adjacent columns.  Counting them while inserting would be the
    recursion's own proof (a new maximum keeps the descent count when it
    lands inside a descent or at the end, and adds one anywhere else), so
    the count stays independent of the recursion.  Row order does not
    matter, since the tally is order-free.  Capped at n <= 9 since the
    enumeration is factorial.
    """
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(
            f"enumeration is capped at n <= {ENUMERATION_CAP}, got {n}"
        )
    perms = _permutations(n)
    descents = (perms[:, :-1] > perms[:, 1:]).sum(axis=1)
    return EulerianRow(n, tuple(np.bincount(descents, minlength=n).tolist()))


# the enumerations of at most _KEPT_ITEMS items, kept for the process's life:
# criterion 10's largest ground set has six (203 partitions), while ten
# items would keep ~42 MB after the caller dropped them
_KEPT_ITEMS = 6
_PARTITIONS: dict[tuple, tuple] = {}


def _partitions_of(items: tuple) -> tuple[tuple[frozenset, ...], ...]:
    """All partitions of ``items`` into non-empty blocks, as tuples of
    frozensets, built from those of ``items[1:]``; an enumeration of at
    most ``_KEPT_ITEMS`` items is built once and kept in ``_PARTITIONS``.

    Deterministic order: the first item always opens the first block, and
    each later item is either appended to an existing block (in order) or
    opens a new one.
    """
    kept = _PARTITIONS.get(items)
    if kept is not None:
        return kept
    if not items:
        return ((),)
    head = frozenset(items[:1])
    out = []
    for partial in _partitions_of(items[1:]):
        for i in range(len(partial)):
            out.append(partial[:i] + (head | partial[i],) + partial[i + 1 :])
        out.append((head,) + partial)
    out = tuple(out)
    if len(items) <= _KEPT_ITEMS:
        _PARTITIONS[items] = out
    return out


def _subsets(table: Mapping[frozenset, complex]) -> tuple[list[tuple], dict]:
    """The non-empty subsets of a table's ground set (the union of its keys),
    as sorted tuples by size, and the table keyed by frozensets.  An empty
    table, the empty subset as a key or a missing subset raises ValueError."""
    keys = {frozenset(k) for k in table}
    if not keys or frozenset() in keys:
        raise ValueError("table must be keyed by non-empty subsets")
    ground = sorted(set().union(*keys))
    combos = [c for r in range(1, len(ground) + 1) for c in itertools.combinations(ground, r)]
    missing = [c for c in combos if frozenset(c) not in keys]
    if missing:
        raise ValueError(f"table incomplete; missing subsets {missing}")
    return combos, {frozenset(k): v for k, v in table.items()}


def _block_sum(combo: tuple, table: Mapping[frozenset, complex], whole: bool = True):
    """Sum over the partitions of ``combo`` (in :func:`_partitions_of`'s order)
    of the product of ``table`` over the blocks, less the one-block partition
    unless ``whole``."""
    total = 0
    for partition in _partitions_of(combo):
        if not whole and len(partition) == 1:
            continue
        prod = 1
        for block in partition:
            prod *= table[block]
        total += prod
    return total


def connected_from_moments(
    moments: Mapping[frozenset, complex],
) -> dict[frozenset, complex]:
    """Connected (cumulant) parts of a subset-keyed moment table.

    ``moments`` must contain every non-empty subset of its ground set (the
    union of all keys).  The empty product has moment 1 by convention and
    the connected part of the identity is 0, so only non-empty subsets
    appear.  The returned table satisfies, for every subset S,

        moments[S] = sum over partitions P of S of
                     prod over blocks B in P of connected[B]
    """
    combos, moments = _subsets(moments)
    connected: dict[frozenset, complex] = {}
    for combo in combos:  # the one-block partition holds the unknown
        subset = frozenset(combo)
        connected[subset] = moments[subset] - _block_sum(combo, connected, whole=False)
    return connected


def moments_from_connected(
    connected: Mapping[frozenset, complex],
) -> dict[frozenset, complex]:
    """Inverse of :func:`connected_from_moments`, on a table as complete:
    re-assemble the moments by summing block products over all partitions."""
    combos, connected = _subsets(connected)
    return {frozenset(combo): _block_sum(combo, connected) for combo in combos}
